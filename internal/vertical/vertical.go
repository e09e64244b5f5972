// Package vertical holds the placement of the vertical erasure codes the
// EC-FRM paper discusses as motivation (§II-B, §III-A): X-Code and WEAVER.
// Vertical codes store parity on every disk, so normal reads naturally
// spread across the whole array — but they cannot combine high fault
// tolerance with low storage overhead, and they constrain the disk count
// (X-Code needs a prime number of disks; WEAVER burns ≥50% capacity).
// EC-FRM exists to get the read behaviour of vertical codes without those
// costs.
//
// The comparison needs only where each code's data sits and what it costs
// in space, so that is all this package keeps: no encoder, no decoder. Both
// codes tolerate any 2 disk failures, as their authors prove (Xu & Bruck
// 1999 for X-Code; Hafner 2005 for WEAVER(n,2,2)).
package vertical

import "fmt"

// CellRef addresses a cell in the (rows × disks) array.
type CellRef struct {
	Row, Disk int
}

// Code is the placement of a vertical array code: a rows × disks array
// whose first data rows hold data on every disk and whose remaining rows
// hold parity.
type Code struct {
	name        string
	rows, disks int
	data        []CellRef // row-major: the order user bytes fill the array
}

func newCode(name string, rows, dataRows, disks int) *Code {
	c := &Code{name: name, rows: rows, disks: disks}
	for r := 0; r < dataRows; r++ {
		for d := 0; d < disks; d++ {
			c.data = append(c.data, CellRef{Row: r, Disk: d})
		}
	}
	return c
}

// NewXCode returns the X-Code placement for a prime number of disks p ≥ 5
// (Xu & Bruck 1999): a p×p array whose first p-2 rows are data; row p-2
// holds slope-1 diagonal parities and row p-1 slope-(-1) anti-diagonal
// parities.
func NewXCode(p int) (*Code, error) {
	if p < 5 || !isPrime(p) {
		return nil, fmt.Errorf("vertical: X-Code needs a prime disk count ≥ 5, got %d", p)
	}
	return newCode(fmt.Sprintf("X-Code(%d)", p), p, p-2, p), nil
}

// NewWeaver returns the WEAVER(n, k=2, t=2) placement (Hafner 2005): n
// disks, each holding one data cell (row 0) and one parity cell (row 1),
// the XOR of the data of disks i-1 and i-2 (mod n) — 50% storage
// efficiency, the fixed-overhead cost the paper holds against vertical
// codes.
func NewWeaver(n int) (*Code, error) {
	if n < 4 {
		return nil, fmt.Errorf("vertical: WEAVER(k=2,t=2) needs ≥ 4 disks, got %d", n)
	}
	return newCode(fmt.Sprintf("WEAVER(%d,2,2)", n), 2, 1, n), nil
}

// Name returns the code's name, e.g. "X-Code(11)".
func (c *Code) Name() string { return c.name }

// Disks returns the number of disks (columns).
func (c *Code) Disks() int { return c.disks }

// DataRefs lists the data cells in row-major order — the order user bytes
// fill the array. Callers must not modify it.
func (c *Code) DataRefs() []CellRef { return c.data }

// StorageOverhead returns total cells / data cells.
func (c *Code) StorageOverhead() float64 {
	return float64(c.rows*c.disks) / float64(len(c.data))
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for i := 2; i*i <= n; i++ {
		if n%i == 0 {
			return false
		}
	}
	return true
}
