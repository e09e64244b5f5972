// Package bitmatrix implements dense matrices over GF(2) with rows packed
// into 64-bit words. The XOR array codes (internal/xorcode) decode with its
// rank and SolveVec; the rest of the algebra (product, inverse, packet
// multiply, weights) is the matrix arithmetic those operations are checked
// against in the package's tests.
//
// The packing makes row operations (the inner loop of Gaussian elimination)
// word-parallel.
package bitmatrix

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/gf"
)

// ErrSingular is returned when inversion meets a rank-deficient matrix.
var ErrSingular = errors.New("bitmatrix: singular")

// Matrix is a rows×cols matrix over GF(2), each row packed LSB-first into
// ⌈cols/64⌉ words.
type Matrix struct {
	rows, cols int
	words      int // words per row
	data       []uint64
}

// New returns the zero rows×cols bit matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitmatrix: invalid dimensions %d×%d", rows, cols))
	}
	w := (cols + 63) / 64
	return &Matrix{rows: rows, cols: cols, words: w, data: make([]uint64, rows*w)}
}

// Identity returns the n×n identity bit matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, true)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("bitmatrix: index (%d,%d) out of %d×%d", i, j, m.rows, m.cols))
	}
}

// At returns the bit at row i, column j.
func (m *Matrix) At(i, j int) bool {
	m.check(i, j)
	return m.data[i*m.words+j/64]>>(uint(j)%64)&1 == 1
}

// Set assigns the bit at row i, column j.
func (m *Matrix) Set(i, j int, v bool) {
	m.check(i, j)
	w := &m.data[i*m.words+j/64]
	mask := uint64(1) << (uint(j) % 64)
	if v {
		*w |= mask
	} else {
		*w &^= mask
	}
}

// row returns row i's words.
func (m *Matrix) row(i int) []uint64 {
	return m.data[i*m.words : (i+1)*m.words]
}

// xorRow sets row dst ^= row src.
func (m *Matrix) xorRow(dst, src int) {
	d, s := m.row(dst), m.row(src)
	for w := range d {
		d[w] ^= s[w]
	}
}

// SwapRows exchanges rows i and j.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	a, b := m.row(i), m.row(j)
	for w := range a {
		a[w], b[w] = b[w], a[w]
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices are identical in shape and content.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// RowWeight returns the number of set bits in row i — the XOR count the row
// costs when applied to packets.
func (m *Matrix) RowWeight(i int) int {
	w := 0
	for _, word := range m.row(i) {
		w += bits.OnesCount64(word)
	}
	return w
}

// TotalWeight returns the number of set bits in the whole matrix.
func (m *Matrix) TotalWeight() int {
	w := 0
	for _, word := range m.data {
		w += bits.OnesCount64(word)
	}
	return w
}

// Mul returns the GF(2) product m·o.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("bitmatrix: Mul dimension mismatch %d×%d · %d×%d", m.rows, m.cols, o.rows, o.cols))
	}
	p := New(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		ri := m.row(i)
		pi := p.row(i)
		for t := 0; t < m.cols; t++ {
			if ri[t/64]>>(uint(t)%64)&1 == 1 {
				ot := o.row(t)
				for w := range pi {
					pi[w] ^= ot[w]
				}
			}
		}
	}
	return p
}

// MulVec applies the matrix to packet slices: out[i] = XOR of packets[j] for
// every set bit (i,j). All packets and outputs must share one length; out is
// overwritten.
func (m *Matrix) MulVec(out, packets [][]byte) {
	if len(packets) != m.cols {
		panic(fmt.Sprintf("bitmatrix: MulVec got %d packets, want %d", len(packets), m.cols))
	}
	if len(out) != m.rows {
		panic(fmt.Sprintf("bitmatrix: MulVec got %d outputs, want %d", len(out), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		dst := out[i]
		clear(dst)
		ri := m.row(i)
		for j := 0; j < m.cols; j++ {
			if ri[j/64]>>(uint(j)%64)&1 == 1 {
				src := packets[j]
				if len(src) != len(dst) {
					panic(fmt.Sprintf("bitmatrix: packet %d has %d bytes, want %d", j, len(src), len(dst)))
				}
				gf.AddSlice(dst, src)
			}
		}
	}
}

// Invert returns the inverse, or ErrSingular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("bitmatrix: cannot invert non-square %d×%d", m.rows, m.cols)
	}
	n := m.rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		work.SwapRows(col, pivot)
		inv.SwapRows(col, pivot)
		for r := 0; r < n; r++ {
			if r != col && work.At(r, col) {
				work.xorRow(r, col)
				inv.xorRow(r, col)
			}
		}
	}
	return inv, nil
}

// Rank returns the GF(2) rank.
func (m *Matrix) Rank() int {
	work := m.Clone()
	rank := 0
	for col := 0; col < m.cols && rank < m.rows; col++ {
		pivot := -1
		for r := rank; r < m.rows; r++ {
			if work.At(r, col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work.SwapRows(rank, pivot)
		for r := 0; r < m.rows; r++ {
			if r != rank && work.At(r, col) {
				work.xorRow(r, rank)
			}
		}
		rank++
	}
	return rank
}

// SelectRows returns a new matrix from the given row indices, in order.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	s := New(len(idx), m.cols)
	for i, r := range idx {
		copy(s.row(i), m.row(r))
	}
	return s
}

// SolveVec solves the GF(2) linear system m·x = rhs where the unknowns x
// and the right-hand sides are byte vectors (XOR equations over packets):
// row i of m states that the XOR of the unknown vectors at its set columns
// equals rhs[i]. It requires a unique solution (rank == cols) and returns
// the unknown vectors; ErrSingular otherwise. rhs is consumed as scratch.
func (m *Matrix) SolveVec(rhs [][]byte) ([][]byte, error) {
	if len(rhs) != m.rows {
		panic(fmt.Sprintf("bitmatrix: SolveVec got %d rhs, want %d", len(rhs), m.rows))
	}
	work := m.Clone()
	pivotRow := make([]int, work.cols)
	rank := 0
	for col := 0; col < work.cols; col++ {
		pivot := -1
		for r := rank; r < work.rows; r++ {
			if work.At(r, col) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		work.SwapRows(rank, pivot)
		rhs[rank], rhs[pivot] = rhs[pivot], rhs[rank]
		for r := 0; r < work.rows; r++ {
			if r != rank && work.At(r, col) {
				work.xorRow(r, rank)
				gf.AddSlice(rhs[r], rhs[rank])
			}
		}
		pivotRow[col] = rank
		rank++
	}
	out := make([][]byte, work.cols)
	for col := 0; col < work.cols; col++ {
		out[col] = rhs[pivotRow[col]]
	}
	return out, nil
}

// String renders the matrix as 0/1 characters for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d×%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if m.At(i, j) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
