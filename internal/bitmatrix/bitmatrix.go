// Package bitmatrix implements dense matrices over GF(2) with rows packed
// into 64-bit words: what the XOR array codes (internal/xorcode) decode
// with — Rank, to decide recoverability, and SolveVec, to recover.
//
// The packing makes row operations (the inner loop of Gaussian elimination)
// word-parallel.
package bitmatrix

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/gf"
)

// ErrSingular is returned when SolveVec meets a rank-deficient system.
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
