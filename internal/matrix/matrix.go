// Package matrix implements dense linear algebra over GF(2^8).
//
// It provides the machinery the erasure codes are built from: matrix
// products, Gaussian elimination (inversion, rank, general linear solves),
// and the classic Vandermonde and Cauchy constructions used to build
// systematic MDS generator matrices.
//
// A Matrix is a rows×cols table of field elements stored row-major. The
// zero Matrix is empty; use New or one of the constructors.
package matrix

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/gf"
)

// ErrSingular is returned when an operation requires an invertible matrix
// and the input is rank-deficient.
var ErrSingular = errors.New("matrix: singular")

// ErrUnsolvable is returned by SpanSolve when a requested target row is not
// in the row span of the available rows, i.e. the corresponding element is
// information-theoretically unrecoverable.
var ErrUnsolvable = errors.New("matrix: target not in row span")

// Matrix is a dense rows×cols matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte // row-major, len rows*cols
}

// New returns a zero-valued rows×cols matrix. It panics if either dimension
// is negative or the product overflows.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %d×%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// FromRows builds a matrix from a slice of equally sized rows, copying the
// contents. It panics if rows are ragged.
func FromRows(rows [][]byte) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("matrix: ragged row %d: %d != %d", i, len(r), m.cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows×cols Vandermonde matrix V[i][j] = g(i)^j
// where g(i) enumerates distinct nonzero field points (the generator powers
// would collide for rows >= 255, so i itself is used as the evaluation
// point, starting at 0: V[i][j] = i^j with 0^0 = 1).
//
// Any k rows of a Vandermonde matrix with distinct evaluation points are
// linearly independent when cols = k, which is the MDS property RS needs.
// rows must be at most 256 so evaluation points stay distinct.
func Vandermonde(rows, cols int) *Matrix {
	if rows > gf.Order {
		panic(fmt.Sprintf("matrix: Vandermonde rows %d exceeds field size", rows))
	}
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, gf.Exp(byte(i), j))
		}
	}
	return m
}

// Cauchy returns the rows×cols Cauchy matrix C[i][j] = 1/(x_i + y_j) with
// x_i = i + cols and y_j = j. Every square submatrix of a Cauchy matrix is
// invertible, so it yields MDS codes directly. rows+cols must be ≤ 256.
func Cauchy(rows, cols int) *Matrix {
	if rows+cols > gf.Order {
		panic(fmt.Sprintf("matrix: Cauchy %d+%d exceeds field size", rows, cols))
	}
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, gf.Inv(byte(i+cols)^byte(j)))
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) byte {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v byte) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a mutable slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []byte {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices have identical shape and contents.
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

// MulVec applies the matrix to a vector of data shards: out[i] is the GF
// linear combination of shards with coefficients from row i. All shards must
// share one length; out must have m.Rows() slices of that length.
func (m *Matrix) MulVec(out, shards [][]byte) {
	if len(shards) != m.cols {
		panic(fmt.Sprintf("matrix: MulVec got %d shards, want %d", len(shards), m.cols))
	}
	if len(out) != m.rows {
		panic(fmt.Sprintf("matrix: MulVec got %d outputs, want %d", len(out), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		gf.DotSlice(out[i], m.Row(i), shards)
	}
}

// Augment returns [m | o] side by side. Row counts must match.
func (m *Matrix) Augment(o *Matrix) *Matrix {
	if m.rows != o.rows {
		panic(fmt.Sprintf("matrix: Augment row mismatch %d != %d", m.rows, o.rows))
	}
	a := New(m.rows, m.cols+o.cols)
	for i := 0; i < m.rows; i++ {
		copy(a.Row(i)[:m.cols], m.Row(i))
		copy(a.Row(i)[m.cols:], o.Row(i))
	}
	return a
}

// Stack returns m on top of o. Column counts must match.
func (m *Matrix) Stack(o *Matrix) *Matrix {
	if m.cols != o.cols {
		panic(fmt.Sprintf("matrix: Stack column mismatch %d != %d", m.cols, o.cols))
	}
	s := New(m.rows+o.rows, m.cols)
	copy(s.data, m.data)
	copy(s.data[m.rows*m.cols:], o.data)
	return s
}

// SubMatrix returns the rectangle [r0,r1)×[c0,c1) as a copy.
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: SubMatrix [%d:%d,%d:%d] out of %d×%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	s := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(s.Row(i-r0), m.Row(i)[c0:c1])
	}
	return s
}

// SelectRows returns a new matrix whose rows are m's rows at the given
// indices, in order. Indices may repeat.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	s := New(len(idx), m.cols)
	for i, r := range idx {
		copy(s.Row(i), m.Row(r))
	}
	return s
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for t := range ri {
		ri[t], rj[t] = rj[t], ri[t]
	}
}

// gaussian reduces m in place to reduced row-echelon form and returns the
// rank. Pivots are searched over every column.
func (m *Matrix) gaussian() int { return m.gaussianCols(m.cols) }

// gaussianCols row-reduces m in place, choosing pivots only from the first
// maxCol columns (later columns still participate in row operations). It
// returns the number of pivots found, i.e. the rank of the left block.
func (m *Matrix) gaussianCols(maxCol int) int {
	rank := 0
	for col := 0; col < maxCol && rank < m.rows; col++ {
		// Find a pivot at or below `rank` in this column.
		pivot := -1
		for r := rank; r < m.rows; r++ {
			if m.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m.SwapRows(rank, pivot)
		// Scale the pivot row so the pivot is 1.
		inv := gf.Inv(m.At(rank, col))
		gf.MulSlice(inv, m.Row(rank), m.Row(rank))
		// Eliminate the column everywhere else.
		for r := 0; r < m.rows; r++ {
			if r != rank && m.At(r, col) != 0 {
				gf.MulAddSlice(m.At(r, col), m.Row(r), m.Row(rank))
			}
		}
		rank++
	}
	return rank
}

// Rank returns the rank of the matrix.
func (m *Matrix) Rank() int {
	return m.Clone().gaussian()
}

// Invert returns the inverse of a square matrix, or ErrSingular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert non-square %d×%d", m.rows, m.cols)
	}
	aug := m.Augment(Identity(m.rows))
	if aug.gaussianCols(m.cols) < m.rows {
		return nil, ErrSingular
	}
	return aug.SubMatrix(0, m.rows, m.cols, 2*m.cols), nil
}

// IsIdentity reports whether m is a square identity matrix.
func (m *Matrix) IsIdentity() bool {
	if m.rows != m.cols {
		return false
	}
	return m.Equal(Identity(m.rows))
}

// SpanSolve expresses each target row as a linear combination of the
// available rows. available is a set of row vectors (each length w);
// targets likewise. The returned coefficient matrix C (len(targets) ×
// len(available)) satisfies targets = C · available.
//
// This is the general erasure decoder: rows are generator-matrix rows of
// surviving elements; targets are the rows of erased elements. A target
// outside the span returns ErrUnsolvable.
func SpanSolve(available, targets *Matrix) (*Matrix, error) {
	if available.cols != targets.cols {
		return nil, fmt.Errorf("matrix: SpanSolve width mismatch %d != %d", available.cols, targets.cols)
	}
	na := available.rows
	// Row-reduce [available | I]; the right block tracks the combination
	// of original available rows that produced each reduced row.
	work := available.Augment(Identity(na))
	rank := 0
	pivotCol := make([]int, 0, na) // pivot column for each reduced row
	for col := 0; col < available.cols && rank < na; col++ {
		pivot := -1
		for r := rank; r < na; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work.SwapRows(rank, pivot)
		inv := gf.Inv(work.At(rank, col))
		gf.MulSlice(inv, work.Row(rank), work.Row(rank))
		for r := 0; r < na; r++ {
			if r != rank && work.At(r, col) != 0 {
				gf.MulAddSlice(work.At(r, col), work.Row(r), work.Row(rank))
			}
		}
		pivotCol = append(pivotCol, col)
		rank++
	}

	w := available.cols
	coeff := New(targets.rows, na)
	resid := make([]byte, w)
	comb := make([]byte, na)
	for t := 0; t < targets.rows; t++ {
		copy(resid, targets.Row(t))
		for i := range comb {
			comb[i] = 0
		}
		for r := 0; r < rank; r++ {
			c := resid[pivotCol[r]]
			if c == 0 {
				continue
			}
			// Subtract c × reduced-row r; accumulate the same combination
			// of original rows.
			gf.MulAddSlice(c, resid, work.Row(r)[:w])
			gf.MulAddSlice(c, comb, work.Row(r)[w:])
		}
		for _, v := range resid {
			if v != 0 {
				return nil, ErrUnsolvable
			}
		}
		copy(coeff.Row(t), comb)
	}
	return coeff, nil
}

// String renders the matrix for debugging, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d×%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%02x", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
