package bitmatrix

import (
	"math/rand"
	"strings"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.Intn(2) == 1)
		}
	}
	return m
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(3, 130) // spans three words
	m.Set(2, 129, true)
	m.Set(0, 0, true)
	m.Set(0, 63, true)
	m.Set(0, 64, true)
	if !m.At(2, 129) || !m.At(0, 0) || !m.At(0, 63) || !m.At(0, 64) {
		t.Fatal("set bits not readable")
	}
	if m.At(1, 64) {
		t.Fatal("unset bit reads true")
	}
	m.Set(0, 63, false)
	if m.At(0, 63) {
		t.Fatal("clear failed")
	}
}

func TestBoundsPanics(t *testing.T) {
	m := New(2, 70)
	for name, fn := range map[string]func(){
		"AtRow":  func() { m.At(2, 0) },
		"AtCol":  func() { m.At(0, 70) },
		"SetNeg": func() { m.Set(-1, 0, true) },
		"NewNeg": func() { New(2, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRank(t *testing.T) {
	id := New(8, 8)
	for i := 0; i < 8; i++ {
		id.Set(i, i, true)
	}
	if id.Rank() != 8 {
		t.Fatal("rank(I8)")
	}
	if New(4, 9).Rank() != 0 {
		t.Fatal("rank(0)")
	}
	m := New(3, 3)
	m.Set(0, 0, true)
	m.Set(0, 1, true)
	m.Set(1, 0, true)
	m.Set(1, 1, true) // row1 == row0
	m.Set(2, 2, true)
	if got := m.Rank(); got != 2 {
		t.Fatalf("rank = %d, want 2", got)
	}
}

func TestAccessorsAndString(t *testing.T) {
	m := New(3, 70)
	if m.Rows() != 3 || m.Cols() != 70 {
		t.Fatalf("shape %d×%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, true)
	s := m.String()
	if !strings.Contains(s, "3×70") || !strings.Contains(s, "001") {
		t.Fatalf("String rendering wrong:\n%s", s)
	}
}

func TestSolveVecKnownSystem(t *testing.T) {
	// x0 ^ x1 = {5}, x1 = {3}  →  x0 = {6}, x1 = {3}.
	A := New(2, 2)
	A.Set(0, 0, true)
	A.Set(0, 1, true)
	A.Set(1, 1, true)
	sol, err := A.SolveVec([][]byte{{5}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if sol[0][0] != 6 || sol[1][0] != 3 {
		t.Fatalf("solution = %v, want [6],[3]", sol)
	}
}

func TestSolveVecOverdetermined(t *testing.T) {
	// Three consistent equations, two unknowns, with a row swap needed:
	// x1 = {7}; x0 ^ x1 = {9}; x0 = {14}.
	A := New(3, 2)
	A.Set(0, 1, true)
	A.Set(1, 0, true)
	A.Set(1, 1, true)
	A.Set(2, 0, true)
	sol, err := A.SolveVec([][]byte{{7}, {9}, {14}})
	if err != nil {
		t.Fatal(err)
	}
	if sol[0][0] != 14 || sol[1][0] != 7 {
		t.Fatalf("solution = %v", sol)
	}
}

func TestSolveVecSingular(t *testing.T) {
	A := New(2, 2) // no equation touches x1
	A.Set(0, 0, true)
	A.Set(1, 0, true)
	if _, err := A.SolveVec([][]byte{{1}, {1}}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveVecArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rhs arity mismatch did not panic")
		}
	}()
	New(2, 1).SolveVec([][]byte{{1}})
}

// mulVec is the product the SolveVec property is checked against, computed
// here from At alone: out[i] = XOR of x[j] over the set bits (i,j).
func mulVec(a *Matrix, x [][]byte) [][]byte {
	out := make([][]byte, a.Rows())
	for i := range out {
		out[i] = make([]byte, len(x[0]))
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) {
				for b := range out[i] {
					out[i][b] ^= x[j][b]
				}
			}
		}
	}
	return out
}

func TestSolveVecAgainstMulVec(t *testing.T) {
	// Property: for random full-rank A and random x, SolveVec(A, A·x) == x.
	rng := rand.New(rand.NewSource(20))
	solved := 0
	for trial := 0; trial < 40; trial++ {
		A := randMatrix(rng, 10, 10)
		if A.Rank() != 10 {
			continue
		}
		x := make([][]byte, 10)
		for i := range x {
			x[i] = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		}
		sol, err := A.SolveVec(mulVec(A, x))
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if x[i][0] != sol[i][0] || x[i][1] != sol[i][1] {
				t.Fatalf("trial %d: solution differs at %d", trial, i)
			}
		}
		solved++
	}
	if solved == 0 {
		t.Fatal("no full-rank random GF(2) matrices in 40 tries (suspicious)")
	}
}
