package bitmatrix

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
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

func TestIdentityAndEqual(t *testing.T) {
	id := Identity(65)
	for i := 0; i < 65; i++ {
		for j := 0; j < 65; j++ {
			if id.At(i, j) != (i == j) {
				t.Fatalf("identity wrong at (%d,%d)", i, j)
			}
		}
	}
	if !id.Equal(id.Clone()) {
		t.Fatal("clone not equal")
	}
	other := id.Clone()
	other.Set(64, 0, true)
	if id.Equal(other) {
		t.Fatal("different matrices report equal")
	}
	if id.Equal(New(65, 64)) {
		t.Fatal("different shapes report equal")
	}
}

func TestWeights(t *testing.T) {
	m := New(2, 100)
	m.Set(0, 5, true)
	m.Set(0, 99, true)
	m.Set(1, 64, true)
	if m.RowWeight(0) != 2 || m.RowWeight(1) != 1 {
		t.Fatalf("row weights %d,%d", m.RowWeight(0), m.RowWeight(1))
	}
	if m.TotalWeight() != 3 {
		t.Fatalf("total weight %d", m.TotalWeight())
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(rng, 10, 70)
	if !Identity(10).Mul(m).Equal(m) {
		t.Fatal("I·M != M")
	}
	if !m.Mul(Identity(70)).Equal(m) {
		t.Fatal("M·I != M")
	}
}

func TestMulAgainstScalarDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 7, 9)
	b := randMatrix(rng, 9, 13)
	p := a.Mul(b)
	for i := 0; i < 7; i++ {
		for j := 0; j < 13; j++ {
			want := false
			for t2 := 0; t2 < 9; t2++ {
				if a.At(i, t2) && b.At(t2, j) {
					want = !want
				}
			}
			if p.At(i, j) != want {
				t.Fatalf("product wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	found := 0
	for trial := 0; trial < 60 && found < 20; trial++ {
		m := randMatrix(rng, 16, 16)
		inv, err := m.Invert()
		if err != nil {
			continue
		}
		found++
		if !m.Mul(inv).Equal(Identity(16)) {
			t.Fatal("M·M⁻¹ != I")
		}
	}
	if found == 0 {
		t.Fatal("no invertible random GF(2) matrices in 60 tries (suspicious)")
	}
}

func TestInvertSingular(t *testing.T) {
	m := New(3, 3)
	m.Set(0, 0, true)
	m.Set(1, 0, true) // rows 0 and 1 identical
	m.Set(2, 2, true)
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if _, err := New(2, 3).Invert(); err == nil {
		t.Fatal("non-square inversion must fail")
	}
}

func TestRank(t *testing.T) {
	if Identity(8).Rank() != 8 {
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

func TestSelectRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randMatrix(rng, 6, 40)
	s := m.SelectRows([]int{5, 0, 5})
	for j := 0; j < 40; j++ {
		if s.At(0, j) != m.At(5, j) || s.At(1, j) != m.At(0, j) || s.At(2, j) != m.At(5, j) {
			t.Fatal("SelectRows content wrong")
		}
	}
}

func TestMulVec(t *testing.T) {
	// out[0] = p0 ^ p2, out[1] = p1.
	m := New(2, 3)
	m.Set(0, 0, true)
	m.Set(0, 2, true)
	m.Set(1, 1, true)
	packets := [][]byte{{1, 2}, {3, 4}, {5, 6}}
	out := [][]byte{make([]byte, 2), make([]byte, 2)}
	m.MulVec(out, packets)
	if out[0][0] != 1^5 || out[0][1] != 2^6 || out[1][0] != 3 || out[1][1] != 4 {
		t.Fatalf("MulVec wrong: %v", out)
	}
}

func TestMulVecPanics(t *testing.T) {
	m := Identity(2)
	for name, fn := range map[string]func(){
		"packets": func() { m.MulVec([][]byte{{1}, {2}}, [][]byte{{1}}) },
		"outputs": func() { m.MulVec([][]byte{{1}}, [][]byte{{1}, {2}}) },
		"ragged":  func() { m.MulVec([][]byte{{1}, {2}}, [][]byte{{1}, {2, 3}}) },
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

func TestPropertyInverseSolvesSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		m := randMatrix(rng, 12, 12)
		inv, err := m.Invert()
		if err != nil {
			return true
		}
		// m · (inv · v) == v for packet vectors v.
		v := make([][]byte, 12)
		for i := range v {
			v[i] = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		}
		mid := make([][]byte, 12)
		outv := make([][]byte, 12)
		for i := range mid {
			mid[i] = make([]byte, 2)
			outv[i] = make([]byte, 2)
		}
		inv.MulVec(mid, v)
		m.MulVec(outv, mid)
		for i := range v {
			if v[i][0] != outv[i][0] || v[i][1] != outv[i][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	m := randMatrix(rng, 24, 48)
	packets := make([][]byte, 48)
	for i := range packets {
		packets[i] = make([]byte, 8192)
	}
	out := make([][]byte, 24)
	for i := range out {
		out[i] = make([]byte, 8192)
	}
	b.SetBytes(48 * 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(out, packets)
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

func TestSolveVecAgainstMulVec(t *testing.T) {
	// Property: for random invertible A and random x, SolveVec(A, A·x) == x.
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 40; trial++ {
		A := randMatrix(rng, 10, 10)
		if _, err := A.Invert(); err != nil {
			continue
		}
		x := make([][]byte, 10)
		for i := range x {
			x[i] = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		}
		rhs := make([][]byte, 10)
		for i := range rhs {
			rhs[i] = make([]byte, 2)
		}
		A.MulVec(rhs, x)
		sol, err := A.SolveVec(rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if x[i][0] != sol[i][0] || x[i][1] != sol[i][1] {
				t.Fatalf("trial %d: solution differs at %d", trial, i)
			}
		}
	}
}
