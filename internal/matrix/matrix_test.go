package matrix

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gf"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	rng.Read(m.data)
	return m
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %d×%d, want 2×3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 0xab)
	if m.At(1, 2) != 0xab {
		t.Fatal("Set/At round trip failed")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("new matrix must be zero")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for name, fn := range map[string]func(){
		"At":        func() { m.At(2, 0) },
		"AtNeg":     func() { m.At(0, -1) },
		"Set":       func() { m.Set(0, 2, 1) },
		"Row":       func() { m.Row(5) },
		"SubMatrix": func() { m.SubMatrix(0, 3, 0, 1) },
		"NewNeg":    func() { New(-1, 2) },
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

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]byte{{1, 2}, {3}})
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatal("empty FromRows must give 0×0")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	if !id.IsIdentity() {
		t.Fatal("Identity(4) is not identity")
	}
	m := FromRows([][]byte{{1, 2}, {3, 4}})
	if m.IsIdentity() {
		t.Fatal("non-identity reported as identity")
	}
	if New(2, 3).IsIdentity() {
		t.Fatal("non-square reported as identity")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMatrix(rng, 5, 5)
	if !m.Mul(Identity(5)).Equal(m) || !Identity(5).Mul(m).Equal(m) {
		t.Fatal("identity is not multiplicative identity")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]byte{{1, 2}, {3, 4}})
	b := FromRows([][]byte{{5, 6}, {7, 8}})
	p := a.Mul(b)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := gf.Mul(a.At(i, 0), b.At(0, j)) ^ gf.Mul(a.At(i, 1), b.At(1, j))
			if p.At(i, j) != want {
				t.Fatalf("p[%d][%d] = %#x, want %#x", i, j, p.At(i, j), want)
			}
		}
	}
}

func TestMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	New(2, 3).Mul(New(2, 2))
}

func TestMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		a := randMatrix(rng, 4, 5)
		b := randMatrix(rng, 5, 3)
		c := randMatrix(rng, 3, 6)
		if !a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c))) {
			t.Fatal("matrix multiply not associative")
		}
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	found := 0
	for trial := 0; trial < 100 && found < 25; trial++ {
		m := randMatrix(rng, 6, 6)
		inv, err := m.Invert()
		if err != nil {
			continue // singular random matrix, rare but possible
		}
		found++
		if !m.Mul(inv).IsIdentity() || !inv.Mul(m).IsIdentity() {
			t.Fatalf("M·M⁻¹ != I for\n%v", m)
		}
	}
	if found == 0 {
		t.Fatal("no invertible random matrices found (suspicious)")
	}
}

func TestInvertSingular(t *testing.T) {
	m := FromRows([][]byte{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}}) // row1 = 2·row0
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if _, err := New(2, 3).Invert(); err == nil {
		t.Fatal("inverting non-square must fail")
	}
}

func TestRank(t *testing.T) {
	if got := Identity(5).Rank(); got != 5 {
		t.Fatalf("rank(I5) = %d, want 5", got)
	}
	if got := New(3, 4).Rank(); got != 0 {
		t.Fatalf("rank(0) = %d, want 0", got)
	}
	m := FromRows([][]byte{{1, 2, 3}, {2, 4, 6}, {1, 0, 0}})
	if got := m.Rank(); got != 2 {
		t.Fatalf("rank = %d, want 2", got)
	}
	// Rank is preserved under invertible row ops: multiply by identity.
	if m.Mul(Identity(3)).Rank() != 2 {
		t.Fatal("rank changed under identity multiply")
	}
}

func TestVandermondeSubmatricesInvertible(t *testing.T) {
	// For a k-column Vandermonde with distinct points, any k rows form an
	// invertible matrix.
	const k, rows = 4, 9
	v := Vandermonde(rows, k)
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			sub := v.SelectRows(idx)
			if _, err := sub.Invert(); err != nil {
				t.Fatalf("Vandermonde rows %v singular", idx)
			}
			return
		}
		for i := start; i < rows; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

func TestVandermondeTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Vandermonde did not panic")
		}
	}()
	Vandermonde(257, 3)
}

func TestCauchyAllSquareSubmatricesInvertible(t *testing.T) {
	const rows, cols = 5, 5
	c := Cauchy(rows, cols)
	// Every square submatrix of a Cauchy matrix is invertible; spot-check
	// all 2×2 submatrices and the full matrix.
	for r0 := 0; r0 < rows; r0++ {
		for r1 := r0 + 1; r1 < rows; r1++ {
			for c0 := 0; c0 < cols; c0++ {
				for c1 := c0 + 1; c1 < cols; c1++ {
					sub := FromRows([][]byte{
						{c.At(r0, c0), c.At(r0, c1)},
						{c.At(r1, c0), c.At(r1, c1)},
					})
					if _, err := sub.Invert(); err != nil {
						t.Fatalf("Cauchy 2×2 (%d,%d)×(%d,%d) singular", r0, r1, c0, c1)
					}
				}
			}
		}
	}
	if _, err := c.Invert(); err != nil {
		t.Fatal("full Cauchy square singular")
	}
}

func TestCauchyTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Cauchy did not panic")
		}
	}()
	Cauchy(200, 100)
}

func TestAugmentStack(t *testing.T) {
	a := FromRows([][]byte{{1, 2}, {3, 4}})
	b := FromRows([][]byte{{5}, {6}})
	aug := a.Augment(b)
	if aug.Rows() != 2 || aug.Cols() != 3 || aug.At(0, 2) != 5 || aug.At(1, 2) != 6 {
		t.Fatalf("Augment wrong: %v", aug)
	}
	c := FromRows([][]byte{{7, 8}})
	st := a.Stack(c)
	if st.Rows() != 3 || st.At(2, 0) != 7 {
		t.Fatalf("Stack wrong: %v", st)
	}
}

func TestSubMatrixSelectRows(t *testing.T) {
	m := FromRows([][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.SubMatrix(1, 3, 0, 2)
	want := FromRows([][]byte{{4, 5}, {7, 8}})
	if !s.Equal(want) {
		t.Fatalf("SubMatrix = %v, want %v", s, want)
	}
	sel := m.SelectRows([]int{2, 0, 2})
	if sel.At(0, 0) != 7 || sel.At(1, 0) != 1 || sel.At(2, 2) != 9 {
		t.Fatalf("SelectRows wrong: %v", sel)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]byte{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMulVec(t *testing.T) {
	// Encode two parity shards from three data shards and verify bytewise.
	g := FromRows([][]byte{{1, 1, 1}, {1, 2, 3}})
	shards := [][]byte{{1, 2}, {3, 4}, {5, 6}}
	out := [][]byte{make([]byte, 2), make([]byte, 2)}
	g.MulVec(out, shards)
	for b := 0; b < 2; b++ {
		want0 := shards[0][b] ^ shards[1][b] ^ shards[2][b]
		want1 := shards[0][b] ^ gf.Mul(2, shards[1][b]) ^ gf.Mul(3, shards[2][b])
		if out[0][b] != want0 || out[1][b] != want1 {
			t.Fatalf("MulVec byte %d wrong", b)
		}
	}
}

func TestMulVecArityPanics(t *testing.T) {
	g := Identity(2)
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec with wrong shard count did not panic")
		}
	}()
	g.MulVec([][]byte{make([]byte, 1)}, [][]byte{make([]byte, 1)})
}

func TestSpanSolveRecoversErasedRows(t *testing.T) {
	// Generator of a (3,2) MDS code: rows are identity + two parity rows.
	g := Identity(3).Stack(Vandermonde(5, 3).SubMatrix(1, 3, 0, 3))
	rng := rand.New(rand.NewSource(10))
	data := randMatrix(rng, 3, 8) // 3 data shards of 8 bytes
	// All five encoded shards.
	enc := g.Mul(data)
	// Erase shards 0 and 3; available are 1, 2, 4.
	avail := []int{1, 2, 4}
	targets := []int{0, 3}
	coeff, err := SpanSolve(g.SelectRows(avail), g.SelectRows(targets))
	if err != nil {
		t.Fatalf("SpanSolve: %v", err)
	}
	rec := coeff.Mul(enc.SelectRows(avail))
	if !rec.Equal(enc.SelectRows(targets)) {
		t.Fatal("SpanSolve coefficients do not reconstruct erased shards")
	}
}

func TestSpanSolveUnsolvable(t *testing.T) {
	avail := FromRows([][]byte{{1, 0, 0}, {0, 1, 0}})
	target := FromRows([][]byte{{0, 0, 1}})
	if _, err := SpanSolve(avail, target); err != ErrUnsolvable {
		t.Fatalf("err = %v, want ErrUnsolvable", err)
	}
}

func TestSpanSolveWidthMismatch(t *testing.T) {
	if _, err := SpanSolve(New(1, 2), New(1, 3)); err == nil {
		t.Fatal("width mismatch must error")
	}
}

func TestSpanSolveTrivial(t *testing.T) {
	// Target equal to an available row: coefficient must be a unit vector.
	avail := FromRows([][]byte{{3, 1, 4}, {1, 5, 9}})
	coeff, err := SpanSolve(avail, FromRows([][]byte{{1, 5, 9}}))
	if err != nil {
		t.Fatal(err)
	}
	if coeff.At(0, 0) != 0 || coeff.At(0, 1) != 1 {
		t.Fatalf("coeff = %v, want [0 1]", coeff)
	}
}

func TestSpanSolveDependentAvailable(t *testing.T) {
	// Available rows contain a duplicate; solving must still work.
	avail := FromRows([][]byte{{1, 2, 3}, {1, 2, 3}, {0, 1, 1}})
	target := FromRows([][]byte{{1, 3, 2}}) // row0 + row2
	coeff, err := SpanSolve(avail, target)
	if err != nil {
		t.Fatal(err)
	}
	if !coeff.Mul(avail).Equal(target) {
		t.Fatal("combination does not reproduce target")
	}
}

func TestPropertyInverseOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		a := randMatrix(rng, 4, 4)
		b := randMatrix(rng, 4, 4)
		ia, err1 := a.Invert()
		ib, err2 := b.Invert()
		if err1 != nil || err2 != nil {
			return true // skip singulars
		}
		iab, err := a.Mul(b).Invert()
		if err != nil {
			return false
		}
		return iab.Equal(ib.Mul(ia))
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStringRenders(t *testing.T) {
	s := FromRows([][]byte{{0xab, 1}}).String()
	if s == "" || len(s) < 5 {
		t.Fatalf("String too short: %q", s)
	}
}

func BenchmarkInvert16(b *testing.B) {
	m := Vandermonde(16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulVecEncode(b *testing.B) {
	g := Cauchy(4, 10)
	shards := make([][]byte, 10)
	for i := range shards {
		shards[i] = make([]byte, 1<<16)
	}
	out := make([][]byte, 4)
	for i := range out {
		out[i] = make([]byte, 1<<16)
	}
	b.SetBytes(10 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MulVec(out, shards)
	}
}

// Mul returns the product m·o, the oracle the algebra tests multiply with.
// It panics on a dimension mismatch.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %d×%d · %d×%d", m.rows, m.cols, o.rows, o.cols))
	}
	p := New(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		mr := m.Row(i)
		pr := p.Row(i)
		for t := 0; t < m.cols; t++ {
			gf.MulAddSlice(mr[t], pr, o.Row(t))
		}
	}
	return p
}
