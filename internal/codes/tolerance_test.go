package codes_test

import (
	"testing"

	"repro/internal/codes"
	"repro/internal/experiment"
	"repro/internal/gf"
	"repro/internal/lrc"
	"repro/internal/matrix"
	"repro/internal/rs"
)

// oracleFaultTolerance is the exhaustive search codes.NewBase ran before
// tolerances were declared: the largest f such that every f-subset of the
// generator's rows is decodable from the rest, found by enumerating every
// pattern. Exponential in n, so it only serves as a test oracle.
func oracleFaultTolerance(gen *matrix.Matrix) int {
	n, k := gen.Rows(), gen.Cols()
	for f := 1; f <= n-k; f++ {
		if !allPatternsRecoverable(gen, f) {
			return f - 1
		}
	}
	return n - k
}

func allPatternsRecoverable(gen *matrix.Matrix, f int) bool {
	n := gen.Rows()
	idx := make([]int, f)
	ok := true
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if !ok {
			return
		}
		if depth == f {
			if !spanRecoverable(gen, idx) {
				ok = false
			}
			return
		}
		for i := start; i <= n-(f-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return ok
}

// spanRecoverable is the definition of a decodable erasure pattern: every
// erased generator row lies in the span of the surviving rows.
func spanRecoverable(gen *matrix.Matrix, erased []int) bool {
	gone := make(map[int]bool, len(erased))
	for _, e := range erased {
		gone[e] = true
	}
	var avail []int
	for i := 0; i < gen.Rows(); i++ {
		if !gone[i] {
			avail = append(avail, i)
		}
	}
	_, err := matrix.SpanSolve(gen.SelectRows(avail), gen.SelectRows(erased))
	return err == nil
}

// bestStrideLRC is the LRC point search as it stood before tolerances were
// declared: try x_j = g^(j·stride+1) for each stride, keep the generator
// with the highest oracle tolerance, and stop at the Azure guarantee m+1.
func bestStrideLRC(k, l, m int) *matrix.Matrix {
	var best *matrix.Matrix
	bestFT := -1
	for _, stride := range []int{1, 2, 3, 5, 7, 11} {
		if (k*stride)%255 == 0 && k > 1 {
			continue
		}
		points := make([]byte, k)
		seen := make(map[byte]bool, k)
		ok := true
		for j := range points {
			points[j] = gf.Generator(j*stride + 1)
			if points[j] == 0 || seen[points[j]] {
				ok = false
				break
			}
			seen[points[j]] = true
		}
		if !ok {
			continue
		}
		n, gs := k+l+m, k/l
		gen := matrix.New(n, k)
		for j := 0; j < k; j++ {
			gen.Set(j, j, 1)
			gen.Set(k+j/gs, j, 1)
			for t := 0; t < m; t++ {
				gen.Set(k+l+t, j, gf.Exp(points[j], t+1))
			}
		}
		if ft := oracleFaultTolerance(gen); ft > bestFT {
			best, bestFT = gen, ft
		}
		if bestFT == m+1 {
			break
		}
	}
	return best
}

type generatorCode interface {
	codes.Code
	Generator() *matrix.Matrix
}

// TestDeclaredToleranceMatchesOracle checks that every claimed tolerance is
// the true one — not merely one the audit let through — for the paper's
// Table I and for every code with n ≤ 20 the rs and lrc tests build,
// and that LRC still picks the point assignment the exhaustive best-stride
// search picked, so its encoded bytes are unchanged.
func TestDeclaredToleranceMatchesOracle(t *testing.T) {
	var cs []generatorCode
	for _, spec := range append(append([]experiment.CodeSpec{}, experiment.RSConfigs...), experiment.LRCConfigs...) {
		c, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c.(generatorCode))
	}
	for _, p := range [][2]int{{6, 3}, {8, 4}, {10, 5}, {3, 1}, {2, 2}, {5, 4}, {4, 2}} {
		cs = append(cs, mustRS(p[0], p[1]))
	}
	for _, p := range [][3]int{{6, 2, 2}, {8, 2, 3}, {10, 2, 4}, {4, 2, 2}, {9, 3, 2}, {12, 3, 3}, {8, 4, 2}, {12, 4, 3}} {
		c := lrc.Must(p[0], p[1], p[2])
		if want := bestStrideLRC(p[0], p[1], p[2]); !c.Generator().Equal(want) {
			t.Errorf("%s: generator differs from the best-stride search's\n%v\nwant\n%v", c.Name(), c.Generator(), want)
		}
		cs = append(cs, c)
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if seen[c.Name()] {
			continue
		}
		seen[c.Name()] = true
		t.Run(c.Name(), func(t *testing.T) {
			if got, want := c.FaultTolerance(), oracleFaultTolerance(c.Generator()); got != want {
				t.Errorf("declared tolerance %d, oracle %d", got, want)
			}
		})
	}
}

// TestCanRecoverMatchesSpanSolve checks Base.CanRecover's reduced rank test
// against the definition on every erasure pattern of small MDS, LRC and
// duplicated-parity codes.
func TestCanRecoverMatchesSpanSolve(t *testing.T) {
	dup := matrix.Identity(3).Stack(matrix.FromRows([][]byte{{1, 1, 0}, {1, 1, 0}, {0, 1, 1}}))
	dupCode, err := codes.NewBase(dup, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []generatorCode{mustRS(6, 3), lrc.Must(6, 2, 2), lrc.Must(8, 4, 2)} {
		checkCanRecover(t, c.Name(), c.Generator(), c)
	}
	checkCanRecover(t, "duplicated-parity", dup, dupCode)
}

func checkCanRecover(t *testing.T, name string, gen *matrix.Matrix, c interface{ CanRecover([]int) bool }) {
	t.Helper()
	n := gen.Rows()
	for mask := 0; mask < 1<<n; mask++ {
		var erased []int
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				erased = append(erased, i)
			}
		}
		if got, want := c.CanRecover(erased), spanRecoverable(gen, erased); got != want {
			t.Fatalf("%s: CanRecover(%v) = %v, want %v", name, erased, got, want)
		}
	}
}

// mustRS is rs.New for parameters the test knows are valid.
func mustRS(k, m int) *rs.Code {
	c, err := rs.New(k, m)
	if err != nil {
		panic(err)
	}
	return c
}
