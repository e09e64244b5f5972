package lrc

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/gf"
)

func TestNewValidation(t *testing.T) {
	for _, p := range [][3]int{{0, 1, 1}, {6, 0, 2}, {6, 2, 0}, {7, 2, 2}, {250, 2, 10}} {
		if _, err := New(p[0], p[1], p[2]); err == nil {
			t.Errorf("New(%d,%d,%d) succeeded, want error", p[0], p[1], p[2])
		}
	}
}

func TestMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Must(7,2,2) did not panic")
		}
	}()
	Must(7, 2, 2)
}

func TestNameAndParams(t *testing.T) {
	c := Must(6, 2, 2)
	if c.Name() != "LRC(6,2,2)" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.K() != 6 || c.l != 2 || c.m != 2 || c.N() != 10 || c.GroupSize() != 3 {
		t.Fatalf("params wrong: %s k=%d l=%d m=%d n=%d gs=%d",
			c.Name(), c.K(), c.l, c.m, c.N(), c.GroupSize())
	}
}

func TestFaultTolerancePaperConfigs(t *testing.T) {
	// Azure LRC guarantees any m+1 concurrent erasures; the paper's Fig. 6
	// walkthrough relies on (6,2,2) recovering arbitrary triple failures.
	for _, p := range [][3]int{{6, 2, 2}, {8, 2, 3}, {10, 2, 4}} {
		c := Must(p[0], p[1], p[2])
		if got, want := c.FaultTolerance(), p[2]+1; got != want {
			t.Errorf("%s tolerance = %d, want %d", c.Name(), got, want)
		}
	}
}

func TestGeneratorStructure(t *testing.T) {
	c := Must(6, 2, 2)
	g := c.Generator()
	// Local parity rows: 1s exactly over their group.
	for j := 0; j < 6; j++ {
		want := byte(0)
		if j < 3 {
			want = 1
		}
		if g.At(6, j) != want {
			t.Fatalf("l0 coefficient for d%d = %d, want %d", j, g.At(6, j), want)
		}
		want = 0
		if j >= 3 {
			want = 1
		}
		if g.At(7, j) != want {
			t.Fatalf("l1 coefficient for d%d = %d, want %d", j, g.At(7, j), want)
		}
	}
	// Global parity rows follow the paper's x^1 / x^2 structure with
	// distinct nonzero points: row m1 is the elementwise square of m0.
	for j := 0; j < 6; j++ {
		x := g.At(8, j)
		if x == 0 {
			t.Fatalf("global coefficient for d%d is zero", j)
		}
		if g.At(9, j) != gf.Mul(x, x) {
			t.Fatalf("m1 coefficient for d%d is not the square of m0's", j)
		}
		for jj := 0; jj < j; jj++ {
			if g.At(8, jj) == x {
				t.Fatalf("coefficient points repeat: d%d and d%d", jj, j)
			}
		}
	}
}

func TestEncodeMatchesPaperEquations(t *testing.T) {
	// Equations (5)-(8): l0 = d0+d1+d2, l1 = d3+d4+d5,
	// m_t = sum x_j^(t+1) d_j.
	c := Must(6, 2, 2)
	rng := rand.New(rand.NewSource(30))
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 13)
		rng.Read(data[i])
	}
	parity, err := encode(c, data)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 13; b++ {
		l0 := data[0][b] ^ data[1][b] ^ data[2][b]
		l1 := data[3][b] ^ data[4][b] ^ data[5][b]
		if parity[0][b] != l0 || parity[1][b] != l1 {
			t.Fatalf("local parity mismatch at byte %d", b)
		}
		var m0, m1 byte
		for j := 0; j < 6; j++ {
			x := c.points[j]
			m0 ^= gf.Mul(x, data[j][b])
			m1 ^= gf.Mul(gf.Mul(x, x), data[j][b])
		}
		if parity[2][b] != m0 || parity[3][b] != m1 {
			t.Fatalf("global parity mismatch at byte %d", b)
		}
	}
}

func TestTripleFailureRecoveryPaperFig6(t *testing.T) {
	// The paper's Fig. 6 case: three whole-group data elements lost
	// (d3,d4,d5 of a group) recovered from l1 + m0 + m1.
	c := Must(6, 2, 2)
	rng := rand.New(rand.NewSource(31))
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 32)
		rng.Read(data[i])
	}
	parity, _ := encode(c, data)
	full := append(append([][]byte{}, data...), parity...)
	shards := make([][]byte, 10)
	for i, s := range full {
		shards[i] = append([]byte(nil), s...)
	}
	shards[3], shards[4], shards[5] = nil, nil, nil
	if err := reconstruct(c, shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], full[i]) {
			t.Fatalf("shard %d mismatch after triple recovery", i)
		}
	}
}

func TestAllTriplePatterns622(t *testing.T) {
	c := Must(6, 2, 2)
	rng := rand.New(rand.NewSource(32))
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 8)
		rng.Read(data[i])
	}
	parity, _ := encode(c, data)
	full := append(append([][]byte{}, data...), parity...)
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			for d := b + 1; d < 10; d++ {
				shards := make([][]byte, 10)
				for i, s := range full {
					shards[i] = append([]byte(nil), s...)
				}
				shards[a], shards[b], shards[d] = nil, nil, nil
				if err := reconstruct(c, shards); err != nil {
					t.Fatalf("pattern {%d,%d,%d}: %v", a, b, d, err)
				}
				for i := range shards {
					if !bytes.Equal(shards[i], full[i]) {
						t.Fatalf("pattern {%d,%d,%d}: shard %d mismatch", a, b, d, i)
					}
				}
			}
		}
	}
}

func TestSomeQuadRecoverable622(t *testing.T) {
	// Azure's "maximally recoverable" property: many (not all) 4-failure
	// patterns decode. {d0, l0, d3, l1} is decodable via globals.
	c := Must(6, 2, 2)
	if !c.CanRecover([]int{0, 6, 3, 7}) {
		t.Fatal("{d0,l0,d3,l1} should be recoverable via global parities")
	}
	// Information-theoretically lost: 4 erasures concentrated so that a
	// local group loses 3 data + only globals could help but one global is
	// also gone: {d0,d1,d2,m0} leaves equations l0, m1 for 3 unknowns... wait
	// l0+m1 is 2 equations, d0,d1,d2 are 3 unknowns -> unrecoverable.
	if c.CanRecover([]int{0, 1, 2, 8}) {
		t.Fatal("{d0,d1,d2,m0} must NOT be recoverable (2 equations, 3 unknowns)")
	}
}

func TestLocalGroup(t *testing.T) {
	c := Must(6, 2, 2)
	wants := []int{0, 0, 0, 1, 1, 1, 0, 1, -1, -1}
	for idx, want := range wants {
		if got := c.LocalGroup(idx); got != want {
			t.Errorf("LocalGroup(%d) = %d, want %d", idx, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LocalGroup out of range did not panic")
		}
	}()
	c.LocalGroup(10)
}

func TestRecoverySetsDataLocalFirst(t *testing.T) {
	c := Must(6, 2, 2)
	sets := c.RecoverySets(4) // d4, group 1
	if len(sets) < 2 {
		t.Fatalf("want local + global alternates, got %d sets", len(sets))
	}
	// First set must be the cheap local one: d3, d5, l1 (3 reads = k/l).
	first := sets[0]
	if len(first) != c.GroupSize() {
		t.Fatalf("local set size = %d, want %d", len(first), c.GroupSize())
	}
	wantMembers := map[int]bool{3: true, 5: true, 7: true}
	for _, e := range first {
		if !wantMembers[e] {
			t.Fatalf("local set contains unexpected element %d: %v", e, first)
		}
	}
	// Each set must verifiably rebuild the target.
	for si, set := range sets {
		if !c.VerifySet(4, set) {
			t.Fatalf("set %d does not rebuild d4: %v", si, set)
		}
	}
	// Later sets are the global alternates and cost more.
	for _, set := range sets[1:] {
		if len(set) <= len(first) {
			t.Fatalf("global alternate not more expensive than local: %v", set)
		}
	}
}

func TestRecoverySetsParities(t *testing.T) {
	c := Must(6, 2, 2)
	// Local parity l0 (index 6): cheapest set is its group's data.
	sets := c.RecoverySets(6)
	if len(sets[0]) != 3 {
		t.Fatalf("l0 set = %v, want 3 group data elements", sets[0])
	}
	for _, e := range sets[0] {
		if e > 2 {
			t.Fatalf("l0 recovery set reads outside group 0: %v", sets[0])
		}
	}
	// Global parity m1 (index 9): needs all data.
	sets = c.RecoverySets(9)
	if len(sets[0]) != 6 {
		t.Fatalf("m1 set = %v, want all 6 data", sets[0])
	}
	for si, set := range append(c.RecoverySets(6), c.RecoverySets(9)...) {
		target := 6
		if si >= len(c.RecoverySets(6)) {
			target = 9
		}
		if !c.VerifySet(target, set) {
			t.Fatalf("parity set %v does not rebuild element %d", set, target)
		}
	}
}

func TestRecoverySetsAllElementsValid(t *testing.T) {
	for _, p := range [][3]int{{6, 2, 2}, {8, 2, 3}, {10, 2, 4}, {4, 2, 2}} {
		c := Must(p[0], p[1], p[2])
		for idx := 0; idx < c.N(); idx++ {
			sets := c.RecoverySets(idx)
			if len(sets) == 0 {
				t.Fatalf("%s element %d has no recovery sets", c.Name(), idx)
			}
			for si, set := range sets {
				for _, e := range set {
					if e == idx {
						t.Fatalf("%s element %d set %d includes target", c.Name(), idx, si)
					}
				}
				if !c.VerifySet(idx, set) {
					t.Fatalf("%s element %d set %d invalid: %v", c.Name(), idx, si, set)
				}
			}
		}
	}
}

func TestRecoverySetsOutOfRangePanics(t *testing.T) {
	c := Must(6, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range did not panic")
		}
	}()
	c.RecoverySets(-1)
}

func TestDegradedReadSavings(t *testing.T) {
	// The LRC selling point: single data-element repair costs k/l reads,
	// versus k for RS. Verify the cheapest set sizes.
	for _, p := range [][3]int{{6, 2, 2}, {8, 2, 3}, {10, 2, 4}} {
		c := Must(p[0], p[1], p[2])
		for d := 0; d < c.K(); d++ {
			if got := len(c.RecoverySets(d)[0]); got != c.GroupSize() {
				t.Errorf("%s: cheapest repair of d%d costs %d, want %d",
					c.Name(), d, got, c.GroupSize())
			}
		}
	}
}

func TestStorageOverhead(t *testing.T) {
	// (6,2,2): 10 elements for 6 data = 1.67x, cheaper than 3-replication
	// and costlier than RS(6,3)'s 1.5x — the Azure tradeoff.
	c := Must(6, 2, 2)
	got := float64(c.N()) / float64(c.K())
	if got < 1.66 || got > 1.67 {
		t.Fatalf("overhead = %v, want ~1.667", got)
	}
}

func BenchmarkEncodeLRC622(b *testing.B) {
	c := Must(6, 2, 2)
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 1<<20)
	}
	b.SetBytes(6 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encode(c, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalRepairLRC622(b *testing.B) {
	c := Must(6, 2, 2)
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 1<<20)
	}
	parity, _ := encode(c, data)
	full := append(append([][]byte{}, data...), parity...)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := append([][]byte{}, full...)
		shards[1] = nil
		if err := reconstruct(c, shards); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuadFailureRecoverableFraction622(t *testing.T) {
	// Azure's LRC paper reports that (6,2,2) decodes about 86% of all
	// 4-failure patterns (the "maximally recoverable" property: every
	// information-theoretically decodable pattern decodes). Count ours.
	c := Must(6, 2, 2)
	total, recoverable := 0, 0
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			for d := b + 1; d < 10; d++ {
				for e := d + 1; e < 10; e++ {
					total++
					if c.CanRecover([]int{a, b, d, e}) {
						recoverable++
					}
				}
			}
		}
	}
	if total != 210 {
		t.Fatalf("C(10,4) = %d?", total)
	}
	frac := float64(recoverable) / float64(total)
	// 86% of 210 ≈ 181 patterns. Accept the exact MR fraction band.
	if frac < 0.85 || frac > 0.87 {
		t.Fatalf("quad-failure recoverable fraction = %.3f (%d/%d), want ≈0.86",
			frac, recoverable, total)
	}
}

func TestMoreLocalGroups(t *testing.T) {
	// l > 2: the m+1 guarantee and local-repair cost must hold as the
	// group count grows (Azure deploys l up to 14 data per group; here the
	// interesting axis is more groups).
	for _, p := range [][3]int{{9, 3, 2}, {12, 3, 3}, {8, 4, 2}, {12, 4, 3}} {
		c := Must(p[0], p[1], p[2])
		if got, want := c.FaultTolerance(), p[2]+1; got != want {
			t.Errorf("%s tolerance = %d, want %d", c.Name(), got, want)
		}
		if c.GroupSize() != p[0]/p[1] {
			t.Errorf("%s group size = %d", c.Name(), c.GroupSize())
		}
		for d := 0; d < c.K(); d += c.GroupSize() {
			if got := len(c.RecoverySets(d)[0]); got != c.GroupSize() {
				t.Errorf("%s: local repair of d%d costs %d, want %d",
					c.Name(), d, got, c.GroupSize())
			}
		}
		// Encode/decode round trip under a full-tolerance erasure.
		rng := rand.New(rand.NewSource(int64(p[0]*100 + p[1]*10 + p[2])))
		data := make([][]byte, c.K())
		for i := range data {
			data[i] = make([]byte, 16)
			rng.Read(data[i])
		}
		parity, err := encode(c, data)
		if err != nil {
			t.Fatal(err)
		}
		full := append(append([][]byte{}, data...), parity...)
		shards := make([][]byte, c.N())
		for i, s := range full {
			shards[i] = append([]byte(nil), s...)
		}
		for _, e := range rng.Perm(c.N())[:c.FaultTolerance()] {
			shards[e] = nil
		}
		if err := reconstruct(c, shards); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], full[i]) {
				t.Fatalf("%s shard %d mismatch", c.Name(), i)
			}
		}
	}
}

// TestWideConstructionIsFast builds LRC(128,4,4) under a generous deadline:
// construction audits the claimed tolerance rather than searching every
// erasure pattern, so its cost no longer explodes with the stripe width.
// Too wide for the audit to enumerate C(136,5) patterns, it claims m, not
// the Azure m+1: four lost data elements of one group whose points sum to
// zero, plus global m2, are undecodable.
func TestWideConstructionIsFast(t *testing.T) {
	start := time.Now()
	c, err := New(128, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("New(128,4,4) took %v", took)
	}
	if c.FaultTolerance() != 4 {
		t.Fatalf("tolerance = %d, want 4", c.FaultTolerance())
	}
}

// TestWideGroupBreaksAzureGuarantee pins why wide LRCs claim only m: in a
// 32-element group some four data points sum to zero, and losing those four
// plus global m2 leaves the local parity and m0, m1, m3 — a singular system
// (its determinant is the points' sum times a Vandermonde factor), so the
// code does not tolerate every m+1 = 5 erasures.
func TestWideGroupBreaksAzureGuarantee(t *testing.T) {
	c := Must(128, 4, 4)
	gs := c.GroupSize()
	index := make(map[byte]int, gs)
	for j := 0; j < gs; j++ {
		index[c.points[j]] = j
	}
	for a := 0; a < gs; a++ {
		for b := a + 1; b < gs; b++ {
			for d := b + 1; d < gs; d++ {
				e, ok := index[c.points[a]^c.points[b]^c.points[d]]
				if !ok || e <= d {
					continue
				}
				pattern := []int{a, b, d, e, c.K() + c.l + 2}
				if c.CanRecover(pattern) {
					t.Fatalf("pattern %v decodable; want the zero-sum group to be singular", pattern)
				}
				return
			}
		}
	}
	t.Fatal("no four points of group 0 sum to zero")
}

// heapAlloc is the test Allocator: plain make.
type heapAlloc struct{}

func (heapAlloc) GetShard(size int) []byte { return make([]byte, size) }

// encode is EncodeInto writing into freshly allocated parity cells.
func encode(c codes.Code, data [][]byte) ([][]byte, error) {
	parity := make([][]byte, c.N()-c.K())
	for i := range parity {
		parity[i] = make([]byte, len(data[0]))
	}
	return parity, c.EncodeInto(parity, data)
}

// reconstruct rebuilds every nil shard in place through
// ReconstructElementsInto.
func reconstruct(c codes.Code, shards [][]byte) error {
	var erased []int
	for i, s := range shards {
		if s == nil {
			erased = append(erased, i)
		}
	}
	return c.ReconstructElementsInto(shards, erased, heapAlloc{})
}
