package rs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/codes"
)

func TestNewValidation(t *testing.T) {
	for _, p := range [][2]int{{0, 1}, {1, 0}, {-1, 3}, {200, 100}} {
		if _, err := New(p[0], p[1]); err == nil {
			t.Errorf("New(%d,%d) succeeded, want error", p[0], p[1])
		}
	}
	if _, err := New(6, 3); err != nil {
		t.Fatalf("New(6,3): %v", err)
	}
}

func TestMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mustRS(0,0) did not panic")
		}
	}()
	mustRS(0, 0)
}

func TestNameAndParams(t *testing.T) {
	c := mustRS(8, 4)
	if c.Name() != "RS(8,4)" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.K() != 8 || c.M() != 4 || c.N() != 12 {
		t.Fatalf("params wrong: k=%d m=%d n=%d", c.K(), c.M(), c.N())
	}
}

func TestMDSPropertyPaperConfigs(t *testing.T) {
	// Table I configurations: fault tolerance must equal m (MDS).
	for _, p := range [][2]int{{6, 3}, {8, 4}, {10, 5}} {
		c := mustRS(p[0], p[1])
		if got := c.FaultTolerance(); got != p[1] {
			t.Errorf("%s tolerance = %d, want %d (not MDS)", c.Name(), got, p[1])
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, p := range [][2]int{{6, 3}, {8, 4}, {10, 5}, {3, 1}, {2, 2}} {
		c := mustRS(p[0], p[1])
		data := make([][]byte, c.K())
		for i := range data {
			data[i] = make([]byte, 97)
			rng.Read(data[i])
		}
		parity, err := encode(c, data)
		if err != nil {
			t.Fatal(err)
		}
		full := append(append([][]byte{}, data...), parity...)
		// Erase m random elements, 50 trials.
		for trial := 0; trial < 50; trial++ {
			shards := make([][]byte, c.N())
			perm := rng.Perm(c.N())
			for i, s := range full {
				shards[i] = append([]byte(nil), s...)
			}
			for _, e := range perm[:c.M()] {
				shards[e] = nil
			}
			if err := reconstruct(c, shards); err != nil {
				t.Fatalf("%s trial %d: %v", c.Name(), trial, err)
			}
			for i := range shards {
				if !bytes.Equal(shards[i], full[i]) {
					t.Fatalf("%s trial %d shard %d mismatch", c.Name(), trial, i)
				}
			}
		}
	}
}

func TestRecoverySetsValid(t *testing.T) {
	c := mustRS(6, 3)
	for idx := 0; idx < c.N(); idx++ {
		sets := c.RecoverySets(idx)
		wantSets := c.N() - c.K() + 1 // data-heavy sets for parity + windows
		if idx < c.K() {
			wantSets = 2 * (c.N() - c.K()) // one per parity + windows
		}
		if len(sets) != wantSets {
			t.Fatalf("element %d: %d sets, want %d", idx, len(sets), wantSets)
		}
		for si, set := range sets {
			if len(set) != c.K() {
				t.Fatalf("element %d set %d has %d reads, want k=%d", idx, si, len(set), c.K())
			}
			seen := map[int]bool{idx: true}
			for _, e := range set {
				if seen[e] {
					t.Fatalf("element %d set %d repeats or includes target: %v", idx, si, set)
				}
				seen[e] = true
			}
			if !c.VerifySet(idx, set) {
				t.Fatalf("element %d set %d does not rebuild target: %v", idx, si, set)
			}
		}
	}
}

func TestRecoverySetsOutOfRangePanics(t *testing.T) {
	c := mustRS(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range did not panic")
		}
	}()
	c.RecoverySets(6)
}

func TestPropertyAnyKSubsetDecodes(t *testing.T) {
	// MDS: any k available elements determine all data. Sample random
	// k-subsets and reconstruct everything else.
	c := mustRS(5, 4)
	rng := rand.New(rand.NewSource(21))
	data := make([][]byte, 5)
	for i := range data {
		data[i] = make([]byte, 16)
		rng.Read(data[i])
	}
	parity, _ := encode(c, data)
	full := append(append([][]byte{}, data...), parity...)

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		perm := r.Perm(c.N())
		shards := make([][]byte, c.N())
		for _, keep := range perm[:c.K()] {
			shards[keep] = append([]byte(nil), full[keep]...)
		}
		if err := reconstruct(c, shards); err != nil {
			return false
		}
		for i := range shards {
			if !bytes.Equal(shards[i], full[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStorageOverhead(t *testing.T) {
	// Storage overhead is n/k; sanity-check the Google config (6,3) = 1.5×.
	c := mustRS(6, 3)
	if got := float64(c.N()) / float64(c.K()); got != 1.5 {
		t.Fatalf("overhead = %v, want 1.5", got)
	}
}

func BenchmarkEncodeRS63(b *testing.B) {
	c := mustRS(6, 3)
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

func BenchmarkReconstructRS63(b *testing.B) {
	c := mustRS(6, 3)
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
		shards[2] = nil
		if err := reconstruct(c, shards); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWideConstructionIsFast builds RS(128,8) under a generous deadline:
// construction audits the claimed tolerance rather than searching every
// erasure pattern, so its cost no longer explodes with the stripe width.
func TestWideConstructionIsFast(t *testing.T) {
	start := time.Now()
	c, err := New(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("New(128,8) took %v", took)
	}
	if c.FaultTolerance() != 8 {
		t.Fatalf("tolerance = %d, want 8", c.FaultTolerance())
	}
}

// mustRS is New for parameters the test knows are valid.
func mustRS(k, m int) *Code {
	c, err := New(k, m)
	if err != nil {
		panic(err)
	}
	return c
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
