package codes

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// testCode builds a small MDS base: identity(k) stacked on Cauchy(m,k).
func testCode(t *testing.T, k, m int) *Base {
	t.Helper()
	b, err := NewBase(matrix.Identity(k).Stack(matrix.Cauchy(m, k)), m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func randShards(rng *rand.Rand, count, size int) [][]byte {
	s := make([][]byte, count)
	for i := range s {
		s[i] = make([]byte, size)
		rng.Read(s[i])
	}
	return s
}

// heapAlloc is the test Allocator: plain make. Zero-sized, so converting it
// to the Allocator interface does not allocate.
type heapAlloc struct{}

func (heapAlloc) GetShard(size int) []byte { return make([]byte, size) }

// encode is EncodeInto writing into freshly allocated parity cells.
func encode(c *Base, data [][]byte) ([][]byte, error) {
	size := 0
	if len(data) > 0 {
		size = len(data[0])
	}
	parity := make([][]byte, c.N()-c.K())
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	return parity, c.EncodeInto(parity, data)
}

// reconstruct rebuilds every nil shard in place through
// ReconstructElementsInto.
func reconstruct(c *Base, shards [][]byte) error {
	var erased []int
	for i, s := range shards {
		if s == nil {
			erased = append(erased, i)
		}
	}
	return c.ReconstructElementsInto(shards, erased, heapAlloc{})
}

func TestNewBaseValidation(t *testing.T) {
	mds := matrix.Identity(2).Stack(matrix.Cauchy(2, 2))
	for name, tc := range map[string]struct {
		gen *matrix.Matrix
		ft  int
	}{
		"nonsystematic": {matrix.Cauchy(4, 2), 0},
		"tooFewRows":    {matrix.New(1, 2), 0},
		"zeroCols":      {matrix.New(3, 0), 0},
		"tooWide":       {matrix.Identity(2).Stack(matrix.New(MaxN-1, 2)), 0},
		"negativeClaim": {mds, -1},
		"claimPastN-K":  {mds, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBase(%s) did not panic", name)
				}
			}()
			NewBase(tc.gen, tc.ft)
		}()
	}
}

func TestEncodeShapes(t *testing.T) {
	b := testCode(t, 3, 2)
	rng := rand.New(rand.NewSource(1))
	parity, err := encode(b, randShards(rng, 3, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != 2 || len(parity[0]) != 64 || len(parity[1]) != 64 {
		t.Fatalf("parity shapes wrong: %d shards", len(parity))
	}
}

func TestEncodeErrors(t *testing.T) {
	b := testCode(t, 3, 2)
	if _, err := encode(b, make([][]byte, 2)); !errors.Is(err, ErrShardSize) {
		t.Fatalf("wrong shard count: err = %v", err)
	}
	if _, err := encode(b, [][]byte{{1}, nil, {3}}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("nil shard: err = %v", err)
	}
	if _, err := encode(b, [][]byte{{1, 2}, {3}, {4, 5}}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ragged shards: err = %v", err)
	}
}

func TestReconstructAllPatterns(t *testing.T) {
	const k, m = 4, 3
	b := testCode(t, k, m)
	if b.FaultTolerance() != m {
		t.Fatalf("MDS base tolerance = %d, want %d", b.FaultTolerance(), m)
	}
	rng := rand.New(rand.NewSource(2))
	data := randShards(rng, k, 37)
	parity, err := encode(b, data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)

	n := k + m
	// Erase every subset of size ≤ m and reconstruct.
	for mask := 0; mask < 1<<n; mask++ {
		cnt := 0
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				cnt++
			}
		}
		if cnt == 0 || cnt > m {
			continue
		}
		shards := make([][]byte, n)
		for i := range shards {
			if mask>>i&1 == 0 {
				shards[i] = append([]byte(nil), full[i]...)
			}
		}
		if err := reconstruct(b, shards); err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], full[i]) {
				t.Fatalf("mask %b: shard %d mismatch", mask, i)
			}
		}
	}
}

func TestReconstructTooManyErasures(t *testing.T) {
	b := testCode(t, 3, 2)
	rng := rand.New(rand.NewSource(3))
	data := randShards(rng, 3, 8)
	parity, _ := encode(b, data)
	shards := [][]byte{nil, nil, nil, parity[0], parity[1]}
	if err := b.ReconstructElementsInto(shards, []int{0, 1, 2}, heapAlloc{}); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestReconstructNoErasures(t *testing.T) {
	b := testCode(t, 3, 2)
	rng := rand.New(rand.NewSource(4))
	data := randShards(rng, 3, 8)
	parity, _ := encode(b, data)
	shards := append(append([][]byte{}, data...), parity...)
	if err := reconstruct(b, shards); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructErrors(t *testing.T) {
	b := testCode(t, 3, 2)
	if err := b.ReconstructElementsInto(make([][]byte, 3), []int{0, 1, 2}, heapAlloc{}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("short slice: err = %v", err)
	}
	if err := b.ReconstructElementsInto(make([][]byte, 5), []int{0, 1, 2, 3, 4}, heapAlloc{}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("all nil: err = %v", err)
	}
	ragged := [][]byte{{1, 2}, {3}, nil, {4, 5}, {6, 7}}
	if err := b.ReconstructElementsInto(ragged, []int{2}, heapAlloc{}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ragged: err = %v", err)
	}
}

func TestCanRecover(t *testing.T) {
	b := testCode(t, 4, 2)
	if !b.CanRecover(nil) {
		t.Fatal("empty erasure must be recoverable")
	}
	if !b.CanRecover([]int{0, 5}) {
		t.Fatal("2 erasures of MDS(4,2) must be recoverable")
	}
	if b.CanRecover([]int{0, 1, 2}) {
		t.Fatal("3 erasures of MDS(4,2) must NOT be recoverable")
	}
	if b.CanRecover([]int{-1}) || b.CanRecover([]int{6}) {
		t.Fatal("out-of-range indices must report unrecoverable")
	}
}

func TestVerifySet(t *testing.T) {
	b := testCode(t, 3, 2)
	if !b.VerifySet(0, []int{1, 2, 3}) {
		t.Fatal("3 survivors must rebuild one element of MDS(3,2)")
	}
	if b.VerifySet(0, []int{1, 2}) {
		t.Fatal("2 survivors cannot rebuild data of MDS(3,2)")
	}
}

func TestFaultToleranceNonMDS(t *testing.T) {
	// A deliberately weak code: the second parity duplicates the first, so
	// erasing both data elements leaves one equation for two unknowns. A
	// claim of 2 must be refused; a claim of 1 holds.
	gen := matrix.Identity(2).Stack(matrix.FromRows([][]byte{{1, 1}, {1, 1}}))
	if _, err := NewBase(gen, 2); err == nil {
		t.Fatal("duplicated-parity generator accepted at claimed tolerance 2")
	}
	b, err := NewBase(gen, 1)
	if err != nil {
		t.Fatalf("duplicated-parity generator refused at claimed tolerance 1: %v", err)
	}
	if b.FaultTolerance() != 1 {
		t.Fatalf("duplicated-parity tolerance = %d, want 1", b.FaultTolerance())
	}
	// {d0, d1} unrecoverable: p0 = p1 = d0+d1 gives one equation.
	if b.CanRecover([]int{0, 1}) {
		t.Fatal("two data erasures must be unrecoverable with duplicate parity")
	}
	// {d0, p0} is fine.
	if !b.CanRecover([]int{0, 2}) {
		t.Fatal("{d0,p0} must be recoverable")
	}
}

func TestReconstructedParityConsistent(t *testing.T) {
	// Reconstructing a parity shard must yield exactly what EncodeInto yields.
	b := testCode(t, 3, 3)
	rng := rand.New(rand.NewSource(5))
	data := randShards(rng, 3, 50)
	parity, _ := encode(b, data)
	shards := append(append([][]byte{}, data...), parity...)
	shards[4] = nil
	if err := reconstruct(b, shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[4], parity[1]) {
		t.Fatal("reconstructed parity differs from encoded parity")
	}
}

func TestReconstructElementsPartialPattern(t *testing.T) {
	// The motivating case: more shards are erased than we need to rebuild,
	// and the full pattern is NOT jointly recoverable — but the single
	// target is. LRC-style: gen row 2 = d0+d1 (local parity of {0,1}),
	// row 5 = d2+d3. Erase d0, d2, d3: {d2,d3} unrecoverable (only one
	// parity covers them... erase its parity too).
	gen := matrix.Identity(4).Stack(matrix.FromRows([][]byte{
		{1, 1, 0, 0},
		{0, 0, 1, 1},
	}))
	b, err := NewBase(gen, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(60))
	data := randShards(rng, 4, 10)
	parity, err := encode(b, data)
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{nil, data[1], nil, nil, parity[0], nil}
	// Full reconstruct must fail: d2,d3 have no surviving equation.
	if err := reconstruct(b, append([][]byte{}, shards...)); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("full reconstruct err = %v, want ErrUnrecoverable", err)
	}
	// Targeted reconstruct of d0 alone succeeds via d1 + p0.
	work := append([][]byte{}, shards...)
	if err := b.ReconstructElementsInto(work, []int{0}, heapAlloc{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(work[0], data[0]) {
		t.Fatal("target d0 rebuilt wrong")
	}
	// Non-target erased shards stay nil.
	if work[2] != nil || work[3] != nil {
		t.Fatal("non-targets were touched")
	}
	// Asking for the impossible target fails.
	if err := b.ReconstructElementsInto(append([][]byte{}, shards...), []int{2}, heapAlloc{}); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("impossible target err = %v", err)
	}
}

func TestReconstructElementsValidation(t *testing.T) {
	b := testCode(t, 3, 2)
	if err := b.ReconstructElementsInto(make([][]byte, 2), []int{0}, heapAlloc{}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("short shards: %v", err)
	}
	if err := b.ReconstructElementsInto(make([][]byte, 5), []int{7}, heapAlloc{}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("bad target: %v", err)
	}
	if err := b.ReconstructElementsInto(make([][]byte, 5), []int{0}, heapAlloc{}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("all nil: %v", err)
	}
	// Present targets are a no-op.
	shards := [][]byte{{1}, {2}, {3}, nil, nil}
	if err := b.ReconstructElementsInto(shards, []int{0}, heapAlloc{}); err != nil {
		t.Fatal(err)
	}
	ragged := [][]byte{{1, 2}, {3}, nil, nil, nil}
	if err := b.ReconstructElementsInto(ragged, []int{2}, heapAlloc{}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ragged: %v", err)
	}
}

func TestDecodeCacheCorrectAndConcurrent(t *testing.T) {
	b := testCode(t, 4, 3)
	rng := rand.New(rand.NewSource(70))
	data := randShards(rng, 4, 40)
	parity, _ := encode(b, data)
	full := append(append([][]byte{}, data...), parity...)
	// Hammer the same erasure pattern from many goroutines (run under
	// -race); results must stay byte-correct.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for trial := 0; trial < 50; trial++ {
				shards := append([][]byte{}, full...)
				shards[1], shards[5] = nil, nil
				if err := reconstruct(b, shards); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(shards[1], full[1]) || !bytes.Equal(shards[5], full[5]) {
					errs <- errors.New("cached decode produced wrong bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Different patterns must not collide in the cache.
	shards := append([][]byte{}, full...)
	shards[0], shards[6] = nil, nil
	if err := reconstruct(b, shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[0], full[0]) || !bytes.Equal(shards[6], full[6]) {
		t.Fatal("second pattern wrong after first was cached")
	}
}
