// Package codes defines the candidate-code abstraction of the EC-FRM paper
// (§IV-A) and a shared generator-matrix engine the concrete codes build on.
//
// A candidate code is a systematic one-row erasure code: a row holds n
// elements, the first k of which are data and the remaining n-k parity.
// Reed-Solomon (k,m) and Azure LRC (k,l,m) are the two candidates the paper
// integrates; both are expressed here through an n×k generator matrix G whose
// first k rows are the identity, so element i of a row equals G.Row(i)·data.
//
// All erasure decoding is done generically: an element is recoverable from a
// surviving set exactly when its generator row lies in the row span of the
// survivors' rows (matrix.SpanSolve). This handles MDS and non-MDS
// candidates (LRC) uniformly, including LRC's beyond-guarantee recoverable
// patterns.
package codes

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/matrix"
)

// ErrUnrecoverable is returned when an erasure pattern cannot be decoded.
var ErrUnrecoverable = errors.New("codes: erasure pattern unrecoverable")

// ErrShardSize is returned when shards passed to EncodeInto or
// ReconstructElementsInto are missing, ragged, or of inconsistent counts.
var ErrShardSize = errors.New("codes: invalid shard sizes")

// Code is a systematic one-row candidate erasure code.
type Code interface {
	// Name identifies the code family and parameters, e.g. "RS(6,3)".
	Name() string
	// N is the total number of elements per row.
	N() int
	// K is the number of data elements per row.
	K() int
	// FaultTolerance is the f such that EVERY f-element erasure pattern is
	// decodable, as the constructor claims it (see NewBase's audit). MDS
	// codes have f = N-K; LRC has f < N-K but recovers many larger patterns
	// too (see CanRecover).
	FaultTolerance() int
	// Generator returns the n×k generator matrix (first k rows identity):
	// element i of a row is Generator().Row(i)·data. Callers must not modify
	// it.
	Generator() *matrix.Matrix
	// CanRecover reports whether the given erased element indices are
	// jointly decodable from the survivors.
	CanRecover(erased []int) bool
	// RecoverySets returns candidate read sets for rebuilding element idx
	// when idx alone is erased, cheapest (fewest reads) first. Every set
	// consists of surviving element indices that suffice to rebuild idx.
	// At least one set is always returned for a valid code.
	RecoverySets(idx int) [][]int
	// EncodeInto computes the n-k parity shards for k equally sized data
	// shards into caller-provided cells — the one encode path.
	EncodeInto(parity, data [][]byte) error
	// ReconstructElementsInto rebuilds the listed target elements of a
	// length-n shard slice in place from its non-nil survivors, drawing
	// output buffers from alloc — the one decode path. It succeeds whenever
	// those targets (not necessarily every erased shard) are decodable, and
	// returns ErrUnrecoverable otherwise.
	ReconstructElementsInto(shards [][]byte, targets []int, alloc Allocator) error
}

// Allocator hands out shard buffers for decode outputs. Implementations must
// return a zeroable buffer of exactly the requested length; they may recycle
// memory (core.Buffers does, via sync.Pool), so callers own the buffer until
// they choose to return it.
type Allocator interface {
	GetShard(size int) []byte
}

// baseScratch holds the index and shard-pointer slices a decode needs,
// recycled through a pool so steady-state reconstruct allocates nothing.
type baseScratch struct {
	availIdx    []int
	targetIdx   []int
	availShards [][]byte
	out         [][]byte
}

var scratchPool = sync.Pool{New: func() any { return new(baseScratch) }}

func getScratch() *baseScratch { return scratchPool.Get().(*baseScratch) }

func putScratch(s *baseScratch) {
	s.availIdx = s.availIdx[:0]
	s.targetIdx = s.targetIdx[:0]
	for i := range s.availShards {
		s.availShards[i] = nil
	}
	s.availShards = s.availShards[:0]
	for i := range s.out {
		s.out[i] = nil
	}
	s.out = s.out[:0]
	scratchPool.Put(s)
}

// MaxN is the widest code Base supports: GF(2^8) has 256 elements, and the
// decode cache keys erasure patterns with MaxN-bit masks.
const MaxN = 256

// maskWords is the number of 64-bit words in one MaxN-bit element mask.
const maskWords = MaxN / 64

// patternKey identifies one decode: the available-element mask followed by
// the target-element mask.
type patternKey [2 * maskWords]uint64

// Budget of the tolerance audit NewBase runs: every pattern is checked when
// there are at most auditExhaustive of them, else auditSamples patterns
// drawn with a fixed seed.
const (
	auditExhaustive = 20000
	auditSamples    = 48
)

// Base implements the generator-matrix-driven parts of Code. Concrete codes
// embed it and supply Name and RecoverySets.
type Base struct {
	gen *matrix.Matrix // n×k, first k rows identity
	// parityMat is gen's parity block (rows k..n), precomputed so the encode
	// hot path never re-slices the generator.
	parityMat *matrix.Matrix
	n         int
	k         int
	ft        int
	// decodeCache memoizes SpanSolve coefficient matrices per erasure
	// pattern — a storage system repairs the same failure pattern for every
	// stripe, so the solve is paid once. Guarded by decodeMu rather than
	// sync.Map: loading an array key through an interface would box it and
	// allocate, which the zero-alloc decode path cannot afford.
	decodeMu    sync.RWMutex
	decodeCache map[patternKey]*matrix.Matrix
}

// NewBase wraps an n×k systematic generator matrix (n ≤ MaxN) whose
// constructor claims that every erasure pattern of up to tolerance elements
// is decodable, and audits the claim. The audit checks every pattern of
// exactly tolerance elements when there are at most 20,000 of them — a
// proof, which covers every Table-I and served configuration — and a
// fixed-seed sample of them otherwise. A claim that fails the audit is
// refused with an error. NewBase panics on a malformed generator or a claim
// outside [0, n-k]: the codes own their constructors, so those are
// programming errors, not input errors.
func NewBase(gen *matrix.Matrix, tolerance int) (*Base, error) {
	n, k := gen.Rows(), gen.Cols()
	if n < k || k < 1 || n > MaxN {
		panic(fmt.Sprintf("codes: invalid generator %d×%d", n, k))
	}
	if !gen.SubMatrix(0, k, 0, k).IsIdentity() {
		panic("codes: generator is not systematic")
	}
	if tolerance < 0 || tolerance > n-k {
		panic(fmt.Sprintf("codes: claimed tolerance %d out of [0,%d]", tolerance, n-k))
	}
	b := &Base{
		gen:         gen,
		parityMat:   gen.SubMatrix(k, n, 0, k),
		n:           n,
		k:           k,
		ft:          tolerance,
		decodeCache: make(map[patternKey]*matrix.Matrix),
	}
	if bad := b.audit(); bad != nil {
		return nil, fmt.Errorf("codes: claimed tolerance %d refused: erasure pattern %v is undecodable", tolerance, bad)
	}
	return b, nil
}

// audit returns an erasure pattern of FaultTolerance() elements that the code
// cannot decode, or nil when none of the checked patterns fails (see NewBase
// for which are checked).
func (b *Base) audit() []int {
	f := b.ft
	if f == 0 {
		return nil
	}
	if !AuditEnumerates(b.n, f) {
		rng := rand.New(rand.NewSource(int64(b.n)<<16 | int64(f)))
		for s := 0; s < auditSamples; s++ {
			if p := rng.Perm(b.n)[:f]; !b.CanRecover(p) {
				return p
			}
		}
		return nil
	}
	idx := make([]int, f)
	for i := range idx {
		idx[i] = i
	}
	for {
		if !b.CanRecover(idx) {
			return idx
		}
		// Step to the next f-subset in lexicographic order.
		i := f - 1
		for i >= 0 && idx[i] == b.n-f+i {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < f; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// AuditEnumerates reports whether NewBase audits a claimed tolerance f of
// an n-element code by checking every erasure pattern — a proof — rather
// than a sample: true when there are at most 20,000 patterns, C(n,f).
func AuditEnumerates(n, f int) bool {
	c := 1 // C(n,i) after step i; stops growing once past the budget
	for i := 0; i < f && c <= auditExhaustive; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c <= auditExhaustive
}

// N returns the total number of elements per row.
func (b *Base) N() int { return b.n }

// K returns the number of data elements per row.
func (b *Base) K() int { return b.k }

// FaultTolerance returns the erasure tolerance the constructor claimed and
// NewBase audited.
func (b *Base) FaultTolerance() int { return b.ft }

// Generator returns the generator matrix. Callers must not modify it.
func (b *Base) Generator() *matrix.Matrix { return b.gen }

// solveCoefficients returns the SpanSolve coefficient matrix expressing the
// target rows in terms of the available rows, memoized per pattern.
func (b *Base) solveCoefficients(avail, targets []int) (*matrix.Matrix, error) {
	var key patternKey
	for _, a := range avail {
		key[a>>6] |= 1 << uint(a&63)
	}
	for _, t := range targets {
		key[maskWords+t>>6] |= 1 << uint(t&63)
	}
	b.decodeMu.RLock()
	coeff, ok := b.decodeCache[key]
	b.decodeMu.RUnlock()
	if ok {
		return coeff, nil
	}
	coeff, err := matrix.SpanSolve(b.gen.SelectRows(avail), b.gen.SelectRows(targets))
	if err != nil {
		return nil, err
	}
	b.decodeMu.Lock()
	b.decodeCache[key] = coeff
	b.decodeMu.Unlock()
	return coeff, nil
}

// EncodeInto computes the parity shards into the caller-provided cells —
// the zero-allocation encode path. parity must hold n-k buffers, each the
// size of a data shard; contents are overwritten.
func (b *Base) EncodeInto(parity, data [][]byte) error {
	size, err := b.checkData(data)
	if err != nil {
		return err
	}
	if len(parity) != b.n-b.k {
		return fmt.Errorf("%w: got %d parity cells, want %d", ErrShardSize, len(parity), b.n-b.k)
	}
	for i, p := range parity {
		if len(p) != size {
			return fmt.Errorf("%w: parity cell %d has %d bytes, want %d", ErrShardSize, i, len(p), size)
		}
	}
	b.parityMat.MulVec(parity, data)
	return nil
}

func (b *Base) checkData(data [][]byte) (int, error) {
	if len(data) != b.k {
		return 0, fmt.Errorf("%w: got %d data shards, want %d", ErrShardSize, len(data), b.k)
	}
	size := -1
	for i, d := range data {
		if d == nil {
			return 0, fmt.Errorf("%w: data shard %d is nil", ErrShardSize, i)
		}
		if size == -1 {
			size = len(d)
		} else if len(d) != size {
			return 0, fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(d), size)
		}
	}
	return size, nil
}

// ReconstructElementsInto rebuilds only the listed target elements from the
// non-nil shards, writing the results — buffers drawn from alloc — into
// shards. It succeeds as long as the *targets* are in the span of the
// survivors, even when other erased elements are unrecoverable — exactly
// the degraded-read situation, where a recovery set was read and nothing
// else. A whole-row repair lists every erased shard as a target.
func (b *Base) ReconstructElementsInto(shards [][]byte, targets []int, alloc Allocator) error {
	if len(shards) != b.n {
		return fmt.Errorf("%w: got %d shards, want %d", ErrShardSize, len(shards), b.n)
	}
	sc := getScratch()
	defer putScratch(sc)
	size := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(s), size)
		}
		sc.availIdx = append(sc.availIdx, i)
	}
	for _, t := range targets {
		if t < 0 || t >= b.n {
			return fmt.Errorf("%w: target %d out of [0,%d)", ErrShardSize, t, b.n)
		}
		if shards[t] == nil {
			sc.targetIdx = append(sc.targetIdx, t)
		}
	}
	missing := sc.targetIdx
	if len(missing) == 0 {
		return nil
	}
	if size == -1 {
		return fmt.Errorf("%w: all shards erased", ErrShardSize)
	}
	coeff, err := b.solveCoefficients(sc.availIdx, missing)
	if err != nil {
		return fmt.Errorf("%w: targets %v", ErrUnrecoverable, missing)
	}
	for _, a := range sc.availIdx {
		sc.availShards = append(sc.availShards, shards[a])
	}
	for range missing {
		sc.out = append(sc.out, alloc.GetShard(size))
	}
	coeff.MulVec(sc.out, sc.availShards)
	for i, t := range missing {
		shards[t] = sc.out[i]
	}
	return nil
}

// CanRecover reports whether the erasure pattern is decodable. Every erased
// row lies in the survivors' span exactly when the survivors have rank k;
// the surviving data rows are identity rows, so that holds exactly when the
// surviving parity rows, restricted to the erased data columns, have full
// column rank — an f-column check instead of a k-column one.
func (b *Base) CanRecover(erased []int) bool {
	mark := make([]bool, b.n)
	for _, e := range erased {
		if e < 0 || e >= b.n {
			return false
		}
		mark[e] = true
	}
	var lost []int
	for j := 0; j < b.k; j++ {
		if mark[j] {
			lost = append(lost, j)
		}
	}
	if len(lost) == 0 {
		return true
	}
	var rows [][]byte
	for p := b.k; p < b.n; p++ {
		if mark[p] {
			continue
		}
		row := make([]byte, len(lost))
		for c, j := range lost {
			row[c] = b.gen.At(p, j)
		}
		rows = append(rows, row)
	}
	return len(rows) >= len(lost) && matrix.FromRows(rows).Rank() == len(lost)
}

// VerifySet reports whether the surviving set `set` suffices to rebuild
// element idx. Used by tests and by planners validating recovery sets.
func (b *Base) VerifySet(idx int, set []int) bool {
	_, err := matrix.SpanSolve(b.gen.SelectRows(set), b.gen.SelectRows([]int{idx}))
	return err == nil
}
