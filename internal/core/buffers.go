package core

import (
	"sync"

	"repro/internal/codes"
)

// Buffers is a reusable shard arena backed by sync.Pool. The steady-state
// encode/reconstruct/verify paths (EncodeStripeInto, ReconstructStripeInto,
// RebuildCellInto, VerifyStripe) draw every parity and decode-output buffer
// from it, so a long-running server performs zero heap allocations per
// stripe once the pools are warm.
//
// Two pools cooperate: shards holds recycled backing arrays (as *[]byte so
// the slice header itself lives on the heap exactly once), and headers holds
// empty *[]byte containers so PutShard never allocates a header either. A
// buffer whose capacity no longer matches the requested size is dropped on
// the floor for the GC — the pool self-heals when shard sizes change.
//
// The zero value is ready to use, and all methods are safe for concurrent
// use. Buffers returned by GetShard have unspecified contents; every
// consumer in this package fully overwrites them.
type Buffers struct {
	shards  sync.Pool // *[]byte with non-nil backing array
	headers sync.Pool // *[]byte with nil backing array
}

// GetShard returns a buffer of exactly size bytes, reusing pooled memory
// when a large-enough backing array is available.
func (b *Buffers) GetShard(size int) []byte {
	if v := b.shards.Get(); v != nil {
		p := v.(*[]byte)
		s := *p
		*p = nil
		b.headers.Put(p)
		if cap(s) >= size {
			return s[:size]
		}
	}
	return make([]byte, size)
}

// PutShard returns a buffer to the arena for reuse. The caller must not
// touch buf afterwards. Putting a buffer that did not come from GetShard is
// fine; zero-capacity buffers are ignored.
func (b *Buffers) PutShard(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	var p *[]byte
	if v := b.headers.Get(); v != nil {
		p = v.(*[]byte)
	} else {
		p = new([]byte)
	}
	*p = buf[:cap(buf)]
	b.shards.Put(p)
}

// stripeScratch holds the per-call shard-pointer slices the stripe
// operations need, recycled through a pool so the hot paths allocate
// nothing. The slices are sized for the scheme on first use and keep their
// capacity across calls.
type stripeScratch struct {
	group     [][]byte // one code group's cells, length n
	groupData [][]byte // one group's data cells, length k
	parity    [][]byte // one group's parity cells, length n-k
	target    [1]int   // single-element target list for RebuildCellInto
	erased    []int    // one group's erased elements, for ReconstructStripeInto
	data      [][]byte // a stripe's data cells, for VerifyStripe
	cells     [][]byte // a re-encoded stripe, for VerifyStripe
}

var stripeScratchPool = sync.Pool{New: func() any { return new(stripeScratch) }}

func getStripeScratch(n, k int) *stripeScratch {
	sc := stripeScratchPool.Get().(*stripeScratch)
	sc.group = growCells(sc.group, n)
	sc.groupData = growCells(sc.groupData, k)
	sc.parity = growCells(sc.parity, n-k)
	return sc
}

func putStripeScratch(sc *stripeScratch) {
	clearCells(sc.group)
	clearCells(sc.groupData)
	clearCells(sc.parity)
	clearCells(sc.data)
	clearCells(sc.cells)
	stripeScratchPool.Put(sc)
}

// growCells resizes s to length n, reusing capacity when possible.
func growCells(s [][]byte, n int) [][]byte {
	if cap(s) < n {
		return make([][]byte, n)
	}
	return s[:n]
}

// clearCells nils every slot so pooled scratch never pins shard memory.
func clearCells(s [][]byte) {
	for i := range s {
		s[i] = nil
	}
}

var _ codes.Allocator = (*Buffers)(nil)
