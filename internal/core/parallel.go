package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultChunkBytes is the intra-stripe chunk size ParallelCodec splits
// shards into: 64 KiB keeps a chunk's working set (k+m shard sub-ranges plus
// the multiply tables) inside per-core cache while leaving enough work per
// task to amortize dispatch.
const DefaultChunkBytes = 64 << 10

// chunkAlign keeps chunk boundaries on multiples of 16 so every word kernel
// runs its full-speed path on whole chunks.
const chunkAlign = 16

// ParallelCodec encodes and reconstructs batches of stripes concurrently.
// Stripes are independent by construction (groups never span stripes), so
// the batch parallelizes embarrassingly; the codec fans work out to a fixed
// worker pool to bound memory and scheduler pressure. For a single large
// stripe, EncodeStripeChunked additionally splits shards into cache-sized
// byte ranges so one stripe can saturate every core. The zero value is not
// usable; construct with Scheme.NewParallelCodec.
//
// The codec itself is safe for concurrent use: each call spawns its own
// workers and shares no mutable state.
type ParallelCodec struct {
	scheme     *Scheme
	workers    int
	chunkBytes int
}

// NewParallelCodec returns a codec running at most workers stripe
// operations concurrently; workers ≤ 0 selects GOMAXPROCS.
func (s *Scheme) NewParallelCodec(workers int) *ParallelCodec {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ParallelCodec{scheme: s, workers: workers, chunkBytes: DefaultChunkBytes}
}

// Workers returns the concurrency limit.
func (pc *ParallelCodec) Workers() int { return pc.workers }

// SetChunkBytes overrides the intra-stripe chunk size used by
// EncodeStripeChunked. Values ≤ 0 restore the default; other values are
// rounded up to the kernel alignment.
func (pc *ParallelCodec) SetChunkBytes(n int) {
	if n <= 0 {
		pc.chunkBytes = DefaultChunkBytes
		return
	}
	if r := n % chunkAlign; r != 0 {
		n += chunkAlign - r
	}
	pc.chunkBytes = n
}

// ChunkBytes returns the intra-stripe chunk size.
func (pc *ParallelCodec) ChunkBytes() int { return pc.chunkBytes }

// forEach runs fn over [0,n) on the worker pool, collecting the first error.
// After any fn fails, no further indices are dispatched and queued ones are
// skipped — a doomed batch stops burning CPU as soon as possible.
func (pc *ParallelCodec) forEach(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	workers := pc.workers
	if workers > n {
		workers = n
	}
	var (
		wg      sync.WaitGroup
		next    = make(chan int)
		mu      sync.Mutex
		err     error
		aborted atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if aborted.Load() {
					continue // drain without running
				}
				if e := fn(i); e != nil {
					mu.Lock()
					if err == nil {
						err = e
					}
					mu.Unlock()
					aborted.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !aborted.Load(); i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return err
}

// EncodeStripes encodes a batch: stripes[i] is one stripe's data shards
// (DataPerStripe() equally sized slices). The result holds one cell slice
// per stripe, in order.
func (pc *ParallelCodec) EncodeStripes(stripes [][][]byte) ([][][]byte, error) {
	out := make([][][]byte, len(stripes))
	err := pc.forEach(len(stripes), func(i int) error {
		cells, e := pc.scheme.EncodeStripe(stripes[i])
		if e != nil {
			return fmt.Errorf("stripe %d: %w", i, e)
		}
		out[i] = cells
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeStripesInto encodes a batch into caller-provided cell slices,
// drawing parity buffers from bufs: cells[i] receives stripe i. The
// zero-allocation batch encode. Buffers is safe for concurrent use, so all
// workers share it.
func (pc *ParallelCodec) EncodeStripesInto(bufs *Buffers, cells [][][]byte, stripes [][][]byte) error {
	if len(cells) != len(stripes) {
		return fmt.Errorf("%w: got %d cell slices for %d stripes", ErrBadRequest, len(cells), len(stripes))
	}
	return pc.forEach(len(stripes), func(i int) error {
		if e := pc.scheme.EncodeStripeInto(bufs, cells[i], stripes[i]); e != nil {
			return fmt.Errorf("stripe %d: %w", i, e)
		}
		return nil
	})
}

// ReconstructStripes rebuilds the nil cells of every stripe in the batch in
// place.
func (pc *ParallelCodec) ReconstructStripes(stripes [][][]byte) error {
	return pc.forEach(len(stripes), func(i int) error {
		if e := pc.scheme.ReconstructStripe(stripes[i]); e != nil {
			return fmt.Errorf("stripe %d: %w", i, e)
		}
		return nil
	})
}

// ReconstructStripesInto rebuilds the nil cells of every stripe in place,
// drawing decode buffers from bufs — the zero-allocation batch repair.
func (pc *ParallelCodec) ReconstructStripesInto(bufs *Buffers, stripes [][][]byte) error {
	return pc.forEach(len(stripes), func(i int) error {
		if e := pc.scheme.ReconstructStripeInto(bufs, stripes[i]); e != nil {
			return fmt.Errorf("stripe %d: %w", i, e)
		}
		return nil
	})
}

// EncodeStripeChunked encodes ONE stripe across all workers by splitting
// every shard into cache-sized byte ranges (see SetChunkBytes), so a single
// large stripe saturates cores instead of pinning one. cells and data follow
// the EncodeStripeInto contract.
//
// Byte-range splitting requires a positional code (parity byte b depends
// only on data bytes b — true for the generator-matrix codes, false for
// CRS's packet layout); for non-positional codes the work is split across
// groups only, which is always safe.
func (pc *ParallelCodec) EncodeStripeChunked(bufs *Buffers, cells [][]byte, data [][]byte) error {
	s := pc.scheme
	dps := s.DataPerStripe()
	if len(data) != dps {
		return fmt.Errorf("%w: got %d data shards, want %d", ErrBadRequest, len(data), dps)
	}
	if len(cells) != s.CellsPerStripe() {
		return fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	if dps == 0 {
		return nil
	}
	size := len(data[0])
	for e, d := range data {
		if len(d) != size {
			return fmt.Errorf("%w: data shard %d has %d bytes, want %d", ErrBadRequest, e, len(d), size)
		}
		cells[s.cellIndex(s.lay.DataPos(e))] = d
	}
	k, n := s.code.K(), s.code.N()
	groups := s.lay.Groups()
	for g := 0; g < groups; g++ {
		for t := k; t < n; t++ {
			idx := s.cellIndex(s.lay.GroupCell(g, t))
			if len(cells[idx]) != size {
				cells[idx] = bufs.GetShard(size)
			}
		}
	}
	chunks := 1
	if s.positional && size > pc.chunkBytes {
		chunks = (size + pc.chunkBytes - 1) / pc.chunkBytes
	}
	return pc.forEach(groups*chunks, func(task int) error {
		g, c := task/chunks, task%chunks
		lo := c * pc.chunkBytes
		hi := lo + pc.chunkBytes
		if chunks == 1 {
			lo, hi = 0, size
		} else if hi > size {
			hi = size
		}
		if err := s.encodeGroupRange(cells, g, lo, hi); err != nil {
			return fmt.Errorf("group %d chunk %d: %w", g, c, err)
		}
		return nil
	})
}
