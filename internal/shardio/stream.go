package shardio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// streamBufSize is the bufio buffer per disk file, large enough that the OS
// sees sequential megabyte-sized write-behind requests even with small
// elements.
const streamBufSize = 1 << 20

// pipeJob pairs a job value with the channel its worker reports on.
type pipeJob[J any] struct {
	val  J
	done chan error
}

// pipeline fans jobs out to `workers` goroutines while delivering them to
// consume in strict emission order, holding at most workers+1 jobs in
// flight — that bound is the streaming paths' whole memory story.
//
// produce emits jobs through its callback and must stop when the callback
// returns false (a downstream error aborted the run). work runs on a worker
// goroutine and must publish its results by mutating shared state the job
// points at (jobs travel by value); consume runs on the caller's goroutine
// in emission order. The first error from any stage wins.
//
// discard (optional) reclaims a job's pooled resources when its consume
// never runs — the job's own work failed, or an earlier error aborted the
// run. It is never called for a job that reached consume, even if consume
// itself failed: consume owns the job's buffers from its first instruction,
// and a second release would hand the same backing array to the pool twice.
func pipeline[J any](workers int, produce func(emit func(J) bool) error,
	work func(J) error, consume func(J) error, discard func(J)) error {
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan pipeJob[J])
	order := make(chan pipeJob[J], workers)
	var abort atomic.Bool

	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				j.done <- work(j.val)
			}
		}()
	}

	var prodErr error
	go func() {
		prodErr = produce(func(v J) bool {
			if abort.Load() {
				return false
			}
			j := pipeJob[J]{val: v, done: make(chan error, 1)}
			order <- j // reserves the in-flight slot, keeps emission order
			jobs <- j
			return true
		})
		close(jobs)
		close(order)
	}()

	var firstErr error
	for j := range order {
		err := <-j.done
		consumed := false
		if err == nil && firstErr == nil {
			err = consume(j.val)
			consumed = true
		}
		if err != nil && firstErr == nil {
			firstErr = err
			abort.Store(true)
		}
		if !consumed && discard != nil {
			discard(j.val)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return prodErr
}

// stripeJob is one stripe moving through the pipeline. The producer
// allocates the cells header before emitting, so the worker's in-place
// writes are visible to the consumer; payload is the chunk the data cells
// alias into.
type stripeJob struct {
	st      int
	payload []byte
	cells   [][]byte
}

// EncodeStream encodes r into dir as a shard directory, one stripe at a
// time: a bounded pool of workers runs the zero-allocation EncodeStripeInto
// over recycled buffers while the finished cells stream to buffered per-disk
// writers in stripe order, with peak memory O(workers × stripe) regardless
// of payload size. A short final chunk is zero-padded to a full stripe, and
// an empty payload is one zero stripe.
func EncodeStream(scheme *core.Scheme, r io.Reader, dir string, elemSize int, man Manifest, workers int) (Manifest, error) {
	if elemSize < 1 {
		return man, fmt.Errorf("shardio: element size %d must be positive", elemSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return man, err
	}
	lay := scheme.Layout()
	n := scheme.N()
	dps := scheme.DataPerStripe()
	stripeBytes := dps * elemSize

	files := make([]*os.File, n)
	writers := make([]*bufio.Writer, n)
	closeAll := func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}
	for d := 0; d < n; d++ {
		f, err := os.Create(DiskFile(dir, d))
		if err != nil {
			closeAll()
			return man, err
		}
		files[d] = f
		writers[d] = bufio.NewWriterSize(f, streamBufSize)
	}

	// dataIdx marks the cell slots that alias the payload chunk, so the
	// consumer knows which cells return to which arena.
	dataIdx := make([]bool, scheme.CellsPerStripe())
	for e := 0; e < dps; e++ {
		p := lay.DataPos(e)
		dataIdx[p.Row*n+p.Col] = true
	}

	var payloadBufs, cellBufs core.Buffers // separate arenas: different sizes
	var length int64
	stripes := 0

	err := pipeline(workers,
		func(emit func(stripeJob) bool) error {
			for st := 0; ; st++ {
				buf := payloadBufs.GetShard(stripeBytes)
				nr, err := io.ReadFull(r, buf)
				if err == io.EOF && st > 0 {
					payloadBufs.PutShard(buf)
					return nil
				}
				if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
					payloadBufs.PutShard(buf)
					return err
				}
				// Zero the padding: a short (or empty) final chunk still
				// encodes as a full stripe.
				clear(buf[nr:])
				length += int64(nr)
				stripes++
				last := err != nil
				if !emit(stripeJob{st: st, payload: buf, cells: make([][]byte, scheme.CellsPerStripe())}) || last {
					return nil
				}
			}
		},
		func(j stripeJob) error {
			data := make([][]byte, dps)
			for e := range data {
				data[e] = j.payload[e*elemSize : (e+1)*elemSize]
			}
			return scheme.EncodeStripeInto(&cellBufs, j.cells, data)
		},
		func(j stripeJob) error {
			for row := 0; row < lay.Rows(); row++ {
				for col := 0; col < n; col++ {
					d := lay.Disk(j.st, col)
					if _, err := writers[d].Write(j.cells[row*n+col]); err != nil {
						return err
					}
				}
			}
			for i, c := range j.cells {
				if !dataIdx[i] {
					cellBufs.PutShard(c)
				}
			}
			payloadBufs.PutShard(j.payload)
			return nil
		},
		func(j stripeJob) {
			// Skipped stripe: recycle whatever parity cells the worker got
			// around to allocating (data cells alias the payload chunk) and
			// the chunk itself, so an aborted run leaves the arenas whole.
			for i, c := range j.cells {
				if !dataIdx[i] {
					cellBufs.PutShard(c)
				}
			}
			payloadBufs.PutShard(j.payload)
		},
	)
	if err != nil {
		closeAll()
		return man, err
	}
	for d := 0; d < n; d++ {
		if err := writers[d].Flush(); err != nil {
			closeAll()
			return man, err
		}
		if err := files[d].Close(); err != nil {
			files[d] = nil
			closeAll()
			return man, err
		}
		files[d] = nil
	}
	man.Scheme = scheme.Name()
	man.ElemSize = elemSize
	man.Stripes = stripes
	man.Length = length
	return man, writeManifest(dir, man)
}
