// Fan-out read executor: the parallel counterpart of the sequential readAt.
//
// The sequential executor walks a plan one cell at a time, so a read's
// wall-clock latency is the *sum* of per-device service times and the
// layout's load-balancing win (PAPER.md §III, Lemma 1) never reaches the
// client. This executor regroups the plan by device, coalesces cells at
// adjacent on-disk offsets into single runs (one positioning cost instead of
// one per element — the fault injector charges per run, exactly like a real
// disk charges per seek), and issues the per-device queues concurrently
// through a bounded worker pool, so latency approaches the *max* of
// per-device times.
//
// Determinism with the seeded fault injector is preserved by construction:
// every device's runs execute in ascending offset order on exactly one
// worker, a pass always drains (devices that turn out unavailable are
// collected, never raced against with cancellation), and the hedging and
// load-bias features below are either opt-in or quiescent when the store is
// idle, so single-threaded replays draw identical per-device fault streams.
//
// Two tail-latency features ride on top:
//
//   - Hedged reads (opt-in): each run's primary executes on a child
//     goroutine; if it has not finished after a delay derived from a live
//     latency quantile, the worker rebuilds the same cells from a
//     parity-equivalent recovery set on other devices and the first result
//     wins. The loser is cancelled through its context — injected stuck-op
//     sleeps are cancellable — and joined before the read returns.
//
//   - Load-aware degraded planning: when a degraded plan must choose among
//     survivor subsets, live per-device in-flight run counts are fed into
//     core.PlanDegradedReadBiased so the choice avoids momentarily busy
//     disks. With no concurrent load the bias is nil and plans are exactly
//     the unbiased planner's.
package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// HedgeConfig controls hedged (speculative duplicate) reads on the fan-out
// path. The zero value disables hedging.
type HedgeConfig struct {
	// Enabled turns hedging on.
	Enabled bool
	// Quantile of recent run latencies after which a straggling run is
	// hedged. Defaults to 0.9; values outside (0,1) use the default.
	Quantile float64
	// Min and Max clamp the derived hedge delay. Min defaults to 1ms; Max
	// defaults to the store's per-op timeout. Until enough latency samples
	// accumulate the delay is Max.
	Min time.Duration
	Max time.Duration
}

// ReadOptions selects the execution strategy for one read.
type ReadOptions struct {
	// Sequential selects the original one-cell-at-a-time executor instead of
	// the fan-out one. The two return byte-identical results.
	Sequential bool
	// Concurrency bounds how many devices are served at once by the fan-out
	// executor. Zero or negative means one worker per participating device.
	Concurrency int
	// Hedge configures speculative re-reads of straggling runs.
	Hedge HedgeConfig
}

// SetReadOptions installs the default options ReadAt uses. The zero value
// (fan-out, per-device concurrency, no hedging) is the initial default.
func (s *Store) SetReadOptions(o ReadOptions) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readOpts = o
}

// ReadDefaults returns the options installed with SetReadOptions.
func (s *Store) ReadDefaults() ReadOptions {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.readOpts
}

// ReadAtCtx is ReadAt with an explicit context and per-call options. The
// context cancels device waits (including injected stuck-op sleeps) on the
// fan-out path.
func (s *Store) ReadAtCtx(ctx context.Context, off int64, length int, opts ReadOptions) (*ReadResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.RLock()
	var res *ReadResult
	var err error
	if opts.Sequential {
		res, err = s.readAt(ctx, off, length, false)
	} else {
		res, err = s.fanoutRead(ctx, off, length, opts)
	}
	s.mu.RUnlock()
	if !errors.Is(err, errNeedsHeal) {
		return res, err
	}
	if s.testBeforeHeal != nil {
		s.testBeforeHeal()
	}
	// Corruption found: retry sequentially under the exclusive lock so
	// healCell may rewrite devices. Healing never runs on worker goroutines.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readAt(ctx, off, length, true)
}

// checkReadRange validates [off, off+length) against the sealed extent and
// returns the covered element range.
func (s *Store) checkReadRange(off int64, length int) (startElem, count int, err error) {
	if off < 0 || length < 0 {
		return 0, 0, fmt.Errorf("%w: off=%d length=%d", ErrRange, off, length)
	}
	sealed := int64(s.stripes) * int64(s.stripeBytes())
	if off+int64(length) > sealed {
		return 0, 0, fmt.Errorf("%w: [%d,%d) beyond sealed extent %d", ErrRange, off, off+int64(length), sealed)
	}
	if length == 0 {
		return 0, 0, nil
	}
	startElem = int(off / int64(s.elemSize))
	endElem := int((off + int64(length) - 1) / int64(s.elemSize))
	return startElem, endElem - startElem + 1, nil
}

// stripeCells is one stripe's fetched cell set plus the indices of cells
// whose buffers this read owns (decoded shards drawn from the arena, or
// hedge results). Device-read cells alias live device storage and are never
// recycled. The containers themselves are pooled per store.
type stripeCells struct {
	cells [][]byte
	owned []int
}

// getStripeCells draws a cleared container from the store's pool.
func (s *Store) getStripeCells() *stripeCells {
	if v := s.cellsPool.Get(); v != nil {
		return v.(*stripeCells)
	}
	return &stripeCells{cells: make([][]byte, s.scheme.CellsPerStripe())}
}

// putStripeCells recycles sc: every owned buffer goes back to the shard
// arena exactly once (slots are nilled as they are put, so a double-listed
// index cannot double-free), then the container returns to the pool.
func (s *Store) putStripeCells(sc *stripeCells) {
	for _, idx := range sc.owned {
		if sc.cells[idx] != nil {
			s.bufs.PutShard(sc.cells[idx])
			sc.cells[idx] = nil
		}
	}
	sc.owned = sc.owned[:0]
	clear(sc.cells)
	s.cellsPool.Put(sc)
}

// runSlot is one cell of a coalesced run.
type runSlot struct {
	stripe int
	idx    int // row*n+col within the stripe's cell slice
	key    cellKey
	off    int // modeled on-disk element offset: stripe*rows + row
}

// devRun is a maximal set of same-device cells at consecutive on-disk
// offsets, served as one device operation.
type devRun struct {
	dev   int
	slots []runSlot
}

// buildRuns groups the plan's reads by device and coalesces each device's
// cells into offset-ordered runs. Runs cross stripe boundaries: with the
// standard layout (one row per stripe) a multi-stripe read of one device
// collapses into a single run, exactly like one large sequential ReadAt.
//
// The construction is allocation-frugal (it sits on every read): slots are
// counting-sorted by device into one flat array, runs subslice that array,
// and the per-device offset sort is an in-place insertion sort (per-device
// slot counts are tiny — count/n — and nearly sorted already).
func buildRuns(scheme *core.Scheme, reads []core.Access) []devQueue {
	lay := scheme.Layout()
	n := scheme.N()
	rows := lay.Rows()
	counts := make([]int, n+1)
	for _, a := range reads {
		counts[a.Disk+1]++
	}
	for d := 0; d < n; d++ {
		counts[d+1] += counts[d] // counts[d] = start of device d's bucket
	}
	starts := make([]int, n)
	copy(starts, counts[:n])
	next := make([]int, n)
	copy(next, starts)
	slots := make([]runSlot, len(reads))
	for _, a := range reads {
		slots[next[a.Disk]] = runSlot{
			stripe: a.Stripe,
			idx:    a.Pos.Row*n + a.Pos.Col,
			key:    cellKey{a.Stripe, a.Pos},
			off:    a.Stripe*rows + a.Pos.Row,
		}
		next[a.Disk]++
	}
	devsUsed, totalRuns := 0, 0
	for d := 0; d < n; d++ {
		sub := slots[starts[d]:next[d]]
		if len(sub) == 0 {
			continue
		}
		devsUsed++
		for i := 1; i < len(sub); i++ { // insertion sort by offset
			for j := i; j > 0 && sub[j].off < sub[j-1].off; j-- {
				sub[j], sub[j-1] = sub[j-1], sub[j]
			}
		}
		for i := range sub {
			if i == 0 || sub[i].off != sub[i-1].off+1 {
				totalRuns++
			}
		}
	}
	runsBacking := make([]devRun, 0, totalRuns)
	queues := make([]devQueue, 0, devsUsed)
	for d := 0; d < n; d++ {
		sub := slots[starts[d]:next[d]]
		if len(sub) == 0 {
			continue
		}
		first := len(runsBacking)
		runStart := 0
		for i := 1; i <= len(sub); i++ {
			if i == len(sub) || sub[i].off != sub[i-1].off+1 {
				runsBacking = append(runsBacking, devRun{dev: d, slots: sub[runStart:i]})
				runStart = i
			}
		}
		queues = append(queues, devQueue{dev: d, runs: runsBacking[first:len(runsBacking):len(runsBacking)]})
	}
	return queues
}

// devQueue is one device's runs, served in offset order by one worker.
type devQueue struct {
	dev  int
	runs []devRun
}

// inflightBias snapshots live per-device in-flight run counts for the
// load-aware planner. It returns nil when every device is idle, so
// single-threaded callers always get the unbiased (deterministic) planner.
// When SetDeviceNodes has mapped devices onto placement nodes, counts are
// aggregated per node: in the networked regime queueing happens at the node,
// so every disk a busy node serves inherits its whole depth.
func (s *Store) inflightBias() []int {
	var bias []int
	for i, d := range s.devices {
		if v := int(d.inflight.Load()); v > 0 {
			if bias == nil {
				bias = make([]int, len(s.devices))
			}
			bias[i] = v
		}
	}
	if bias != nil && s.nodeOf != nil {
		nodeSum := make(map[int]int)
		for i, v := range bias {
			nodeSum[s.nodeOf[i]] += v
		}
		for i := range bias {
			bias[i] = nodeSum[s.nodeOf[i]]
		}
	}
	return bias
}

// fanoutRead executes one read through the fan-out executor. Caller holds
// mu shared; every goroutine spawned here is joined before return, so no
// device access escapes the lock.
func (s *Store) fanoutRead(ctx context.Context, off int64, length int, opts ReadOptions) (*ReadResult, error) {
	startElem, count, err := s.checkReadRange(off, length)
	if err != nil {
		return nil, err
	}
	if length == 0 {
		return &ReadResult{Data: []byte{}, Plan: &core.Plan{}}, nil
	}
	dps := s.scheme.DataPerStripe()
	endElem := startElem + count - 1
	startStripe := startElem / dps
	fetched := make([]*stripeCells, endElem/dps-startStripe+1)
	release := func() {
		for i, sc := range fetched {
			if sc != nil {
				s.putStripeCells(sc)
				fetched[i] = nil
			}
		}
	}

	unavail := make(map[int]bool)
	for {
		failed := s.avoidSet(unavail)
		var bias []int
		if len(failed) > 0 {
			bias = s.inflightBias()
		}
		plan, err := s.plan(startElem, count, failed, bias)
		if err != nil {
			release()
			if len(unavail) > 0 {
				return nil, fmt.Errorf("%w: degraded fallback exhausted (unavailable %v): %w",
					ErrUnavailable, keysSorted(unavail), err)
			}
			return nil, err
		}

		for i := range fetched {
			if fetched[i] == nil {
				fetched[i] = s.getStripeCells()
			}
		}

		p := &fanoutPass{
			s:           s,
			ctx:         ctx,
			startStripe: startStripe,
			fetched:     fetched,
			newUnavail:  make(map[int]bool),
			errs:        make(map[int]error),
		}
		if opts.Hedge.Enabled {
			p.hedge = true
			p.hedgeDelay = s.hedgeDelay(opts.Hedge)
		}
		// Small plans run the same coalesced pass inline: below the
		// threshold, goroutine dispatch costs more than the per-device
		// overlap could save. An explicit Concurrency or hedging opts into
		// threads regardless.
		conc := opts.Concurrency
		if conc <= 0 {
			if !opts.Hedge.Enabled && len(plan.Reads)*s.elemSize < fanoutInlineBytes {
				conc = 1
			} else {
				conc = len(plan.Reads)
			}
		}
		p.runQueues(buildRuns(s.scheme, plan.Reads), conc)

		switch {
		case len(p.newUnavail) > 0:
			// Drain-then-replan: every newly unavailable device joins the
			// avoid set and the whole pass's buffers are recycled exactly
			// once before the retry (no buffer is carried across plans — a
			// new plan may fill the same slots from different sources).
			for d := range p.newUnavail {
				unavail[d] = true
			}
			s.Metrics().replan()
			for i, sc := range fetched {
				if sc != nil {
					s.putStripeCells(sc)
					fetched[i] = nil
				}
			}
			continue
		case p.corrupt:
			// Persistent corruption needs the exclusive lock to heal.
			release()
			return nil, errNeedsHeal
		case len(p.errs) > 0:
			release()
			return nil, p.firstErr()
		}
		if err := ctx.Err(); err != nil {
			release()
			return nil, err
		}

		data, err := s.assemble(fetched, startStripe, startElem, endElem, off, length)
		release()
		if err != nil {
			return nil, err
		}
		s.Metrics().observeRead(len(failed) > 0, plan.MaxLoad())
		return &ReadResult{Data: data, Plan: plan}, nil
	}
}

// assemble decodes the requested elements out of the fetched cells into a
// fresh exactly-sized buffer. Shards decoded here (lost elements) draw their
// buffers from the arena and are registered as owned, so the caller's
// release recycles them.
func (s *Store) assemble(fetched []*stripeCells, startStripe, startElem, endElem int, off int64, length int) ([]byte, error) {
	dps := s.scheme.DataPerStripe()
	data := make([]byte, length)
	written := 0
	for x := startElem; x <= endElem; x++ {
		stripe, e := x/dps, x%dps
		sc := fetched[stripe-startStripe]
		if sc == nil {
			return nil, fmt.Errorf("store: plan missed stripe %d", stripe)
		}
		idx := s.scheme.Layout().DataPos(e)
		cellIdx := idx.Row*s.scheme.N() + idx.Col
		wasNil := sc.cells[cellIdx] == nil
		shard, err := s.scheme.RebuildDataInto(&s.bufs, sc.cells, e)
		if err != nil {
			return nil, err
		}
		if wasNil {
			sc.owned = append(sc.owned, cellIdx)
		}
		lo := 0
		if x == startElem {
			lo = int(off - int64(startElem)*int64(s.elemSize))
		}
		hi := s.elemSize
		if rem := length - written; hi-lo > rem {
			hi = lo + rem
		}
		written += copy(data[written:], shard[lo:hi])
	}
	return data, nil
}

// fanoutPass is the shared state of one drain-to-completion execution pass.
type fanoutPass struct {
	s           *Store
	ctx         context.Context
	startStripe int
	fetched     []*stripeCells
	hedge       bool
	hedgeDelay  time.Duration

	mu         sync.Mutex
	newUnavail map[int]bool
	corrupt    bool
	errs       map[int]error // first internal error per device
	stragglers sync.WaitGroup
}

// firstErr returns the recorded error of the lowest-numbered device, so the
// surfaced error is independent of goroutine scheduling.
func (p *fanoutPass) firstErr() error {
	best := -1
	for d := range p.errs {
		if best < 0 || d < best {
			best = d
		}
	}
	if best < 0 {
		return nil
	}
	return p.errs[best]
}

func (p *fanoutPass) fail(dev int, err error) {
	p.mu.Lock()
	if _, ok := p.errs[dev]; !ok {
		p.errs[dev] = err
	}
	p.mu.Unlock()
}

// fanoutInlineBytes is the planned-read size below which the executor skips
// worker goroutines and serves the queues inline: on tiny reads the dispatch
// cost exceeds anything per-device overlap could recover. Explicit
// Concurrency or hedging overrides the heuristic.
const fanoutInlineBytes = 64 << 10

// runQueues serves every device queue through at most conc workers and
// joins them all (including hedged stragglers) before returning. With conc 1
// the queues are served inline on the calling goroutine — same coalescing,
// same device order, zero dispatch overhead. With more, queues are sharded
// round-robin across conc workers (the caller is worker 0), so each device
// still lands on exactly one goroutine and its runs stay offset-ordered.
func (p *fanoutPass) runQueues(queues []devQueue, conc int) {
	if len(queues) == 0 {
		return
	}
	if conc <= 0 || conc > len(queues) {
		conc = len(queues)
	}
	if conc > 1 {
		var wg sync.WaitGroup
		for w := 1; w < conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(queues); i += conc {
					p.serveDevice(queues[i])
				}
			}(w)
		}
		for i := 0; i < len(queues); i += conc {
			p.serveDevice(queues[i])
		}
		wg.Wait()
	} else {
		for _, q := range queues {
			p.serveDevice(q)
		}
	}
	p.stragglers.Wait()
}

// serveDevice executes one device's runs sequentially in offset order. A
// device that proves unavailable has its remaining runs skipped — the
// replan routes around the whole device anyway — while other devices keep
// draining (no cross-device cancellation, which keeps per-device fault
// streams deterministic).
func (p *fanoutPass) serveDevice(q devQueue) {
	for _, run := range q.runs {
		if err := p.ctx.Err(); err != nil {
			p.fail(q.dev, err)
			return
		}
		var err error
		if p.hedge {
			err = p.execHedged(run)
		} else {
			err = p.execRun(p.ctx, run, nil)
		}
		if err == nil {
			continue
		}
		switch {
		case errors.Is(err, ErrUnavailable) || errors.Is(err, ErrFailed):
			p.mu.Lock()
			p.newUnavail[q.dev] = true
			p.mu.Unlock()
			return
		case errors.Is(err, ErrCorrupt):
			p.mu.Lock()
			p.corrupt = true
			p.mu.Unlock()
		default:
			p.fail(q.dev, err)
		}
	}
}

// execRun performs one coalesced device operation: a single fault decision
// covers the whole run (one large sequential I/O pays one positioning cost),
// then every cell is read with per-element accounting. With staged non-nil
// the results go there (hedged primaries stage privately and commit under
// the pass lock); otherwise they land directly in the pass's fetched slots,
// which is safe because distinct devices own distinct slots.
func (p *fanoutPass) execRun(ctx context.Context, run devRun, staged [][]byte) error {
	s := p.s
	d := s.devices[run.dev]
	d.inflight.Add(1)
	d.obsInflight.Add(1)
	defer func() {
		d.inflight.Add(-1)
		d.obsInflight.Add(-1)
	}()
	s.Metrics().observeRun(len(run.slots) * s.elemSize)
	start := time.Now()
	var last error
	for attempt := 0; attempt <= s.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var f Fault
		if s.inject != nil {
			f = s.inject.ReadFault(run.dev)
		}
		if f.Failed {
			d.noteError()
			return fmt.Errorf("%w: device %d fail-stopped by fault plan", ErrFailed, run.dev)
		}
		if f.Stuck || f.Delay > s.opTimeout {
			if err := sleepCtx(ctx, s.opTimeout); err != nil {
				return err
			}
			last = fmt.Errorf("%w: device %d read timed out after %v", ErrUnavailable, run.dev, s.opTimeout)
			s.Metrics().retry(false)
			d.observeLatency(s.opTimeout)
			continue
		}
		if f.Delay > 0 {
			if err := sleepCtx(ctx, f.Delay); err != nil {
				return err
			}
		}
		if f.Err != nil {
			last = fmt.Errorf("%w: device %d: %v", ErrUnavailable, run.dev, f.Err)
			s.Metrics().retry(false)
			continue
		}
		var readErr error
		if _, bulk := d.be.(runIO); bulk && len(run.slots) > 1 {
			// Bulk backend (file-backed device): the whole coalesced run is
			// one positioned pread through the submission queue — the modeled
			// one-positioning-cost-per-run now literally holds on disk.
			cells, err := d.readRun(run.slots[0].key, len(run.slots))
			if err != nil {
				readErr = err
			} else {
				for i, sl := range run.slots {
					if staged != nil {
						staged[i] = cells[i]
					} else {
						p.fetched[sl.stripe-p.startStripe].cells[sl.idx] = cells[i]
					}
				}
			}
		} else {
			for i, sl := range run.slots {
				data, err := d.read(sl.key)
				if err != nil {
					readErr = err
					break
				}
				if staged != nil {
					staged[i] = data
				} else {
					p.fetched[sl.stripe-p.startStripe].cells[sl.idx] = data
				}
			}
		}
		if readErr != nil {
			// A backend I/O error (not an injected fault) is a hard signal
			// for the failure detector; corruption and fail-stop marks are
			// accounted elsewhere.
			if errors.Is(readErr, ErrUnavailable) {
				d.noteError()
			}
			return readErr
		}
		if f.Corrupt {
			last = fmt.Errorf("%w: device %d returned bytes failing checksum", ErrUnavailable, run.dev)
			s.Metrics().retry(false)
			continue
		}
		elapsed := time.Since(start)
		s.hedgeLat.observe(elapsed)
		d.observeLatency(elapsed)
		return nil
	}
	if last != nil {
		// Retry budget exhausted: the device is limping hard enough to count.
		d.noteError()
	}
	return last
}

// commit publishes a completed run's cell buffers into the fetched slots.
// owned marks arena/decoded buffers (hedge results) for recycling.
func (p *fanoutPass) commit(run devRun, vals [][]byte, owned bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, sl := range run.slots {
		sc := p.fetched[sl.stripe-p.startStripe]
		sc.cells[sl.idx] = vals[i]
		if owned {
			sc.owned = append(sc.owned, sl.idx)
		}
	}
}

// execHedged races a run's primary against a parity-equivalent rebuild. The
// primary runs on a child goroutine staging into a private buffer; if it has
// not finished after the hedge delay, the worker rebuilds the same cells
// from other devices and the first to commit (atomic winner election) wins.
// The loser's context is cancelled — injected delays and stuck-op waits are
// cancellable sleeps — and joined via the pass's straggler group.
func (p *fanoutPass) execHedged(run devRun) error {
	s := p.s
	runCtx, cancel := context.WithCancel(p.ctx)
	defer cancel()
	// The hedge gets its own child context so a finishing primary can abort
	// an in-flight rebuild: the worker runs hedgeFetch synchronously, and
	// without this cancel it would sit out the full rebuild (its device
	// reads include injected delays) even after the run is already served —
	// turning a latency hedge into a throughput tax whenever every device is
	// uniformly slow.
	hedgeCtx, hedgeCancel := context.WithCancel(runCtx)
	defer hedgeCancel()
	primStaged := make([][]byte, len(run.slots))
	var winner atomic.Int32 // 0 undecided, 1 primary, 2 hedge
	done := make(chan error, 1)
	p.stragglers.Add(1)
	go func() {
		defer p.stragglers.Done()
		err := p.execRun(runCtx, run, primStaged)
		if err == nil && winner.CompareAndSwap(0, 1) {
			p.commit(run, primStaged, false)
			hedgeCancel()
		}
		done <- err
	}()
	timer := time.NewTimer(p.hedgeDelay)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
	}
	s.Metrics().hedge("fired")
	hedged, herr := p.hedgeFetch(hedgeCtx, run)
	if herr == nil {
		if winner.CompareAndSwap(0, 2) {
			p.commit(run, hedged, true)
			s.Metrics().hedge("won")
			return nil
		}
		// The primary committed while we were decoding: drop our copy.
		for _, b := range hedged {
			s.bufs.PutShard(b)
		}
	}
	err := <-done
	if err == nil {
		s.Metrics().hedge("cancelled")
		return nil
	}
	return err
}

// hedgeFetch rebuilds every cell of a straggling run from a recovery set of
// its code group that avoids the straggler itself and every failed device.
// Returned buffers are arena-owned copies. On any failure it recycles what
// it built and reports the error; the caller falls back to the primary.
func (p *fanoutPass) hedgeFetch(ctx context.Context, run devRun) ([][]byte, error) {
	s := p.s
	lay := s.scheme.Layout()
	code := s.scheme.Code()
	out := make([][]byte, len(run.slots))
	fail := func(err error) ([][]byte, error) {
		for _, b := range out {
			if b != nil {
				s.bufs.PutShard(b)
			}
		}
		return nil, err
	}
	for i, sl := range run.slots {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		cell := lay.CellAt(sl.key.pos)
		rebuilt := false
	sets:
		for _, set := range code.RecoverySets(cell.Element) {
			group := make([][]byte, code.N())
			for _, t := range set {
				pos := lay.GroupCell(cell.Group, t)
				disk := lay.Disk(sl.key.stripe, pos.Col)
				if disk == run.dev || s.devices[disk].failed {
					continue sets
				}
				data, err := s.readCellCtx(ctx, disk, cellKey{sl.key.stripe, pos})
				if err != nil {
					continue sets
				}
				group[t] = data
			}
			if err := code.ReconstructElements(group, []int{cell.Element}); err != nil {
				continue
			}
			buf := s.bufs.GetShard(s.elemSize)
			copy(buf, group[cell.Element])
			out[i] = buf
			rebuilt = true
			break
		}
		if !rebuilt {
			return fail(fmt.Errorf("store: hedge: no usable recovery set for stripe %d cell (%d,%d) avoiding device %d",
				sl.key.stripe, sl.key.pos.Row, sl.key.pos.Col, run.dev))
		}
	}
	return out, nil
}

// latencyRing is a small lock-guarded reservoir of recent run latencies
// backing the hedge-delay quantile.
type latencyRing struct {
	mu  sync.Mutex
	buf [128]int64
	n   int // saturates at len(buf)
	idx int
}

// hedgeMinSamples is how many latency samples must accumulate before the
// quantile is trusted; below it the hedge delay stays at its maximum.
const hedgeMinSamples = 8

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	r.buf[r.idx] = int64(d)
	r.idx = (r.idx + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// quantile returns the q-quantile of the recorded samples, or -1 while
// fewer than hedgeMinSamples have been observed.
func (r *latencyRing) quantile(q float64) time.Duration {
	r.mu.Lock()
	if r.n < hedgeMinSamples {
		r.mu.Unlock()
		return -1
	}
	tmp := make([]int64, r.n)
	copy(tmp, r.buf[:r.n])
	r.mu.Unlock()
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	i := int(q * float64(len(tmp)))
	if i >= len(tmp) {
		i = len(tmp) - 1
	}
	return time.Duration(tmp[i])
}

// hedgeDelay derives the current hedge delay from cfg and the live latency
// reservoir.
func (s *Store) hedgeDelay(cfg HedgeConfig) time.Duration {
	q := cfg.Quantile
	if q <= 0 || q >= 1 {
		q = 0.9
	}
	min := cfg.Min
	if min <= 0 {
		min = time.Millisecond
	}
	max := cfg.Max
	if max <= 0 {
		max = s.opTimeout
	}
	if max < min {
		max = min
	}
	d := s.hedgeLat.quantile(q)
	if d < 0 || d > max {
		return max
	}
	if d < min {
		return min
	}
	return d
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
