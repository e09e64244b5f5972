// Read executor: the one way the store reads cells. GETs, heals,
// disk rebuild, scrub and startup recovery each hand it a plan
// and a rule for corrupt runs (execute).
//
// A plan lists cells. The executor regroups them by device, coalesces cells
// at adjacent on-disk offsets into single runs (one positioning cost instead
// of one per element — the fault injector charges per run, exactly like a
// real disk charges per seek), and serves each node's device queues — each
// device is its own node unless CellStoreConfig.NodeOf maps them — on its own
// worker as one backend call, so a read's latency approaches the *max* of
// per-node service times rather than their sum, the layout's
// load-balancing win (PAPER.md §III, Lemma 1) reaches the client, and a
// data node is asked once per pass. ReadOptions.Sequential, single-node
// plans, heal passes and the nested recovery passes of heals serve the same
// batches inline on the calling goroutine.
//
// Plans depend on the request and the devices to avoid alone, never on live
// load, so a HEAD (Store.PlanRead) reports exactly the plan its GET serves.
// Determinism under a seeded backend decorator (internal/faultinject)
// follows by construction: every device's runs reach its backend in
// ascending offset order within one batch on exactly one worker, and a pass
// always drains (devices that turn out unavailable are collected, never
// raced against with cancellation), so single-threaded replays draw
// identical per-device fault streams.
package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/layout"
)

// ReadOptions selects the execution strategy for one read. The zero value —
// one worker per node's queues — is what ReadAt uses.
type ReadOptions struct {
	// Sequential serves every run on the calling goroutine: the same
	// coalesced pass with one worker. Results are byte-identical either way.
	Sequential bool
}

// ReadAtCtx is ReadAt with an explicit context and per-call options. The
// context reaches every backend call, so it cancels device waits — a node
// request, a decorator's injected stall. It writes ReadStream's result into
// one fresh buffer of length bytes.
func (s *Store) ReadAtCtx(ctx context.Context, off int64, length int, opts ReadOptions) (*ReadResult, error) {
	res, err := s.ReadStream(ctx, off, length, opts)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, length))
	res.WriteTo(buf) // a bytes.Buffer write never fails
	res.Release()
	res.Data = buf.Bytes()
	return res, nil
}

// ReadStream is ReadAtCtx without the copy: the result's WriteTo sends the
// payload from the cells it was read or decoded into, which the result's
// Release, due once on every path, gives back. Every cell is in hand
// before it returns, so a read fails here, before a byte is written.
func (s *Store) ReadStream(ctx context.Context, off int64, length int, opts ReadOptions) (*ReadResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.RLock()
	res, err := s.fanoutRead(ctx, off, length, opts, corruptStops)
	s.mu.RUnlock()
	if !errors.Is(err, ErrCorrupt) {
		return res, err
	}
	if s.testBeforeHeal != nil {
		s.testBeforeHeal()
	}
	// Corruption found: rerun the pass inline under the exclusive lock so
	// healCell may rewrite devices. Healing never runs on worker goroutines.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fanoutRead(ctx, off, length, ReadOptions{Sequential: true}, corruptHeals)
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
// whose buffers came from the shard arena (decoded shards) and go back to
// it. Device-read cells slice the run buffers their job holds (served);
// zero cells, once a decode needs them (zeroed), are the store's zero
// element. The containers themselves are pooled per store.
type stripeCells struct {
	cells  [][]byte
	owned  []int
	zeroed bool
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
	sc.owned, sc.zeroed = sc.owned[:0], false
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
// collapses into a single run: one large sequential read.
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

// corruptRule is what a run whose stored bytes fail their checksum means:
// the one thing, besides its plan, in which the executor's callers differ.
type corruptRule int

const (
	// corruptStops fails the job with the run's ErrCorrupt: a shared-lock
	// GET escalates to a heal, a scrub marks the stripe bad.
	corruptStops corruptRule = iota
	// corruptHeals heals the run's corrupt cells in place (healRun): inline
	// jobs under the exclusive lock only.
	corruptHeals
	// corruptAvoids replans around the device, as if unavailable. By Lemma 1
	// it holds one element of each group, so this erases the corrupt cell:
	// how rebuild and heal plans read.
	corruptAvoids
)

// planFunc plans a job's cells around the devices to avoid: failed, or
// taken out by an earlier pass.
type planFunc func(avoid []int) (*core.Plan, error)

// served is what an executed job leaves: the plan its last pass served,
// per-stripe containers for the stripes that plan reads, the run buffers
// its cells slice, and the cells heal passes rewrote. Its owner reads cells
// out, then releases it once; no cell may be read after.
type served struct {
	s       *Store
	plan    *core.Plan
	first   int
	stripes []*stripeCells
	held    []*RunBuf // per run of the last pass
	healed  int
}

// cell returns the cell at pos of a target stripe: as read, the store's
// zero element for a zero cell the plan did not read, or decoded from its
// group's fetched cells, the group's zero cells handed in as zeros, when
// the plan read around it. Decoded cells come from the shard arena and go
// back to it on release.
func (r *served) cell(stripe int, pos layout.Pos) ([]byte, error) {
	s, i := r.s, stripe-r.first
	idx := pos.Row*s.scheme.N() + pos.Col
	if i >= 0 && i < len(r.stripes) && r.stripes[i].cells[idx] != nil {
		return r.stripes[i].cells[idx], nil
	}
	if s.scheme.ZeroCell(s.fills, stripe, pos) {
		return s.zero, nil
	}
	sc := r.stripes[i]
	if !sc.zeroed {
		n := s.scheme.N()
		for j, c := range sc.cells {
			if c == nil && s.scheme.ZeroCell(s.fills, stripe, layout.Pos{Row: j / n, Col: j % n}) {
				sc.cells[j] = s.zero
			}
		}
		sc.zeroed = true
	}
	c, err := s.scheme.RebuildCellInto(&s.bufs, sc.cells, pos)
	if err == nil {
		sc.owned = append(sc.owned, idx)
	}
	return c, err
}

// release recycles every run buffer, container and arena buffer it holds.
func (r *served) release() {
	for _, b := range r.held {
		r.s.runs.Put(b)
	}
	for _, sc := range r.stripes {
		r.s.putStripeCells(sc)
	}
}

// execute is the store's one way to read cells: plan, serve the plan's
// coalesced runs, and replan around every device a pass took out, until a
// pass completes. GETs, heals, rebuild, scrub and
// recovery all read through it. The caller holds mu shared, or
// exclusively for corruptHeals (recovery holds no lock: its store is not
// shared yet). Every goroutine spawned here is joined
// before return, so no device access escapes the lock. The loop ends: each
// replan takes a device out, and planning fails once too many are.
func (s *Store) execute(ctx context.Context, plan planFunc, rule corruptRule, opts ReadOptions) (*served, error) {
	out := make(map[int]error) // devices passes took out, and why
	healed := 0
	for {
		pl, err := plan(s.avoidSet(out))
		if err != nil {
			for _, d := range keysSorted(out) {
				if cause := out[d]; !errors.Is(cause, ErrCorrupt) {
					// Transiently out devices made the plan impossible: the
					// data is not lost, so callers may retry later.
					return nil, fmt.Errorf("%w: no plan around devices %v (%v): %w",
						ErrUnavailable, keysSorted(out), cause, err)
				}
			}
			return nil, err
		}
		if len(pl.Reads) == 0 {
			// Every target is a zero cell.
			return &served{s: s, plan: pl, healed: healed}, nil
		}
		// Plans list their reads in stripe order.
		first := pl.Reads[0].Stripe
		r := &served{s: s, plan: pl, first: first, stripes: make([]*stripeCells, pl.Reads[len(pl.Reads)-1].Stripe-first+1)}
		for i := range r.stripes {
			r.stripes[i] = s.getStripeCells()
		}
		p := &fanoutPass{s: s, ctx: ctx, into: r, rule: rule, out: make(map[int]error), errs: make(map[int]error)}
		p.runQueues(buildRuns(s.scheme, pl.Reads), opts.Sequential)
		healed += p.healed

		if len(p.out) > 0 {
			// Drain-then-replan: every device the pass took out joins the
			// avoid set and the pass's buffers are recycled exactly once
			// before the retry (a new plan may fill the same slots from
			// different sources).
			for d, err := range p.out {
				out[d] = err
			}
			s.Metrics().replan()
			r.release()
			continue
		}
		err = p.corrupt
		if len(p.errs) > 0 && err == nil {
			err = p.firstErr()
		}
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			r.release()
			return nil, err
		}
		r.healed = healed
		return r, nil
	}
}

// around plans targets, cells of device dev, from the rest of the array:
// dev joins the avoid set, so every target is rebuilt from a recovery set
// chosen by core's exact planner, reading no zero cell. Disk rebuild and
// healing plan this way.
func (s *Store) around(targets []core.Access, dev int) planFunc {
	return func(avoid []int) (*core.Plan, error) {
		if !slices.Contains(avoid, dev) {
			avoid = append(avoid, dev)
		}
		return s.scheme.PlanCells(targets, avoid, s.fills)
	}
}

// exactly plans reading the targets themselves, for callers that need the
// stored bytes — scrub, recovery, overwrites: a target on a
// device to avoid is an error, not a reason to reconstruct.
func (s *Store) exactly(targets []core.Access) planFunc {
	return func(avoid []int) (*core.Plan, error) {
		for _, t := range targets {
			if slices.Contains(avoid, t.Disk) {
				return nil, fmt.Errorf("%w: device %d holds stripe %d cell (%d,%d)",
					ErrFailed, t.Disk, t.Stripe, t.Pos.Row, t.Pos.Col)
			}
		}
		return s.scheme.PlanCells(targets, nil, nil)
	}
}

// deviceCells lists device dev's cells of one stripe, row by row.
func (s *Store) deviceCells(stripe, dev int) []core.Access {
	col := s.scheme.Layout().Col(stripe, dev)
	out := make([]core.Access, s.rows)
	for row := range out {
		out[row] = core.Access{Disk: dev, Stripe: stripe, Pos: layout.Pos{Row: row, Col: col}}
	}
	return out
}

// allCells lists every cell of one stripe, row by row.
func (s *Store) allCells(stripe int) []core.Access {
	lay := s.scheme.Layout()
	out := make([]core.Access, 0, s.scheme.CellsPerStripe())
	for row := 0; row < s.rows; row++ {
		for col := 0; col < s.scheme.N(); col++ {
			out = append(out, core.Access{Disk: lay.Disk(stripe, col), Stripe: stripe, Pos: layout.Pos{Row: row, Col: col}})
		}
	}
	return out
}

// fanoutRead executes one GET: the requested range's plan — normal, or
// degraded around the avoided devices — served by execute, then each
// element resolved, decoded where the plan read around it. With
// corruptStops (mu shared) a corrupt run fails it with ErrCorrupt; with
// corruptHeals (mu exclusive, inline) corrupt cells are healed in place.
func (s *Store) fanoutRead(ctx context.Context, off int64, length int, opts ReadOptions, rule corruptRule) (*ReadResult, error) {
	startElem, count, err := s.checkReadRange(off, length)
	if err != nil {
		return nil, err
	}
	if length == 0 {
		return &ReadResult{Data: []byte{}, Plan: &core.Plan{}}, nil
	}
	plan := func(avoid []int) (*core.Plan, error) { return s.plan(startElem, count, avoid) }
	r, err := s.execute(ctx, plan, rule, opts)
	if err != nil {
		return nil, err
	}
	dps := s.scheme.DataPerStripe()
	parts := make([][]byte, count)
	lo := int(off - int64(startElem)*int64(s.elemSize))
	for i := range parts {
		x := startElem + i
		cell, err := r.cell(x/dps, s.scheme.Layout().DataPos(x%dps))
		if err != nil {
			r.release()
			return nil, err
		}
		hi := min(s.elemSize, lo+length)
		parts[i], length, lo = cell[lo:hi], length-(hi-lo), 0
	}
	s.Metrics().observeRead(len(r.plan.Failed) > 0, r.plan.MaxLoad())
	return &ReadResult{Plan: r.plan, Healed: r.healed, parts: parts, held: r}, nil
}

// fanoutPass is the shared state of one drain-to-completion execution pass.
type fanoutPass struct {
	s      *Store
	ctx    context.Context
	into   *served
	rule   corruptRule
	healed int // cells healRun rewrote (corruptHeals passes only: one goroutine)

	mu      sync.Mutex
	out     map[int]error // devices taken out of the job, and why
	corrupt error         // first corrupt run (corruptStops)
	errs    map[int]error // first internal error per device
}

// slot returns the container a run slot's cell lands in.
func (p *fanoutPass) slot(sl runSlot) *stripeCells {
	return p.into.stripes[sl.stripe-p.into.first]
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

// runQueues serves every device queue and joins them all before returning.
// The queues are grouped by node — the map CellStoreConfig.NodeOf sets; with
// none, each device is its own node — and one worker serves each node's as
// one backend call: one request to a data node, one pread per run on a local
// disk. Inline, the nodes are served one
// after another on the calling goroutine — same coalescing, same order,
// zero dispatch overhead. Otherwise each node gets its own worker (the
// caller serves the first), so a device's runs stay on one goroutine, in
// offset order.
func (p *fanoutPass) runQueues(queues []devQueue, inline bool) {
	nodes, held := p.s.nodeQueues(queues)
	p.into.held = held
	if inline || len(nodes) < 2 {
		for _, q := range nodes {
			p.serveNode(q)
		}
	} else {
		var wg sync.WaitGroup
		for _, q := range nodes[1:] {
			wg.Add(1)
			go func(q nodeQueue) {
				defer wg.Done()
				p.serveNode(q)
			}(q)
		}
		p.serveNode(nodes[0])
		wg.Wait()
	}
}

// nodeQueue is one node's runs — its devices' queues in ascending device
// order — and the batch entries and run buffers they are read into.
type nodeQueue struct {
	runs  []devRun
	batch []Run
	held  []*RunBuf
}

// nodeQueues groups the device queues by node, nodes in order of their
// first device; one allocation backs every node's batch entries, and one
// their lent buffers, which it returns.
func (s *Store) nodeQueues(queues []devQueue) ([]nodeQueue, []*RunBuf) {
	nodes := make([]nodeQueue, 0, len(queues))
	at := make(map[int]int)
	total := 0
	for _, q := range queues {
		total += len(q.runs)
		if s.nodeOf == nil {
			nodes = append(nodes, nodeQueue{runs: q.runs})
			continue
		}
		i, ok := at[s.nodeOf[q.dev]]
		if !ok {
			i = len(nodes)
			at[s.nodeOf[q.dev]] = i
			nodes = append(nodes, nodeQueue{})
		}
		nodes[i].runs = append(nodes[i].runs, q.runs...)
	}
	batch, held, lo := make([]Run, total), make([]*RunBuf, total), 0
	for i := range nodes {
		hi := lo + len(nodes[i].runs)
		nodes[i].batch, nodes[i].held, lo = batch[lo:hi:hi], held[lo:hi:hi], hi
	}
	return nodes, held
}

// serveNode executes one node's runs as one batch (execRuns), then settles
// the outcomes in order, device by device: a device taken out has its
// remaining runs skipped — the replan routes around the whole device
// anyway — while other devices keep draining (no cross-device
// cancellation, which keeps per-device fault streams deterministic).
func (p *fanoutPass) serveNode(q nodeQueue) {
	runs, batch := q.runs, q.batch
	if p.ctx.Err() == nil {
		p.execRuns(runs, batch, q.held)
	}
	out := -1 // the device taken out, skipped until its runs end
	for i, run := range runs {
		if run.dev == out {
			continue
		}
		err := p.ctx.Err()
		if err == nil {
			err = batch[i].Err
		}
		if p.rule == corruptHeals && errors.Is(err, ErrCorrupt) {
			err = p.healRun(run)
		}
		switch {
		case err == nil:
		case errors.Is(err, ErrUnavailable) || p.rule == corruptAvoids && errors.Is(err, ErrCorrupt):
			p.mu.Lock()
			p.out[run.dev] = err
			p.mu.Unlock()
			out = run.dev
		case errors.Is(err, ErrCorrupt):
			p.mu.Lock()
			if p.corrupt == nil {
				p.corrupt = err
			}
			p.mu.Unlock()
		default:
			p.fail(run.dev, err)
			out = run.dev
		}
	}
}

// readRuns reads the runs of one node — its devices in ascending order,
// each device's runs in offset order — as one backend call (readBatch) with
// the pass's context, and settles each in its entry of batch: the run's
// cells, flattened, in Data, or its Err; a run handed buffers in batch is
// read into them. Every pass — GET, heal re-read, rebuild, scrub — counts
// its run bytes here. Caller holds mu in either mode.
func (p *fanoutPass) readRuns(runs []devRun, batch []Run) {
	s := p.s
	for i, run := range runs {
		d := s.devices[run.dev]
		s.Metrics().observeRun(len(run.slots) * s.elemSize)
		batch[i].Disk, batch[i].Slot, batch[i].Count, batch[i].Err = run.dev, d.slot(run.slots[0].key), len(run.slots), nil
	}
	s.readBatch(p.ctx, batch)
}

// execRuns serves coalesced runs of one node (readRuns) into batch and the
// run buffers it lends in held, one entry per run, and places each run's
// cells directly in the job's containers, which is safe because distinct
// devices own distinct slots.
func (p *fanoutPass) execRuns(runs []devRun, batch []Run, held []*RunBuf) {
	es := p.s.elemSize
	for i, run := range runs {
		held[i] = p.s.runs.Get(len(run.slots) * es)
		batch[i].Data, batch[i].CRCs = held[i].Data, held[i].CRCs
	}
	p.readRuns(runs, batch)
	for i, run := range runs {
		if batch[i].Err != nil {
			continue
		}
		flat := batch[i].Data
		for c, sl := range run.slots {
			p.slot(sl).cells[sl.idx] = flat[c*es : (c+1)*es : (c+1)*es]
		}
	}
}

// healRun re-reads a run whose stored bytes failed their checksum one cell
// at a time, rebuilds and rewrites each corrupt cell from its group
// (healCell), and places every cell in the job's containers. Only
// corruptHeals passes call it: inline, under the exclusive lock.
func (p *fanoutPass) healRun(run devRun) error {
	for i, sl := range run.slots {
		one := make([]Run, 1)
		p.readRuns([]devRun{{dev: run.dev, slots: run.slots[i : i+1]}}, one)
		cell, err := one[0].Data, one[0].Err
		if errors.Is(err, ErrCorrupt) {
			if cell, err = p.s.healCell(p.ctx, sl.key.stripe, sl.key.pos); err == nil {
				p.healed++
			}
		}
		if err != nil {
			return err
		}
		p.slot(sl).cells[sl.idx] = cell
	}
	return nil
}
