package repair

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Defaults for zero-valued Config fields.
const (
	DefaultBatchStripes   = 16
	DefaultDetectInterval = 50 * time.Millisecond
	DefaultScrubInterval  = time.Second
	DefaultErrorBurst     = 8
)

// DefaultWorkers sizes the rebuild goroutine pool: how many disks repair
// concurrently.
const DefaultWorkers = 2

// burstBatches sizes the token bucket: four rebuild batches' worth of bytes
// may go at once.
const burstBatches = 4

// retryInterval is how long a disk whose repair attempt failed waits before
// the next one: a node that stays down is asked once a second, not every
// detect tick.
const retryInterval = time.Second

// Config tunes the background repair scheduler.
type Config struct {
	// Rate is the repair bandwidth budget in bytes/second of replacement-
	// device writes, shared by every group. <= 0 pauses repair: failures
	// are still detected and queued, but no rebuild batch runs until
	// SetRate raises the budget.
	Rate float64
	// BatchStripes is how many stripes one rebuild Step covers between
	// rate-limit checks. <= 0 uses DefaultBatchStripes.
	BatchStripes int
	// DetectInterval is the health-sampling period. <= 0 uses 50ms.
	DetectInterval time.Duration
	// ErrorBurst is how many hard errors beyond a disk's baseline mark it
	// errored. The baseline resets after the disk's rebuild, so the
	// detector counts errors per disk lifetime, not per window — a slow
	// trickle of real faults still trips it. <= 0 uses DefaultErrorBurst.
	ErrorBurst int64
	// ScrubInterval is the pause between incremental scrub batches.
	// 0 uses DefaultScrubInterval; negative disables scrubbing.
	ScrubInterval time.Duration
	// CursorPath persists the scrub cursor (atomic write per batch) so a
	// restart resumes mid-pass. Empty keeps the cursor in memory only.
	CursorPath string
	// Registry receives the scheduler's metrics; nil disables them.
	Registry *obs.Registry
	// Logf receives operational log lines (detections, rebuild outcomes,
	// scrub errors). Nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.BatchStripes <= 0 {
		c.BatchStripes = DefaultBatchStripes
	}
	if c.DetectInterval <= 0 {
		c.DetectInterval = DefaultDetectInterval
	}
	if c.ScrubInterval == 0 {
		c.ScrubInterval = DefaultScrubInterval
	}
	if c.ErrorBurst <= 0 {
		c.ErrorBurst = DefaultErrorBurst
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// DiskRef names one disk of one group: the unit the scheduler detects,
// queues and rebuilds.
type DiskRef struct {
	Group int `json:"group"`
	Disk  int `json:"disk"`
}

func (k DiskRef) String() string { return fmt.Sprintf("group %d disk %d", k.Group, k.Disk) }

func (k DiskRef) compare(o DiskRef) int {
	return cmp.Or(cmp.Compare(k.Group, o.Group), cmp.Compare(k.Disk, o.Disk))
}

// backoff holds a disk back after a failed repair attempt until the next
// one is due. Its presence marks a failing streak, which is logged once;
// since keeps the streak's detection time for MTTR.
type backoff struct{ since, until time.Time }

// Scheduler is the background maintenance loop over a server's group
// stores: a detect goroutine samples every group's device error counts
// (each group its own detector, since baselines are kept per disk index)
// and fail-stops error-bursting disks, a worker pool drains rebuild
// tasks keyed by (group, disk) through the store's incremental DiskRebuild
// machinery under one token bucket, and a scrub goroutine walks the groups
// in turn verifying checksums with one cursor.
type Scheduler struct {
	stores []*store.Store
	cfg    Config
	bucket *TokenBucket
	m      *metrics

	mu       sync.Mutex
	dets     []*Detector
	pending  map[DiskRef]time.Time // queued or running, since detection
	active   map[DiskRef]*store.DiskRebuild
	backoffs map[DiskRef]backoff
	cursor   Cursor
	lastRep  ScrubReport

	tasks     chan DiskRef
	scrubKick chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New starts a scheduler over the group stores (one for single mode), which
// share one scheme and element size. Call Close to stop it; an in-flight
// rebuild batch finishes, then the rebuild aborts cleanly (the disk stays
// failed and a later scheduler resumes it from scratch).
func New(stores []*store.Store, cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		stores:    stores,
		cfg:       cfg,
		m:         newMetrics(cfg.Registry),
		pending:   make(map[DiskRef]time.Time),
		active:    make(map[DiskRef]*store.DiskRebuild),
		backoffs:  make(map[DiskRef]backoff),
		tasks:     make(chan DiskRef, len(stores)*stores[0].Scheme().N()),
		scrubKick: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	for range stores {
		s.dets = append(s.dets, NewDetector(cfg.ErrorBurst))
	}
	s.bucket = NewTokenBucket(cfg.Rate, float64(burstBatches*s.batchBytes()))
	if cfg.CursorPath != "" {
		cur, err := LoadCursor(cfg.CursorPath)
		if err != nil {
			return nil, err
		}
		s.cursor = cur
	}
	s.m.setScrubCursor(s.cursor.Next)

	s.wg.Add(1)
	go s.detectLoop()
	for i := 0; i < DefaultWorkers; i++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	if cfg.ScrubInterval > 0 {
		s.wg.Add(1)
		go s.scrubLoop()
	}
	return s, nil
}

// Close stops every loop and waits for them. Unfinished rebuilds abort;
// their disks stay failed for the next scheduler to pick up.
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.wg.Wait()
	})
}

// batchBytes estimates replacement-device bytes one rebuild batch writes:
// stripes × rows-per-disk × element size. The token bucket charges this per
// Step.
func (s *Scheduler) batchBytes() int {
	st := s.stores[0]
	return s.cfg.BatchStripes * st.Scheme().Layout().Rows() * st.ElementSize()
}

// SetRate retunes the repair bandwidth budget at runtime; <= 0 pauses.
func (s *Scheduler) SetRate(rate float64) { s.bucket.SetRate(rate) }

// TriggerRebuild queues disk d of group g for rebuild without waiting for
// the next detect tick.
func (s *Scheduler) TriggerRebuild(g, d int) error {
	if g < 0 || g >= len(s.stores) || d < 0 || d >= s.stores[g].Scheme().N() {
		return fmt.Errorf("repair: no disk %d in group %d", d, g)
	}
	k := DiskRef{g, d}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, busy := s.pending[k]; busy {
		return fmt.Errorf("repair: %v already queued", k)
	}
	return s.enqueueLocked(k, time.Now())
}

// TriggerScrub requests an extra scrub batch as soon as the scrub loop can
// run one, instead of waiting out the interval.
func (s *Scheduler) TriggerScrub() {
	select {
	case s.scrubKick <- struct{}{}:
	default:
	}
}

// enqueueLocked records the repair as pending since the given detection time
// (the MTTR clock) and hands it to the worker pool. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(k DiskRef, since time.Time) error {
	select {
	case s.tasks <- k:
		s.pending[k] = since
		return nil
	default:
		return fmt.Errorf("repair: task queue full, %v not queued", k)
	}
}

// queueLocked queues a detected disk unless it is queued, running or backing
// off. A disk in a failing streak is re-queued silently with the streak's
// detection time; a fresh detection is counted under kind and logged.
// Caller holds s.mu.
func (s *Scheduler) queueLocked(k DiskRef, kind, why string) {
	if _, ok := s.pending[k]; ok {
		return
	}
	since := time.Now()
	if b, retry := s.backoffs[k]; retry {
		if since.Before(b.until) {
			return
		}
		since = b.since
	} else {
		s.m.observeDetection(kind)
		s.cfg.Logf("repair: %v %s", k, why)
	}
	s.enqueueLocked(k, since)
}

// detectLoop samples device health every DetectInterval and turns detector
// verdicts into repair tasks.
func (s *Scheduler) detectLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.DetectInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.detectOnce()
		}
	}
}

// detectOnce runs one sample → verdict → enqueue round over every group.
// It samples under s.mu, so a rebuild that finishes meanwhile is either
// still pending or already healthy in the sample.
func (s *Scheduler) detectOnce() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for g, st := range s.stores {
		sample := Sample{
			Errors:     st.DiskErrorCounts(),
			Failed:     st.FailedDisks(),
			Rebuilding: st.Rebuilding(),
		}
		// A streak ends when its disk is back in service by other means.
		for k := range s.backoffs {
			if k.Group == g && !slices.Contains(sample.Failed, k.Disk) {
				delete(s.backoffs, k)
			}
		}
		v := s.dets[g].Observe(sample)
		for _, d := range v.Failed {
			s.queueLocked(DiskRef{g, d}, "failed", "is failed, queueing rebuild")
		}
		for _, d := range v.Errored {
			k := DiskRef{g, d}
			if _, ok := s.pending[k]; ok {
				continue
			}
			if !s.stores[g].FailDiskWithinTolerance(d) {
				s.cfg.Logf("repair: %v error burst, but failing it would exceed tolerance; leaving in service", k)
				continue
			}
			s.queueLocked(k, "errored", "exceeded error threshold, fail-stopped for rebuild")
		}
	}
}

// censusOnce fail-stops every in-service disk holding fewer cells than its
// group's sealed extent: one that lost cells it was written, such as a node
// restarted on an empty directory, or that cannot say, such as a node that
// is down. Healthy GETs read no parity, so they alone may never trip the
// error detector on such a disk.
func (s *Scheduler) censusOnce() {
	for g, st := range s.stores {
		want := st.Stripes() * st.Scheme().Layout().Rows()
		for d := 0; d < st.Scheme().N(); d++ {
			if slices.Contains(st.FailedDisks(), d) || st.DiskElements(d) >= want {
				continue
			}
			k := DiskRef{g, d}
			s.mu.Lock()
			if _, ok := s.pending[k]; !ok && st.FailDiskWithinTolerance(d) {
				s.queueLocked(k, "lost", "holds fewer cells than the group's sealed stripes, fail-stopped for rebuild")
			}
			s.mu.Unlock()
		}
	}
}

// workerLoop drains the task channel through runRepair.
func (s *Scheduler) workerLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case k := <-s.tasks:
			s.runRepair(k)
		}
	}
}

// runRepair drives one disk's rebuild to completion under the rate limit,
// recording bytes, backoffs, MTTR, and the outcome.
func (s *Scheduler) runRepair(k DiskRef) {
	st := s.stores[k.Group]
	r, err := st.BeginDiskRebuild(k.Disk)
	if errors.Is(err, store.ErrNotFailed) {
		// A disk that healed between detection and here is not an error
		// worth counting.
		s.mu.Lock()
		delete(s.pending, k)
		delete(s.backoffs, k)
		s.mu.Unlock()
		return
	}
	if err != nil {
		s.endRepair(k, fmt.Errorf("begin rebuild: %w", err))
		return
	}

	s.mu.Lock()
	since := s.pending[k]
	s.active[k] = r
	s.mu.Unlock()

	batchBytes := s.batchBytes()
	rowBytes := st.Scheme().Layout().Rows() * st.ElementSize()
	for {
		select {
		case <-s.done:
			r.Abort()
			s.endRepair(k, nil)
			return
		default:
		}

		if !s.bucket.Take(batchBytes) {
			s.m.observeBackoff()
			wait := s.bucket.Wait(batchBytes)
			if wait < 0 {
				// Paused: poll for a rate change at detect cadence.
				wait = s.cfg.DetectInterval
			}
			wait = min(max(wait, time.Millisecond), 250*time.Millisecond)
			select {
			case <-s.done:
				r.Abort()
				s.endRepair(k, nil)
				return
			case <-time.After(wait):
			}
			continue
		}

		before, _, _ := r.Progress()
		done, err := r.Step(s.cfg.BatchStripes)
		after, _, _ := r.Progress()
		s.m.observeBytes((after - before) * rowBytes)
		if err != nil {
			s.endRepair(k, err)
			return
		}
		if done {
			s.m.observeRebuildDone(true)
			mttr := time.Since(since)
			s.m.observeMTTR(mttr.Seconds())
			s.cfg.Logf("repair: %v rebuilt in %v", k, mttr.Round(time.Millisecond))
			s.mu.Lock()
			// Rebaseline the detector at the disk's current error count so
			// historical errors don't re-trip it forever.
			s.dets[k.Group].Reset(k.Disk, st.DiskErrorCounts()[k.Disk])
			delete(s.pending, k)
			delete(s.active, k)
			delete(s.backoffs, k)
			s.mu.Unlock()
			return
		}
	}
}

// endRepair clears tracking for an aborted (err == nil) or failed repair. A
// failed attempt is counted, logged only when it starts a failing streak,
// and holds the disk back for retryInterval; the detect loop then re-queues
// a still-failed disk, so a node that comes back is rebuilt unprompted.
func (s *Scheduler) endRepair(k DiskRef, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	since := s.pending[k]
	delete(s.pending, k)
	delete(s.active, k)
	if err == nil {
		return
	}
	s.m.observeRebuildDone(false)
	b, retry := s.backoffs[k]
	if !retry {
		s.cfg.Logf("repair: %v: %v (retrying every %v)", k, err, retryInterval)
		b.since = since
	}
	b.until = time.Now().Add(retryInterval)
	s.backoffs[k] = b
}

// scrubLoop takes the cell census and runs one incremental scrub batch per
// interval (or kick), the batch sitting out while any disk is failed or
// rebuilding — repair I/O outranks scrub.
func (s *Scheduler) scrubLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		case <-s.scrubKick:
		}
		s.censusOnce()
		if !slices.ContainsFunc(s.stores, func(st *store.Store) bool {
			return len(st.FailedDisks()) > 0 || len(st.Rebuilding()) > 0
		}) {
			s.scrubOnce()
		}
	}
}

// scrubOnce advances the scrub by one batch and records the result.
func (s *Scheduler) scrubOnce() {
	s.mu.Lock()
	cur := s.cursor
	s.mu.Unlock()

	next, rep, err := ScrubStep(s.stores, cur, store.DefaultScrubBatch, s.cfg.CursorPath)
	if err != nil {
		s.cfg.Logf("repair: scrub batch at group %d stripe %d: %v", cur.Group, cur.Next, err)
		return
	}
	if rep.Healed > 0 {
		s.cfg.Logf("repair: scrub healed %d cells in group %d stripes [%d,%d)", rep.Healed, rep.Group, rep.Start, rep.End)
	}
	s.m.observeScrub(rep)
	s.m.setScrubCursor(next.Next)

	s.mu.Lock()
	s.cursor = next
	s.lastRep = rep
	s.mu.Unlock()
}

// RebuildStatus describes one in-flight rebuild for Status.
type RebuildStatus struct {
	DiskRef
	Next       int     `json:"next"`
	Total      int     `json:"total"`
	ReadCost   int     `json:"read_cost"`
	RunningSec float64 `json:"running_sec"`
}

// Status is the scheduler's live state, served by the /repair endpoint.
// Stripes sums the groups'.
type Status struct {
	RateBytesPerSec float64         `json:"rate_bytes_per_sec"`
	Tokens          float64         `json:"tokens"`
	FailedDisks     []DiskRef       `json:"failed_disks"`
	QueuedDisks     []DiskRef       `json:"queued_disks"`
	Active          []RebuildStatus `json:"active"`
	ScrubCycle      int             `json:"scrub_cycle"`
	ScrubGroup      int             `json:"scrub_group"`
	ScrubNext       int             `json:"scrub_next"`
	ScrubLastHealed int             `json:"scrub_last_healed"`
	Stripes         int             `json:"stripes"`
}

// StatusSnapshot assembles the scheduler's current Status.
func (s *Scheduler) StatusSnapshot() Status {
	st := Status{
		RateBytesPerSec: s.bucket.Rate(),
		Tokens:          s.bucket.Tokens(),
	}
	for g, gs := range s.stores {
		for _, d := range gs.FailedDisks() {
			st.FailedDisks = append(st.FailedDisks, DiskRef{g, d})
		}
		st.Stripes += gs.Stripes()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.pending {
		if _, running := s.active[k]; !running {
			st.QueuedDisks = append(st.QueuedDisks, k)
		}
	}
	for k, r := range s.active {
		next, total, cost := r.Progress()
		st.Active = append(st.Active, RebuildStatus{
			DiskRef:    k,
			Next:       next,
			Total:      total,
			ReadCost:   cost,
			RunningSec: time.Since(r.Started()).Seconds(),
		})
	}
	slices.SortFunc(st.QueuedDisks, DiskRef.compare)
	slices.SortFunc(st.Active, func(a, b RebuildStatus) int { return a.compare(b.DiskRef) })
	st.ScrubCycle = s.cursor.Cycle
	st.ScrubGroup = s.cursor.Group
	st.ScrubNext = s.cursor.Next
	st.ScrubLastHealed = s.lastRep.Healed
	return st
}
