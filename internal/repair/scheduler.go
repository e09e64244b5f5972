package repair

import (
	"errors"
	"fmt"
	"sort"
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
)

// DefaultWorkers sizes the rebuild goroutine pool: how many disks repair
// concurrently.
const DefaultWorkers = 2

// Config tunes the background repair scheduler.
type Config struct {
	// Rate is the repair bandwidth budget in bytes/second of replacement-
	// device writes. <= 0 pauses repair: failures are still detected and
	// queued, but no rebuild batch runs until SetRate raises the budget.
	Rate float64
	// Burst caps the token bucket (and so the largest instantaneous batch
	// debt). <= 0 uses four batches' worth of bytes.
	Burst float64
	// BatchStripes is how many stripes one rebuild Step covers between
	// rate-limit checks. <= 0 uses DefaultBatchStripes.
	BatchStripes int
	// DetectInterval is the health-sampling period. <= 0 uses 50ms.
	DetectInterval time.Duration
	// Detector tunes failure/limping detection thresholds. Limping disks
	// are reported in Status and counted, but left in service.
	Detector DetectorConfig
	// ScrubInterval is the pause between incremental scrub batches.
	// 0 uses DefaultScrubInterval; negative disables scrubbing.
	ScrubInterval time.Duration
	// ScrubBatch is stripes verified per scrub batch. <= 0 uses the
	// store's DefaultScrubBatch.
	ScrubBatch int
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
	if c.ScrubBatch <= 0 {
		c.ScrubBatch = store.DefaultScrubBatch
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// task is one unit of repair work handed to the worker pool.
type task struct {
	disk int
	kind store.RebuildKind
}

// pendingRepair tracks a detected-but-unfinished repair for dedup and MTTR.
type pendingRepair struct {
	since time.Time
	kind  store.RebuildKind
}

// Scheduler is the background maintenance loop: a detect goroutine samples
// device health and fail-stops error-bursting disks, a worker pool drains
// rebuild/migration tasks through the store's incremental DiskRebuild
// machinery under the token bucket's rate limit, and a scrub goroutine
// walks the store verifying checksums with a persisted cursor.
type Scheduler struct {
	st     *store.Store
	cfg    Config
	bucket *TokenBucket
	m      *metrics

	mu      sync.Mutex
	det     *Detector
	pending map[int]pendingRepair
	active  map[int]*store.DiskRebuild
	cursor  Cursor
	limping []int
	lastRep ScrubReport

	tasks     chan task
	scrubKick chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New starts a scheduler over st. Call Close to stop it; an in-flight
// rebuild batch finishes, then the rebuild aborts cleanly (the disk stays
// failed and a later scheduler resumes it from scratch).
func New(st *store.Store, cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		st:        st,
		cfg:       cfg,
		m:         newMetrics(cfg.Registry),
		det:       NewDetector(cfg.Detector),
		pending:   make(map[int]pendingRepair),
		active:    make(map[int]*store.DiskRebuild),
		tasks:     make(chan task, st.Scheme().N()),
		scrubKick: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	burst := cfg.Burst
	if burst <= 0 {
		burst = float64(4 * s.batchBytes())
	}
	s.bucket = NewTokenBucket(cfg.Rate, burst)
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
	rows := s.st.Scheme().Layout().Rows()
	return s.cfg.BatchStripes * rows * s.st.ElementSize()
}

// SetRate retunes the repair bandwidth budget at runtime; <= 0 pauses.
func (s *Scheduler) SetRate(rate float64) { s.bucket.SetRate(rate) }

// TriggerRebuild queues failed disk d for rebuild without waiting for the
// next detect tick.
func (s *Scheduler) TriggerRebuild(d int) error {
	return s.trigger(d, store.RebuildFailed)
}

// TriggerMigrate queues healthy disk d for migration onto a fresh
// replacement device — the rebalance path after swapping in new hardware.
func (s *Scheduler) TriggerMigrate(d int) error {
	return s.trigger(d, store.RebuildMigrate)
}

func (s *Scheduler) trigger(d int, kind store.RebuildKind) error {
	if d < 0 || d >= s.st.Scheme().N() {
		return fmt.Errorf("repair: no disk %d", d)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, busy := s.pending[d]; busy {
		return fmt.Errorf("repair: disk %d already queued", d)
	}
	if _, busy := s.active[d]; busy {
		return fmt.Errorf("repair: disk %d repair already running", d)
	}
	return s.enqueueLocked(d, kind)
}

// TriggerScrub requests an extra scrub batch as soon as the scrub loop can
// run one, instead of waiting out the interval.
func (s *Scheduler) TriggerScrub() {
	select {
	case s.scrubKick <- struct{}{}:
	default:
	}
}

// enqueueLocked records the repair as pending (MTTR clock starts now) and
// hands it to the worker pool. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(d int, kind store.RebuildKind) error {
	select {
	case s.tasks <- task{disk: d, kind: kind}:
		s.pending[d] = pendingRepair{since: time.Now(), kind: kind}
		return nil
	default:
		return fmt.Errorf("repair: task queue full, disk %d not queued", d)
	}
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

// detectOnce runs one sample → verdict → enqueue round.
func (s *Scheduler) detectOnce() {
	sample := Sample{
		Errors:     s.st.DiskErrorCounts(),
		Latency:    s.st.DiskLatencies(),
		Failed:     s.st.FailedDisks(),
		Rebuilding: s.st.Rebuilding(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.det.Observe(sample)
	s.limping = v.Limping

	for _, d := range v.Failed {
		if s.skipLocked(d) {
			continue
		}
		s.m.observeDetection("failed")
		s.cfg.Logf("repair: disk %d is failed, queueing rebuild", d)
		s.enqueueLocked(d, store.RebuildFailed)
	}
	for _, d := range v.Errored {
		if s.skipLocked(d) {
			continue
		}
		if !s.st.FailDiskWithinTolerance(d) {
			s.cfg.Logf("repair: disk %d error burst, but failing it would exceed tolerance; leaving in service", d)
			continue
		}
		s.m.observeDetection("errored")
		s.cfg.Logf("repair: disk %d exceeded error threshold, fail-stopped for rebuild", d)
		s.enqueueLocked(d, store.RebuildFailed)
	}
	for _, d := range v.Limping {
		if s.skipLocked(d) {
			continue
		}
		s.m.observeDetection("limping")
	}
}

// skipLocked reports whether disk d already has a repair queued or running.
func (s *Scheduler) skipLocked(d int) bool {
	if _, ok := s.pending[d]; ok {
		return true
	}
	_, ok := s.active[d]
	return ok
}

// workerLoop drains the task channel through runRepair.
func (s *Scheduler) workerLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case t := <-s.tasks:
			s.runRepair(t)
		}
	}
}

// runRepair drives one disk's rebuild or migration to completion under the
// rate limit, recording bytes, backoffs, MTTR, and the outcome.
func (s *Scheduler) runRepair(t task) {
	var (
		r   *store.DiskRebuild
		err error
	)
	if t.kind == store.RebuildMigrate {
		r, err = s.st.BeginDiskMigration(t.disk)
	} else {
		r, err = s.st.BeginDiskRebuild(t.disk)
	}
	if err != nil {
		s.mu.Lock()
		delete(s.pending, t.disk)
		s.mu.Unlock()
		// A disk that healed (or was migrated) between detection and here
		// is not an error worth counting.
		if !errors.Is(err, store.ErrNotFailed) {
			s.cfg.Logf("repair: begin %s of disk %d: %v", t.kind, t.disk, err)
			s.m.observeRebuildDone(false)
		}
		return
	}

	s.mu.Lock()
	since := s.pending[t.disk].since
	if since.IsZero() {
		since = r.Started()
	}
	s.active[t.disk] = r
	s.mu.Unlock()

	batchBytes := s.batchBytes()
	rowBytes := s.st.Scheme().Layout().Rows() * s.st.ElementSize()
	for {
		select {
		case <-s.done:
			r.Abort()
			s.finishRepair(t.disk)
			return
		default:
		}

		// Foreground pressure: the busiest disk's in-flight fan-out runs
		// shrink the bucket's refill, so client traffic wins the I/O race.
		pressure := 0
		for _, n := range s.st.InflightRuns() {
			if n > pressure {
				pressure = n
			}
		}
		s.bucket.SetPressure(float64(pressure))

		if !s.bucket.Take(batchBytes) {
			s.m.observeBackoff(pressure > 0)
			wait := s.bucket.Wait(batchBytes)
			if wait < 0 {
				// Paused: poll for a rate change at detect cadence.
				wait = s.cfg.DetectInterval
			}
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			if wait > 250*time.Millisecond {
				wait = 250 * time.Millisecond
			}
			select {
			case <-s.done:
				r.Abort()
				s.finishRepair(t.disk)
				return
			case <-time.After(wait):
			}
			continue
		}

		before, _, _ := r.Progress()
		done, err := r.Step(s.cfg.BatchStripes)
		after, _, _ := r.Progress()
		s.m.observeBytes(string(t.kind), (after-before)*rowBytes)
		if err != nil {
			s.cfg.Logf("repair: %s of disk %d failed: %v", t.kind, t.disk, err)
			s.m.observeRebuildDone(false)
			s.finishRepair(t.disk)
			return
		}
		if done {
			s.m.observeRebuildDone(true)
			if t.kind == store.RebuildFailed {
				mttr := time.Since(since)
				s.m.observeMTTR(mttr.Seconds())
				s.cfg.Logf("repair: disk %d rebuilt in %v", t.disk, mttr.Round(time.Millisecond))
			} else {
				s.cfg.Logf("repair: disk %d migrated in %v", t.disk,
					time.Since(r.Started()).Round(time.Millisecond))
			}
			s.mu.Lock()
			// Rebaseline the detector at the disk's current error count so
			// historical errors don't re-trip it forever.
			s.det.Reset(t.disk, s.st.DiskErrorCounts()[t.disk])
			delete(s.pending, t.disk)
			delete(s.active, t.disk)
			s.mu.Unlock()
			return
		}
	}
}

// finishRepair clears tracking for an aborted or failed repair. The detect
// loop re-detects a still-failed disk on its next tick, so retries are
// automatic (and rate-limited by the bucket like any other batch).
func (s *Scheduler) finishRepair(d int) {
	s.mu.Lock()
	delete(s.pending, d)
	delete(s.active, d)
	s.mu.Unlock()
}

// scrubLoop runs one incremental scrub batch per interval (or kick), sitting
// out while any disk is failed or rebuilding — repair I/O outranks scrub.
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
		if len(s.st.FailedDisks()) > 0 || len(s.st.Rebuilding()) > 0 {
			continue
		}
		s.scrubOnce()
	}
}

// scrubOnce advances the scrub by one batch and records the result.
func (s *Scheduler) scrubOnce() {
	s.mu.Lock()
	cur := s.cursor
	s.mu.Unlock()

	next, rep, err := ScrubStep(s.st, cur, s.cfg.ScrubBatch, s.cfg.CursorPath)
	if err != nil {
		s.cfg.Logf("repair: scrub batch at stripe %d: %v", cur.Next, err)
		return
	}
	if rep.Healed > 0 {
		s.cfg.Logf("repair: scrub healed %d cells in stripes [%d,%d)", rep.Healed, rep.Start, rep.End)
	}
	s.m.observeScrub(rep)
	s.m.setScrubCursor(next.Next)

	s.mu.Lock()
	s.cursor = next
	s.lastRep = rep
	s.mu.Unlock()
}

// RebuildStatus describes one in-flight repair for Status.
type RebuildStatus struct {
	Disk       int     `json:"disk"`
	Kind       string  `json:"kind"`
	Next       int     `json:"next"`
	Total      int     `json:"total"`
	ReadCost   int     `json:"read_cost"`
	RunningSec float64 `json:"running_sec"`
}

// Status is the scheduler's live state, served by the /repair endpoint.
type Status struct {
	RateBytesPerSec      float64         `json:"rate_bytes_per_sec"`
	EffectiveBytesPerSec float64         `json:"effective_bytes_per_sec"`
	Tokens               float64         `json:"tokens"`
	FailedDisks          []int           `json:"failed_disks"`
	LimpingDisks         []int           `json:"limping_disks"`
	QueuedDisks          []int           `json:"queued_disks"`
	Active               []RebuildStatus `json:"active"`
	ScrubCycle           int             `json:"scrub_cycle"`
	ScrubNext            int             `json:"scrub_next"`
	ScrubLastHealed      int             `json:"scrub_last_healed"`
	Stripes              int             `json:"stripes"`
}

// StatusSnapshot assembles the scheduler's current Status.
func (s *Scheduler) StatusSnapshot() Status {
	st := Status{
		RateBytesPerSec:      s.bucket.Rate(),
		EffectiveBytesPerSec: s.bucket.EffectiveRate(),
		Tokens:               s.bucket.Tokens(),
		FailedDisks:          s.st.FailedDisks(),
		Stripes:              s.st.Stripes(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.LimpingDisks = append([]int(nil), s.limping...)
	for d, p := range s.pending {
		if _, running := s.active[d]; !running && p.kind == store.RebuildFailed {
			st.QueuedDisks = append(st.QueuedDisks, d)
		}
	}
	sort.Ints(st.QueuedDisks)
	for _, r := range s.active {
		next, total, cost := r.Progress()
		st.Active = append(st.Active, RebuildStatus{
			Disk:       r.Disk(),
			Kind:       string(r.Kind()),
			Next:       next,
			Total:      total,
			ReadCost:   cost,
			RunningSec: time.Since(r.Started()).Seconds(),
		})
	}
	sort.Slice(st.Active, func(i, j int) bool { return st.Active[i].Disk < st.Active[j].Disk })
	st.ScrubCycle = s.cursor.Cycle
	st.ScrubNext = s.cursor.Next
	st.ScrubLastHealed = s.lastRep.Healed
	return st
}
