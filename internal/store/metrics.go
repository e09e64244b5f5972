package store

import (
	"strconv"

	"repro/internal/obs"
)

// maxLoadBuckets are the upper bounds for the per-request max-disk-load
// histogram. Loads are small integers (elements on the most-loaded disk for
// one request), so the buckets resolve every value the paper's request sizes
// (1-20 one-element reads) can produce and coarsen beyond that.
var maxLoadBuckets = []float64{1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32}

// Metrics is the store's observability bundle: per-disk element I/O
// counters, the per-request max-disk-load histogram the paper's design
// minimizes (§III-B), and counters for the fault-handling machinery
// (retries, degraded replans, heals, epoch invalidations). A nil *Metrics
// disables everything — every method is nil-safe, so the store's hot paths
// carry no "is observability on?" branches.
//
// Metric names:
//
//	ecfrm_disk_element_reads_total{disk}     element reads served per disk
//	ecfrm_disk_element_writes_total{disk}    element writes per disk
//	ecfrm_store_reads_total{mode}            completed reads, normal|degraded
//	ecfrm_store_read_max_disk_load{mode}     histogram of Plan.MaxLoad per read
//	ecfrm_store_op_retries_total{op}         transient-fault retries, read|write
//	ecfrm_store_read_replans_total           reads re-planned around unavailable disks
//	ecfrm_store_heals_total                  corrupt cells rebuilt and rewritten
//	ecfrm_store_epoch_invalidations_total    mutation-epoch bumps (cache invalidations)
type Metrics struct {
	diskReads    []*obs.Counter
	diskWrites   []*obs.Counter
	diskInflight []*obs.Gauge
	diskErrors   []*obs.Counter
	diskLatency  []*obs.Gauge

	recoverElems      *obs.Counter
	recoverSecRebuild *obs.Histogram
	recoverSecMigrate *obs.Histogram

	readsNormal   *obs.Counter
	readsDegraded *obs.Counter
	loadNormal    *obs.Histogram
	loadDegraded  *obs.Histogram

	readRetries  *obs.Counter
	writeRetries *obs.Counter
	replans      *obs.Counter
	heals        *obs.Counter
	epochInval   *obs.Counter

	hedgeFired     *obs.Counter
	hedgeWon       *obs.Counter
	hedgeCancelled *obs.Counter
	runBytes       *obs.Histogram

	walQueuedObjects *obs.Gauge
	walQueuedBytes   *obs.Gauge
	walBatchObjects  *obs.Histogram
	walBatchBytes    *obs.Histogram
	walPutSeconds    *obs.Histogram
	walCommitsOK     *obs.Counter
	walCommitsFault  *obs.Counter

	// File-backend instruments: per-device submission-queue depth, per-op
	// service-time histograms inside the queues, the commit-path fsync
	// barrier, and the spilled WAL log.
	devqDepth    []*obs.Gauge
	devqReadSec  *obs.Histogram
	devqWriteSec *obs.Histogram
	devqSyncSec  *obs.Histogram
	fsyncSec     *obs.Histogram

	walLogBytes   *obs.Gauge
	walLogSyncSec *obs.Histogram
	walLogErrors  *obs.Counter
}

// NewMetrics registers the store's metric families for a disks-device array
// in reg and returns the bundle to install with SetMetrics. Registration is
// idempotent per registry: two stores sharing one registry share series.
func NewMetrics(reg *obs.Registry, disks int) *Metrics {
	m := &Metrics{}
	for d := 0; d < disks; d++ {
		lbl := obs.L("disk", strconv.Itoa(d))
		m.diskReads = append(m.diskReads, reg.Counter("ecfrm_disk_element_reads_total",
			"Element-granularity reads served per disk.", lbl))
		m.diskWrites = append(m.diskWrites, reg.Counter("ecfrm_disk_element_writes_total",
			"Element-granularity writes per disk.", lbl))
		m.diskInflight = append(m.diskInflight, reg.Gauge("ecfrm_disk_inflight_runs",
			"Fan-out runs currently in flight per disk (the load-aware planner's bias signal).", lbl))
		m.diskErrors = append(m.diskErrors, reg.Counter("ecfrm_disk_errors_total",
			"Hard device errors per disk: fail-stops, exhausted retry budgets, backend I/O failures (the repair scheduler's error-rate detector input).", lbl))
		m.diskLatency = append(m.diskLatency, reg.Gauge("ecfrm_disk_latency_ewma_seconds",
			"Exponentially weighted moving average of per-op service latency per disk (the limping-disk detector input).", lbl))
	}
	m.recoverElems = reg.Counter("ecfrm_store_recover_read_elements_total",
		"Distinct survivor elements read by disk rebuilds and migrations (the paper's recovery read cost).")
	m.recoverSecRebuild = reg.Histogram("ecfrm_store_recover_seconds",
		"Wall-clock duration of completed disk recoveries, by kind.",
		recoverSecondsBuckets, obs.L("kind", "rebuild"))
	m.recoverSecMigrate = reg.Histogram("ecfrm_store_recover_seconds",
		"Wall-clock duration of completed disk recoveries, by kind.",
		recoverSecondsBuckets, obs.L("kind", "migrate"))
	m.readsNormal = reg.Counter("ecfrm_store_reads_total",
		"Completed store reads by mode.", obs.L("mode", "normal"))
	m.readsDegraded = reg.Counter("ecfrm_store_reads_total",
		"Completed store reads by mode.", obs.L("mode", "degraded"))
	m.loadNormal = reg.Histogram("ecfrm_store_read_max_disk_load",
		"Per-request element count on the most-loaded disk (the paper's max-load metric).",
		maxLoadBuckets, obs.L("mode", "normal"))
	m.loadDegraded = reg.Histogram("ecfrm_store_read_max_disk_load",
		"Per-request element count on the most-loaded disk (the paper's max-load metric).",
		maxLoadBuckets, obs.L("mode", "degraded"))
	m.readRetries = reg.Counter("ecfrm_store_op_retries_total",
		"Transient-fault retries by operation.", obs.L("op", "read"))
	m.writeRetries = reg.Counter("ecfrm_store_op_retries_total",
		"Transient-fault retries by operation.", obs.L("op", "write"))
	m.replans = reg.Counter("ecfrm_store_read_replans_total",
		"Reads re-planned degraded around unavailable devices.")
	m.heals = reg.Counter("ecfrm_store_heals_total",
		"Corrupt cells rebuilt from their group and rewritten in place.")
	m.epochInval = reg.Counter("ecfrm_store_epoch_invalidations_total",
		"Mutation-epoch bumps; each invalidates decoded-read caches.")
	m.hedgeFired = reg.Counter("ecfrm_store_hedge_total",
		"Hedged-read outcomes: fired (speculation launched), won (hedge beat the primary), cancelled (primary finished first).",
		obs.L("outcome", "fired"))
	m.hedgeWon = reg.Counter("ecfrm_store_hedge_total",
		"Hedged-read outcomes: fired (speculation launched), won (hedge beat the primary), cancelled (primary finished first).",
		obs.L("outcome", "won"))
	m.hedgeCancelled = reg.Counter("ecfrm_store_hedge_total",
		"Hedged-read outcomes: fired (speculation launched), won (hedge beat the primary), cancelled (primary finished first).",
		obs.L("outcome", "cancelled"))
	m.runBytes = reg.Histogram("ecfrm_store_read_run_bytes",
		"Bytes per coalesced device run issued by the fan-out executor.",
		obs.ExpBuckets(1024, 4, 9))
	m.walQueuedObjects = reg.Gauge("ecfrm_wal_queued_objects",
		"Objects accepted by the WAL and awaiting group commit.")
	m.walQueuedBytes = reg.Gauge("ecfrm_wal_queued_bytes",
		"User bytes queued in the WAL awaiting group commit.")
	m.walBatchObjects = reg.Histogram("ecfrm_wal_batch_objects",
		"Objects sealed per successful group commit.",
		obs.ExpBuckets(1, 2, 11))
	m.walBatchBytes = reg.Histogram("ecfrm_wal_batch_bytes",
		"User bytes sealed per successful group commit.",
		obs.ExpBuckets(4096, 4, 9))
	m.walPutSeconds = reg.Histogram("ecfrm_wal_put_seconds",
		"Time a WAL Put waited for its group commit (ack latency).",
		requestSecondsBuckets)
	m.walCommitsOK = reg.Counter("ecfrm_wal_commits_total",
		"Group-commit attempts by outcome: ok (batch sealed) or fault (aborted whole, entries retained).",
		obs.L("outcome", "ok"))
	m.walCommitsFault = reg.Counter("ecfrm_wal_commits_total",
		"Group-commit attempts by outcome: ok (batch sealed) or fault (aborted whole, entries retained).",
		obs.L("outcome", "fault"))
	for d := 0; d < disks; d++ {
		m.devqDepth = append(m.devqDepth, reg.Gauge("ecfrm_devq_depth",
			"Submitted-but-uncompleted SQEs in the device's submission queue (file backend).",
			obs.L("disk", strconv.Itoa(d))))
	}
	m.devqReadSec = reg.Histogram("ecfrm_devq_io_seconds",
		"Per-operation service time inside the device submission queues, by op.",
		ioSecondsBuckets, obs.L("op", "read"))
	m.devqWriteSec = reg.Histogram("ecfrm_devq_io_seconds",
		"Per-operation service time inside the device submission queues, by op.",
		ioSecondsBuckets, obs.L("op", "write"))
	m.devqSyncSec = reg.Histogram("ecfrm_devq_io_seconds",
		"Per-operation service time inside the device submission queues, by op.",
		ioSecondsBuckets, obs.L("op", "sync"))
	m.fsyncSec = reg.Histogram("ecfrm_store_fsync_barrier_seconds",
		"Duration of the commit-path fsync barrier (all touched devices synced before publish).",
		ioSecondsBuckets)
	m.walLogBytes = reg.Gauge("ecfrm_wal_log_bytes",
		"Bytes of the WAL log spilled to its on-disk file (live spill watermark).")
	m.walLogSyncSec = reg.Histogram("ecfrm_wal_log_sync_seconds",
		"Duration of the WAL log spill-and-fsync performed before a group commit acks.",
		ioSecondsBuckets)
	m.walLogErrors = reg.Counter("ecfrm_wal_log_errors_total",
		"WAL log spill failures; after one, the WAL keeps serving from memory with spill disabled.")
	return m
}

// ioSecondsBuckets spans 10µs to ~2.6s exponentially — resolves both page-
// cache hits and real rotational fsyncs.
var ioSecondsBuckets = obs.ExpBuckets(1e-5, 4, 10)

// requestSecondsBuckets spans 100µs to ~6.5s exponentially — resolves
// sub-millisecond group-commit acks and degrades gracefully under injected
// device latency.
var requestSecondsBuckets = obs.ExpBuckets(1e-4, 4, 9)

// recoverSecondsBuckets spans 1ms to ~4.4min exponentially — in-memory
// rebuilds finish in milliseconds, rate-limited file rebuilds in minutes.
var recoverSecondsBuckets = obs.ExpBuckets(1e-3, 4, 9)

// observeRecover records one completed disk recovery: its survivor read
// cost and wall-clock duration, labeled by kind ("rebuild" or "migrate").
func (m *Metrics) observeRecover(kind string, readElems int, seconds float64) {
	if m == nil {
		return
	}
	m.recoverElems.Add(int64(readElems))
	if kind == string(RebuildMigrate) {
		m.recoverSecMigrate.Observe(seconds)
	} else {
		m.recoverSecRebuild.Observe(seconds)
	}
}

// RecoverReadElements returns the cumulative survivor-element read count
// recorded by completed recoveries (the satellite metrics-assertion hook).
func (m *Metrics) RecoverReadElements() int64 {
	if m == nil {
		return 0
	}
	return m.recoverElems.Value()
}

// RecoverCount returns how many recoveries of the given kind have recorded
// a duration.
func (m *Metrics) RecoverCount(kind string) int64 {
	if m == nil {
		return 0
	}
	if kind == string(RebuildMigrate) {
		return m.recoverSecMigrate.Count()
	}
	return m.recoverSecRebuild.Count()
}

// DiskErrors returns the exported hard-error count for disk d.
func (m *Metrics) DiskErrors(d int) int64 {
	if m == nil || d >= len(m.diskErrors) {
		return 0
	}
	return m.diskErrors[d].Value()
}

// observeRead records one completed read: its mode and its plan's max load.
func (m *Metrics) observeRead(degraded bool, maxLoad int) {
	if m == nil {
		return
	}
	if degraded {
		m.readsDegraded.Inc()
		m.loadDegraded.Observe(float64(maxLoad))
	} else {
		m.readsNormal.Inc()
		m.loadNormal.Observe(float64(maxLoad))
	}
}

// retry records one transient-fault retry on the given path.
func (m *Metrics) retry(write bool) {
	if m == nil {
		return
	}
	if write {
		m.writeRetries.Inc()
	} else {
		m.readRetries.Inc()
	}
}

// replan records a read falling back to a degraded plan mid-flight.
func (m *Metrics) replan() {
	if m != nil {
		m.replans.Inc()
	}
}

// heal records one corrupt cell rebuilt and rewritten.
func (m *Metrics) heal() {
	if m != nil {
		m.heals.Inc()
	}
}

// epochBump records one mutation-epoch invalidation.
func (m *Metrics) epochBump() {
	if m != nil {
		m.epochInval.Inc()
	}
}

// hedge records one hedged-read outcome: "fired", "won", or "cancelled".
func (m *Metrics) hedge(outcome string) {
	if m == nil {
		return
	}
	switch outcome {
	case "fired":
		m.hedgeFired.Inc()
	case "won":
		m.hedgeWon.Inc()
	case "cancelled":
		m.hedgeCancelled.Inc()
	}
}

// observeRun records the size of one coalesced device run.
func (m *Metrics) observeRun(bytes int) {
	if m != nil {
		m.runBytes.Observe(float64(bytes))
	}
}

// walDepth publishes the WAL's current queue depth.
func (m *Metrics) walDepth(objects, bytes int) {
	if m != nil {
		m.walQueuedObjects.Set(float64(objects))
		m.walQueuedBytes.Set(float64(bytes))
	}
}

// walCommit records one group-commit attempt; ok batches also record their
// size in objects and user bytes.
func (m *Metrics) walCommit(ok bool, objects, bytes int) {
	if m == nil {
		return
	}
	if ok {
		m.walCommitsOK.Inc()
		m.walBatchObjects.Observe(float64(objects))
		m.walBatchBytes.Observe(float64(bytes))
	} else {
		m.walCommitsFault.Inc()
	}
}

// walPut records one Put's ack latency in seconds.
func (m *Metrics) walPut(seconds float64) {
	if m != nil {
		m.walPutSeconds.Observe(seconds)
	}
}

// fsyncBarrier records one commit-path fsync barrier's duration.
func (m *Metrics) fsyncBarrier(seconds float64) {
	if m != nil {
		m.fsyncSec.Observe(seconds)
	}
}

// walLog publishes the spilled WAL log's on-disk size.
func (m *Metrics) walLog(bytes int64) {
	if m != nil {
		m.walLogBytes.Set(float64(bytes))
	}
}

// walLogSync records one WAL log spill-and-fsync duration.
func (m *Metrics) walLogSync(seconds float64) {
	if m != nil {
		m.walLogSyncSec.Observe(seconds)
	}
}

// walLogError records one WAL log spill failure.
func (m *Metrics) walLogError() {
	if m != nil {
		m.walLogErrors.Inc()
	}
}

// queueObsFor returns the submission-queue metric bundle for device d, nil
// when the metrics bundle is nil (clearing the queue's sinks).
func (m *Metrics) queueObsFor(d int) *queueObs {
	if m == nil || d >= len(m.devqDepth) {
		return nil
	}
	return &queueObs{
		depth:    m.devqDepth[d],
		readSec:  m.devqReadSec,
		writeSec: m.devqWriteSec,
		syncSec:  m.devqSyncSec,
	}
}

// deviceCounters returns the per-disk counters for device d (nil when the
// bundle is nil or d is out of the registered range), for wiring into the
// device itself so its read/write methods account without a store hop.
func (m *Metrics) deviceCounters(d int) (reads, writes *obs.Counter) {
	if m == nil || d >= len(m.diskReads) {
		return nil, nil
	}
	return m.diskReads[d], m.diskWrites[d]
}

// deviceInflight returns the per-disk in-flight gauge for device d (nil when
// the bundle is nil or d is out of range).
func (m *Metrics) deviceInflight(d int) *obs.Gauge {
	if m == nil || d >= len(m.diskInflight) {
		return nil
	}
	return m.diskInflight[d]
}

// SetMetrics installs (or with nil, removes) the store's metrics bundle and
// wires every device's I/O counters. Call it before serving traffic;
// installation takes the exclusive lock.
func (s *Store) SetMetrics(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.Store(m)
	for i, d := range s.devices {
		d.obsReads, d.obsWrites = m.deviceCounters(i)
		d.obsInflight = m.deviceInflight(i)
		d.obsErrors, d.obsLatency = m.deviceHealth(i)
		if fb, ok := d.be.(*fileBackend); ok {
			fb.q.setObs(m.queueObsFor(i))
		}
	}
}

// deviceHealth returns the per-disk error counter and latency-EWMA gauge for
// device d (nil when the bundle is nil or d is out of range).
func (m *Metrics) deviceHealth(d int) (errs *obs.Counter, lat *obs.Gauge) {
	if m == nil || d >= len(m.diskErrors) {
		return nil, nil
	}
	return m.diskErrors[d], m.diskLatency[d]
}

// Metrics returns the installed metrics bundle (nil if none). It takes no
// lock, so a commit holding the store does not stall whoever only counts.
func (s *Store) Metrics() *Metrics { return s.obs.Load() }
