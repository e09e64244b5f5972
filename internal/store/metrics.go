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
// minimizes (§III-B), and counters for the degraded-read machinery
// (replans, heals, epoch invalidations). A nil *Metrics
// disables everything — every method is nil-safe, so the store's hot paths
// carry no "is observability on?" branches.
//
// Metric names:
//
//	ecfrm_disk_element_reads_total{disk}     element reads served per disk
//	ecfrm_disk_element_writes_total{disk}    element writes per disk
//	ecfrm_disk_errors_total{disk}            hard device errors per disk, its one health signal
//	ecfrm_store_zero_cells_total             zero cells seals recorded without writing
//	ecfrm_store_reads_total{mode}            completed reads, normal|degraded
//	ecfrm_store_read_max_disk_load{mode}     histogram of Plan.MaxLoad per read
//	ecfrm_store_read_replans_total           read jobs re-planned around devices a pass took out
//	ecfrm_store_heals_total                  corrupt cells rebuilt and rewritten
//	ecfrm_store_epoch_invalidations_total    mutation-epoch bumps (cache invalidations)
type Metrics struct {
	diskReads  []*obs.Counter
	diskWrites []*obs.Counter
	diskErrors []*obs.Counter

	recoverElems *obs.Counter
	recoverSec   *obs.Histogram

	readsNormal   *obs.Counter
	readsDegraded *obs.Counter
	loadNormal    *obs.Histogram
	loadDegraded  *obs.Histogram

	replans    *obs.Counter
	heals      *obs.Counter
	epochInval *obs.Counter
	zeros      *obs.Counter

	runBytes *obs.Histogram

	walQueuedObjects *obs.Gauge
	walQueuedBytes   *obs.Gauge
	walBatchObjects  *obs.Histogram
	walBatchBytes    *obs.Histogram
	walPutSeconds    *obs.Histogram
	walCommitsOK     *obs.Counter
	walCommitsFailed *obs.Counter

	// File-backend instruments: per-disk data-file I/Os in flight, per-op
	// syscall service time, the commit-path fsync barrier, and the spilled
	// WAL log.
	devqDepth []*obs.Gauge
	devqSec   [3]*obs.Histogram // by ioOp
	fsyncSec  *obs.Histogram

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
		m.diskErrors = append(m.diskErrors, reg.Counter("ecfrm_disk_errors_total",
			"Hard device errors per disk: runs its backend failed to serve (the repair scheduler's error-rate detector input).", lbl))
	}
	m.recoverElems = reg.Counter("ecfrm_store_recover_read_elements_total",
		"Distinct survivor elements read by disk rebuilds (the paper's recovery read cost).")
	m.recoverSec = reg.Histogram("ecfrm_store_recover_seconds",
		"Wall-clock duration of completed disk recoveries, by kind.",
		recoverSecondsBuckets, obs.L("kind", "rebuild"))
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
	m.replans = reg.Counter("ecfrm_store_read_replans_total",
		"Read jobs re-planned around devices a pass took out (unavailable, or corrupt in a recovery read).")
	m.heals = reg.Counter("ecfrm_store_heals_total",
		"Corrupt cells rebuilt from their group and rewritten in place.")
	m.epochInval = reg.Counter("ecfrm_store_epoch_invalidations_total",
		"Mutation-epoch bumps; each invalidates decoded-read caches.")
	m.zeros = reg.Counter("ecfrm_store_zero_cells_total",
		"Cells zero by construction (padding, and parity reading only padding) that seals recorded as zero runs instead of writing.")
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
	m.walCommitsFailed = reg.Counter("ecfrm_wal_commits_total",
		"Group-commit attempts by outcome: ok (batch sealed) or fault (aborted whole, entries retained).",
		obs.L("outcome", "fault"))
	for d := 0; d < disks; d++ {
		m.devqDepth = append(m.devqDepth, reg.Gauge("ecfrm_devq_depth",
			"Data-file I/Os (pread, pwrite, fsync) in flight on the disk (file backend).",
			obs.L("disk", strconv.Itoa(d))))
	}
	for op, name := range []string{"read", "write", "sync"} {
		m.devqSec[op] = reg.Histogram("ecfrm_devq_io_seconds",
			"Service time of each data-file syscall on a file disk, by op: pread, pwrite, fsync.",
			ioSecondsBuckets, obs.L("op", name))
	}
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
// cost and wall-clock duration.
func (m *Metrics) observeRecover(readElems int, seconds float64) {
	if m == nil {
		return
	}
	m.recoverElems.Add(int64(readElems))
	m.recoverSec.Observe(seconds)
}

// RecoverReadElements returns the cumulative survivor-element read count
// recorded by completed recoveries (the satellite metrics-assertion hook).
func (m *Metrics) RecoverReadElements() int64 {
	if m == nil {
		return 0
	}
	return m.recoverElems.Value()
}

// RecoverCount returns how many recoveries have recorded a duration.
func (m *Metrics) RecoverCount() int64 {
	if m == nil {
		return 0
	}
	return m.recoverSec.Count()
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

// zeroCells records n cells written as zero runs.
func (m *Metrics) zeroCells(n int) {
	if m != nil && n > 0 {
		m.zeros.Add(int64(n))
	}
}

// epochBump records one mutation-epoch invalidation.
func (m *Metrics) epochBump() {
	if m != nil {
		m.epochInval.Inc()
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
		m.walCommitsFailed.Inc()
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

// SetMetrics installs (or with nil, removes) the store's metrics bundle and
// wires every device's I/O counters. Call it before serving traffic;
// installation takes the exclusive lock.
func (s *Store) SetMetrics(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.Store(m)
	for i, d := range s.devices {
		m.wire(i, d)
	}
}

// wire points device d's instruments at disk i's series (detaching them when
// m is nil or i is out of the registered range), including a file disk's
// syscall instruments, so the device accounts without a store hop.
func (m *Metrics) wire(i int, d *Device) {
	d.obsReads, d.obsWrites, d.obsErrors = nil, nil, nil
	var io *diskIO
	if m != nil && i < len(m.diskReads) {
		d.obsReads, d.obsWrites, d.obsErrors = m.diskReads[i], m.diskWrites[i], m.diskErrors[i]
		io = &diskIO{depth: m.devqDepth[i], sec: m.devqSec}
	}
	if ds, ok := d.base.(*DiskStore); ok {
		ds.obs.Store(io)
	}
}

// Metrics returns the installed metrics bundle (nil if none). It takes no
// lock, so a commit holding the store does not stall whoever only counts.
func (s *Store) Metrics() *Metrics { return s.obs.Load() }
