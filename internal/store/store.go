// Package store implements an erasure-coded blob store over a set of
// simulated devices — the "erasure coded cloud storage system" substrate the
// paper evaluates on.
//
// Writes follow the paper's append-only model (§I): user bytes accumulate in
// a buffer and are erasure coded a full stripe at a time. Reads go through
// the core planner: normal reads touch only data cells, degraded reads fetch
// recovery sets and decode. Every device access is counted, so experiments
// can cross-check planned loads against observed I/O.
//
// The store is safe for concurrent use: reads share a read lock so
// independent clients plan and decode in parallel, while writes, failure
// injection, recovery, and healing exclude. Device I/O counters are atomic,
// so concurrent readers account their accesses without contending.
package store

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/obs"
)

// ErrRange is returned for reads outside the written extent.
var ErrRange = errors.New("store: read out of range")

// ErrFailed is returned when an operation touches a failed device without a
// recovery path.
var ErrFailed = errors.New("store: device failed")

// ErrCorrupt is returned when a cell's content no longer matches the
// checksum recorded at write time (silent bit rot). Reads heal such cells
// automatically when the group has enough redundancy.
var ErrCorrupt = errors.New("store: corrupt cell")

// ErrUnavailable is returned when a device exhausted its retry budget on
// slow-or-transient faults. It is softer than ErrFailed: the device is not
// marked failed, but the current operation could not complete through it,
// and reads fall back to a degraded plan that routes around it.
var ErrUnavailable = errors.New("store: device unavailable")

// errNeedsHeal is the internal signal that a shared-lock read hit a corrupt
// cell and must retry exclusively so it may rewrite the healed bytes.
var errNeedsHeal = errors.New("store: read needs exclusive heal")

// Default per-operation retry policy: how long one device operation may
// take before it counts as timed out, and how many times a transient fault
// is retried before the device is reported ErrUnavailable.
const (
	DefaultOpTimeout = 50 * time.Millisecond
	DefaultRetries   = 2
)

// Fault is the injected outcome of one device operation, decided by a
// FaultInjector before the store touches the device. The zero value means
// "no fault": the operation proceeds normally.
type Fault struct {
	// Delay is added service latency. A delay exceeding the store's per-op
	// timeout counts as a timed-out operation (the store waits out the
	// timeout, not the full delay).
	Delay time.Duration
	// Stuck marks an operation that would hang past any timeout — a stuck
	// or pathologically slow disk.
	Stuck bool
	// Err is a transient error returned instead of performing the
	// operation. Retried up to the store's retry budget.
	Err error
	// Corrupt marks a read whose returned bits fail the cell checksum — a
	// transient medium mis-read, detected and retried like Err (reads only).
	Corrupt bool
	// Failed marks a device that has fail-stopped (e.g. a fail-after-N-ops
	// policy tripping). The operation returns ErrFailed and reads treat the
	// device exactly like one marked by FailDisk.
	Failed bool
}

// FaultInjector decides the fault, if any, for every device operation. The
// store consults it on each element-granularity read and write (including
// retries — every attempt is a fresh decision). Implementations must be
// safe for concurrent use; internal/faultinject provides a seeded,
// deterministic one.
type FaultInjector interface {
	ReadFault(dev int) Fault
	WriteFault(dev int) Fault
}

// Device is one disk of the array: a cell container with I/O accounting and
// per-cell CRC32C checksums that detect silent corruption on read. Where the
// cells actually live is the backend's business (diskdev.go): an in-memory
// map for simulated devices, or a data/checksum file pair behind an async
// submission queue for real ones.
type Device struct {
	id     int
	rows   int // cells per stripe on this device; slot = stripe*rows + row
	be     devBackend
	failed bool
	// reads and writes count element-granularity accesses. They are atomic
	// because reads are served under the store's shared lock, so many
	// goroutines increment them concurrently.
	reads  atomic.Int64
	writes atomic.Int64
	// obsReads/obsWrites mirror the counts into the store's metrics registry
	// when one is installed (SetMetrics). Unlike reads/writes they are never
	// reset: scrape counters are monotonic. Guarded by the store lock for
	// writes of the pointers; the counters themselves are atomic.
	obsReads  *obs.Counter
	obsWrites *obs.Counter
	// inflight counts fan-out runs currently being served by this device.
	// The load-aware degraded planner reads it as a live queue-depth signal;
	// obsInflight mirrors it into the metrics registry.
	inflight    atomic.Int64
	obsInflight *obs.Gauge
	// errs counts hard device errors — fail-stops, exhausted retry budgets,
	// backend I/O failures — the repair scheduler's error-rate detector
	// watches. latEWMA is an exponentially weighted moving average of op
	// service latency in nanoseconds (α = 1/8), the limping-disk signal.
	// obsErrors/obsLatency mirror both into the metrics registry.
	errs       atomic.Int64
	latEWMA    atomic.Int64
	obsErrors  *obs.Counter
	obsLatency *obs.Gauge
}

type cellKey struct {
	stripe int
	pos    layout.Pos
}

func newDevice(id, rows int) *Device {
	return &Device{id: id, rows: rows, be: newMemBackend()}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ID returns the device's index in the array.
func (d *Device) ID() int { return d.id }

// Failed reports whether the device is marked failed.
func (d *Device) Failed() bool { return d.failed }

// Elements returns the number of elements currently stored on the device.
func (d *Device) Elements() int { return d.be.elements() }

// Reads returns the element-granularity read count.
func (d *Device) Reads() int { return int(d.reads.Load()) }

// Writes returns the element-granularity write count.
func (d *Device) Writes() int { return int(d.writes.Load()) }

// Errors returns the hard-error count (fail-stops, exhausted retry budgets,
// backend I/O failures) since construction.
func (d *Device) Errors() int64 { return d.errs.Load() }

// noteError counts one hard device error for the failure detectors.
func (d *Device) noteError() {
	d.errs.Add(1)
	d.obsErrors.Inc()
}

// observeLatency folds one op's service latency into the device's EWMA
// (α = 1/8; the first sample seeds it) and mirrors the result to the
// metrics gauge. Lock-free: concurrent readers fold their samples in
// CAS-retry order.
func (d *Device) observeLatency(sample time.Duration) {
	for {
		old := d.latEWMA.Load()
		next := int64(sample)
		if old != 0 {
			next = old + (int64(sample)-old)/8
		}
		if d.latEWMA.CompareAndSwap(old, next) {
			d.obsLatency.Set(float64(next) / 1e9)
			return
		}
	}
}

// slot maps a cell to its dense device-local index: within one device a
// stripe occupies rows consecutive slots, so this is also the cell's on-disk
// record offset for file backends.
func (d *Device) slot(k cellKey) int { return k.stripe*d.rows + k.pos.Row }

func (d *Device) write(k cellKey, data []byte) error {
	return d.writeRun(k, data, []uint32{crc32.Checksum(data, castagnoli)})
}

// writeRun writes len(crcs) contiguous cells, flattened into flat — a stripe
// seals one such run per device — as a single backend operation when the
// backend supports it (one pwrite instead of rows).
func (d *Device) writeRun(k cellKey, flat []byte, crcs []uint32) error {
	if err := d.be.writeRun(d.slot(k), flat, crcs); err != nil {
		return err
	}
	d.writes.Add(int64(len(crcs)))
	d.obsWrites.Add(int64(len(crcs)))
	return nil
}

func (d *Device) read(k cellKey) ([]byte, error) {
	if d.failed {
		return nil, fmt.Errorf("%w: device %d", ErrFailed, d.id)
	}
	data, crc, err := d.be.readCell(d.slot(k))
	if err != nil {
		if errors.Is(err, errCellMissing) {
			return nil, fmt.Errorf("store: device %d has no element %v", d.id, k)
		}
		return nil, fmt.Errorf("%w: device %d: %v", ErrUnavailable, d.id, err)
	}
	d.reads.Add(1)
	d.obsReads.Inc()
	if crc32.Checksum(data, castagnoli) != crc {
		return nil, fmt.Errorf("%w: device %d stripe %d cell (%d,%d)",
			ErrCorrupt, d.id, k.stripe, k.pos.Row, k.pos.Col)
	}
	return data, nil
}

// readRun reads count contiguous cells starting at k as one backend I/O when
// the backend supports bulk reads (the fan-out executor's coalesced runs map
// to a single pread this way), verifying each cell's checksum. The returned
// slices subdivide one backend buffer.
func (d *Device) readRun(k cellKey, count int) ([][]byte, error) {
	if d.failed {
		return nil, fmt.Errorf("%w: device %d", ErrFailed, d.id)
	}
	r, ok := d.be.(runIO)
	if !ok {
		return nil, errCellMissing // caller falls back to per-cell reads
	}
	slot := d.slot(k)
	raw, crcs, err := r.readRun(slot, count)
	if err != nil {
		if errors.Is(err, errCellMissing) {
			return nil, fmt.Errorf("store: device %d missing elements in run at %v", d.id, k)
		}
		return nil, fmt.Errorf("%w: device %d: %v", ErrUnavailable, d.id, err)
	}
	d.reads.Add(int64(count))
	d.obsReads.Add(int64(count))
	elem := len(raw) / count
	out := make([][]byte, count)
	for i := range out {
		cell := raw[i*elem : (i+1)*elem : (i+1)*elem]
		if crc32.Checksum(cell, castagnoli) != crcs[i] {
			s := slot + i
			return nil, fmt.Errorf("%w: device %d stripe %d row %d",
				ErrCorrupt, d.id, s/d.rows, s%d.rows)
		}
		out[i] = cell
	}
	return out, nil
}

// Store is an erasure-coded append-only blob store.
type Store struct {
	scheme   *core.Scheme
	elemSize int
	rows     int // scheme.Layout().Rows(), cached: slot math sits on hot paths

	// File-backend state (zero for memory-backed stores): the data
	// directory, whether commits run the fsync barrier before publishing,
	// and the factory RecoverDisk uses to open a fresh truncated backend for
	// a replacement device. closed poisons use-after-Close.
	dataDir      string
	fsync        bool
	newBackendFn func(d int) (devBackend, error)
	closed       bool

	// remote marks a store whose devices delegate to CellBackends (see
	// remote.go): Backend() reports it, Close() closes the backends even
	// though there is no data directory. nodeOf, when set, maps each device
	// to its placement node so inflightBias aggregates per node (guarded by
	// mu like readOpts).
	remote bool
	nodeOf []int

	// Migration staging hooks (file backends; nil means in-memory staging):
	// newStagingBackendFn opens device d's dev_NN.{data,crc}.new staging
	// pair, promoteStagingFn renames it over the live pair, and
	// discardStagingFn removes an abandoned one. See repair.go.
	newStagingBackendFn func(d int) (devBackend, error)
	promoteStagingFn    func(d int) error
	discardStagingFn    func(d int) error

	// rebuilding marks devices with an incremental rebuild or migration in
	// progress (guarded by mu), so two repairs cannot race on one device and
	// WriteAt refuses while staged copies could go stale.
	rebuilding map[int]bool

	// testScrubYield, when set by a test, runs between Scrub batches while
	// the shared lock is released — the window concurrent reads and writes
	// are promised.
	testScrubYield func(next int)

	// mu guards devices' cell maps, failure flags, and the append state.
	// Reads hold it shared; writes, failure injection, recovery, and healing
	// hold it exclusively.
	mu      sync.RWMutex
	devices []*Device
	stripes int       // full stripes sealed so far
	pending []byte    // buffered bytes not yet forming a full stripe; one reused stripe-sized buffer
	sealing *sealBufs // what every seal reuses, built by the first
	length  int64     // total bytes appended

	// epoch increments on every mutation that can change the bytes a read
	// returns or the plan it follows (failure, recovery, corruption, heal,
	// overwrite, fault-plan change). Callers caching decoded reads key them
	// by this value.
	epoch atomic.Int64

	// obs, when non-nil, is the metrics bundle every interesting event feeds
	// (see metrics.go): installed under mu, read lock-free through Metrics();
	// the instruments themselves are atomic.
	obs atomic.Pointer[Metrics]

	// inject, when non-nil, decides a fault for every device operation.
	// Guarded by mu (set exclusively, consulted under either lock mode).
	inject FaultInjector
	// opTimeout and retries are the per-operation retry policy applied when
	// a fault injector is installed.
	opTimeout time.Duration
	retries   int

	// testBeforeHeal, when set by a test, runs between a shared-lock read
	// detecting corruption and the exclusive re-acquisition that heals it —
	// the window where concurrent failures can change what is recoverable.
	testBeforeHeal func()

	// bufs is the shard arena decoded cells are drawn from; cellsPool
	// recycles per-stripe cell containers. Together they keep the read
	// executors from allocating per-stripe garbage on every request.
	bufs      core.Buffers
	cellsPool sync.Pool // *stripeCells

	// readOpts are the default execution options ReadAt uses (see fanout.go).
	// Guarded by mu like inject.
	readOpts ReadOptions
	// hedgeLat records recent per-run latencies; hedged reads derive their
	// speculation delay from its quantiles.
	hedgeLat latencyRing
}

// New creates a store using the given scheme with elemSize-byte elements.
func New(scheme *core.Scheme, elemSize int) (*Store, error) {
	if elemSize < 1 {
		return nil, fmt.Errorf("store: element size %d must be positive", elemSize)
	}
	rows := scheme.Layout().Rows()
	devs := make([]*Device, scheme.N())
	for i := range devs {
		devs[i] = newDevice(i, rows)
	}
	return &Store{
		scheme:    scheme,
		elemSize:  elemSize,
		rows:      rows,
		devices:   devs,
		opTimeout: DefaultOpTimeout,
		retries:   DefaultRetries,
	}, nil
}

// MustNew is New for known-good arguments; it panics on error.
func MustNew(scheme *core.Scheme, elemSize int) *Store {
	s, err := New(scheme, elemSize)
	if err != nil {
		panic(err)
	}
	return s
}

// Scheme returns the erasure-coding scheme in use.
func (s *Store) Scheme() *core.Scheme { return s.scheme }

// ElementSize returns the element size in bytes.
func (s *Store) ElementSize() int { return s.elemSize }

// Len returns the total number of bytes appended so far.
func (s *Store) Len() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.length
}

// NextOffset returns the logical offset the next appended byte will occupy.
// It differs from Len whenever Flush has padded a partial stripe: the
// padding occupies address space (reads map offsets to stripe positions
// arithmetically) without being user data.
func (s *Store) NextOffset() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(s.stripes)*int64(s.stripeBytes()) + int64(len(s.pending))
}

// Stripes returns the number of sealed (fully encoded) stripes.
func (s *Store) Stripes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stripes
}

// Epoch returns the current mutation epoch. Two reads of the same range
// observing the same epoch are guaranteed byte-identical, so decoded results
// may be cached until the epoch moves.
func (s *Store) Epoch() int64 { return s.epoch.Load() }

// bumpEpoch advances the mutation epoch and accounts the invalidation.
// Caller holds mu (the epoch itself is atomic; the convention keeps bumps
// tied to the mutation they publish).
func (s *Store) bumpEpoch() {
	s.epoch.Add(1)
	s.Metrics().epochBump()
}

// SetFaultInjector installs (or with nil, removes) the fault injector
// consulted on every device operation. Installing a plan bumps the epoch:
// a plan can change what reads observe (e.g. corruption behaviour), so any
// decoded-read cache keyed by the epoch must invalidate.
func (s *Store) SetFaultInjector(fi FaultInjector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inject = fi
	s.bumpEpoch()
}

// FaultInjector returns the currently installed fault injector (nil if none).
func (s *Store) FaultInjector() FaultInjector {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inject
}

// SetRetryPolicy overrides the per-operation timeout and transient-fault
// retry budget (attempts = retries+1). Zero or negative arguments keep the
// defaults.
func (s *Store) SetRetryPolicy(perOp time.Duration, retries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if perOp > 0 {
		s.opTimeout = perOp
	}
	if retries >= 0 {
		s.retries = retries
	}
}

// Device returns device d for inspection.
func (s *Store) Device(d int) *Device {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.devices[d]
}

// ResetCounters zeroes every device's I/O counters.
func (s *Store) ResetCounters() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, d := range s.devices {
		d.reads.Store(0)
		d.writes.Store(0)
	}
}

// stripeBytes is the user-data capacity of one stripe.
func (s *Store) stripeBytes() int { return s.scheme.DataPerStripe() * s.elemSize }

// readCell reads one cell from device dev through the fault injector.
// Injected latency is served (capped at the per-op timeout), transient
// faults — errors, timed-out/stuck operations, checksum-failing mis-reads —
// are retried up to the retry budget, and a device that exhausts the budget
// is reported ErrUnavailable so read paths can route around it. Checksum
// failures of the stored bytes themselves surface as ErrCorrupt (persistent
// corruption: retrying cannot help, healing can). Caller holds mu in either
// mode.
func (s *Store) readCell(dev int, k cellKey) ([]byte, error) {
	return s.readCellCtx(context.Background(), dev, k)
}

// readCellCtx is readCell with cancellable fault waits: injected delays and
// stuck-op timeouts return early when ctx is done, so hedged and fanned-out
// reads can abandon a straggling device without leaking a sleeping
// goroutine. Caller holds mu in either mode.
func (s *Store) readCellCtx(ctx context.Context, dev int, k cellKey) ([]byte, error) {
	d := s.devices[dev]
	start := time.Now()
	var last error
	for attempt := 0; attempt <= s.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var f Fault
		if s.inject != nil {
			f = s.inject.ReadFault(dev)
		}
		if f.Failed {
			d.noteError()
			return nil, fmt.Errorf("%w: device %d fail-stopped by fault plan", ErrFailed, dev)
		}
		if f.Stuck || f.Delay > s.opTimeout {
			if err := sleepCtx(ctx, s.opTimeout); err != nil {
				return nil, err
			}
			last = fmt.Errorf("%w: device %d read timed out after %v", ErrUnavailable, dev, s.opTimeout)
			s.Metrics().retry(false)
			d.observeLatency(s.opTimeout)
			continue
		}
		if f.Delay > 0 {
			if err := sleepCtx(ctx, f.Delay); err != nil {
				return nil, err
			}
		}
		if f.Err != nil {
			last = fmt.Errorf("%w: device %d: %v", ErrUnavailable, dev, f.Err)
			s.Metrics().retry(false)
			continue
		}
		data, err := d.read(k)
		if err != nil {
			// Failed flag, missing cell, or stored-bytes checksum failure:
			// none of these are transient, so no retry. A backend I/O error
			// (ErrUnavailable from the device itself, not an injected fault)
			// is a hard signal for the failure detector.
			if errors.Is(err, ErrUnavailable) {
				d.noteError()
			}
			return nil, err
		}
		if f.Corrupt {
			// The device returned bits failing the checksum — a transient
			// medium mis-read (the stored cell is clean). Retry.
			last = fmt.Errorf("%w: device %d returned bytes failing checksum", ErrUnavailable, dev)
			s.Metrics().retry(false)
			continue
		}
		d.observeLatency(time.Since(start))
		return data, nil
	}
	if last != nil {
		// Retry budget exhausted: the device is limping hard enough to count.
		d.noteError()
	}
	return nil, last
}

// writeGate runs the write-side fault decision for one cell write on device
// dev: latency is served and transient faults retried, exactly like
// readCell. Actual cell commits are pure memory mutations that cannot fail,
// so multi-cell updates gate every write first and only then mutate — a
// faulted update aborts with no partial state, keeping stripes
// parity-consistent under any fault schedule. Caller holds mu exclusively.
func (s *Store) writeGate(dev int) error {
	var last error
	for attempt := 0; attempt <= s.retries; attempt++ {
		var f Fault
		if s.inject != nil {
			f = s.inject.WriteFault(dev)
		}
		if f.Failed {
			s.devices[dev].noteError()
			return fmt.Errorf("%w: device %d fail-stopped by fault plan", ErrFailed, dev)
		}
		if f.Stuck || f.Delay > s.opTimeout {
			time.Sleep(s.opTimeout)
			last = fmt.Errorf("%w: device %d write timed out after %v", ErrUnavailable, dev, s.opTimeout)
			s.Metrics().retry(true)
			continue
		}
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Err != nil {
			last = fmt.Errorf("%w: device %d: %v", ErrUnavailable, dev, f.Err)
			s.Metrics().retry(true)
			continue
		}
		return nil
	}
	if last != nil {
		s.devices[dev].noteError()
	}
	return last
}

// Append adds data to the store, sealing (encoding and distributing) every
// stripe that fills. Partial tails stay buffered until more data arrives or
// Flush pads them out. The bytes are copied; data stays the caller's.
//
// On a file-backed store with the FsyncAlways discipline, Append returns
// only after every sealed stripe is durably on disk: each seal gates all
// writes, then writes, and one fsync barrier covers every device before
// Append returns — write-then-fsync-then-publish, with the publish being the
// lock release that makes the new stripes visible to readers.
func (s *Store) Append(data []byte) error { return s.commit(false, data) }

// Flush zero-pads and seals any buffered partial stripe. The store's Len is
// unchanged: padding is not user data. It does occupy address space, though,
// so callers placing multiple objects must take NextOffset — not Len — as
// the next object's position.
func (s *Store) Flush() error { return s.commit(true) }

// commit is the one write entry point: under one exclusive lock it buffers
// each object in turn, sealing every stripe that fills, then (flush) pads
// and seals the tail, and runs one fsync barrier over whatever sealed — how a
// group commit hands over its batch, with no concatenated copy. Every byte
// handed over is buffered even when a seal faults (a faulted seal publishes
// nothing), so callers never hand bytes twice; the next commit retries.
func (s *Store) commit(flush bool, objs ...[]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.stripes
	err := s.buffer(nil) // first, whatever an earlier faulted seal left
	for _, data := range objs {
		s.length += int64(len(data))
		if err == nil {
			err = s.buffer(data)
		} else {
			s.pending = append(s.pending, data...)
		}
	}
	if n := len(s.pending); err == nil && flush && n > 0 {
		// Only the last partial element is zero-filled, in place; the
		// elements after it are seal's shared zero element.
		padded := s.pending[:(n+s.elemSize-1)/s.elemSize*s.elemSize]
		clear(padded[n:])
		if err = s.seal(padded); err == nil {
			s.pending = s.pending[:0]
		}
	}
	if err != nil || s.stripes == before {
		return err
	}
	return s.syncDevices(nil)
}

// buffer appends data to the pending buffer, sealing and recycling it each
// time it fills, so it stays one stripe long however large the hand-over.
// After a seal fault the rest of data is still buffered: pending exceeds a
// stripe until a later call drains it, oldest first. Caller holds mu.
func (s *Store) buffer(data []byte) error {
	sb := s.stripeBytes()
	if s.pending == nil && len(data) > 0 {
		s.pending = make([]byte, 0, sb)
	}
	for {
		if room := sb - len(s.pending); room > 0 {
			n := min(room, len(data))
			s.pending = append(s.pending, data[:n]...)
			data = data[n:]
		}
		if len(s.pending) < sb {
			return nil
		}
		if err := s.seal(s.pending[:sb]); err != nil {
			s.pending = append(s.pending, data...)
			return err
		}
		s.pending = s.pending[:copy(s.pending, s.pending[sb:])]
	}
}

// sealBufs are the buffers every seal reuses (seals exclude each other under
// mu): per column one flat run of rows cells plus its checksums — what the
// device is handed — and the encoder's cell table, whose parity slots point
// into the runs (parity is computed in place) and whose data slots each seal
// re-aliases to its source.
type sealBufs struct {
	data, cells, runs [][]byte
	crcs              [][]uint32
	zero              []byte // the shared element behind every padding shard
}

func (s *Store) newSealBufs() *sealBufs {
	n, rows, es := s.scheme.N(), s.rows, s.elemSize
	sl := &sealBufs{data: make([][]byte, s.scheme.DataPerStripe()), cells: make([][]byte, rows*n),
		runs: make([][]byte, n), crcs: make([][]uint32, n), zero: make([]byte, es)}
	for col := range sl.runs {
		sl.runs[col] = alignedBytes(rows * es)
		sl.crcs[col] = make([]uint32, rows)
		for row := 0; row < rows; row++ {
			sl.cells[row*n+col] = sl.runs[col][row*es : (row+1)*es : (row+1)*es]
		}
	}
	return sl
}

// seal encodes one stripe from buf — whole elements, at most a stripe's
// worth; the elements buf lacks are zero — and writes every cell to its
// device. Data shards alias buf only while seal runs; devices are handed the
// store's own runs. Caller holds mu exclusively.
func (s *Store) seal(buf []byte) error {
	if s.sealing == nil {
		s.sealing = s.newSealBufs()
	}
	sl, es := s.sealing, s.elemSize
	lay := s.scheme.Layout()
	n := s.scheme.N()
	for e := range sl.data {
		if lo := e * es; lo < len(buf) {
			sl.data[e] = buf[lo : lo+es]
		} else {
			sl.data[e] = sl.zero
		}
	}
	if err := s.scheme.EncodeStripeInto(&s.bufs, sl.cells, sl.data); err != nil {
		return err
	}
	for e, shard := range sl.data {
		pos := lay.DataPos(e)
		copy(sl.runs[pos.Col][pos.Row*es:], shard)
	}
	for col, run := range sl.runs {
		for row := range sl.crcs[col] {
			sl.crcs[col][row] = crc32.Checksum(run[row*es:(row+1)*es], castagnoli)
		}
	}
	// Fault gate every cell write before touching any device: a faulted
	// seal aborts whole, leaving the pending buffer for a retry instead of a
	// half-written stripe. Serial, in this order: seeded plans replay.
	for col := 0; col < n; col++ {
		disk := lay.Disk(s.stripes, col)
		for row := 0; row < s.rows; row++ {
			if err := s.writeGate(disk); err != nil {
				return fmt.Errorf("store: seal stripe %d: %w", s.stripes, err)
			}
		}
	}
	// Each device's share of the stripe is rows contiguous slots: one run
	// (a single pwrite on file backends), all devices at once. The stripe
	// counter advances only if every write succeeded; commit runs the barrier.
	err := eachDevice(n, func(col int) error {
		disk := lay.Disk(s.stripes, col)
		k := cellKey{s.stripes, layout.Pos{Row: 0, Col: col}}
		if err := s.devices[disk].writeRun(k, sl.runs[col], sl.crcs[col]); err != nil {
			return fmt.Errorf("store: seal stripe %d device %d: %w", s.stripes, disk, err)
		}
		return nil
	})
	if err == nil {
		s.stripes++
	}
	return err
}

// eachDevice runs fn(0..n-1) concurrently — one device operation each — and
// returns their failures, joined.
func eachDevice(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// FailDisk marks device d failed. Its contents become unreadable until
// RecoverDisk rebuilds them.
func (s *Store) FailDisk(d int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.devices[d].failed = true
	s.bumpEpoch()
}

// FailDiskWithinTolerance marks device d failed only if the total failure
// count stays within the scheme's fault tolerance, and reports whether it
// did. The check and the mark are one atomic step, so concurrent callers can
// never push the array past tolerance.
func (s *Store) FailDiskWithinTolerance(d int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	failed := 0
	for _, dev := range s.devices {
		if dev.failed {
			failed++
		}
	}
	if s.devices[d].failed {
		return true
	}
	if failed >= s.scheme.FaultTolerance() {
		return false
	}
	s.devices[d].failed = true
	s.bumpEpoch()
	return true
}

// FailedDisks returns the currently failed device IDs, ascending.
func (s *Store) FailedDisks() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.failedDisksLocked()
}

func (s *Store) failedDisksLocked() []int {
	var out []int
	for _, d := range s.devices {
		if d.failed {
			out = append(out, d.id)
		}
	}
	return out
}

// ReadResult carries a read's payload alongside the plan that produced it,
// so callers can feed the plan's loads into a timing model.
type ReadResult struct {
	Data []byte
	Plan *core.Plan
	// Healed counts cells whose checksum failed during this read and that
	// were rebuilt from their group and rewritten in place.
	Healed int
}

// ReadAt reads length bytes starting at byte offset off. With no failed
// devices this is a normal read; with failures the planner fetches recovery
// sets and the store decodes the lost elements. Bytes must lie within
// sealed stripes (append full stripes or Flush first).
//
// Slow or erroring devices (injected faults) are retried with a bounded
// budget; a device that stays unavailable is routed around exactly like a
// failed one — the read re-plans degraded and decodes the missing elements —
// so availability degrades gracefully long before a disk is marked failed.
//
// Concurrent ReadAt calls share the store lock and proceed in parallel. The
// one exception is a read that trips over silent corruption: healing
// rewrites the cell, so the read retries under the exclusive lock.
//
// Plans execute through the fan-out executor by default (per-device
// coalesced runs issued concurrently — see fanout.go); SetReadOptions or
// ReadAtCtx select the sequential executor, a concurrency bound, or hedged
// reads per call.
func (s *Store) ReadAt(off int64, length int) (*ReadResult, error) {
	return s.ReadAtCtx(context.Background(), off, length, s.ReadDefaults())
}

// PlanRead plans the read of length bytes at offset off — normal or
// degraded, exactly as ReadAt would plan it — without touching any device.
// It backs metadata-only requests (HTTP HEAD): the plan carries the read
// cost and max-disk-load a real read would incur, for free.
func (s *Store) PlanRead(off int64, length int) (*core.Plan, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	startElem, count, err := s.checkReadRange(off, length)
	if err != nil {
		return nil, err
	}
	if length == 0 {
		return &core.Plan{}, nil
	}
	return s.plan(startElem, count, s.failedDisksLocked(), nil)
}

// plan plans count elements from startElem around the failed disks: a
// normal read when there are none, else the exact degraded planner with
// the given per-disk bias (nil for none).
func (s *Store) plan(startElem, count int, failed, bias []int) (*core.Plan, error) {
	if len(failed) == 0 {
		return s.scheme.PlanNormalRead(startElem, count)
	}
	return s.scheme.PlanDegradedReadBiased(startElem, count, failed, bias)
}

// avoidSet returns the failed devices plus those a read found unavailable,
// ascending and deduplicated.
func (s *Store) avoidSet(unavail map[int]bool) []int {
	failed := s.failedDisksLocked()
	for d := range unavail {
		failed = append(failed, d)
	}
	sort.Ints(failed)
	return dedupInts(failed)
}

// readAt executes one read under whichever lock the caller holds. With
// heal=false a corrupt cell aborts with errNeedsHeal (the caller escalates
// to the exclusive lock); with heal=true (exclusive lock held) corrupt cells
// are rebuilt and rewritten in place.
//
// Devices that exhaust their retry budget mid-plan are collected and the
// read re-plans with them treated as failed (degraded fallback). The loop
// terminates: each iteration either returns or grows the unavailable set,
// and planning fails with ErrUnrecoverable once too much of the array is
// out of service.
func (s *Store) readAt(ctx context.Context, off int64, length int, heal bool) (*ReadResult, error) {
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

	// Per-stripe cell containers come from the store's pool and decoded
	// shards from the arena; release recycles them on every exit path —
	// including each replan, whose pass may refill the same slots from
	// different sources — so steady-state reads generate no per-stripe
	// garbage and no pooled buffer is ever dropped or recycled twice.
	fetched := make([]*stripeCells, endElem/dps-startStripe+1)
	release := func() {
		for i, sc := range fetched {
			if sc != nil {
				s.putStripeCells(sc)
				fetched[i] = nil
			}
		}
	}

	unavail := make(map[int]bool) // devices that proved slow-or-erroring

replan:
	for {
		failed := s.avoidSet(unavail)
		plan, err := s.plan(startElem, count, failed, nil)
		if err != nil {
			release()
			if len(unavail) > 0 {
				// The plan only became impossible because of devices that
				// are transiently out: surface that, so callers can retry
				// later rather than treat the data as lost.
				return nil, fmt.Errorf("%w: degraded fallback exhausted (unavailable %v): %w",
					ErrUnavailable, keysSorted(unavail), err)
			}
			return nil, err
		}

		// Execute the plan: fetch each planned cell into per-stripe buffers.
		// Checksum failures are healed on the fly from the cell's group;
		// unavailable devices send the read back around for a new plan.
		healed := 0
		for _, a := range plan.Reads {
			sc := fetched[a.Stripe-startStripe]
			if sc == nil {
				sc = s.getStripeCells()
				fetched[a.Stripe-startStripe] = sc
			}
			data, err := s.readCellCtx(ctx, a.Disk, cellKey{a.Stripe, a.Pos})
			if errors.Is(err, ErrCorrupt) {
				if !heal {
					release()
					return nil, errNeedsHeal
				}
				data, err = s.healCell(a.Stripe, a.Pos)
				if err != nil {
					release()
					return nil, err
				}
				healed++
			} else if errors.Is(err, ErrUnavailable) || errors.Is(err, ErrFailed) {
				unavail[a.Disk] = true
				s.Metrics().replan()
				release()
				continue replan
			}
			if err != nil {
				release()
				return nil, err
			}
			sc.cells[a.Pos.Row*s.scheme.N()+a.Pos.Col] = data
		}

		// Assemble the requested elements, decoding lost ones on the fly.
		data, err := s.assemble(fetched, startStripe, startElem, endElem, off, length)
		release()
		if err != nil {
			return nil, err
		}
		s.Metrics().observeRead(len(failed) > 0, plan.MaxLoad())
		return &ReadResult{Data: data, Plan: plan, Healed: healed}, nil
	}
}

// dedupInts removes adjacent duplicates from a sorted slice, in place.
func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// keysSorted returns the map's keys ascending, for stable error text.
func keysSorted(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// healCell rebuilds a corrupt (checksum-failing) cell from the surviving
// cells of its code group, rewrites it to its device, and returns the clean
// bytes. The corrupt cell and any failed disks count as erasures. Caller
// holds mu exclusively.
//
// Recoverability is re-validated here, under the exclusive lock: the
// corruption was detected under the shared lock, and a concurrent FailDisk
// in the lock gap can push the group past what the code decodes. The heal
// refuses loudly (ErrUnrecoverable) rather than rewrite anything derived
// from an over-erased group.
func (s *Store) healCell(stripe int, pos layout.Pos) ([]byte, error) {
	lay := s.scheme.Layout()
	code := s.scheme.Code()
	target := lay.CellAt(pos)
	ownDisk := lay.Disk(stripe, pos.Col)
	if s.devices[ownDisk].failed {
		// The corrupt cell's own disk failed in the lock gap: there is
		// nothing to rewrite — the whole device needs recovery.
		return nil, fmt.Errorf("%w: cannot heal stripe %d cell (%d,%d): device %d failed mid-heal",
			core.ErrUnrecoverable, stripe, pos.Row, pos.Col, ownDisk)
	}
	group := make([][]byte, code.N())
	erased := []int{target.Element}
	for t := 0; t < code.N(); t++ {
		p := lay.GroupCell(target.Group, t)
		if p == pos {
			continue // the corrupt cell itself
		}
		disk := lay.Disk(stripe, p.Col)
		data, err := s.readCell(disk, cellKey{stripe, p})
		if err != nil {
			// Failed or unavailable disk, or a second corrupt cell: leave
			// as erasure and let the decoder decide recoverability.
			erased = append(erased, t)
			continue
		}
		group[t] = data
	}
	if !code.CanRecover(erased) {
		return nil, fmt.Errorf("%w: cannot heal stripe %d cell (%d,%d): erased elements %v exceed what %s decodes",
			core.ErrUnrecoverable, stripe, pos.Row, pos.Col, erased, code.Name())
	}
	if err := code.ReconstructElements(group, []int{target.Element}); err != nil {
		return nil, fmt.Errorf("%w: cannot heal stripe %d cell (%d,%d): %v",
			ErrCorrupt, stripe, pos.Row, pos.Col, err)
	}
	clean := group[target.Element]
	if err := s.writeGate(ownDisk); err != nil {
		return nil, fmt.Errorf("store: heal stripe %d cell (%d,%d) rewrite: %w",
			stripe, pos.Row, pos.Col, err)
	}
	if err := s.devices[ownDisk].write(cellKey{stripe, pos}, clean); err != nil {
		return nil, fmt.Errorf("store: heal stripe %d cell (%d,%d) rewrite: %w",
			stripe, pos.Row, pos.Col, err)
	}
	if err := s.syncDevices([]int{ownDisk}); err != nil {
		return nil, err
	}
	s.Metrics().heal()
	s.bumpEpoch()
	return clean, nil
}

// Heal checks the cell at (stripe, pos) and, if its stored bytes fail their
// checksum, rebuilds and rewrites it from its group. It reports whether a
// heal happened. Clean cells are a no-op; unrecoverable cells return an
// error wrapping core.ErrUnrecoverable.
func (s *Store) Heal(stripe int, pos layout.Pos) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	disk := s.scheme.Layout().Disk(stripe, pos.Col)
	_, err := s.devices[disk].read(cellKey{stripe, pos})
	if err == nil {
		return false, nil
	}
	if !errors.Is(err, ErrCorrupt) {
		return false, err
	}
	if _, err := s.healCell(stripe, pos); err != nil {
		return false, err
	}
	return true, nil
}

// WriteAt overwrites length-len(data) bytes at offset off within the sealed
// extent, using the read-modify-write small-write path: for each touched
// element, the old cell is read, the delta folded into the group's parity
// cells, and only those cells rewritten. Writes must be element-aligned and
// a whole number of elements (partial-element updates would need a
// read-merge step the paper's append-only model never exercises). All disks
// must be healthy.
func (s *Store) WriteAt(off int64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkWriteArgs(off, data); err != nil {
		return err
	}
	lay := s.scheme.Layout()
	n := s.scheme.N()
	dps := s.scheme.DataPerStripe()
	count := len(data) / s.elemSize
	startElem := int(off / int64(s.elemSize))

	// Stage every cell update first, then fault-gate every write, then
	// commit. Loads of cells an earlier element already updated read from
	// the staging overlay, so parity deltas compose; nothing touches a
	// device until every read succeeded and every write cleared its gate —
	// a faulted update aborts whole, never leaving parity inconsistent.
	type stagedWrite struct {
		disk int
		k    cellKey
	}
	overlay := make(map[cellKey][]byte)
	var order []stagedWrite
	for i := 0; i < count; i++ {
		x := startElem + i
		stripe, e := x/dps, x%dps
		// Materialize the element's cell and its group's parity cells.
		cells := make([][]byte, s.scheme.CellsPerStripe())
		pos := lay.DataPos(e)
		cell := lay.CellAt(pos)
		load := func(p layout.Pos) error {
			k := cellKey{stripe, p}
			if staged, ok := overlay[k]; ok {
				cells[p.Row*n+p.Col] = staged
				return nil
			}
			disk := lay.Disk(stripe, p.Col)
			data, err := s.readCell(disk, k)
			if err != nil {
				return err
			}
			// Copy: UpdateData mutates parity in place and we re-write it.
			cells[p.Row*n+p.Col] = append([]byte(nil), data...)
			return nil
		}
		if err := load(pos); err != nil {
			return err
		}
		for t := s.scheme.Code().K(); t < s.scheme.Code().N(); t++ {
			if err := load(lay.GroupCell(cell.Group, t)); err != nil {
				return err
			}
		}
		touched, err := s.scheme.UpdateData(cells, e, data[i*s.elemSize:(i+1)*s.elemSize])
		if err != nil {
			return err
		}
		for _, idx := range touched {
			p := layout.Pos{Row: idx / n, Col: idx % n}
			k := cellKey{stripe, p}
			if _, ok := overlay[k]; !ok {
				order = append(order, stagedWrite{lay.Disk(stripe, p.Col), k})
			}
			overlay[k] = cells[idx]
		}
	}
	for _, sw := range order {
		if err := s.writeGate(sw.disk); err != nil {
			return fmt.Errorf("store: write [%d,+%d): %w", off, len(data), err)
		}
	}
	touched := make(map[int]bool)
	for _, sw := range order {
		if err := s.devices[sw.disk].write(sw.k, overlay[sw.k]); err != nil {
			return fmt.Errorf("store: write [%d,+%d): %w", off, len(data), err)
		}
		touched[sw.disk] = true
	}
	if err := s.syncDevices(keysSorted(touched)); err != nil {
		return err
	}
	s.bumpEpoch()
	return nil
}

// checkWriteArgs validates an in-place overwrite request: element-aligned,
// within the sealed extent, no failed disks. Caller holds mu exclusively.
func (s *Store) checkWriteArgs(off int64, data []byte) error {
	if off < 0 || off%int64(s.elemSize) != 0 || len(data)%s.elemSize != 0 {
		return fmt.Errorf("%w: write [%d,+%d) not element-aligned (element %d)",
			ErrRange, off, len(data), s.elemSize)
	}
	sealed := int64(s.stripes) * int64(s.stripeBytes())
	if off+int64(len(data)) > sealed {
		return fmt.Errorf("%w: write [%d,+%d) beyond sealed extent %d", ErrRange, off, len(data), sealed)
	}
	if failed := s.failedDisksLocked(); len(failed) > 0 {
		return fmt.Errorf("%w: cannot update with failed disks %v (recover first)", ErrFailed, failed)
	}
	if len(s.rebuilding) > 0 {
		// A migration's staged copy would go stale under an in-place update
		// (its already-copied stripes are not re-read). Transient: retry
		// after the repair finishes.
		return fmt.Errorf("%w: cannot update while devices %v are being rebuilt or migrated",
			ErrUnavailable, keysSorted(s.rebuilding))
	}
	return nil
}

// WriteAtReencode performs the same overwrite as WriteAt through the naive
// full-stripe path: every touched stripe's data elements are read back, the
// new bytes merged in, the whole stripe re-encoded, and every cell of the
// stripe rewritten. It exists as the measurable baseline the parity-delta
// path is judged against — identical bytes, strictly more device I/O — and
// shares WriteAt's atomicity: every write is fault-gated before any device
// mutates, so a faulted update aborts whole.
func (s *Store) WriteAtReencode(off int64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkWriteArgs(off, data); err != nil {
		return err
	}
	lay := s.scheme.Layout()
	n := s.scheme.N()
	dps := s.scheme.DataPerStripe()
	count := len(data) / s.elemSize
	startElem := int(off / int64(s.elemSize))
	endElem := startElem + count - 1

	// Stage every touched stripe's full cell set first, then gate every
	// write, then commit — nothing touches a device until every read
	// succeeded and every write cleared its gate.
	type stagedStripe struct {
		stripe int
		cells  [][]byte
	}
	var staged []stagedStripe
	for stripe := startElem / dps; stripe <= endElem/dps; stripe++ {
		shards := make([][]byte, dps)
		for e := 0; e < dps; e++ {
			x := stripe*dps + e
			if x >= startElem && x <= endElem {
				// Fully overwritten: no read needed (backends copy what they keep).
				i := x - startElem
				shards[e] = data[i*s.elemSize : (i+1)*s.elemSize]
				continue
			}
			pos := lay.DataPos(e)
			cell, err := s.readCell(lay.Disk(stripe, pos.Col), cellKey{stripe, pos})
			if err != nil {
				return err
			}
			shards[e] = cell
		}
		cells, err := s.scheme.EncodeStripe(shards)
		if err != nil {
			return err
		}
		staged = append(staged, stagedStripe{stripe, cells})
	}
	for _, st := range staged {
		for col := 0; col < n; col++ {
			disk := lay.Disk(st.stripe, col)
			for row := 0; row < lay.Rows(); row++ {
				if err := s.writeGate(disk); err != nil {
					return fmt.Errorf("store: reencode write [%d,+%d): %w", off, len(data), err)
				}
			}
		}
	}
	for _, st := range staged {
		for row := 0; row < lay.Rows(); row++ {
			for col := 0; col < n; col++ {
				pos := layout.Pos{Row: row, Col: col}
				if err := s.devices[lay.Disk(st.stripe, col)].write(cellKey{st.stripe, pos}, st.cells[row*n+col]); err != nil {
					return fmt.Errorf("store: reencode write [%d,+%d): %w", off, len(data), err)
				}
			}
		}
	}
	if err := s.syncDevices(nil); err != nil {
		return err
	}
	s.bumpEpoch()
	return nil
}

// CorruptCell overwrites one stored cell with garbage — a test hook for
// scrub and failure-injection scenarios.
func (s *Store) CorruptCell(stripe int, pos layout.Pos) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	disk := s.scheme.Layout().Disk(stripe, pos.Col)
	k := cellKey{stripe, pos}
	dev := s.devices[disk]
	if err := dev.be.corrupt(dev.slot(k)); err != nil {
		if errors.Is(err, errCellMissing) {
			return fmt.Errorf("store: no cell %v on device %d", k, disk)
		}
		return err
	}
	s.bumpEpoch()
	return nil
}
