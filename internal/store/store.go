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
	"io"
	"slices"
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
// checksum recorded at write time (silent bit rot), or its device no longer
// holds it (ErrCellMissing). Reads heal such cells automatically when the
// group has enough redundancy.
var ErrCorrupt = errors.New("store: corrupt cell")

// ErrUnavailable is returned when a device's backend could not serve an
// operation. It is softer than ErrFailed: the device is not marked failed,
// but the current operation could not complete through it, and reads fall
// back to a degraded plan that routes around it.
var ErrUnavailable = errors.New("store: device unavailable")

// Device is one disk of the array: I/O accounting and checksum verification
// over a CellBackend that holds the cells — a MemDisk for simulated devices,
// a DiskStore file pair for real ones, or an extent on a data node. be is
// what the store calls: base, the backend as opened, or the store's
// decorator around it (WrapBackends).
type Device struct {
	id     int
	rows   int // cells per stripe on this device; slot = stripe*rows + row
	be     CellBackend
	base   CellBackend
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
	// errs counts hard device errors — every backend failure to serve a
	// run — the device's one health signal, which the repair scheduler's
	// error-burst detector watches. obsErrors mirrors it into the metrics
	// registry.
	errs      atomic.Int64
	obsErrors *obs.Counter
}

type cellKey struct {
	stripe int
	pos    layout.Pos
}

func newDevice(id, rows int, be CellBackend) *Device {
	return &Device{id: id, rows: rows, be: be, base: be}
}

// plug makes be device d's backend, under the store's decorator if one is
// set. Caller holds mu exclusively, or owns a store not yet shared.
func (s *Store) plug(d *Device, be CellBackend) {
	d.base, d.be = be, be
	if s.wrap != nil {
		d.be = s.wrap(be)
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Reads returns the element-granularity read count.
func (d *Device) Reads() int { return int(d.reads.Load()) }

// Writes returns the element-granularity write count.
func (d *Device) Writes() int { return int(d.writes.Load()) }

// noteError counts one hard device error for the failure detectors.
func (d *Device) noteError() {
	d.errs.Add(1)
	d.obsErrors.Inc()
}

// slot maps a cell to its dense device-local index: within one device a
// stripe occupies rows consecutive slots, so this is also the cell's on-disk
// record offset on a file disk.
func (d *Device) slot(k cellKey) int { return k.stripe*d.rows + k.pos.Row }

// cellRun is the batch entry writing flat — len(crcs) contiguous cells of
// device disk from k's slot — or, with no cells, putting disk under the
// batch's barrier.
func (s *Store) cellRun(disk int, k cellKey, flat []byte, crcs []uint32) Run {
	return Run{Disk: disk, Slot: k.stripe*s.rows + k.pos.Row, Count: len(crcs), Data: flat, CRCs: crcs}
}

// oneCell is the batch entry writing one cell, checksummed here.
func (s *Store) oneCell(disk int, k cellKey, data []byte) Run {
	return s.cellRun(disk, k, data, []uint32{crc32.Checksum(data, castagnoli)})
}

// barrier lists a run of no cells per device: a batch that only syncs them.
func barrier(disks []int) []Run {
	runs := make([]Run, len(disks))
	for i, d := range disks {
		runs[i] = Run{Disk: d}
	}
	return runs
}

// byNode groups a batch's runs by the node CellStoreConfig.NodeOf maps
// their devices to (each device its own node when no map is set), nodes in order
// of first appearance and runs in batch order within each.
func (s *Store) byNode(runs []Run) [][]Run {
	var groups [][]Run
	at := make(map[int]int)
	for _, r := range runs {
		node := r.Disk
		if s.nodeOf != nil {
			node = s.nodeOf[r.Disk]
		}
		i, ok := at[node]
		if !ok {
			i = len(groups)
			at[node] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	return groups
}

// writeRuns writes a batch — a seal's stripe, a heal's cell, a barrier —
// with one backend call per node, the nodes at once; with sync the
// durability barrier rides on the writes. A backend that cannot take a
// write is ErrUnavailable, like one that cannot serve a read: commits
// surface it as retryable (HTTP 503 + Retry-After).
func (s *Store) writeRuns(runs []Run, sync bool) error {
	groups := s.byNode(runs)
	return eachDevice(len(groups), func(i int) error {
		return s.writeBatch(s.devices[groups[i][0].Disk], groups[i], sync)
	})
}

// writeBatch writes one node's batch through d's backend, which no caller's
// context may cut short, and counts each run's payload cells on its device,
// zero runs' cells apart; a refused batch notes one error on each device.
func (s *Store) writeBatch(d *Device, runs []Run, sync bool) error {
	if err := d.be.WriteRuns(context.Background(), runs, sync); err != nil {
		var disks []int
		for _, r := range runs {
			if !slices.Contains(disks, r.Disk) {
				disks = append(disks, r.Disk)
				s.devices[r.Disk].noteError()
			}
		}
		return fmt.Errorf("%w: devices %v: %w", ErrUnavailable, disks, err)
	}
	zeros := 0
	for _, r := range runs {
		w := s.devices[r.Disk]
		w.writes.Add(int64(len(r.CRCs)))
		w.obsWrites.Add(int64(len(r.CRCs)))
		if r.Zeros() {
			zeros += r.Count
		}
	}
	s.Metrics().zeroCells(zeros)
	return nil
}

// readBatch hands one node's runs to the backend of the first run's device
// in one call, and settles each as its device sees it: a cell the backend
// lacks is an erasure like a checksum-failing one (ErrCorrupt wrapping
// ErrCellMissing, so every corruptRule treats the two alike) and one hard
// error, since a device that lost cells it was written — a node restarted
// on an empty directory — must trip the failure detector; a run cut short
// because ctx ended keeps its error and blames no device; any other
// failure makes the device ErrUnavailable (still ErrFailed for a backend
// that reports a fail-stop), and a run that checks out counts as device
// reads and keeps its verified cells in Data.
func (s *Store) readBatch(ctx context.Context, runs []Run) {
	s.devices[runs[0].Disk].be.ReadRuns(ctx, runs)
	for i := range runs {
		r := &runs[i]
		d := s.devices[r.Disk]
		if r.Err == nil && (len(r.Data) != r.Count*s.elemSize || len(r.CRCs) != r.Count) {
			// The executor slices the buffer Count ways: a short answer is a
			// faulty device, not a short slice.
			r.Err = fmt.Errorf("run [%d,+%d) answered with %d bytes, %d checksums", r.Slot, r.Count, len(r.Data), len(r.CRCs))
		}
		switch {
		case errors.Is(r.Err, ErrCellMissing):
			d.noteError()
			r.Err = fmt.Errorf("%w: device %d run at slot %d: %w", ErrCorrupt, d.id, r.Slot, r.Err)
		case r.Err != nil && ctx.Err() != nil:
		case r.Err != nil:
			d.noteError()
			r.Err = fmt.Errorf("%w: device %d: %w", ErrUnavailable, d.id, r.Err)
		default:
			d.reads.Add(int64(r.Count))
			d.obsReads.Add(int64(r.Count))
			for c, crc := range r.CRCs {
				if crc32.Checksum(r.Data[c*s.elemSize:(c+1)*s.elemSize], castagnoli) != crc {
					slot := r.Slot + c
					r.Err = fmt.Errorf("%w: device %d stripe %d row %d", ErrCorrupt, d.id, slot/d.rows, slot%d.rows)
					break
				}
			}
		}
		if r.Err != nil {
			r.Data, r.CRCs = nil, nil
		}
	}
}

// Store is an erasure-coded append-only blob store.
type Store struct {
	scheme   *core.Scheme
	elemSize int
	rows     int // scheme.Layout().Rows(), cached: slot math sits on hot paths

	// Backend state: the manifest's home (nil: none) and record, whether
	// commits run the fsync barrier before publishing, and the factory
	// RecoverDisk uses to open a fresh truncated backend for a replacement
	// device (nil: a new MemDisk). closed poisons use-after-Close.
	manifest     ManifestStore
	record       Manifest
	fsync        bool
	newBackendFn func(d int) (CellBackend, error)
	closed       bool

	// nodeOf, when set, maps each device to its placement node
	// (CellStoreConfig.NodeOf): batches go one per node. Fixed at
	// construction.
	nodeOf []int

	// rebuilding marks devices with an incremental rebuild in progress (guarded by mu), so two repairs cannot race on one device.
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
	syncAt  int       // the stripe whose seal carries the commit's barrier
	length  int64     // total bytes appended
	// fills is, per sealed stripe, the count of its leading data elements
	// that may hold non-zero bytes: those its seal was handed, or, from
	// recovery, those up to the last holding one. Its zero cells
	// (Scheme.ZeroCell) are never read around a failed device; each reads
	// as zero, the store's one all-zero element.
	fills []int
	zero  []byte

	// epoch increments on every mutation that can change the bytes a read
	// returns or the plan it follows (failure, recovery, corruption, heal,
	// backend decorator change). Callers caching decoded reads key them by
	// this value.
	epoch atomic.Int64

	// obs, when non-nil, is the metrics bundle every interesting event feeds
	// (see metrics.go): installed under mu, read lock-free through Metrics();
	// the instruments themselves are atomic.
	obs atomic.Pointer[Metrics]

	// wrap, when set, decorates every device's backend (WrapBackends).
	// Guarded by mu.
	wrap func(CellBackend) CellBackend

	// testBeforeHeal, when set by a test, runs between a shared-lock read
	// detecting corruption and the exclusive re-acquisition that heals it —
	// the window where concurrent failures can change what is recoverable.
	testBeforeHeal func()

	// bufs is the shard arena decoded cells are drawn from; cellsPool
	// recycles per-stripe cell containers; runs lends the buffers device
	// runs are read into. The read executor allocates nothing per byte.
	bufs      core.Buffers
	cellsPool sync.Pool // *stripeCells
	runs      *RunPool
}

// New creates a store using the given scheme with elemSize-byte elements.
func New(scheme *core.Scheme, elemSize int) (*Store, error) {
	if elemSize < 1 {
		return nil, fmt.Errorf("store: element size %d must be positive", elemSize)
	}
	rows := scheme.Layout().Rows()
	devs := make([]*Device, scheme.N())
	for i := range devs {
		devs[i] = newDevice(i, rows, NewMemDisk(elemSize))
	}
	return &Store{
		scheme:   scheme,
		elemSize: elemSize,
		rows:     rows,
		devices:  devs,
		zero:     make([]byte, elemSize),
		runs:     NewRunPool(elemSize),
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

// RunPool returns the pool of the store's run buffers, and its writers'.
func (s *Store) RunPool() *RunPool { return s.runs }

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

// WrapBackends puts wrap(be) between the store and every device's backend
// be, RecoverDisk's replacements included, and returns the decorator it
// replaces; nil removes it, so the store calls its backends directly. A
// decorator can change what reads observe, so the epoch moves.
func (s *Store) WrapBackends(wrap func(CellBackend) CellBackend) (prev func(CellBackend) CellBackend) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, s.wrap = s.wrap, wrap
	for _, d := range s.devices {
		s.plug(d, d.base)
	}
	s.bumpEpoch()
	return prev
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

// Append adds data to the store, sealing (encoding and distributing) every
// stripe that fills. Partial tails stay buffered until more data arrives or
// Flush pads them out. The bytes are copied; data stays the caller's.
//
// On a file-backed store with the FsyncAlways discipline, Append returns
// only after every sealed stripe is durably on disk: each seal writes every
// device, and one fsync barrier covers every device before Append returns —
// write-then-fsync-then-publish, with the publish being the lock release
// that makes the new stripes visible to readers.
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
// handed over is buffered even when a seal fails (a failed seal publishes
// nothing), so callers never hand bytes twice; the next commit tries again.
func (s *Store) commit(flush bool, objs ...[]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The barrier rides on the commit's last seal: every seal names every
	// device, so its fsync covers the seals before it.
	total, sb := len(s.pending), s.stripeBytes()
	for _, data := range objs {
		total += len(data)
	}
	seals := total / sb
	if flush && total%sb > 0 {
		seals++
	}
	s.syncAt = s.stripes + seals - 1
	err := s.buffer(nil) // first, whatever an earlier failed seal left
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
	return err
}

// buffer appends data to the pending buffer, sealing and recycling it each
// time it fills, so it stays one stripe long however large the hand-over.
// After a failed seal the rest of data is still buffered: pending exceeds a
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
}

func (s *Store) newSealBufs() *sealBufs {
	n, rows, es := s.scheme.N(), s.rows, s.elemSize
	sl := &sealBufs{data: make([][]byte, s.scheme.DataPerStripe()), cells: make([][]byte, rows*n),
		runs: make([][]byte, n), crcs: make([][]uint32, n)}
	for col := range sl.runs {
		sl.runs[col] = make([]byte, rows*es)
		sl.crcs[col] = make([]uint32, rows)
		for row := 0; row < rows; row++ {
			sl.cells[row*n+col] = sl.runs[col][row*es : (row+1)*es : (row+1)*es]
		}
	}
	return sl
}

// seal encodes one stripe from buf — whole elements, at most a stripe's
// worth; the elements buf lacks are zero — and writes every cell that user
// bytes reach to its device, carrying the fsync barrier when it seals stripe
// syncAt (the commit's last). It records the stripe's fill, the elements
// buf holds; the cells that are zero by construction (Scheme.ZeroCell: the
// padding, and parity reading only padding) are neither encoded,
// checksummed nor written: each device records them as zero runs. Data
// shards alias buf only while seal runs; devices are handed the store's own
// runs. Caller holds mu exclusively.
func (s *Store) seal(buf []byte) error {
	if s.sealing == nil {
		s.sealing = s.newSealBufs()
	}
	sl, es := s.sealing, s.elemSize
	lay := s.scheme.Layout()
	n := s.scheme.N()
	fill := len(buf) / es
	s.fills = append(s.fills[:s.stripes], fill)
	zero := func(row, col int) bool { return s.scheme.ZeroCell(s.fills, s.stripes, layout.Pos{Row: row, Col: col}) }
	for e := range sl.data {
		if e < fill {
			sl.data[e] = buf[e*es : (e+1)*es]
		} else {
			sl.data[e] = s.zero
		}
	}
	if err := s.scheme.EncodeFilledInto(&s.bufs, sl.cells, sl.data, fill); err != nil {
		return err
	}
	for e := 0; e < fill; e++ {
		pos := lay.DataPos(e)
		copy(sl.runs[pos.Col][pos.Row*es:], sl.data[e])
	}
	for col, run := range sl.runs {
		for row := range sl.crcs[col] {
			if !zero(row, col) {
				sl.crcs[col][row] = crc32.Checksum(run[row*es:(row+1)*es], castagnoli)
			}
		}
	}
	// Each device's share of the stripe is rows contiguous slots, cut into
	// alternating payload runs (a single pwrite each on file backends) and
	// zero runs; one batch per node, all nodes at once. The stripe counter
	// advances only if every write succeeded: a failed seal publishes
	// nothing, though the devices whose batches went through hold its cells
	// until a retry rewrites them, and the pending buffer stays for it.
	runs := make([]Run, 0, 2*n)
	for col := 0; col < n; col++ {
		runs = s.appendRuns(runs, lay.Disk(s.stripes, col), s.stripes*s.rows, sl.runs[col], sl.crcs[col],
			func(row int) bool { return zero(row, col) })
	}
	sync := s.fsync && s.stripes == s.syncAt
	start := time.Now()
	if err := s.writeRuns(runs, sync); err != nil {
		return fmt.Errorf("store: seal stripe %d: %w", s.stripes, err)
	}
	if sync {
		s.Metrics().fsyncBarrier(time.Since(start).Seconds())
	}
	s.stripes++
	return nil
}

// appendRuns appends the batch entries writing len(crcs) cells of device
// disk from slot: the cells zero(i) names as zero runs, the rest as payload
// runs slicing data and crcs, each run as long as its kind lasts.
func (s *Store) appendRuns(runs []Run, disk, slot int, data []byte, crcs []uint32, zero func(i int) bool) []Run {
	es := s.elemSize
	for i := 0; i < len(crcs); {
		end := i + 1
		for end < len(crcs) && zero(end) == zero(i) {
			end++
		}
		r := Run{Disk: disk, Slot: slot + i, Count: end - i}
		if !zero(i) {
			r.Data, r.CRCs = data[i*es:end*es], crcs[i:end]
		}
		runs = append(runs, r)
		i = end
	}
	return runs
}

// eachDevice runs fn(0..n-1) concurrently — one backend call each — and
// returns their failures, joined. A lone call runs inline.
func eachDevice(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
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
// so callers can feed the plan's loads into a timing model. ReadStream's
// leaves the payload, not in Data, but in the cells it was read into.
type ReadResult struct {
	Data []byte
	Plan *core.Plan
	// Healed counts cells whose checksum failed during this read and that
	// were rebuilt from their group and rewritten in place.
	Healed int

	parts [][]byte // the payload, element by element, in held's cells
	held  *served
}

// WriteTo writes the payload to w: Data, or each element's bytes straight
// from the served cells until Release.
func (res *ReadResult) WriteTo(w io.Writer) (total int64, err error) {
	parts := res.parts
	if res.held == nil {
		parts = [][]byte{res.Data}
	}
	for _, p := range parts {
		n, err := w.Write(p)
		if total += int64(n); err != nil {
			return total, err
		}
	}
	return total, nil
}

// Release gives a streamed result's cells back to the store; WriteTo must
// not follow it. Releasing twice, or a result that carries Data, is a no-op.
func (res *ReadResult) Release() {
	if res.held != nil {
		res.held.release()
		res.held, res.parts = nil, nil
	}
}

// ReadAt reads length bytes starting at byte offset off. With no failed
// devices this is a normal read; with failures the planner fetches recovery
// sets and the store decodes the lost elements. Bytes must lie within
// sealed stripes (append full stripes or Flush first).
//
// A device whose backend cannot serve its runs is routed around exactly
// like a failed one — the read re-plans degraded and decodes the missing
// elements — so availability degrades gracefully long before a disk is
// marked failed.
//
// Concurrent ReadAt calls share the store lock and proceed in parallel. The
// one exception is a read that trips over silent corruption: healing
// rewrites the cell, so the read runs again under the exclusive lock.
//
// Plans execute as per-device coalesced runs (see fanout.go), one worker per
// node; ReadAtCtx with ReadOptions.Sequential serves them inline.
func (s *Store) ReadAt(off int64, length int) (*ReadResult, error) {
	return s.ReadAtCtx(context.Background(), off, length, ReadOptions{})
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
	return s.plan(startElem, count, s.failedDisksLocked())
}

// plan plans count elements from startElem around the failed disks: a
// normal read when there are none, else the exact degraded planner, which
// reads no zero cell.
func (s *Store) plan(startElem, count int, failed []int) (*core.Plan, error) {
	if len(failed) == 0 {
		return s.scheme.PlanNormalRead(startElem, count)
	}
	return s.scheme.PlanCells(s.scheme.DataCells(startElem, count), failed, s.fills)
}

// avoidSet returns the failed devices plus those a job took out, ascending.
func (s *Store) avoidSet(out map[int]error) []int {
	var avoid []int
	for i, d := range s.devices {
		if _, taken := out[i]; d.failed || taken {
			avoid = append(avoid, i)
		}
	}
	return avoid
}

// keysSorted returns the map's keys ascending, for stable error text.
func keysSorted[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// healCell rebuilds a corrupt (checksum-failing) cell from the surviving
// cells of its code group, rewrites it to its device, and returns the clean
// bytes. A nested inline job plans the cell around its own device and every
// failed one; a second corrupt cell met on the way is routed around too.
// Caller holds mu exclusively.
//
// Recoverability is re-validated here, under the exclusive lock: the
// corruption was detected under the shared lock, and a concurrent FailDisk
// in the lock gap can push the group past what the code decodes. The heal
// refuses loudly (ErrUnrecoverable) rather than rewrite anything derived
// from an over-erased group.
func (s *Store) healCell(ctx context.Context, stripe int, pos layout.Pos) ([]byte, error) {
	ownDisk := s.scheme.Layout().Disk(stripe, pos.Col)
	if s.devices[ownDisk].failed {
		// The corrupt cell's own disk failed in the lock gap: there is
		// nothing to rewrite — the whole device needs recovery.
		return nil, fmt.Errorf("%w: cannot heal stripe %d cell (%d,%d): device %d failed mid-heal",
			core.ErrUnrecoverable, stripe, pos.Row, pos.Col, ownDisk)
	}
	target := []core.Access{{Disk: ownDisk, Stripe: stripe, Pos: pos}}
	r, err := s.execute(ctx, s.around(target, ownDisk), corruptAvoids, ReadOptions{Sequential: true})
	var clean []byte
	if err == nil {
		clean, err = r.cell(stripe, pos)
		clean = append([]byte(nil), clean...) // the arena buffer goes back on release
		r.release()
	}
	if err != nil {
		return nil, fmt.Errorf("store: cannot heal stripe %d cell (%d,%d): %w", stripe, pos.Row, pos.Col, err)
	}
	if err := s.writeRuns([]Run{s.oneCell(ownDisk, cellKey{stripe, pos}, clean)}, s.fsync); err != nil {
		return nil, fmt.Errorf("store: heal stripe %d cell (%d,%d) rewrite: %w",
			stripe, pos.Row, pos.Col, err)
	}
	s.Metrics().heal()
	s.bumpEpoch()
	return clean, nil
}

// CorruptCell flips every bit of one stored cell while keeping its recorded
// checksum — silent bit rot on the medium, beneath any decorator — a test
// hook for scrub and failure-injection scenarios.
func (s *Store) CorruptCell(stripe int, pos layout.Pos) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	disk := s.scheme.Layout().Disk(stripe, pos.Col)
	dev := s.devices[disk]
	run := []Run{{Disk: disk, Slot: dev.slot(cellKey{stripe, pos}), Count: 1}}
	if dev.base.ReadRuns(context.TODO(), run); run[0].Err != nil {
		return fmt.Errorf("store: corrupt stripe %d cell (%d,%d) on device %d: %w", stripe, pos.Row, pos.Col, disk, run[0].Err)
	}
	for i := range run[0].Data {
		run[0].Data[i] ^= 0xff
	}
	if err := dev.base.WriteRuns(context.TODO(), run, false); err != nil {
		return err
	}
	s.bumpEpoch()
	return nil
}

// VerifyChecksums re-checks every stored cell against its recorded CRC32C
// without counting I/O or passing the store's decorator, returning the
// locations that fail.
func (s *Store) VerifyChecksums() []core.Access {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lay := s.scheme.Layout()
	var bad []core.Access
	for d, dev := range s.devices {
		for slot, n := 0, dev.base.Slots(); slot < n; slot++ {
			run := []Run{{Disk: d, Slot: slot, Count: 1}}
			if dev.base.ReadRuns(context.TODO(), run); run[0].Err == nil && crc32.Checksum(run[0].Data, castagnoli) != run[0].CRCs[0] {
				stripe := slot / s.rows
				bad = append(bad, core.Access{Disk: d, Stripe: stripe,
					Pos: layout.Pos{Row: slot % s.rows, Col: lay.Col(stripe, d)}})
			}
		}
	}
	return bad
}
