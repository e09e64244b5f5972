// Group-committed write path: a write-ahead log and packing layer that turns
// many small synchronous appends into few full-stripe seals.
//
// The store's Append/Flush path is correct but brutal for small objects: each
// object pays a whole-stripe encode and a whole-group device write (every
// cell of every row), so a 4 KiB object on an RS(6,3) ecfrm layout writes 27
// cells where packing would amortize it to ~1.5. The WAL fixes the write
// amplification and the serialization at once:
//
//   - Put queues the object — the caller's buffer itself, borrowed, not a
//     copy — and blocks on a per-object ack. Many goroutines enqueue
//     concurrently; nobody holds the store's exclusive lock while waiting.
//   - A group commit drains the queue as one batch: the store is handed the
//     objects one by one under one lock (full-stripe encode via the
//     zero-alloc kernels, one shared padded tail, one fsync barrier). Every
//     waiter then learns its object's assigned offset at once.
//   - A Put that finds the queue empty and no commit running leads its own
//     commit at once: a lone PUT never waits. Puts that arrive while a commit
//     runs queue behind it and commit by size (BatchBytes queued) or by time
//     (FlushInterval after the running commit ends), whichever comes first.
//     The triggering Put becomes the commit leader — there is no resident
//     flusher goroutine; an idle WAL owns no timers, no goroutines and no
//     object bytes.
//
// Fault semantics compose with the store's two-phase gated writes: a seal
// that trips the fault injector aborts whole, so a faulted group commit
// commits nothing new. Waiters of that batch are told ErrUnavailable (HTTP
// surfaces it as 503 + Retry-After, exactly like the read path) but the queue
// still holds their entries, so the next commit attempt — triggered by a
// later Put or the retry timer — re-seals them. Because the store's own
// pending buffer survives a faulted seal, the WAL tracks how much of the
// batch it already handed over and hands only the delta on retry: bytes are
// never appended twice.
//
// There is no resident log. With a LogPath the commit leader serializes the
// batch's records — a put record per object, then the commit record —
// straight from the queued entries into the file and fsyncs it before any
// waiter is acked; without one (memory backend, gateway mode) nothing is
// serialized at all. ReplayWAL applied to the file's bytes, or to any prefix
// of them (a crash point), rebuilds the committed store byte-for-byte, which
// FuzzWALReplay checks under random sizes, batch boundaries and crash points.
//
// While a WAL is attached to a store, all appends must go through it: the
// offset bookkeeping assumes no other writer advances NextOffset between
// hand-over and commit. (Reads, WriteAt updates, healing, and recovery touch
// sealed stripes only and compose freely.)
package store

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// ErrWALClosed is returned by Put after Close.
var ErrWALClosed = errors.New("store: wal closed")

// Default WAL thresholds: Puts queued behind a running commit are committed
// once a stripe's worth of user data has queued, or DefaultFlushInterval
// after that commit ends, whichever comes first.
const DefaultFlushInterval = 2 * time.Millisecond

// WALConfig tunes the group-commit thresholds. The zero value is usable:
// BatchBytes defaults to one stripe of user data, FlushInterval to
// DefaultFlushInterval.
type WALConfig struct {
	// BatchBytes is the queued-byte threshold that triggers an immediate
	// group commit. Zero or negative means one stripe's worth.
	BatchBytes int
	// FlushInterval bounds how long an object that arrived during another
	// commit waits for company: the next commit fires this long after the
	// running one ends even if BatchBytes never accumulates. A lone Put
	// never waits it. Zero or negative means DefaultFlushInterval.
	FlushInterval time.Duration
	// LogPath, when non-empty, spills the log to this file through a
	// single-worker submission queue (the same executor the file backend's
	// devices use): every successful group commit appends the batch's put
	// records and its commit record and fsyncs them before any waiter is
	// acked. RecoverWALFile replays such a file at startup. The file is
	// truncated when the WAL attaches: recover first.
	//
	// A spill failure after the store commit succeeded never fails the
	// commit (the bytes are sealed); it is counted, the error is retained
	// (SpillErr), and further spilling is disabled.
	LogPath string
}

// walResult is the outcome of one entry's first commit attempt.
type walResult struct {
	off int64
	err error
}

// walEntry is one queued object. data is the caller's buffer, borrowed until
// the entry commits. res is buffered so the committer never blocks on a
// departed waiter; it is nilled after the first notification — an entry
// retained across a faulted commit has no one left to tell.
type walEntry struct {
	data []byte
	res  chan walResult
}

// WAL is the group-commit batcher. Safe for concurrent use.
type WAL struct {
	st  *Store
	cfg WALConfig

	mu          sync.Mutex
	idle        *sync.Cond  // on mu; broadcast whenever a commit leader steps down
	queue       []*walEntry // FIFO; [0:handed) already handed to the store
	queuedBytes int         // user bytes across queue
	handed      int         // queue prefix whose bytes the store already buffers
	batchBase   int64       // NextOffset when this batch first handed bytes over; -1 if none
	flushing    bool        // a commit leader is active
	timerSet    bool        // a FlushInterval timer is pending
	closed      bool

	// Spill state (LogPath configured): the log file behind a one-worker
	// submission queue, the first spill failure (which disables spilling),
	// and — the commit leader's alone, so unguarded — the bytes spilled so
	// far and the buffer records are serialized through.
	logQ     *ioQueue
	spillErr error
	logBytes int64
	logBuf   *bufio.Writer
}

// NewWAL attaches a group-commit write-ahead log to st. Install the store's
// metrics (SetMetrics) before serving traffic if WAL instruments should
// record.
func NewWAL(st *Store, cfg WALConfig) *WAL {
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = st.stripeBytes()
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = DefaultFlushInterval
	}
	w := &WAL{st: st, cfg: cfg, batchBase: -1}
	w.idle = sync.NewCond(&w.mu)
	if cfg.LogPath != "" {
		// Truncate: the caller replayed any previous log (RecoverWALFile)
		// before attaching, so this file describes only this WAL's lifetime.
		f, err := os.OpenFile(cfg.LogPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			w.spillErr = fmt.Errorf("store: wal: open log %s: %w", cfg.LogPath, err)
			st.Metrics().walLogError()
		} else {
			w.logQ = newIOQueue(f, 1, defaultQueueDepth)
			w.logBuf = bufio.NewWriterSize(nil, walSpillBuffer)
		}
	}
	return w
}

// SpillErr returns the first log-spill failure. It is nil while spilling
// works, and trivially nil when no LogPath is configured.
func (w *WAL) SpillErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.spillErr
}

// Config returns the resolved thresholds in effect.
func (w *WAL) Config() WALConfig { return w.cfg }

// Depth returns the number of objects and user bytes queued but not yet
// committed — the WAL depth gauge's source of truth.
func (w *WAL) Depth() (objects, bytes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.queue), w.queuedBytes
}

// Put queues data for the next group commit and blocks until that commit
// succeeds (returning the object's assigned store offset), fails (returning
// the commit error — the object stays queued and a later commit will seal
// it), or ctx is done.
//
// Data is borrowed, not copied: the WAL references it until the object
// commits. After a nil-error return the caller may reuse it; after an error
// return (a faulted commit retains the entry, an abandoned one leaves it
// queued) the caller must not modify it again. Callers therefore hand Put
// plain garbage-collected buffers, never pooled ones.
func (w *WAL) Put(ctx context.Context, data []byte) (int64, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("store: wal: empty object")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	e := &walEntry{data: data, res: make(chan walResult, 1)}
	res := e.res // e.res is nilled by the committer under w.mu; wait on our copy

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrWALClosed
	}
	lone := len(w.queue) == 0
	w.queue = append(w.queue, e)
	w.queuedBytes += len(data)
	w.st.Metrics().walDepth(len(w.queue), w.queuedBytes)
	// With no commit running, a lone object (nobody to batch with) or a full
	// batch commits now, led by this Put; anything else waits its turn.
	lead := !w.flushing && (lone || w.queuedBytes >= w.cfg.BatchBytes)
	if lead {
		w.flushing = true
	} else if !w.flushing {
		w.armTimer()
	}
	w.mu.Unlock()

	var r walResult
	if lead {
		w.flush()
		r = <-res // a leader's own entry is in its first batch
	} else {
		select {
		case r = <-res:
		case <-ctx.Done():
			// The entry stays queued (and data borrowed): it will commit.
			r.err = fmt.Errorf("store: wal put abandoned: %w", ctx.Err())
		}
	}
	w.st.Metrics().walPut(time.Since(start).Seconds())
	return r.off, r.err
}

// maxPresizedBody caps the buffer ReadBody sizes from a declared length
// alone, so a header cannot make the process allocate what is never sent.
const maxPresizedBody = 64 << 20

// ReadBody reads an object of the declared length (negative: unknown) from r
// into one buffer of exactly that size — the buffer to hand to Put, and a
// plain garbage-collected one by design: Put may go on referencing it after
// an error return, which a pooled buffer could not allow.
func ReadBody(r io.Reader, length int64) ([]byte, error) {
	if length < 0 || length > maxPresizedBody {
		return io.ReadAll(r)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// armTimer schedules a FlushInterval commit of whatever is queued unless one
// is already scheduled. Caller holds w.mu.
func (w *WAL) armTimer() {
	if len(w.queue) > 0 && !w.closed && !w.timerSet {
		w.timerSet = true
		time.AfterFunc(w.cfg.FlushInterval, w.timedFlush)
	}
}

// stepDown ends the caller's term as commit leader: entries still queued
// (late arrivals below the threshold, a faulted batch awaiting retry) get the
// interval timer, and Sync callers waiting for the leader wake. Holds w.mu.
func (w *WAL) stepDown() {
	w.flushing = false
	w.armTimer()
	w.idle.Broadcast()
}

// Sync forces a group commit of everything currently queued and returns the
// commit error, waiting out any concurrent leader first. An empty queue is a
// no-op.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for w.flushing {
			w.idle.Wait()
		}
		if len(w.queue) == 0 {
			return nil
		}
		w.flushing = true
		w.mu.Unlock()
		err := w.flushOnce()
		w.mu.Lock()
		w.stepDown()
		if err != nil {
			return err
		}
	}
}

// Close commits everything queued and marks the WAL closed; later Puts fail
// with ErrWALClosed. If a commit error persists, the error is returned and
// the un-committed entries stay queued.
func (w *WAL) Close() error {
	err := w.Sync()
	w.mu.Lock()
	w.closed = true
	q := w.logQ
	w.logQ = nil
	w.mu.Unlock()
	if q != nil {
		if cerr := q.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// timedFlush is the FlushInterval callback: commit whatever queued unless a
// leader is already active (its own post-commit check covers late arrivals).
func (w *WAL) timedFlush() {
	w.mu.Lock()
	w.timerSet = false
	if w.flushing || w.closed || len(w.queue) == 0 {
		w.mu.Unlock()
		return
	}
	w.flushing = true
	w.mu.Unlock()
	w.flush()
}

// flush drains the queue through repeated group commits until it falls below
// the byte threshold or a commit faults, then steps down. Caller must have
// set w.flushing.
func (w *WAL) flush() {
	for {
		err := w.flushOnce()
		w.mu.Lock()
		if err != nil || len(w.queue) == 0 || w.queuedBytes < w.cfg.BatchBytes {
			w.stepDown()
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
	}
}

// flushOnce performs one group commit of the queue snapshotted at entry.
// Caller must hold the flushing flag (and releases it afterwards). On a
// commit fault it notifies the batch's waiters, retains the entries, and
// returns the error.
func (w *WAL) flushOnce() error {
	w.mu.Lock()
	n := len(w.queue)
	if n == 0 {
		w.mu.Unlock()
		return nil
	}
	// Puts only ever append behind the batch and only the leader removes, so
	// the batch is read in place.
	batch := w.queue[:n:n]
	toHand := batch[w.handed:]
	base := w.batchBase
	w.mu.Unlock()

	// Hand the not-yet-handed suffix to the store and seal. No WAL lock is
	// held (device faults can sleep): Puts keep enqueueing the next batch.
	// The store buffers every byte it is handed even when a seal faults, so
	// the handed watermark advances unconditionally.
	objs := make([][]byte, len(toHand))
	for i, e := range toHand {
		objs[i] = e.data
	}
	if base < 0 {
		base = w.st.NextOffset()
	}
	err := w.st.commit(true, objs...)

	w.mu.Lock()
	w.handed = n
	w.batchBase = base
	m := w.st.Metrics()
	if err != nil {
		cerr := fmt.Errorf("store: wal group commit: %w", err)
		for _, e := range batch {
			notify(e, 0, cerr)
		}
		m.walCommit(false, 0, 0)
		w.mu.Unlock()
		return cerr
	}
	lq, spillOK := w.logQ, w.spillErr == nil
	w.mu.Unlock()

	// Durability before ack: the batch's records are spilled and fsynced
	// before any waiter hears success, outside the WAL lock (an fsync on
	// rotational media is milliseconds).
	if lq != nil && spillOK {
		start := time.Now()
		if serr := w.spill(lq, batch, base); serr == nil {
			m.walLogSync(time.Since(start).Seconds())
			m.walLog(w.logBytes)
		} else {
			// The store commit already sealed these bytes; losing log
			// durability is a degradation, not a failure. Record it, disable
			// the spill, and keep serving.
			m.walLogError()
			w.mu.Lock()
			w.spillErr = serr
			w.mu.Unlock()
		}
	}

	w.mu.Lock()
	off := base
	for _, e := range batch {
		notify(e, off, nil)
		off += int64(len(e.data))
	}
	// Shift the late arrivals down and drop every reference to the batch:
	// after the ack the WAL holds none of its bytes.
	rest := copy(w.queue, w.queue[n:])
	clear(w.queue[rest:])
	w.queue = w.queue[:rest]
	w.queuedBytes -= int(off - base)
	w.handed = 0
	w.batchBase = -1
	m.walCommit(true, n, int(off-base))
	m.walDepth(len(w.queue), w.queuedBytes)
	w.mu.Unlock()
	return nil
}

// notify delivers an entry's first outcome; later outcomes (a retained
// entry's eventual commit) have no waiter and are dropped.
func notify(e *walEntry, off int64, err error) {
	if e.res != nil {
		e.res <- walResult{off, err}
		e.res = nil
	}
}

// Log record format (little-endian):
//
//	put:    'P' | u32 len | data       | u32 crc32c(data)
//	commit: 'C' | u32 count | u64 base | u32 crc32c(count‖base)
//
// A put record logs one object; a commit record marks the oldest `count`
// logged-but-uncommitted objects as sealed starting at store offset `base`.
// A group commit writes its put records and its commit record together; put
// records no commit follows (a torn spill, or a log from when puts were
// logged on arrival) are orphans, never acked. A torn or checksum-failing
// record ends the readable log.
const (
	walRecPut    = 'P'
	walRecCommit = 'C'

	walPutHeader = 5  // tag + length
	walCommitLen = 17 // tag + count + base + crc

	// walSpillBuffer gathers record headers, checksums and small objects on
	// their way to the file; a larger object is written from where it lies.
	walSpillBuffer = 64 << 10
)

// logAppender writes sequentially into the log file through its queue.
type logAppender struct {
	q   *ioQueue
	off int64
}

func (a *logAppender) Write(p []byte) (int, error) {
	n, err := a.q.SubmitWait(OpWrite, a.off, p)
	a.off += int64(n)
	return n, err
}

// spill appends the batch's records — a put record per entry, then the
// commit record — to the log file and fsyncs it, through the log's queue
// (passed in: Close may nil w.logQ concurrently). Commit leaders only.
func (w *WAL) spill(lq *ioQueue, batch []*walEntry, base int64) error {
	out := &logAppender{q: lq, off: w.logBytes}
	w.logBuf.Reset(out)
	var rec [walCommitLen]byte
	for _, e := range batch {
		rec[0] = walRecPut
		binary.LittleEndian.PutUint32(rec[1:], uint32(len(e.data)))
		w.logBuf.Write(rec[:walPutHeader])
		w.logBuf.Write(e.data)
		binary.LittleEndian.PutUint32(rec[:], crc32.Checksum(e.data, castagnoli))
		w.logBuf.Write(rec[:4])
	}
	rec[0] = walRecCommit
	binary.LittleEndian.PutUint32(rec[1:], uint32(len(batch)))
	binary.LittleEndian.PutUint64(rec[5:], uint64(base))
	binary.LittleEndian.PutUint32(rec[13:], crc32.Checksum(rec[1:13], castagnoli))
	w.logBuf.Write(rec[:])
	// The writer's error is sticky: one check covers every Write.
	if err := w.logBuf.Flush(); err != nil {
		return fmt.Errorf("store: wal: spill log at %d: %w", out.off, err)
	}
	if _, err := lq.SubmitWait(OpSync, 0, nil); err != nil {
		return fmt.Errorf("store: wal: fsync log: %w", err)
	}
	w.logBytes = out.off
	return nil
}

// walRecord is one decoded log record: a put's object (aliasing the log), or
// a commit's count and base.
type walRecord struct {
	kind  byte
	data  []byte
	count int
	base  int64
}

// nextWALRecord decodes the record at the head of log and what follows it.
// ok is false where the readable log ends: torn, corrupt, or unknown tag.
func nextWALRecord(log []byte) (rec walRecord, rest []byte, ok bool) {
	if len(log) == 0 {
		return
	}
	switch log[0] {
	case walRecPut:
		if len(log) < walPutHeader {
			return
		}
		n := int(binary.LittleEndian.Uint32(log[1:]))
		if len(log) < walPutHeader+n+4 {
			return
		}
		data := log[walPutHeader : walPutHeader+n]
		if crc32.Checksum(data, castagnoli) != binary.LittleEndian.Uint32(log[walPutHeader+n:]) {
			return
		}
		return walRecord{kind: walRecPut, data: data}, log[walPutHeader+n+4:], true
	case walRecCommit:
		if len(log) < walCommitLen || crc32.Checksum(log[1:13], castagnoli) != binary.LittleEndian.Uint32(log[13:]) {
			return
		}
		return walRecord{
			kind:  walRecCommit,
			count: int(binary.LittleEndian.Uint32(log[1:])),
			base:  int64(binary.LittleEndian.Uint64(log[5:])),
		}, log[walCommitLen:], true
	}
	return
}

// Extent locates one committed object inside the store's address space.
type Extent struct {
	Off  int64
	Size int
}

// ReplayWAL replays a log (or any prefix of one — a crash point) into st,
// re-performing every group commit exactly as the live commit did, so the
// replayed store's sealed extent is byte-for-byte the committed state the log
// describes. It returns the committed objects' extents in commit order and
// the count of logged-but-uncommitted objects (never acked, so droppable),
// stopping cleanly at a torn or corrupt record.
//
// A store that already recovered sealed stripes from its device files is
// tolerated: a commit whose flush-padded extent lies inside the store's was
// durably applied before the crash (under FsyncAlways the device barrier
// precedes the commit record) and is skipped; one starting exactly at the
// store's next offset is re-applied (the FsyncNever window, where the log
// hardened first); anything else means log and store diverged — an error.
func ReplayWAL(log []byte, st *Store) (extents []Extent, orphans int, err error) {
	stripeBytes := int64(st.stripeBytes())
	var queued [][]byte
	for {
		rec, rest, ok := nextWALRecord(log)
		if !ok {
			return extents, len(queued), nil
		}
		log = rest
		if rec.kind == walRecPut {
			queued = append(queued, rec.data)
			continue
		}
		if rec.count <= 0 || rec.count > len(queued) {
			return extents, 0, fmt.Errorf("store: wal replay: commit of %d objects with %d queued", rec.count, len(queued))
		}
		batch := queued[:rec.count]
		queued = queued[rec.count:]
		off := rec.base
		for _, d := range batch {
			extents = append(extents, Extent{Off: off, Size: len(d)})
			off += int64(len(d))
		}
		paddedEnd := (off + stripeBytes - 1) / stripeBytes * stripeBytes
		switch sealed := st.NextOffset(); {
		case paddedEnd <= sealed:
			// Already durably applied before the crash: record only.
		case rec.base == sealed:
			if err := st.commit(true, batch...); err != nil {
				return extents, 0, fmt.Errorf("store: wal replay: %w", err)
			}
		default:
			return extents, 0, fmt.Errorf("store: wal replay: commit base %d (end %d) inconsistent with store extent %d",
				rec.base, paddedEnd, sealed)
		}
	}
}

// RecoverWALFile replays a spilled WAL log file into a freshly (re)opened
// store (see ReplayWAL) and truncates the file, returning every committed
// object's extent plus the count of logged-but-uncommitted objects the crash
// orphaned. A missing file is an empty log.
func RecoverWALFile(path string, st *Store) (extents []Extent, dropped int, err error) {
	log, rerr := os.ReadFile(path)
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return nil, 0, nil
		}
		return nil, 0, rerr
	}
	if extents, dropped, err = ReplayWAL(log, st); err != nil {
		return extents, 0, err
	}
	// The log's content is now fully reflected in the store; empty it so the
	// next WAL's spill starts from a clean file.
	if terr := os.Truncate(path, 0); terr != nil && !os.IsNotExist(terr) {
		return extents, dropped, terr
	}
	return extents, dropped, nil
}
