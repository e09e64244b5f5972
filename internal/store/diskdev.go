// File-backed device layer: real disks under the store.
//
// Each device owns two files inside the store's data directory:
//
//	dev_NN.data  — cells at elemSize-byte strides, slot = stripe*rows + row
//	dev_NN.crc   — 4-byte CRC32C records at the same slot index
//
// The data file is strided (no per-record headers), so a cell's offset is its
// slot times elemSize; checksums live in the sidecar so a torn data write and
// a torn checksum write are independently detectable — a mismatch between
// the two is exactly how recovery finds cells a crash half-wrote.
//
// A DiskStore is one such pair as a CellBackend. Every cell run is one
// positioned pread or pwrite of the data file on the calling goroutine (plus
// a sidecar write for writes), and Sync fsyncs both files. A zero run — cells
// zero by construction, the padding of a stripe — writes its sidecar records
// but leaves a hole in the data file: past the file's end it only extends
// the file, and only slots below the end are written, with zeros, so the
// file reads back exactly as if the zeros had been written. Durability
// discipline is write-then-fsync-then-publish: a seal writes every device,
// fsyncs every touched device, and only then advances the sealed-stripe
// counter; healing and recovery follow the same order.
// FsyncNever trades that barrier away for throughput (the recovery scrub
// still bounds the damage to torn tails).
//
// Startup recovery (recover) leaves the store decode-clean.
package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// FsyncMode selects the durability discipline of a file-backed store.
type FsyncMode string

const (
	// FsyncAlways fsyncs every touched device before a commit publishes —
	// the crash-safe default.
	FsyncAlways FsyncMode = "always"
	// FsyncNever leaves flushing to the OS. Fast, and crash consistency
	// degrades gracefully: the recovery scrub still heals or truncates
	// whatever the crash tore, but recently "committed" stripes may be
	// among the torn.
	FsyncNever FsyncMode = "never"
)

// FileConfig tunes the file-backed device layer. The zero value of every
// field is usable; Dir is required.
type FileConfig struct {
	// Dir is the data directory (created if absent). One dev_NN.data and
	// dev_NN.crc pair per device lives directly inside it.
	Dir string
	// Fsync is the durability discipline; empty means FsyncAlways.
	Fsync FsyncMode
}

func (c *FileConfig) fsyncAlways() bool { return c.Fsync != FsyncNever }

func devDataFile(dir string, d int) string {
	return filepath.Join(dir, fmt.Sprintf("dev_%02d.data", d))
}

func devCRCFile(dir string, d int) string {
	return filepath.Join(dir, fmt.Sprintf("dev_%02d.crc", d))
}

// DiskStore is a file disk: a CellBackend over one data/checksum file pair —
// a local store's device, or a data node's extent. Checksums are stored
// verbatim and never verified here; integrity checking stays with the
// consumer, so a node cannot mask torn writes. Reads share the lock, writes
// and truncation exclude.
type DiskStore struct {
	mu      sync.RWMutex
	elem    int
	data    *os.File // cells at elem strides
	crcf    *os.File // checksum sidecar
	crcs    []uint32 // in-memory checksum index, slot-indexed
	present []bool
	count   int
	size    int64                  // the data file's actual size, which may pass the index
	zeroCRC uint32                 // the checksum zero-run cells are recorded under
	obs     atomic.Pointer[diskIO] // set by Store.SetMetrics; nil records nothing
}

// ioOp indexes the ecfrm_devq_io_seconds{op} series.
type ioOp int

const (
	opRead ioOp = iota
	opWrite
	opSync
)

// diskIO is where a DiskStore reports its data-file syscalls: the in-flight
// gauge and one service-time histogram per op.
type diskIO struct {
	depth *obs.Gauge
	sec   [3]*obs.Histogram
}

// start marks one data-file syscall in flight; done ends it, observing its
// service time under op. Both are no-ops on a nil *diskIO.
func (o *diskIO) start() time.Time {
	if o == nil {
		return time.Time{}
	}
	o.depth.Add(1)
	return time.Now()
}

func (o *diskIO) done(op ioOp, t time.Time) {
	if o != nil {
		o.sec[op].Observe(time.Since(t).Seconds())
		o.depth.Add(-1)
	}
}

// OpenFileDisk creates (or reopens) a DiskStore on the given data/checksum
// file pair. The FileConfig is unused: the paths name the files, and the
// caller decides when to Sync.
func OpenFileDisk(dataPath, crcPath string, elemSize int, _ FileConfig) (*DiskStore, error) {
	const flags = os.O_RDWR | os.O_CREATE
	ds := &DiskStore{elem: elemSize, zeroCRC: zeroChecksum(elemSize)}
	var err error
	if ds.data, err = os.OpenFile(dataPath, flags, 0o644); err != nil {
		return nil, err
	}
	if ds.crcf, err = os.OpenFile(crcPath, flags, 0o644); err != nil {
		ds.data.Close()
		return nil, err
	}
	if err := ds.loadIndex(); err != nil {
		ds.Close()
		return nil, err
	}
	return ds, nil
}

// loadIndex reads the checksum sidecar and sizes the slot index to the
// records both files fully cover. Data beyond the sidecar (or vice versa) is
// a torn tail and simply not indexed; recovery truncates it.
func (ds *DiskStore) loadIndex() error {
	dInfo, err := ds.data.Stat()
	if err != nil {
		return err
	}
	cInfo, err := ds.crcf.Stat()
	if err != nil {
		return err
	}
	ds.size = dInfo.Size()
	n := int(min(dInfo.Size()/int64(ds.elem), cInfo.Size()/4))
	ds.crcs = make([]uint32, n)
	ds.present = make([]bool, n)
	ds.count = n
	if n == 0 {
		return nil
	}
	raw := make([]byte, 4*n)
	if _, err := ds.crcf.ReadAt(raw, 0); err != nil {
		return err
	}
	for slot := range ds.crcs {
		ds.crcs[slot] = binary.LittleEndian.Uint32(raw[4*slot:])
		ds.present[slot] = true
	}
	return nil
}

// ReadRuns reads each run as one pread.
func (ds *DiskStore) ReadRuns(ctx context.Context, runs []Run) { readEach(ctx, runs, ds.readRun) }

// ReadRun reads count contiguous slots as one pread, returning the
// concatenated payloads alongside copies of their recorded checksums.
func (ds *DiskStore) ReadRun(slot, count int) ([]byte, []uint32, error) {
	r := []Run{{Slot: slot, Count: count}}
	ds.ReadRuns(context.TODO(), r)
	return r[0].Data, r[0].CRCs, r[0].Err
}

// readRun reads r into r.ReadBuffers.
func (ds *DiskStore) readRun(r *Run) error {
	slot, count := r.Slot, r.Count
	if err := checkRun(slot, count, 0, nil); err != nil {
		return err
	}
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	for s := slot; s < slot+count; s++ {
		if s >= len(ds.present) || !ds.present[s] {
			return fmt.Errorf("%w: slot %d", ErrCellMissing, s)
		}
	}
	r.ReadBuffers(ds.elem)
	o := ds.obs.Load()
	t := o.start()
	_, err := ds.data.ReadAt(r.Data, int64(slot)*int64(ds.elem))
	o.done(opRead, t)
	if err != nil {
		return fmt.Errorf("store: disk read run [%d,+%d): %w", slot, count, err)
	}
	copy(r.CRCs, ds.crcs[slot:slot+count])
	return nil
}

// WriteRuns writes each run that carries cells, records each zero run
// (writeZeros), then with sync fsyncs the pair.
func (ds *DiskStore) WriteRuns(ctx context.Context, runs []Run, sync bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, r := range runs {
		var err error
		switch {
		case r.Zeros():
			err = ds.writeZeros(r.Slot, r.Count)
		case len(r.CRCs) > 0 || len(r.Data) > 0:
			err = ds.WriteRun(r.Slot, r.Data, r.CRCs)
		}
		if err != nil {
			return err
		}
	}
	if sync {
		return ds.Sync()
	}
	return nil
}

// writeZeros records count all-zero cells from slot. Slots at or past the
// data file's end only extend it, leaving a hole; slots below it are
// overwritten with zeros, so no stale byte survives. The sidecar records the
// zero checksum for each, as WriteRun records any cell's.
func (ds *DiskStore) writeZeros(slot, count int) error {
	if err := checkRun(slot, count, 0, nil); err != nil {
		return err
	}
	crcs := make([]uint32, count)
	for i := range crcs {
		crcs[i] = ds.zeroCRC
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	lo, hi := int64(slot)*int64(ds.elem), int64(slot+count)*int64(ds.elem)
	if lo < ds.size {
		o := ds.obs.Load()
		t := o.start()
		_, err := ds.data.WriteAt(make([]byte, min(hi, ds.size)-lo), lo)
		o.done(opWrite, t)
		if err != nil {
			return fmt.Errorf("store: disk zero run [%d,+%d): %w", slot, count, err)
		}
	}
	if hi > ds.size {
		if err := ds.data.Truncate(hi); err != nil {
			return fmt.Errorf("store: disk zero run [%d,+%d): %w", slot, count, err)
		}
		ds.size = hi
	}
	return ds.record(slot, crcs)
}

// WriteRun writes contiguous slots as one data-file pwrite plus one sidecar
// pwrite, then publishes them in the index.
func (ds *DiskStore) WriteRun(slot int, data []byte, crcs []uint32) error {
	n := len(crcs)
	if err := checkRun(slot, n, ds.elem, data); err != nil {
		return err
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	o := ds.obs.Load()
	t := o.start()
	_, err := ds.data.WriteAt(data, int64(slot)*int64(ds.elem))
	o.done(opWrite, t)
	if err != nil {
		return fmt.Errorf("store: disk write run [%d,+%d): %w", slot, n, err)
	}
	ds.size = max(ds.size, int64(slot+n)*int64(ds.elem))
	return ds.record(slot, crcs)
}

// record writes the checksums of the cells from slot to the sidecar and
// publishes them in the index. Caller holds mu exclusively.
func (ds *DiskStore) record(slot int, crcs []uint32) error {
	n := len(crcs)
	crcRaw := make([]byte, 4*n)
	for i, crc := range crcs {
		binary.LittleEndian.PutUint32(crcRaw[4*i:], crc)
	}
	if _, err := ds.crcf.WriteAt(crcRaw, int64(slot)*4); err != nil {
		return fmt.Errorf("store: disk checksum write [%d,+%d): %w", slot, n, err)
	}
	for len(ds.present) < slot+n {
		ds.present = append(ds.present, false)
		ds.crcs = append(ds.crcs, 0)
	}
	for i, crc := range crcs {
		if !ds.present[slot+i] {
			ds.present[slot+i] = true
			ds.count++
		}
		ds.crcs[slot+i] = crc
	}
	return nil
}

// Sync fsyncs the data file, then the sidecar.
func (ds *DiskStore) Sync() error {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	o := ds.obs.Load()
	t := o.start()
	err := ds.data.Sync()
	o.done(opSync, t)
	if err != nil {
		return err
	}
	return ds.crcf.Sync()
}

func (ds *DiskStore) Truncate(slots int) error {
	if slots < 0 {
		return fmt.Errorf("store: truncate to %d slots", slots)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if slots >= len(ds.present) {
		return nil
	}
	if err := ds.data.Truncate(int64(slots) * int64(ds.elem)); err != nil {
		return err
	}
	ds.size = int64(slots) * int64(ds.elem)
	if err := ds.crcf.Truncate(int64(slots) * 4); err != nil {
		return err
	}
	ds.present, ds.crcs, ds.count = ds.present[:slots], ds.crcs[:slots], 0
	for _, p := range ds.present {
		if p {
			ds.count++
		}
	}
	return nil
}

func (ds *DiskStore) Slots() int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return len(ds.present)
}

func (ds *DiskStore) Elements() int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.count
}

// Close closes both files.
func (ds *DiskStore) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	err := ds.data.Close()
	if cerr := ds.crcf.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// Store plumbing: opening, recovery, manifest, close.

// RecoveryReport summarizes what the startup scrub found and fixed.
type RecoveryReport struct {
	// Stripes is the sealed-stripe count the store serves after recovery.
	Stripes int
	// HealedCells counts cells the heal job rebuilt from their group and
	// rewrote: torn (payload and recorded checksum disagree) or missing from
	// their device.
	HealedCells int
	// ReencodedStripes counts stripes that healed clean but whose parity
	// disagreed with their data (a cell rewritten, checksum and all, outside
	// a seal): each was re-sealed from its data cells, which are taken as
	// truth.
	ReencodedStripes int
	// TruncatedStripes counts the unrecoverable torn tail stripes dropped.
	TruncatedStripes int
}

const backendManifestName = "backend.json"

// fileManifest keeps a local store's Manifest in dir/backend.json.
type fileManifest string

func (dir fileManifest) String() string { return "data dir " + string(dir) }

func (dir fileManifest) Load() (m Manifest, err error) {
	raw, err := os.ReadFile(filepath.Join(string(dir), backendManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return m, nil
	}
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	return m, err
}

func (dir fileManifest) Save(m Manifest) error {
	raw, _ := json.MarshalIndent(m, "", "  ") // a Manifest always marshals
	return AtomicWriteFile(filepath.Join(string(dir), backendManifestName), raw)
}

// OpenFileBacked creates (or reopens) a store whose devices are DiskStores
// in cfg.Dir, one data/checksum file pair per device: NewWithCellBackends
// with backend.json as the manifest. All store APIs behave identically to
// the memory backend.
func OpenFileBacked(scheme *core.Scheme, elemSize int, cfg FileConfig) (*Store, *RecoveryReport, error) {
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("store: file backend needs a data directory")
	}
	dir := cfg.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	return NewWithCellBackends(scheme, elemSize, CellStoreConfig{Sync: cfg.fsyncAlways(), Manifest: fileManifest(dir)},
		func(d int) (CellBackend, error) {
			return OpenFileDisk(devDataFile(dir, d), devCRCFile(dir, d), elemSize, cfg)
		})
}

// recover is NewWithCellBackends' recovery over the slots devices held.
func (s *Store) recover(report *RecoveryReport, rec Manifest, slots []int) error {
	if err := s.recoverExtent(report, rec.Stripes, slots); err != nil {
		return err
	}
	if report.Stripes = s.stripes; s.manifest != nil || report.HealedCells > 0 || report.ReencodedStripes > 0 {
		if err := s.syncLive(); err != nil {
			return err
		}
	}
	// A torn tail's failed heals may have written past the extent anywhere.
	for d, dev := range s.devices {
		if (slots[d] > s.stripes*s.rows || report.TruncatedStripes > 0) && len(s.failedDisksLocked()) == 0 {
			if err := dev.be.Truncate(s.stripes * s.rows); err != nil {
				return err
			}
		}
	}
	s.length = int64(s.stripes) * int64(s.stripeBytes())
	if rec.Stripes == s.stripes && rec.Length >= 0 && rec.Length <= s.length {
		s.length = rec.Length
	}
	return s.saveManifest()
}

// recoverExtent makes the extent the slots span decode-clean, one executor
// job per stripe reading every cell; the store is not shared yet, so no lock
// is held. A device the job cannot reach is failed (failDown) and its
// stripes go unverified. A torn or missing cell is rebuilt and rewritten
// (healCell); a stripe whose parity disagrees with clean checksums (a cell
// rewritten outside a seal) is re-sealed from its data cells. Each stripe's
// fill is one past the last of its verified data cells holding a non-zero
// byte (userFill) — the full stripe while a device is down — so every cell
// it marks zero is zero on the devices. An undecodable stripe is legal only
// as the torn tail, which recover cuts: one met while a device is failed,
// below the floor, or before a stripe that heals refuses.
func (s *Store) recoverExtent(report *RecoveryReport, durable int, slots []int) error {
	maxStripes := 0
	for _, n := range slots {
		maxStripes = max(maxStripes, n/s.rows)
	}
	heal := func(stripe int) (*served, error) {
		return s.execute(context.TODO(), func(avoid []int) (*core.Plan, error) {
			return s.scheme.PlanCells(s.allCells(stripe), avoid, nil)
		}, corruptHeals, ReadOptions{Sequential: true})
	}
	s.syncAt = -1 // recover's barrier covers every re-seal
	for s.stripes = 0; s.stripes < maxStripes; {
		stripe := s.stripes
		r, err := heal(stripe)
		// A group that does not decode around an unreachable device is not
		// a torn tail: that error fails recovery below instead.
		if errors.Is(err, core.ErrUnrecoverable) && !errors.Is(err, ErrUnavailable) {
			why := ""
			if down := s.failedDisksLocked(); len(down) > 0 {
				why = fmt.Sprintf("while devices %v are down", down)
			} else if stripe < durable {
				var lost []int
				for d := range s.devices {
					if dr, derr := s.execute(context.TODO(), s.exactly(s.deviceCells(stripe, d)), corruptStops, ReadOptions{Sequential: true}); derr != nil {
						lost = append(lost, d)
					} else {
						dr.release()
					}
				}
				why = fmt.Sprintf("(devices %v missing or tearing its cells) below the %d stripes recorded durable", lost, durable)
			}
			for later := stripe + 1; later < maxStripes && why == ""; later++ {
				if lr, lerr := heal(later); lerr == nil {
					lr.release()
					why = fmt.Sprintf("but stripe %d still decodes", later)
				}
			}
			if why != "" {
				return fmt.Errorf("store: recovery: stripe %d unrecoverable %s (not a torn tail): %w", stripe, why, err)
			}
			report.TruncatedStripes = maxStripes - stripe
			break
		}
		if err != nil {
			return fmt.Errorf("store: recovery: stripe %d: %w", stripe, err)
		}
		report.HealedCells += r.healed
		down := len(r.plan.Failed) > 0
		ok, err := down, s.failDown(r.plan.Failed)
		if !ok && err == nil {
			ok, err = s.scheme.VerifyStripe(&s.bufs, r.stripes[0].cells)
		}
		data := s.scheme.DataShards(r.stripes[0].cells)
		fill := len(data)
		if !down {
			fill = s.userFill(data)
		}
		if err == nil && !ok {
			err = s.seal(slices.Concat(data[:fill]...)) // advances s.stripes
			report.ReencodedStripes++
		} else if err == nil {
			s.fills = append(s.fills[:stripe], fill)
			s.stripes++
		}
		r.release()
		if err != nil {
			return fmt.Errorf("store: recovery: stripe %d: %w", stripe, err)
		}
	}
	return nil
}

// userFill returns one past the last of a stripe's data shards holding a
// non-zero byte.
func (s *Store) userFill(data [][]byte) int {
	for e := len(data); e > 0; e-- {
		if !bytes.Equal(data[e-1], s.zero) {
			return e
		}
	}
	return 0
}

// failDown fails the devices that do not answer within the scheme's
// tolerance, and past it is ErrUnavailable. Caller holds mu exclusively.
func (s *Store) failDown(down []int) error {
	for _, d := range down {
		if !s.devices[d].failed && len(s.failedDisksLocked()) >= s.scheme.FaultTolerance() {
			return fmt.Errorf("%w: devices %v do not answer, more than %s tolerates", ErrUnavailable, down, s.scheme.Name())
		}
		s.devices[d].failed = true
	}
	return nil
}

// syncLive fsyncs every device, one barrier per node, and fails (failDown)
// those whose node does not take it. Caller holds mu exclusively.
func (s *Store) syncLive() error {
	runs := make([]Run, len(s.devices))
	for d := range runs {
		runs[d].Disk = d
	}
	nodes := s.byNode(runs)
	down := make([][]int, len(nodes))
	eachDevice(len(nodes), func(i int) error {
		if s.writeBatch(s.devices[nodes[i][0].Disk], nodes[i], true) != nil {
			for _, r := range nodes[i] {
				down[i] = append(down[i], r.Disk)
			}
		}
		return nil
	})
	return s.failDown(slices.Concat(down...))
}

// saveManifest records the geometry, stripes and length, if kept anywhere.
func (s *Store) saveManifest() error {
	if s.manifest == nil {
		return nil
	}
	s.record.Stripes, s.record.Length = s.stripes, s.length
	return s.manifest.Save(s.record)
}

// AtomicWriteFile durably replaces path with data: write a temp sibling,
// fsync it, rename over path, fsync the directory.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creations inside it are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// closeBackends closes every device backend, keeping the first error.
func (s *Store) closeBackends() error {
	var err error
	for _, dev := range s.devices {
		if cerr := dev.base.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Close fsyncs every device and saves the manifest (syncLive; past the
// scheme's tolerance Close fails), then closes every backend.
// Buffered partial-stripe bytes are NOT sealed — Flush first if they should
// survive (they were never durable). The store must not be used afterwards;
// a second Close is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.manifest != nil {
		if err = s.syncLive(); err == nil {
			err = s.saveManifest()
		}
	}
	if cerr := s.closeBackends(); err == nil {
		err = cerr
	}
	return err
}
