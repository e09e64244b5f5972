// File-backed device layer: real disks under the store.
//
// Each device owns two files inside the store's data directory:
//
//	dev_NN.data  — cells at elemSize-byte strides, slot = stripe*rows + row
//	dev_NN.crc   — 4-byte CRC32C records at the same slot index
//
// The data file is strided (no per-record headers) so offsets stay
// block-aligned and O_DIRECT can bypass the page cache when the element size
// permits; checksums live in the sidecar so a torn data write and a torn
// checksum write are independently detectable — a mismatch between the two
// is exactly how recovery finds cells a crash half-wrote.
//
// A DiskStore is one such pair as a CellBackend. Every cell run is one
// positioned pread or pwrite of the data file on the calling goroutine (plus
// a sidecar write for writes), and Sync fsyncs both files. A zero run — cells
// zero by construction, the padding of a stripe — writes its sidecar records
// but leaves a hole in the data file: past the file's end it only extends
// the file, and only slots below the end are written, with zeros, so the
// file reads back exactly as if the zeros had been written. Durability
// discipline maps the store's two-phase gated writes onto
// write-then-fsync-then-publish: a seal gates every cell, writes every
// device, fsyncs every touched device, and only then advances the
// sealed-stripe counter; healing and recovery follow the same order.
// FsyncNever trades that barrier away for throughput (the recovery scrub
// still bounds the damage to torn tails).
//
// Startup recovery (OpenFileBacked) scrubs the directory before serving, once
// the manifest's recorded geometry matches the requested one: the stripe
// count is derived from the files themselves, and each stripe goes through
// the read executor's heal job — torn or missing cells are rebuilt from
// their group when the code allows — then a parity check, which re-seals a
// stripe with clean checksums but inconsistent parity (a cell rewritten,
// checksum and all, outside a seal) from its data cells; an unrecoverable
// torn tail is truncated. The manifest's stripe count only ever counts
// fsynced stripes, so it is a floor: an unrecoverable stripe below it is lost
// data, and the open fails with nothing truncated and the manifest kept. The
// store that comes back is always decode-clean.
package store

import (
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
	"unsafe"

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
	// Direct requests O_DIRECT on the data files. Honored when the element
	// size is a multiple of 4096 and the filesystem accepts the flag;
	// otherwise the store falls back to buffered I/O (see
	// RecoveryReport.DirectActive).
	Direct bool
}

func (c *FileConfig) fsyncAlways() bool { return c.Fsync != FsyncNever }

// directAlign is the alignment O_DIRECT requires of offsets and buffers.
const directAlign = 4096

// alignedBytes returns an n-byte slice whose backing array is
// directAlign-aligned, for O_DIRECT transfers.
func alignedBytes(n int) []byte {
	raw := make([]byte, n+directAlign)
	off := 0
	if rem := uintptr(unsafe.Pointer(&raw[0])) % directAlign; rem != 0 {
		off = directAlign - int(rem)
	}
	return raw[off : off+n : off+n]
}

func devDataFile(dir string, d int) string {
	return filepath.Join(dir, fmt.Sprintf("dev_%02d.data", d))
}

func devCRCFile(dir string, d int) string {
	return filepath.Join(dir, fmt.Sprintf("dev_%02d.crc", d))
}

// stagingSuffix marks a migration's staging file pair (repair.go): the copy
// of a device being rebalanced onto new storage, promoted over the live pair
// by rename. A *.new pair found at startup is a crashed migration and is
// discarded — the live pair is still authoritative.
const stagingSuffix = ".new"

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
	size    int64  // the data file's actual size, which may pass the index
	zeroCRC uint32 // the checksum zero-run cells are recorded under
	direct  bool
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
// file pair. Only cfg.Direct applies: the paths name the files, and the
// caller decides when to Sync.
func OpenFileDisk(dataPath, crcPath string, elemSize int, cfg FileConfig) (*DiskStore, error) {
	return openFileDisk(dataPath, crcPath, elemSize, cfg, false)
}

// openFileDisk opens the pair and loads the checksum index. With trunc the
// files are emptied first — the fresh-replacement path rebuilds use. Direct
// I/O is attempted when requested and the element size permits; a refused
// O_DIRECT open falls back to buffered.
func openFileDisk(dataPath, crcPath string, elemSize int, cfg FileConfig, trunc bool) (*DiskStore, error) {
	flags := os.O_RDWR | os.O_CREATE
	if trunc {
		flags |= os.O_TRUNC
	}
	ds := &DiskStore{elem: elemSize, zeroCRC: zeroChecksum(elemSize),
		direct: cfg.Direct && oDirectFlag != 0 && elemSize%directAlign == 0}
	var err error
	if ds.direct {
		if ds.data, err = os.OpenFile(dataPath, flags|oDirectFlag, 0o644); err != nil {
			ds.direct = false
		}
	}
	if !ds.direct {
		if ds.data, err = os.OpenFile(dataPath, flags, 0o644); err != nil {
			return nil, err
		}
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
func (ds *DiskStore) ReadRuns(runs []Run) {
	for i := range runs {
		r := &runs[i]
		r.Data, r.CRCs, r.Err = ds.ReadRun(r.Slot, r.Count)
	}
}

// ReadRun reads count contiguous slots as one pread, returning the
// concatenated payloads alongside copies of their recorded checksums.
func (ds *DiskStore) ReadRun(slot, count int) ([]byte, []uint32, error) {
	if err := checkRun(slot, count, 0, nil); err != nil {
		return nil, nil, err
	}
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	for s := slot; s < slot+count; s++ {
		if s >= len(ds.present) || !ds.present[s] {
			return nil, nil, fmt.Errorf("%w: slot %d", ErrCellMissing, s)
		}
	}
	var buf []byte
	if ds.direct {
		buf = alignedBytes(count * ds.elem)
	} else {
		buf = make([]byte, count*ds.elem)
	}
	o := ds.obs.Load()
	t := o.start()
	_, err := ds.data.ReadAt(buf, int64(slot)*int64(ds.elem))
	o.done(opRead, t)
	if err != nil {
		return nil, nil, fmt.Errorf("store: disk read run [%d,+%d): %w", slot, count, err)
	}
	return buf, append([]uint32(nil), ds.crcs[slot:slot+count]...), nil
}

// WriteRuns writes each run that carries cells, records each zero run
// (writeZeros), then with sync fsyncs the pair.
func (ds *DiskStore) WriteRuns(runs []Run, sync bool) error {
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
		_, err := ds.data.WriteAt(alignedBytes(int(min(hi, ds.size)-lo)), lo)
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
// pwrite, then publishes them in the index. data is written from where it
// lies (O_DIRECT stages an unaligned one through an aligned copy).
func (ds *DiskStore) WriteRun(slot int, data []byte, crcs []uint32) error {
	n := len(crcs)
	if err := checkRun(slot, n, ds.elem, data); err != nil {
		return err
	}
	if ds.direct && uintptr(unsafe.Pointer(&data[0]))%directAlign != 0 {
		aligned := alignedBytes(len(data))
		copy(aligned, data)
		data = aligned
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
	// DirectActive reports whether the data files actually opened with
	// O_DIRECT (the request downgrades on unaligned element sizes and
	// filesystems that refuse the flag). File-backed stores only.
	DirectActive bool
}

// backendManifest is the file backend's metadata: the geometry the
// directory was written under, which a reopen must match, the user-byte
// length, and the stripes known durable when it was written — a floor
// recovery may not truncate below (it re-derives the count itself from the
// files). Open and Close fsync every device before writing it.
type backendManifest struct {
	Scheme   string `json:"scheme"`
	Disks    int    `json:"disks"`
	Rows     int    `json:"rows"`
	ElemSize int    `json:"elem_size"`
	Stripes  int    `json:"stripes"`
	Length   int64  `json:"length"`
}

const backendManifestName = "backend.json"

// geometry names what a directory's cells mean: a reopen under another
// scheme, disk count, row count or element size would misread every cell.
func (m backendManifest) geometry() string {
	return fmt.Sprintf("%s over %d disks, %d rows, %d-byte elements", m.Scheme, m.Disks, m.Rows, m.ElemSize)
}

// OpenFileBacked creates (or reopens) a store whose devices are DiskStores
// in cfg.Dir, one data/checksum file pair per device. It is
// NewWithCellBackends with Recover over those disks, plus what only files
// have: the migration staging hooks and the manifest. A directory whose
// manifest records another geometry is refused before recovery touches it
// (recovery would re-seal every stripe under the wrong code); one with no
// manifest (a store killed before any open wrote it) is accepted. The
// manifest is written at open, so a killed store leaves one behind. The
// returned report says what recovery found. All existing store APIs behave
// identically to the memory backend — tests and tools select the backend
// purely by construction.
func OpenFileBacked(scheme *core.Scheme, elemSize int, cfg FileConfig) (*Store, *RecoveryReport, error) {
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("store: file backend needs a data directory")
	}
	dir := cfg.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	man, err := readBackendManifest(dir)
	found := err == nil
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("store: %s: %w", backendManifestName, err)
	}
	want := backendManifest{Scheme: scheme.Name(), Disks: scheme.N(), Rows: scheme.Layout().Rows(), ElemSize: elemSize}
	if found && man.geometry() != want.geometry() {
		return nil, nil, fmt.Errorf("store: data dir %s was written as %s; refusing to open it as %s",
			dir, man.geometry(), want.geometry())
	}
	// A *.new pair is a migration that crashed before its promote renames:
	// the live dev_NN pair is still authoritative, so the stale staging copy
	// is simply dropped.
	if stray, err := filepath.Glob(filepath.Join(dir, "dev_*"+stagingSuffix)); err == nil {
		for _, p := range stray {
			os.Remove(p)
		}
	}
	open := func(d int, suffix string, trunc bool) (*DiskStore, error) {
		return openFileDisk(devDataFile(dir, d)+suffix, devCRCFile(dir, d)+suffix, elemSize, cfg, trunc)
	}
	direct := false
	st, report, err := NewWithCellBackends(scheme, elemSize, CellStoreConfig{Sync: cfg.fsyncAlways(), Recover: true, durable: man.Stripes},
		func(d int) (CellBackend, error) {
			ds, err := open(d, "", false)
			if err != nil {
				return nil, err
			}
			direct = ds.direct
			return ds, nil
		})
	if err != nil {
		return nil, nil, err
	}
	report.DirectActive = direct
	st.dataDir = dir
	st.newBackendFn = func(d int) (CellBackend, error) { return open(d, "", true) }
	st.newStagingBackendFn = func(d int) (CellBackend, error) { return open(d, stagingSuffix, true) }
	st.promoteStagingFn = func(d int) error {
		// The staging pair is a byte-exact copy of the live pair's cells, so
		// even a crash between the two renames leaves equivalent content
		// under both names. Open fds survive the rename.
		if err := os.Rename(devDataFile(dir, d)+stagingSuffix, devDataFile(dir, d)); err != nil {
			return err
		}
		if err := os.Rename(devCRCFile(dir, d)+stagingSuffix, devCRCFile(dir, d)); err != nil {
			return err
		}
		return syncDir(dir)
	}
	st.discardStagingFn = func(d int) {
		os.Remove(devDataFile(dir, d) + stagingSuffix)
		os.Remove(devCRCFile(dir, d) + stagingSuffix)
	}
	// Length: the manifest is trusted only when it agrees with the
	// recovered extent; otherwise the sealed extent is all we know.
	if found && man.Stripes == st.stripes && man.Length >= 0 && man.Length <= st.length {
		st.length = man.Length
	}
	// The manifest counts only durable stripes: whatever the previous run
	// left unsynced, and recovery's rewrites, are fsynced before it.
	if err := st.writeRuns(barrier(st.deviceIDs()), true); err != nil {
		st.closeBackends()
		return nil, nil, err
	}
	if err := st.writeBackendManifest(); err != nil {
		st.closeBackends()
		return nil, nil, err
	}
	return st, report, nil
}

// recoverExtent derives the sealed extent from the backends and makes it
// decode-clean, one executor job per stripe: HealStripe's job, reading every
// cell as one run per device, except that no cell may be skipped — a device
// out of reach fails recovery. An erased cell — torn (payload and recorded
// checksum disagree) or missing from its device — is rebuilt from its group
// and rewritten (healCell). The healed stripe is then verified against
// parity, and one that disagrees with clean checksums (a cell rewritten,
// checksum and all, outside a seal) is re-sealed at its index from its data
// cells, which are truth. A
// stripe whose erasures exceed its groups is legal only as the torn tail —
// possibly several stripes, since one crashed commit can seal a multi-stripe
// batch — and is truncated there. One below the durable floor, or *followed
// by* a stripe that still heals, is no crash artifact (seals are ordered,
// and the floor counts only fsynced stripes), so recovery refuses loudly
// rather than silently drop sealed stripes (past the floor, healing that
// later stripe on the way). The store is not shared yet, so no lock is
// held.
func (s *Store) recoverExtent(report *RecoveryReport, durable int) error {
	maxStripes := 0
	for _, dev := range s.devices {
		maxStripes = max(maxStripes, dev.be.Slots()/s.rows)
	}
	heal := func(stripe int) (*served, error) {
		return s.execute(context.TODO(), s.exactly(s.allCells(stripe)), corruptHeals, ReadOptions{Sequential: true})
	}
	s.syncAt = -1 // one barrier at the end covers every re-seal
	for s.stripes = 0; s.stripes < maxStripes; {
		stripe := s.stripes
		r, err := heal(stripe)
		// A group that does not decode around an unreachable device is not
		// a torn tail: that error fails recovery below instead.
		if errors.Is(err, core.ErrUnrecoverable) && !errors.Is(err, ErrUnavailable) {
			if stripe < durable {
				var lost []int // devices whose cells of the stripe are missing or torn
				for d := range s.devices {
					dr, derr := s.execute(context.TODO(), s.exactly(s.deviceCells(stripe, d)), corruptStops, ReadOptions{Sequential: true})
					if derr != nil {
						lost = append(lost, d)
						continue
					}
					dr.release()
				}
				return fmt.Errorf("store: recovery: stripe %d unrecoverable (devices %v missing or tearing its cells) below the %d stripes recorded durable (not a torn tail): %w",
					stripe, lost, durable, err)
			}
			for later := stripe + 1; later < maxStripes; later++ {
				if lr, lerr := heal(later); lerr == nil {
					lr.release()
					return fmt.Errorf("store: recovery: stripe %d unrecoverable but stripe %d still decodes (not a torn tail): %w",
						stripe, later, err)
				}
			}
			report.TruncatedStripes = maxStripes - stripe
			break
		}
		if err != nil {
			return fmt.Errorf("store: recovery: stripe %d: %w", stripe, err)
		}
		report.HealedCells += r.healed
		cells := r.stripes[0].cells
		ok, err := s.scheme.VerifyStripe(cells)
		if err == nil && !ok {
			err = s.seal(slices.Concat(s.scheme.DataShards(cells)...)) // advances s.stripes
			report.ReencodedStripes++
		} else if ok {
			s.stripes++
		}
		r.release()
		if err != nil {
			return fmt.Errorf("store: recovery: stripe %d: %w", stripe, err)
		}
	}
	for _, dev := range s.devices {
		if err := dev.be.Truncate(s.stripes * s.rows); err != nil {
			return err
		}
	}
	if report.HealedCells > 0 || report.ReencodedStripes > 0 || report.TruncatedStripes > 0 {
		return s.writeRuns(barrier(s.deviceIDs()), true)
	}
	return nil
}

func readBackendManifest(dir string) (backendManifest, error) {
	var man backendManifest
	raw, err := os.ReadFile(filepath.Join(dir, backendManifestName))
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return man, err
	}
	return man, nil
}

// writeBackendManifest writes the manifest atomically (temp file, fsync,
// rename, directory fsync).
func (s *Store) writeBackendManifest() error {
	man := backendManifest{
		Scheme:   s.scheme.Name(),
		Disks:    s.scheme.N(),
		Rows:     s.rows,
		ElemSize: s.elemSize,
		Stripes:  s.stripes,
		Length:   s.length,
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(s.dataDir, backendManifestName), raw)
}

// atomicWriteFile durably replaces path with data: write a temp sibling,
// fsync it, rename over path, fsync the directory.
func atomicWriteFile(path string, data []byte) error {
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

// deviceIDs lists every device index, ascending.
func (s *Store) deviceIDs() []int {
	ids := make([]int, len(s.devices))
	for d := range ids {
		ids[d] = d
	}
	return ids
}

// closeBackends closes every device backend, keeping the first error.
func (s *Store) closeBackends() error {
	var err error
	for _, dev := range s.devices {
		if cerr := dev.be.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Close syncs the file backend's devices and then writes its manifest, so
// the stripes it records are durable, then closes every device backend.
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
	if s.dataDir != "" {
		if err = s.writeRuns(barrier(s.deviceIDs()), true); err == nil {
			err = s.writeBackendManifest()
		}
	}
	if cerr := s.closeBackends(); err == nil {
		err = cerr
	}
	return err
}
