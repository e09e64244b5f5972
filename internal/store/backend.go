// The device seam: every disk under a Store is a CellBackend.
//
// A CellBackend is a slot-indexed array of elemSize cells and their recorded
// checksums. Three implementations exist: MemDisk (memory — the simulated
// device every New store starts with), DiskStore (a data/checksum file pair,
// diskdev.go), and the gateway's client for one extent on a data node
// (internal/gateway). The store's machinery — the fan-out executor's
// coalesced runs, degraded replanning on ErrUnavailable, group-commit WAL
// sealing, heal, scrub, rebuild and startup recovery — runs unchanged over
// any of them. A dead node surfaces as ErrUnavailable from its backend,
// exactly like a failed local disk, and the replan loop routes around it.
// A decorator installed with Store.WrapBackends sits on this seam too —
// internal/faultinject's is how tests and /faults make devices slow, flaky
// or dead — so an injected fault reaches the store the way a real one does.
package store

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/core"
)

// ErrCellMissing is the sentinel a CellBackend returns (possibly wrapped)
// for a read of a slot it has never stored. It is distinct from transport
// errors: a missing cell means "ask the group to reconstruct", an arbitrary
// error means "this device is unavailable, replan".
var ErrCellMissing = errors.New("store: cell not present")

// Run is one entry of a batch: Count contiguous cells of device Disk from
// Slot, flattened into Data (Count*elemSize bytes), with their checksums. A
// read fills Data and CRCs (ReadBuffers), or Err. A write hands Data and
// CRCs (its cell count is len(CRCs)); or, as a zero run, only Count: cells
// that are zero by construction, which the backend records as the all-zero
// element under its checksum without being handed their bytes; or no cells
// at all, to put Disk under the batch's barrier only.
type Run struct {
	Disk, Slot, Count int
	Data              []byte
	CRCs              []uint32
	Err               error
}

// ReadBuffers readies the buffers a read of r fills — the read-into rule:
// those handed when they fit its Count cells of elem bytes, else fresh ones.
func (r *Run) ReadBuffers(elem int) {
	if len(r.Data) != r.Count*elem || len(r.CRCs) != r.Count {
		r.Data, r.CRCs = make([]byte, r.Count*elem), make([]uint32, r.Count)
	}
}

// Zeros reports whether a write run is a zero run: Count cells to record,
// no payload.
func (r Run) Zeros() bool { return r.Count > 0 && len(r.CRCs) == 0 && len(r.Data) == 0 }

// zeroChecksum is the checksum every zero-run cell is recorded under: the
// CRC32-C of elem zero bytes.
func zeroChecksum(elem int) uint32 { return crc32.Checksum(make([]byte, elem), castagnoli) }

// CellBackend is one disk: cells at the dense slot = stripe*rows + row index,
// each with the checksum recorded when it was written. The store hands it
// its runs in batches, one call per node per read pass or seal: the runs of
// every device CellStoreConfig.NodeOf maps to the node of the batch's first device
// (with no map, of that device alone), so a backend reached over a network
// serves a batch in one request. A backend holding one extent — MemDisk,
// DiskStore — is only ever handed its own device's runs. Every slice a
// CellBackend returns belongs to the caller, and every slice it is handed
// stays the caller's: a backend keeps no reference either way, and reads a
// run into the buffers it is handed when they fit it (Run.ReadBuffers).
// Implementations must be safe for concurrent use — the fan-out executor
// issues batches from many goroutines. A batch whose ctx has ended may fail
// whole with ctx's error; a backend checks it at least once per call.
type CellBackend interface {
	// ReadRuns reads every run of the batch into its Data and CRCs — the
	// checksums recorded at write time — or sets its Err: one wrapping
	// ErrCellMissing when the backend never stored some cell of the run,
	// any other error when the run, or the whole batch (a node that does
	// not answer), failed.
	ReadRuns(ctx context.Context, runs []Run)
	// WriteRuns stores each run's cells and checksums verbatim — never
	// recomputed, the store side owns integrity — and records each zero
	// run's cells as the all-zero element under its checksum, which then
	// read back like any written cell. With sync, every device a run names
	// is made durable before it returns: the commit barrier, riding on the
	// commit's last write (a no-op in memory).
	WriteRuns(ctx context.Context, runs []Run, sync bool) error
	// Truncate drops every slot at or above the bound (recovery's torn-tail
	// cut, and rebuilds clearing a replacement device).
	Truncate(slots int) error
	// Slots returns the exclusive upper bound of occupied slot indices.
	Slots() int
	// Elements returns how many slots hold a cell, zero-run cells included.
	Elements() int
	// Close releases the backend's resources (connections, files).
	Close() error
}

// checkRun validates a run of count cells at slot. A write passes its data
// and the disk's element size, which must agree with count; a read passes
// elem 0 and nil.
func checkRun(slot, count, elem int, data []byte) error {
	if slot < 0 || count < 1 || len(data) != count*elem {
		return fmt.Errorf("store: bad run [%d,+%d) (%d bytes, element %d)", slot, count, len(data), elem)
	}
	return nil
}

// MemDisk is an in-memory CellBackend: the simulated disk every New store
// starts with, and a data node's extent when it has no data directory.
type MemDisk struct {
	mu    sync.RWMutex
	elem  int
	cells map[int]memCell
	bound int     // exclusive upper bound of occupied slots
	zero  memCell // the one cell every zero-run slot points at
}

type memCell struct {
	data []byte
	crc  uint32
}

// NewMemDisk creates an empty in-memory disk of elemSize-byte cells.
func NewMemDisk(elemSize int) *MemDisk {
	return &MemDisk{elem: elemSize, cells: make(map[int]memCell),
		zero: memCell{make([]byte, elemSize), zeroChecksum(elemSize)}}
}

func (m *MemDisk) ReadRuns(ctx context.Context, runs []Run) { readEach(ctx, runs, m.readRun) }

// readEach reads each run of a backend holding one extent with read, once
// ctx is checked, and leaves a failed run nothing but its Err. A started
// read is never abandoned: a pread cannot be interrupted.
func readEach(ctx context.Context, runs []Run, read func(*Run) error) {
	cut := ctx.Err()
	for i := range runs {
		if runs[i].Err = cut; cut == nil {
			runs[i].Err = read(&runs[i])
		}
		if runs[i].Err != nil {
			runs[i].Data, runs[i].CRCs = nil, nil
		}
	}
}

func (m *MemDisk) readRun(r *Run) error {
	if err := checkRun(r.Slot, r.Count, 0, nil); err != nil {
		return err
	}
	r.ReadBuffers(m.elem)
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := range r.CRCs {
		c, ok := m.cells[r.Slot+i]
		if !ok {
			return fmt.Errorf("%w: slot %d", ErrCellMissing, r.Slot+i)
		}
		copy(r.Data[i*m.elem:], c.data)
		r.CRCs[i] = c.crc
	}
	return nil
}

// WriteRuns stores each run, pointing a zero run's slots at the one shared
// zero cell; memory has nothing to sync.
func (m *MemDisk) WriteRuns(ctx context.Context, runs []Run, _ bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, r := range runs {
		cells, own := len(r.CRCs), []byte(nil)
		switch {
		case r.Zeros():
			cells = r.Count
			if err := checkRun(r.Slot, cells, 0, nil); err != nil {
				return err
			}
		case cells == 0 && len(r.Data) == 0:
			continue
		default:
			if err := checkRun(r.Slot, cells, m.elem, r.Data); err != nil {
				return err
			}
			own = append([]byte(nil), r.Data...)
		}
		m.mu.Lock()
		for i := 0; i < cells; i++ {
			c := m.zero
			if own != nil {
				c = memCell{own[i*m.elem : (i+1)*m.elem : (i+1)*m.elem], r.CRCs[i]}
			}
			m.cells[r.Slot+i] = c
		}
		m.bound = max(m.bound, r.Slot+cells)
		m.mu.Unlock()
	}
	return nil
}

func (m *MemDisk) Truncate(slots int) error {
	if slots < 0 {
		return fmt.Errorf("store: truncate to %d slots", slots)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for s := range m.cells {
		if s >= slots {
			delete(m.cells, s)
		}
	}
	m.bound = min(m.bound, slots)
	return nil
}

func (m *MemDisk) Slots() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bound
}

func (m *MemDisk) Elements() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.cells)
}

// Close is a no-op: the cells stay, so a store reopened over the same
// MemDisks (a gateway restart over live nodes) finds them.
func (m *MemDisk) Close() error { return nil }

// CellStoreConfig configures a store over caller-supplied backends.
type CellStoreConfig struct {
	// Sync runs the commit-path durability barrier: a commit's last seal
	// writes with sync set, so every device is durable before the stripe is
	// published — the node-side fsync.
	Sync bool
	// NodeOf, when set, names the placement node that serves each device
	// (one entry per device), from the first batch on — recovery's
	// included. The executor then hands each node's runs to its backend as
	// one batch — a read pass's, a seal's — so a data node is asked once per
	// pass. Every backend must then serve the runs of every device on its
	// node, as the gateway's node clients do; with no map each device is its
	// own node.
	NodeOf []int
	// Manifest is where the store keeps its Manifest; nil keeps none, so no
	// geometry is checked and recovery has no durable floor.
	Manifest ManifestStore
	// Placement, a gateway's group count and node order, joins the geometry.
	Placement string
}

// Manifest is what a store records at open and at Close only: the geometry
// a reopen must match, the stripes known durable (recovery's floor), and the
// length.
type Manifest struct {
	Scheme    string `json:"scheme"`
	Disks     int    `json:"disks"`
	Rows      int    `json:"rows"`
	ElemSize  int    `json:"elem_size"`
	Placement string `json:"placement,omitempty"`
	Stripes   int    `json:"stripes"`
	Length    int64  `json:"length"`
}

// Geometry names what the cells mean: under any other, each is misread.
func (m Manifest) Geometry() string {
	g := fmt.Sprintf("%s over %d disks, %d rows, %d-byte elements", m.Scheme, m.Disks, m.Rows, m.ElemSize)
	if m.Placement != "" {
		g += ", " + m.Placement
	}
	return g
}

// ManifestStore is where a store keeps its Manifest: Load returns the zero
// Manifest when none was saved, and Save replaces it durably.
type ManifestStore interface {
	Load() (Manifest, error)
	Save(Manifest) error
}

// NewWithCellBackends creates a store over the CellBackends open(disk)
// returns and recovers it: the one open path of every persistent store.
// Another geometry than the manifest's is refused before any device opens;
// recovery is floored at its stripes, fails devices that do not answer, and
// cuts a torn tail only while none is failed. open also serves RecoverDisk's
// replacements (truncated to empty first).
func NewWithCellBackends(scheme *core.Scheme, elemSize int, cfg CellStoreConfig, open func(disk int) (CellBackend, error)) (*Store, *RecoveryReport, error) {
	st, err := New(scheme, elemSize)
	if err != nil {
		return nil, nil, err
	}
	if cfg.NodeOf != nil {
		if len(cfg.NodeOf) != len(st.devices) {
			return nil, nil, fmt.Errorf("store: device-node map has %d entries for %d devices", len(cfg.NodeOf), len(st.devices))
		}
		st.nodeOf = append([]int(nil), cfg.NodeOf...)
	}
	st.record = Manifest{Scheme: scheme.Name(), Disks: scheme.N(), Rows: st.rows, ElemSize: elemSize, Placement: cfg.Placement}
	var rec Manifest
	if st.manifest = cfg.Manifest; st.manifest != nil {
		if rec, err = st.manifest.Load(); err == nil && rec.Scheme != "" && rec.Geometry() != st.record.Geometry() {
			err = fmt.Errorf("written as %s; refusing to open it as %s", rec.Geometry(), st.record.Geometry())
		}
		if err != nil {
			return nil, nil, fmt.Errorf("store: %v: %w", st.manifest, err)
		}
	}
	slots := make([]int, len(st.devices))
	for d, dev := range st.devices {
		cb, err := open(d)
		if err != nil {
			st.closeBackends()
			return nil, nil, fmt.Errorf("store: open device %d: %w", d, err)
		}
		st.plug(dev, cb)
		slots[d] = cb.Slots()
	}
	st.fsync = cfg.Sync
	st.newBackendFn = func(d int) (CellBackend, error) {
		cb, err := open(d)
		if err != nil {
			return nil, err
		}
		if err := cb.Truncate(0); err != nil {
			cb.Close()
			return nil, err
		}
		return cb, nil
	}
	report := &RecoveryReport{}
	if err := st.recover(report, rec, slots); err != nil {
		st.closeBackends()
		return nil, nil, err
	}
	return st, report, nil
}
