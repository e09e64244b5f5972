// The device seam: every disk under a Store is a CellBackend.
//
// A CellBackend is a slot-indexed array of elemSize cells and their recorded
// checksums. Three implementations exist: MemDisk (memory — the simulated
// device every New store starts with), DiskStore (a data/checksum file pair,
// diskdev.go), and the gateway's client for one extent on a data node
// (internal/gateway). The store's machinery — the fan-out executor's
// coalesced runs, hedged reads racing parity rebuild, degraded replanning on
// ErrUnavailable, group-commit WAL sealing through the two-phase gate, heal,
// scrub, rebuild and startup recovery — runs unchanged over any of them. A
// dead node surfaces as ErrUnavailable from its backend, exactly like a
// failed local disk, and the replan loop routes around it.
package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"unsafe"

	"repro/internal/core"
)

// ErrCellMissing is the sentinel a CellBackend returns (possibly wrapped)
// for a read of a slot it has never stored. It is distinct from transport
// errors: a missing cell means "ask the group to reconstruct", an arbitrary
// error means "this device is unavailable, replan".
var ErrCellMissing = errors.New("store: cell not present")

// Run is one entry of a batch: Count contiguous cells of device Disk from
// Slot, flattened into Data (Count*elemSize bytes), with their checksums. A
// read fills Data and CRCs, or Err. A write hands Data and CRCs (its cell
// count is len(CRCs)); or, as a zero run, only Count: cells that are zero by
// construction, which the backend records as the all-zero element under its
// checksum without being handed their bytes; or no cells at all, to put Disk
// under the batch's barrier only.
type Run struct {
	Disk, Slot, Count int
	Data              []byte
	CRCs              []uint32
	Err               error
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
// stays the caller's: a backend keeps no reference either way.
// Implementations must be safe for concurrent use — the fan-out executor
// issues batches from many goroutines.
type CellBackend interface {
	// ReadRuns reads every run of the batch into its Data and CRCs — the
	// checksums recorded at write time — or sets its Err: one wrapping
	// ErrCellMissing when the backend never stored some cell of the run,
	// any other error when the run, or the whole batch (a node that does
	// not answer), failed.
	ReadRuns(runs []Run)
	// WriteRuns stores each run's cells and checksums verbatim — never
	// recomputed, the store side owns integrity — and records each zero
	// run's cells as the all-zero element under its checksum, which then
	// read back like any written cell. With sync, every device a run names
	// is made durable before it returns: the commit barrier of the
	// two-phase gate, riding on the commit's last write (a no-op in
	// memory).
	WriteRuns(runs []Run, sync bool) error
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

func (m *MemDisk) ReadRuns(runs []Run) {
	for i := range runs {
		r := &runs[i]
		r.Data, r.CRCs, r.Err = m.readRun(r.Slot, r.Count)
	}
}

func (m *MemDisk) readRun(slot, count int) ([]byte, []uint32, error) {
	if err := checkRun(slot, count, 0, nil); err != nil {
		return nil, nil, err
	}
	// One allocation per run, however many cells: the checksums head a word
	// array whose tail, viewed as bytes, holds the data.
	words := make([]uint32, count+(count*m.elem+3)/4)
	crcs := words[:count:count]
	data := unsafe.Slice((*byte)(unsafe.Pointer(&words[count])), count*m.elem)
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := range crcs {
		c, ok := m.cells[slot+i]
		if !ok {
			return nil, nil, fmt.Errorf("%w: slot %d", ErrCellMissing, slot+i)
		}
		copy(data[i*m.elem:], c.data)
		crcs[i] = c.crc
	}
	return data, crcs, nil
}

// WriteRuns stores each run, pointing a zero run's slots at the one shared
// zero cell; memory has nothing to sync.
func (m *MemDisk) WriteRuns(runs []Run, _ bool) error {
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
	// published — the node-side fsync of the two-phase gate.
	Sync bool
	// Recover re-derives the sealed extent from the backends at open (the
	// gateway-restart path): each stripe is healed, verified and, on a
	// write hole, re-sealed through the read executor, and a torn tail is
	// truncated — the same recovery OpenFileBacked runs over local files.
	Recover bool
	// NodeOf, when set, names the placement node that serves each device
	// (one entry per device), from the first batch on — recovery's
	// included. The executor then hands each node's runs to its backend as
	// one batch — a read pass's, a seal's — and the inflight bias fed to
	// the degraded planner is aggregated per node — every disk of a busy or
	// slow node carries that node's whole queue depth — because in the
	// networked regime contention lives at the node (its NIC, its process),
	// not the individual disk. Every backend must then serve the runs of
	// every device on its node, as the gateway's node clients do; with no
	// map each device is its own node.
	NodeOf []int
	// durable is the stripe count already known durable — the file
	// backend's manifest records it — below which recovery refuses to
	// truncate: an unrecoverable stripe there is lost data, not a torn tail.
	durable int
}

// NewWithCellBackends creates a store whose devices are the CellBackends
// returned by open(disk). open is also retained as the device factory
// RecoverDisk uses for a replacement backend (the returned backend is
// truncated to empty first).
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
	for d, dev := range st.devices {
		cb, err := open(d)
		if err != nil {
			st.closeBackends()
			return nil, nil, fmt.Errorf("store: open device %d: %w", d, err)
		}
		dev.be = cb
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
	if cfg.Recover {
		if err := st.recoverExtent(report, cfg.durable); err != nil {
			st.closeBackends()
			return nil, nil, err
		}
		st.length = int64(st.stripes) * int64(st.stripeBytes())
	}
	report.Stripes = st.stripes
	return st, report, nil
}
