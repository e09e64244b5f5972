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
	"sync"
	"unsafe"

	"repro/internal/core"
)

// ErrCellMissing is the sentinel a CellBackend returns (possibly wrapped)
// for a read of a slot it has never stored. It is distinct from transport
// errors: a missing cell means "ask the group to reconstruct", an arbitrary
// error means "this device is unavailable, replan".
var ErrCellMissing = errors.New("store: cell not present")

// CellBackend is one disk: cells at the dense slot = stripe*rows + row index,
// each with the checksum recorded when it was written. Data buffers are count
// contiguous elemSize cells. Every slice a CellBackend returns belongs to the
// caller, and every slice it is handed stays the caller's: a backend keeps
// no reference either way. Implementations must be safe for concurrent use —
// the fan-out executor issues reads from many goroutines.
type CellBackend interface {
	// ReadRun returns count cells starting at slot as one contiguous buffer
	// of count*elemSize bytes plus each cell's recorded checksum. A slot the
	// backend never stored fails the whole run with an error wrapping
	// ErrCellMissing.
	ReadRun(slot, count int) (data []byte, crcs []uint32, err error)
	// WriteRun stores count contiguous cells (flattened into data) and their
	// checksums starting at slot. Checksums are stored verbatim, never
	// recomputed — the store side owns integrity.
	WriteRun(slot int, data []byte, crcs []uint32) error
	// Sync makes everything written so far durable (the commit barrier of
	// the two-phase gate; a no-op in memory).
	Sync() error
	// Truncate drops every slot at or above the bound (recovery's torn-tail
	// cut, and rebuilds clearing a replacement device).
	Truncate(slots int) error
	// Slots returns the exclusive upper bound of occupied slot indices.
	Slots() int
	// Elements returns how many slots hold a cell.
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
	bound int // exclusive upper bound of occupied slots
}

type memCell struct {
	data []byte
	crc  uint32
}

// NewMemDisk creates an empty in-memory disk of elemSize-byte cells.
func NewMemDisk(elemSize int) *MemDisk {
	return &MemDisk{elem: elemSize, cells: make(map[int]memCell)}
}

func (m *MemDisk) ReadRun(slot, count int) ([]byte, []uint32, error) {
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

func (m *MemDisk) WriteRun(slot int, data []byte, crcs []uint32) error {
	if err := checkRun(slot, len(crcs), m.elem, data); err != nil {
		return err
	}
	own := append([]byte(nil), data...)
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, crc := range crcs {
		m.cells[slot+i] = memCell{own[i*m.elem : (i+1)*m.elem : (i+1)*m.elem], crc}
	}
	m.bound = max(m.bound, slot+len(crcs))
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

func (m *MemDisk) Sync() error { return nil }

// Close is a no-op: the cells stay, so a store reopened over the same
// MemDisks (a gateway restart over live nodes) finds them.
func (m *MemDisk) Close() error { return nil }

// CellStoreConfig configures a store over caller-supplied backends.
type CellStoreConfig struct {
	// Sync runs the commit-path durability barrier: after a seal's writes,
	// CellBackend.Sync is called on every touched device before the stripe
	// is published — the node-side fsync of the two-phase gate.
	Sync bool
	// Recover re-derives the sealed extent from the backends at open (the
	// gateway-restart path): each stripe is healed, verified and, on a
	// write hole, re-sealed through the read executor, and a torn tail is
	// truncated — the same recovery OpenFileBacked runs over local files.
	Recover bool
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
		if err := st.recoverExtent(report); err != nil {
			st.closeBackends()
			return nil, nil, err
		}
		st.length = int64(st.stripes) * int64(st.stripeBytes())
	}
	report.Stripes = st.stripes
	return st, report, nil
}

// SetDeviceNodes tells the degraded-read planner which placement node serves
// each device. When set, the inflight bias fed to PlanDegradedReadBiased is
// aggregated per node — every disk of a busy or slow node carries that
// node's whole queue depth — because in the networked regime contention
// lives at the node (its NIC, its process), not the individual disk.
func (s *Store) SetDeviceNodes(nodeOf []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nodeOf == nil {
		s.nodeOf = nil
		return nil
	}
	if len(nodeOf) != len(s.devices) {
		return fmt.Errorf("store: device-node map has %d entries for %d devices", len(nodeOf), len(s.devices))
	}
	s.nodeOf = append([]int(nil), nodeOf...)
	return nil
}
