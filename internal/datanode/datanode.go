// Package datanode is the storage half of the cluster split: a node service
// owning per-(group,disk) cell extents behind the nodeapi HTTP protocol.
//
// A node is deliberately dumb. It stores cells and checksums verbatim,
// reads them back, fsyncs on demand, and truncates when told — all the
// erasure-coding intelligence (planning, degraded reads, heal, the commit
// barrier) lives on the gateway side, which drives the
// node through store.CellBackend clients. Keeping integrity verification
// off the node means a node cannot mask its own torn writes: checksums are
// recomputed only where the data is consumed.
//
// It also holds each group's manifest copy verbatim, for the gateway.
//
// Extents are store.CellBackends — a store.MemDisk, or a file
// store.DiskStore when the node has a data directory, the same disks a local
// store runs on — created lazily on first write and rediscovered from the
// data directory on restart.
package datanode

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/store"
)

// Config configures a data node.
type Config struct {
	// ElemSize is the cell size in bytes; every extent on the node uses it.
	ElemSize int
	// Dir, when non-empty, selects the file backend: each extent lives in a
	// gNNNN_dNN.data/.crc pair under it, rediscovered on restart. Empty
	// selects in-memory extents.
	Dir string
	// File is unused: extents live under Dir, and the gateway decides when
	// to sync.
	File store.FileConfig
	// Registry receives the node's metrics; nil disables instrumentation.
	Registry *obs.Registry
}

// diskKey identifies one extent.
type diskKey struct{ group, disk int }

// Server is one data node: a set of cell extents behind the nodeapi
// HTTP surface plus health, status, and metrics endpoints.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	draining atomic.Bool

	mu    sync.Mutex
	disks map[diskKey]store.CellBackend

	runs *store.RunPool // batch reads' buffers, and write frames'

	// manMu guards the manifest copies (in gNNNN.manifest files with a Dir).
	manMu     sync.Mutex
	manifests map[int][]byte

	reg        *obs.Registry
	readCells  *obs.Counter
	writeCells *obs.Counter
	readBytes  *obs.Counter
	writeBytes *obs.Counter
	syncs      *obs.Counter
	reqLat     *obs.Histogram
	disksGauge *obs.Gauge
}

// New creates a node, reopening any extents found in cfg.Dir.
func New(cfg Config) (*Server, error) {
	if cfg.ElemSize < 1 {
		return nil, fmt.Errorf("datanode: element size %d", cfg.ElemSize)
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		disks:     make(map[diskKey]store.CellBackend),
		manifests: make(map[int][]byte),
		runs:      store.NewRunPool(cfg.ElemSize),
		reg:       cfg.Registry,
	}
	if s.reg != nil {
		s.readCells = s.reg.Counter("ecfrm_node_read_cells_total", "Cells served by this node.")
		s.writeCells = s.reg.Counter("ecfrm_node_write_cells_total", "Cells stored by this node.")
		s.readBytes = s.reg.Counter("ecfrm_node_read_bytes_total", "Cell payload bytes served.")
		s.writeBytes = s.reg.Counter("ecfrm_node_write_bytes_total", "Cell payload bytes stored.")
		s.syncs = s.reg.Counter("ecfrm_node_syncs_total", "Extents fsynced by synced write batches.")
		s.reqLat = s.reg.Histogram("ecfrm_node_request_seconds",
			"Node request latency.", obs.ExpBuckets(1e-5, 4, 10))
		s.disksGauge = s.reg.Gauge("ecfrm_node_disks", "Extents this node serves.")
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		if err := s.rediscover(); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.routes()
	return s, nil
}

// extentPaths names the file pair of one extent.
func extentPaths(dir string, k diskKey) (data, crc string) {
	base := filepath.Join(dir, fmt.Sprintf("g%04d_d%02d", k.group, k.disk))
	return base + ".data", base + ".crc"
}

// rediscover reopens every extent whose files survive in the data directory,
// so a restarted node serves its sealed cells again.
func (s *Server) rediscover() error {
	matches, err := filepath.Glob(filepath.Join(s.cfg.Dir, "g*_d*.data"))
	if err != nil {
		return err
	}
	sort.Strings(matches)
	for _, m := range matches {
		var g, d int
		if _, err := fmt.Sscanf(filepath.Base(m), "g%04d_d%02d.data", &g, &d); err != nil {
			continue
		}
		if _, err := s.getDisk(diskKey{g, d}, true); err != nil {
			return fmt.Errorf("datanode: reopen extent g%d d%d: %w", g, d, err)
		}
	}
	return nil
}

// getDisk returns the extent, creating (or reopening) it when create is set.
func (s *Server) getDisk(k diskKey, create bool) (store.CellBackend, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ds, ok := s.disks[k]; ok {
		return ds, nil
	}
	if !create {
		return nil, nil
	}
	var ds store.CellBackend = store.NewMemDisk(s.cfg.ElemSize)
	if s.cfg.Dir != "" {
		dataPath, crcPath := extentPaths(s.cfg.Dir, k)
		fd, err := store.OpenFileDisk(dataPath, crcPath, s.cfg.ElemSize, s.cfg.File)
		if err != nil {
			return nil, err
		}
		ds = fd
	}
	s.disks[k] = ds
	s.disksGauge.Set(float64(len(s.disks)))
	return ds, nil
}

// Backend reports "mem" or "file".
func (s *Server) Backend() string {
	if s.cfg.Dir != "" {
		return "file"
	}
	return "mem"
}

// SetDraining flips readiness: a draining node answers /healthz but fails
// /readyz, so gateways stop routing new work while in-flight requests finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Close releases every extent's files.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for k, ds := range s.disks {
		if cerr := ds.Close(); err == nil {
			err = cerr
		}
		delete(s.disks, k)
	}
	return err
}

// ServeHTTP serves the nodeapi surface.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }
