// Package gateway is the access half of the cluster split: the service that
// owns placement metadata and serves the object API by fanning erasure-coded
// cell I/O out over the network to data nodes.
//
// Architecture: the gateway holds one real store.Store per placement group,
// whose devices are HTTP clients (remoteCell) against the nodes the
// placement map assigns. That one decision buys the whole single-process
// feature set across the process boundary unchanged — the fan-out executor
// sends each node its coalesced cell runs as one request, degraded
// replanning routes around dead ones (a refused connection surfaces as ErrUnavailable exactly
// like a failed local disk), group-commit WAL writes seal with the fsync
// barrier riding on each node's last write,
// and every start recovers each group through the store's one open path,
// its manifest (geometry, group count, node order, durable stripes) kept as
// a copy on every node (nodeManifest): a restart neither overwrites nor
// reinterprets acked stripes, and a node down at start degrades reads within
// the scheme's tolerance (/admin/recover brings it back) and refuses past it.
//
// Object names hash across Groups independent stripe groups
// (placement.Map), so capacity and traffic scale horizontally with nodes ×
// groups. Each group store maps its disks onto their nodes
// (store.CellStoreConfig.NodeOf), so a read pass or a seal asks each node
// once.
//
// The object API itself is internal/httpd's, the same surface single mode
// serves, handed the group stores and placement.Map.GroupOf: PUT/GET/HEAD
// /objects/{name}, /admin/*, /faults, /metrics and /healthz behave
// identically in both modes. The gateway adds only GET /placement: by the
// time it serves, every group has opened, so the cluster has formed.
package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/httpd"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/store"
)

// Config configures a gateway.
type Config struct {
	// Nodes are the data-node base URLs (http://host:port). Required.
	Nodes []string
	// Groups is the number of stripe groups names hash across (default 4).
	Groups int
	// ElemSize is the cell size in bytes (default 4096).
	ElemSize int
	// HTTP configures the object surface. Its Registry (nil creates a
	// private one) also receives the gateway's and per-group store metrics:
	// group stores register through reg.With(group=G) views, so any number
	// of them share one scrape without series collisions. Its WAL tunes
	// each group's write path; LogPath must stay empty with more than one
	// group — durability comes from the nodes' fsync barrier.
	HTTP httpd.Config
	// NodeTimeout bounds one node request — one batch: every run a read
	// pass or a seal sends that node (default 5s); a hung node turns into
	// ErrUnavailable and a replan once it expires.
	NodeTimeout time.Duration
	// ProbeInterval is the health-probe cadence (default 1s, <0 disables).
	ProbeInterval time.Duration
	// SyncWrites runs the commit-path durability barrier (node-side fsync)
	// before publishing stripes.
	SyncWrites bool
	// Scheme builds the erasure-coding scheme (required).
	Scheme *core.Scheme
}

// Gateway is the access service.
type Gateway struct {
	cfg       Config
	pm        *placement.Map
	nodes     []*nodeClient
	stores    []*store.Store
	recovered []*store.RecoveryReport // each group's, from New
	srv       *httpd.Server
	mux       *http.ServeMux

	closed atomic.Bool

	probeStop chan struct{}
	probeDone chan struct{}
	probes    *obs.Counter
}

// New builds a gateway over the configured nodes. The placement map is
// validated against the scheme's fault tolerance: a cluster where one node
// holds more disks of a group than the scheme can lose is refused, because
// the "killed node keeps serving reads" invariant would silently not hold.
func New(cfg Config) (*Gateway, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("gateway: scheme is required")
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("gateway: no nodes")
	}
	if cfg.Groups == 0 {
		cfg.Groups = 4
	}
	if cfg.ElemSize == 0 {
		cfg.ElemSize = 4096
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.HTTP.Registry == nil {
		cfg.HTTP.Registry = obs.NewRegistry()
	}
	pm, err := placement.New(cfg.Groups, cfg.Scheme.N(), cfg.Nodes)
	if err != nil {
		return nil, err
	}
	if err := pm.CheckTolerance(cfg.Scheme.FaultTolerance()); err != nil {
		return nil, err
	}

	g := &Gateway{
		cfg:       cfg,
		pm:        pm,
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	reg := cfg.HTTP.Registry
	gwReg := reg.With(obs.L("component", "gateway"))
	g.probes = gwReg.Counter("ecfrm_gateway_probes_total", "Health-probe sweeps completed.")
	bases := make([]string, len(cfg.Nodes))
	for i, base := range cfg.Nodes {
		bases[i] = strings.TrimRight(base, "/")
		g.nodes = append(g.nodes, newNodeClient(i, bases[i], cfg.NodeTimeout, gwReg))
	}

	for grp := 0; grp < cfg.Groups; grp++ {
		grp := grp
		st, rep, err := store.NewWithCellBackends(cfg.Scheme, cfg.ElemSize,
			store.CellStoreConfig{Sync: cfg.SyncWrites, NodeOf: pm.NodeOf(grp),
				Manifest:  nodeManifest{nodes: g.nodes, group: grp},
				Placement: fmt.Sprintf("%d groups over nodes %s", cfg.Groups, strings.Join(bases, ","))},
			func(disk int) (store.CellBackend, error) {
				return &remoteCell{
					nc:    g.nodes[pm.Node(grp, disk)],
					group: grp,
					disk:  disk,
					elem:  cfg.ElemSize,
				}, nil
			})
		if err != nil {
			g.closeStores()
			return nil, fmt.Errorf("gateway: group %d: %w", grp, err)
		}
		g.stores = append(g.stores, st)
		g.recovered = append(g.recovered, rep)
		// Per-group metrics live in a labelled view of the shared registry —
		// identical family names, disjoint series (the obs.With contract).
		st.SetMetrics(store.NewMetrics(reg.With(obs.L("group", strconv.Itoa(grp))), cfg.Scheme.N()))
	}
	if g.srv, err = httpd.NewGroups(g.stores, pm.GroupOf, cfg.HTTP); err != nil {
		g.closeStores()
		return nil, fmt.Errorf("gateway: %w", err)
	}

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/placement", g.handlePlacement)
	g.mux.Handle("/", g.srv)
	if cfg.ProbeInterval > 0 {
		go g.probeLoop()
	} else {
		close(g.probeDone)
	}
	return g, nil
}

// Recovered returns what each group's open-time recovery found, by group.
func (g *Gateway) Recovered() []*store.RecoveryReport { return g.recovered }

// Server returns the object surface the gateway serves.
func (g *Gateway) Server() *httpd.Server { return g.srv }

// Store returns group grp's store (tests reach through for invariants).
func (g *Gateway) Store(grp int) *store.Store { return g.stores[grp] }

// closeStores closes every group store, returning the first error.
func (g *Gateway) closeStores() error {
	var err error
	for _, st := range g.stores {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Close drains the write path, stops probing, saves every group's manifest
// on the nodes and closes the node clients' idle connections. /readyz fails
// immediately; queued PUTs commit before their WALs shut down.
func (g *Gateway) Close() error {
	if g.closed.Swap(true) {
		return nil
	}
	err := g.srv.Close()
	close(g.probeStop)
	<-g.probeDone
	if cerr := g.closeStores(); err == nil {
		err = cerr
	}
	for _, nc := range g.nodes {
		nc.hc.CloseIdleConnections()
	}
	return err
}

// probeLoop sweeps every node's /healthz on the configured cadence, feeding
// the per-node up gauges.
func (g *Gateway) probeLoop() {
	defer close(g.probeDone)
	timeout := g.cfg.ProbeInterval
	if timeout > time.Second {
		timeout = time.Second
	}
	tick := time.NewTicker(g.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		for _, nc := range g.nodes {
			if nc.healthz(timeout) {
				nc.upGauge.Set(1)
			} else {
				nc.upGauge.Set(0)
			}
		}
		g.probes.Inc()
		select {
		case <-g.probeStop:
			return
		case <-tick.C:
		}
	}
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

func (g *Gateway) handlePlacement(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(g.pm)
}
