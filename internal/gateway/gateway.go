// Package gateway is the access half of the cluster split: the service that
// owns placement metadata and serves the object API by fanning erasure-coded
// cell I/O out over the network to data nodes.
//
// Architecture: the gateway holds one real store.Store per placement group,
// whose devices are HTTP clients (remoteCell) against the nodes the
// placement map assigns. That one decision buys the whole single-process
// feature set across the process boundary unchanged — the fan-out executor
// coalesces cell runs into single node requests, hedged reads race parity
// reconstruction against slow nodes, degraded replanning routes around dead
// ones (a refused connection surfaces as ErrUnavailable exactly like a
// failed local disk), group-commit WAL writes seal through the two-phase
// gate with the fsync barrier forwarded node-side, and startup recovery can
// re-derive the sealed extents from whatever the nodes kept.
//
// Object names hash across Groups independent stripe groups
// (placement.Map), so capacity and traffic scale horizontally with nodes ×
// groups; per-node inflight and latency EWMAs — not per-disk queues — feed
// the degraded planner, because in this regime contention lives at the node.
//
// The object API itself is internal/httpd's, the same surface single mode
// serves, handed the group stores and placement.Map.GroupOf: PUT/GET/HEAD
// /objects/{name}, /admin/*, /faults, /metrics and /healthz behave
// identically in both modes. The gateway adds only GET /placement and a
// cluster-formed gate in front of /readyz.
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
	// Read sets the default read-executor options for every group store.
	Read store.ReadOptions
	// NodeTimeout bounds one node request (default 5s); a hung node turns
	// into ErrUnavailable and a replan once it expires.
	NodeTimeout time.Duration
	// ProbeInterval is the health-probe cadence (default 1s, <0 disables).
	ProbeInterval time.Duration
	// SyncWrites runs the commit-path durability barrier (node-side fsync)
	// before publishing stripes.
	SyncWrites bool
	// Recover re-derives each group's sealed extent from the nodes at
	// startup (the gateway-restart path).
	Recover bool
	// Scheme builds the erasure-coding scheme (required).
	Scheme *core.Scheme
}

// Gateway is the access service.
type Gateway struct {
	cfg    Config
	pm     *placement.Map
	nodes  []*nodeClient
	stores []*store.Store
	srv    *httpd.Server
	mux    *http.ServeMux

	closed atomic.Bool
	formed atomic.Bool // every node answered at least one probe

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
	for i, base := range cfg.Nodes {
		g.nodes = append(g.nodes, newNodeClient(i, strings.TrimRight(base, "/"), cfg.NodeTimeout, gwReg))
	}

	for grp := 0; grp < cfg.Groups; grp++ {
		grp := grp
		st, _, err := store.NewWithCellBackends(cfg.Scheme, cfg.ElemSize,
			store.CellStoreConfig{Sync: cfg.SyncWrites, Recover: cfg.Recover},
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
		// Per-group metrics live in a labelled view of the shared registry —
		// identical family names, disjoint series (the obs.With contract).
		st.SetMetrics(store.NewMetrics(reg.With(obs.L("group", strconv.Itoa(grp))), cfg.Scheme.N()))
		st.SetReadOptions(cfg.Read)
		if err := st.SetDeviceNodes(pm.NodeOf(grp)); err != nil {
			g.closeStores()
			return nil, err
		}
	}
	if g.srv, err = httpd.NewGroups(g.stores, pm.GroupOf, cfg.HTTP); err != nil {
		g.closeStores()
		return nil, fmt.Errorf("gateway: %w", err)
	}

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("/placement", g.handlePlacement)
	g.mux.HandleFunc("/readyz", g.handleReadyz)
	g.mux.Handle("/", g.srv)
	if cfg.ProbeInterval > 0 {
		go g.probeLoop()
	} else {
		close(g.probeDone)
		g.formed.Store(true)
	}
	return g, nil
}

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

// Close drains the write path and stops probing. /readyz fails immediately;
// queued PUTs commit before their WALs shut down.
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
	return err
}

// probeLoop sweeps every node's /healthz on the configured cadence, feeding
// the per-node up gauges and the cluster-formed latch /readyz gates on.
func (g *Gateway) probeLoop() {
	defer close(g.probeDone)
	timeout := g.cfg.ProbeInterval
	if timeout > time.Second {
		timeout = time.Second
	}
	tick := time.NewTicker(g.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		allSeen := true
		for _, nc := range g.nodes {
			if nc.healthz(timeout) {
				nc.seen.Store(true)
				nc.upGauge.Set(1)
			} else {
				nc.upGauge.Set(0)
			}
			if !nc.seen.Load() {
				allSeen = false
			}
		}
		if allSeen {
			g.formed.Store(true)
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

// handleReadyz gates the surface's readiness (drain) on cluster formation:
// every node answered at least one probe. A node dying after formation does
// NOT flip readiness: serving degraded reads through failures is the
// design, not an outage.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && !g.formed.Load() {
		http.Error(w, "cluster not formed", http.StatusServiceUnavailable)
		return
	}
	g.srv.ServeHTTP(w, r)
}

func (g *Gateway) handlePlacement(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(g.pm)
}
