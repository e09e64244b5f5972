// Package httpd exposes the erasure-coded blob store as an HTTP object
// service — the "cloud storage system" face of the reproduction, and the
// only one: single mode serves one placement group of local devices, and
// the cluster gateway (internal/gateway) serves N groups of networked
// devices through this same surface. Objects are PUT once (append-only,
// matching the paper's write model) and GET any number of times; reads
// degrade transparently under injected disk failures, and an admin surface
// drives failure injection, recovery, scrubbing, and I/O statistics.
//
//	PUT  /objects/{name}         store the request body as an object; the
//	                             response acks only after the WAL's group
//	                             commit makes the bytes durable, so many
//	                             concurrent small PUTs pack into shared
//	                             stripes instead of sealing one each
//	GET  /objects/{name}         read it back (degraded reads transparent)
//	                             ?sequential=1     serve every device run on
//	                                               one goroutine
//	                             ?nocache=1        bypass the decoded cache
//	                             (a non-boolean knob value is a 400)
//	HEAD /objects/{name}         metadata only: Content-Length, X-Read-Cost,
//	                             X-Max-Disk-Load from the plan — no decode
//	GET  /metrics                Prometheus text exposition (see internal/obs)
//	GET  /debug/pprof/*          net/http/pprof (opt-in via Config.EnablePprof)
//	GET  /admin/status           scheme, stripes, failures, device counters
//	POST /admin/fail?disk=D      mark device D failed
//	POST /admin/recover?disk=D   rebuild device D from survivors
//	POST /admin/scrub            verify parity of every stripe of every group
//	GET  /admin/checksums        re-check every cell's CRC32C
//	POST /admin/corrupt?...      inject silent bit rot into one cell
//	GET  /faults                 the installed fault plan (zero plan if none)
//	PUT  /faults                 install a deterministic fault plan (JSON)
//	DELETE /faults               clear the fault plan
//
// An object lives in the group its name maps to. Fault plans drive every
// group; fail, recover, checksums and corrupt address group 0 unless the
// request adds ?group=G. With more than one group, GET and HEAD also report
// X-Placement-Group.
//
// Reads left without a plan by unavailable devices surface as 503 with a
// Retry-After header: the condition is transient (a cleared plan or a
// healthier disk serves the next attempt), unlike unrecoverable degradation,
// also 503 but permanent until an admin intervenes.
//
// All handlers are safe for concurrent use. Locking is sharded so
// independent GETs plan and decode in parallel: the server holds only a
// small lock around the object-name map (PUTs take it just long enough to
// reserve the name, never across store I/O), each object carries its own
// mutex (which single-flights cache fills; GETs that bypass the cache never
// take it), and the store synchronizes device access internally with
// shared-read locking and atomic I/O counters. PUTs whose group commit a
// device write fails get 503 with Retry-After — the WAL keeps their bytes
// queued for the next batch, and the name reservation is released so the
// retry can claim it. Hot objects are served from an epoch-tagged
// decoded-payload cache that failure injection, recovery, corruption, and
// healing all invalidate by bumping the store epoch.
package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/store"
)

// Cache sizing: only objects at most maxCachedObjectBytes are cached, and
// the total cached payload across all objects stays under cacheBudgetBytes.
const (
	maxCachedObjectBytes = 4 << 20
	cacheBudgetBytes     = 64 << 20
)

// cachedRead is one decoded GET result, valid while the store epoch holds.
type cachedRead struct {
	epoch int64
	data  []byte
	plan  *core.Plan
}

// object is one stored object: its group and its offset and size in that
// group's extent, immutable once committed, plus a small cache of its last
// decoded read. The mutex single-flights cache fills, so a burst of GETs for
// one hot object decodes it once; GETs for different objects never contend
// on it.
//
// An object enters the map as a name reservation before its bytes are
// durable: committed flips true (with release semantics, after the location
// is set) only when the WAL's group commit acks the PUT. Readers that observe
// committed==false treat the name as absent; the PUT handler deletes the
// reservation if the commit fails, so the name frees up for a retry.
type object struct {
	group     int
	off       int64
	size      int
	committed atomic.Bool
	mu        sync.Mutex
	cache     *cachedRead
}

// Server is the HTTP object service over one or more placement groups, each
// a store plus the group-commit WAL in front of it.
type Server struct {
	stores  []*store.Store
	wals    []*store.WAL
	groupOf func(name string) int
	mux     *http.ServeMux

	// mu guards only the objects map; per-object state has its own lock.
	mu      sync.RWMutex
	objects map[string]*object

	// faultMu guards the fault plan mirrored here for /faults GET round-trips
	// (the compiled injectors live in the stores).
	faultMu   sync.Mutex
	faultPlan faultinject.Plan

	// cacheBytes tracks the total decoded payload bytes currently cached.
	cacheBytes atomic.Int64

	// draining flips when Close starts shutting the write path down:
	// /healthz keeps answering (the process lives) but /readyz fails, so
	// probers and gateways stop routing new work here.
	draining atomic.Bool

	// Observability (see internal/obs): the registry backing GET /metrics,
	// cache hit/miss counters, and per-op request latency histograms.
	reg         *obs.Registry
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	latGet      *obs.Histogram
	latPut      *obs.Histogram
	latHead     *obs.Histogram
}

// Config tunes optional server behaviour.
type Config struct {
	// Registry receives the server's (and, via store.SetMetrics, the
	// store's) metrics. Nil creates a private registry; either way GET
	// /metrics serves it.
	Registry *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints on a storage port are opt-in.
	EnablePprof bool
	// WAL tunes every group's group-commit write path (batch threshold and
	// flush interval); the zero value uses the store defaults of one stripe
	// and store.DefaultFlushInterval. LogPath is refused with more than one
	// group: the groups would share one spill file.
	WAL store.WALConfig
}

// requestBuckets spans 100µs to ~25s exponentially — tight enough to
// resolve cache hits, wide enough for degraded reads under injected latency.
var requestBuckets = obs.ExpBuckets(1e-4, 4, 9)

// NewServerWith serves one store (callers construct it with the scheme and
// element size they want) as a single placement group.
func NewServerWith(st *store.Store, cfg Config) *Server {
	// NewGroups fails only on a WAL log shared by several groups.
	s, _ := NewGroups([]*store.Store{st}, func(string) int { return 0 }, cfg)
	return s
}

// NewGroups serves one placement group per store, with groupOf mapping an
// object name to the index of the group that stores it. Every store must
// run the same scheme. Stores without a metrics bundle get one in the
// server's registry; the server attaches a WAL to each.
func NewGroups(stores []*store.Store, groupOf func(name string) int, cfg Config) (*Server, error) {
	if len(stores) > 1 && cfg.WAL.LogPath != "" {
		return nil, fmt.Errorf("httpd: WAL.LogPath with %d groups; a spill file serves one group", len(stores))
	}
	s := &Server{stores: stores, groupOf: groupOf, objects: make(map[string]*object), reg: cfg.Registry}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	for _, st := range stores {
		// Wire the store's bundle into the same registry unless something
		// upstream (the gateway, a test) already installed one.
		if st.Metrics() == nil {
			st.SetMetrics(store.NewMetrics(s.reg, st.Scheme().N()))
		}
		s.wals = append(s.wals, store.NewWAL(st, cfg.WAL))
	}
	s.cacheHits = s.reg.Counter("ecfrm_httpd_cache_hits_total",
		"Object GETs served from the decoded-read cache.")
	s.cacheMisses = s.reg.Counter("ecfrm_httpd_cache_misses_total",
		"Object GETs that had to decode from the store.")
	s.latGet = s.reg.Histogram("ecfrm_httpd_request_seconds",
		"Object request latency by operation.", requestBuckets, obs.L("op", "get"))
	s.latPut = s.reg.Histogram("ecfrm_httpd_request_seconds",
		"Object request latency by operation.", requestBuckets, obs.L("op", "put"))
	s.latHead = s.reg.Histogram("ecfrm_httpd_request_seconds",
		"Object request latency by operation.", requestBuckets, obs.L("op", "head"))
	s.reg.GaugeFunc("ecfrm_httpd_cached_bytes",
		"Decoded payload bytes currently cached.",
		func() float64 { return float64(s.cacheBytes.Load()) })
	s.reg.GaugeFunc("ecfrm_httpd_objects", "Objects stored.", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.objects))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/objects/", s.handleObject)
	mux.HandleFunc("/admin/status", s.handleStatus)
	mux.HandleFunc("/admin/fail", s.handleFail)
	mux.HandleFunc("/admin/recover", s.handleRecover)
	mux.HandleFunc("/admin/scrub", s.handleScrub)
	mux.HandleFunc("/admin/checksums", s.handleChecksums)
	mux.HandleFunc("/admin/corrupt", s.handleCorrupt)
	mux.HandleFunc("/faults", s.handleFaults)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", s.reg.Handler())
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s, nil
}

// WAL exposes group 0's group-commit write path — in single mode, the only
// one (tests and benchmarks inspect its depth and drive Put).
func (s *Server) WAL() *store.WAL { return s.wals[0] }

// Stores returns the per-group stores, indexed by group.
func (s *Server) Stores() []*store.Store { return s.stores }

// Close drains and shuts down every group's write path: queued PUTs are
// committed, then further PUTs fail with 503. /readyz starts failing
// immediately so load balancers and smoke scripts see the drain. Call after
// the HTTP listener stops accepting requests; the stores stay open.
func (s *Server) Close() error {
	s.draining.Store(true)
	var err error
	for _, w := range s.wals {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// SetFaultPlan compiles plan into every group's store as a decorator of its
// device backends (per-device policies apply to the same disk index in
// each group) and bumps their epochs, which invalidates every decoded-read
// cache. A plan without policies lifts the decorator. GET /faults reports
// the plan last set.
func (s *Server) SetFaultPlan(plan faultinject.Plan) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	s.faultPlan = plan
	for _, st := range s.stores {
		if len(plan.Policies) == 0 {
			st.WrapBackends(nil)
		} else {
			st.WrapBackends(faultinject.New(plan).Wrap)
		}
	}
}

// handleHealthz is the liveness probe: 200 whenever the process serves HTTP,
// draining or not.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz is the readiness probe: 200 while the server accepts new
// work, 503 once Close has started draining it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/objects/")
	if name == "" || strings.Contains(name, "/") {
		http.Error(w, "bad object name", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut:
		defer obs.StartSpan(s.latPut).End()
		s.putObject(w, r, name)
	case http.MethodGet:
		defer obs.StartSpan(s.latGet).End()
		s.getObject(w, r, name)
	case http.MethodHead:
		defer obs.StartSpan(s.latHead).End()
		s.headObject(w, name)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) putObject(w http.ResponseWriter, r *http.Request, name string) {
	// One exactly sized pooled buffer, which the WAL borrows until the
	// object commits: the body is never copied again in user space.
	grp := s.groupOf(name)
	pool := s.stores[grp].RunPool()
	buf, err := pool.ReadBody(r.Body, r.ContentLength)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body := buf.Data
	if len(body) == 0 {
		pool.Put(buf)
		http.Error(w, "empty object", http.StatusBadRequest)
		return
	}
	// The map lock is held only to reserve the name — never across store
	// I/O — so concurrent PUTs for different objects proceed in parallel
	// and share group commits instead of serializing behind one another.
	// The reservation itself preserves the append-only contract: a second
	// PUT for the same name sees the entry (committed or not) and gets 409.
	obj := &object{}
	s.mu.Lock()
	if _, exists := s.objects[name]; exists {
		s.mu.Unlock()
		pool.Put(buf)
		http.Error(w, "object exists (store is append-only)", http.StatusConflict)
		return
	}
	s.objects[name] = obj
	s.mu.Unlock()

	// Queue into the group's WAL and wait for the group commit that makes
	// the bytes durable. Many concurrent PUTs pack into shared stripes here.
	off, err := s.wals[grp].Put(r.Context(), body)
	if err != nil {
		// The commit failed or the client gave up: free the name so a
		// retry can claim it. Failed commits are transient by
		// construction (the WAL retains its queue and retries), so steer
		// the client back just like degraded reads do. The WAL may still
		// hold the body, so it is dropped, not pooled.
		s.mu.Lock()
		delete(s.objects, name)
		s.mu.Unlock()
		switch {
		case errors.Is(err, store.ErrUnavailable):
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.Is(err, store.ErrWALClosed):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case r.Context().Err() != nil:
			// Client disconnected while waiting for the ack; its entry may
			// still commit, but nobody is listening for the outcome.
			http.Error(w, err.Error(), 499)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	obj.group, obj.off, obj.size = grp, off, len(body)
	pool.Put(buf)             // acked: the WAL holds no reference
	obj.committed.Store(true) // publish: readers load-acquire this flag
	w.WriteHeader(http.StatusCreated)
	if len(s.stores) > 1 {
		fmt.Fprintf(w, "stored %d bytes in group %d at offset %d\n", len(body), grp, off)
	} else {
		fmt.Fprintf(w, "stored %d bytes at offset %d\n", len(body), off)
	}
}

// lookup fetches an object's handle under the shared map lock. Names whose
// PUT has not yet group-committed are reservations, not objects: callers see
// them as absent.
func (s *Server) lookup(name string) (*object, bool) {
	s.mu.RLock()
	obj, ok := s.objects[name]
	s.mu.RUnlock()
	if !ok || !obj.committed.Load() {
		return nil, false
	}
	return obj, true
}

// parseReadOptions derives per-request executor options from query
// parameters onto the zero ReadOptions. It reports whether the request also
// asked to bypass the decoded-payload cache. A read knob whose value is not
// a boolean is an error naming it; unknown parameters are ignored.
func parseReadOptions(r *http.Request) (opts store.ReadOptions, nocache bool, err error) {
	q := r.URL.Query()
	for _, knob := range []struct {
		name string
		dst  *bool
	}{
		{"sequential", &opts.Sequential},
		{"nocache", &nocache},
	} {
		if v := q.Get(knob.name); v != "" {
			b, perr := strconv.ParseBool(v)
			if perr != nil {
				return opts, false, fmt.Errorf("bad %s parameter %q: want a boolean", knob.name, v)
			}
			*knob.dst = b
		}
	}
	return opts, nocache, nil
}

// setReadHeaders writes the headers GET and HEAD share.
func (s *Server) setReadHeaders(h http.Header, grp int, cost float64, maxLoad int) {
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Read-Cost", fmt.Sprintf("%.3f", cost))
	h.Set("X-Max-Disk-Load", strconv.Itoa(maxLoad))
	if len(s.stores) > 1 {
		h.Set("X-Placement-Group", strconv.Itoa(grp))
	}
}

func (s *Server) getObject(w http.ResponseWriter, r *http.Request, name string) {
	obj, ok := s.lookup(name)
	if !ok {
		http.Error(w, "no such object", http.StatusNotFound)
		return
	}
	opts, nocache, err := parseReadOptions(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Every cell, decoded ones included, is in hand before the status
	// line: a read that fails is a 503, never a truncated 200.
	res, err := s.readObject(r.Context(), obj, opts, nocache)
	if err != nil {
		// Both flavors of degradation are availability failures, but
		// unavailable devices are transient: tell the client when to come
		// back.
		if errors.Is(err, store.ErrUnavailable) {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer res.Release()
	s.setReadHeaders(w.Header(), obj.group, res.Plan.Cost(), res.Plan.MaxLoad())
	w.Header().Set("Content-Length", strconv.Itoa(obj.size))
	res.WriteTo(w) // a client gone mid-body ends the reply; Release still runs
}

// headObject serves object metadata without decoding or transferring the
// payload: the size from the object map and the cost/max-load a GET would
// incur, computed by planning the read without touching any device.
func (s *Server) headObject(w http.ResponseWriter, name string) {
	obj, ok := s.lookup(name)
	if !ok {
		// No http.Error: HEAD responses carry no body.
		w.WriteHeader(http.StatusNotFound)
		return
	}
	plan, err := s.stores[obj.group].PlanRead(obj.off, obj.size)
	if err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	s.setReadHeaders(w.Header(), obj.group, plan.Cost(), plan.MaxLoad())
	w.Header().Set("Content-Length", strconv.Itoa(obj.size))
	w.WriteHeader(http.StatusOK)
}

// readObject returns the object's payload: the epoch-tagged cache's when
// valid, a contiguous read that fills it when the object may be cached,
// and otherwise a streamed one, which the caller Releases. The per-object
// mutex is held only for a cache-consulting read, never while writing the
// response, and cached payloads are immutable once published. The context
// cancels device waits when the client disconnects; nocache requests
// neither consult nor fill the cache (latency benchmarking must hit the
// executor every time), so they skip the mutex and concurrent ones overlap.
func (s *Server) readObject(ctx context.Context, obj *object, opts store.ReadOptions, nocache bool) (*store.ReadResult, error) {
	st := s.stores[obj.group]
	var epoch int64
	if !nocache {
		obj.mu.Lock()
		defer obj.mu.Unlock()
		epoch = st.Epoch()
		if c := obj.cache; c != nil {
			if c.epoch == epoch {
				s.cacheHits.Inc()
				return &store.ReadResult{Data: c.data, Plan: c.plan}, nil
			}
			// Stale: drop it and release its budget before re-reading.
			s.cacheBytes.Add(-int64(len(c.data)))
			obj.cache = nil
		}
	}
	s.cacheMisses.Inc()
	// Cache small objects while the budget lasts: only a fill makes a
	// contiguous copy.
	if nocache || obj.size > maxCachedObjectBytes || s.cacheBytes.Load()+int64(obj.size) > cacheBudgetBytes {
		return st.ReadStream(ctx, obj.off, obj.size, opts)
	}
	res, err := st.ReadAtCtx(ctx, obj.off, obj.size, opts)
	// A healing read bumps the epoch itself, so re-check: only results
	// still current are cacheable.
	if err == nil && st.Epoch() == epoch && res.Healed == 0 {
		obj.cache = &cachedRead{epoch: epoch, data: res.Data, plan: res.Plan}
		s.cacheBytes.Add(int64(len(res.Data)))
	}
	return res, err
}

// Status is the admin status document. Counters sum over the placement
// groups; device counters are per disk index, summed over groups, and
// failed_disks lists each disk index failed in any group (stripes_by_group
// and failed_disks_by_group break them down when there is more than one).
type Status struct {
	Scheme         string  `json:"scheme"`
	Disks          int     `json:"disks"`
	FaultTolerance int     `json:"fault_tolerance"`
	Overhead       float64 `json:"storage_overhead"`
	Groups         int     `json:"groups"`
	Stripes        int     `json:"stripes"`
	StripesByGroup []int   `json:"stripes_by_group,omitempty"`
	Bytes          int64   `json:"bytes"`
	Objects        int     `json:"objects"`
	FailedDisks    []int   `json:"failed_disks"`
	FailedByGroup  [][]int `json:"failed_disks_by_group,omitempty"`
	DeviceReads    []int   `json:"device_reads"`
	DeviceWrites   []int   `json:"device_writes"`
	CachedBytes    int64   `json:"cached_bytes"`
	WALQueued      int     `json:"wal_queued_objects"`
	WALQueuedBytes int     `json:"wal_queued_bytes"`
	RunBuffersLent int     `json:"run_buffers_lent"` // zero while no request is in flight
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.mu.RLock()
	objects := len(s.objects)
	s.mu.RUnlock()
	sch := s.stores[0].Scheme()
	st := Status{
		Scheme:         sch.Name(),
		Disks:          sch.N(),
		FaultTolerance: sch.FaultTolerance(),
		Overhead:       sch.StorageOverhead(),
		Groups:         len(s.stores),
		Objects:        objects,
		DeviceReads:    make([]int, sch.N()),
		DeviceWrites:   make([]int, sch.N()),
		CachedBytes:    s.cacheBytes.Load(),
	}
	failed := make([]bool, sch.N())
	for grp, gs := range s.stores {
		st.Stripes += gs.Stripes()
		st.Bytes += gs.Len()
		q, qb := s.wals[grp].Depth()
		st.WALQueued += q
		st.WALQueuedBytes += qb
		st.RunBuffersLent += gs.RunPool().Lent()
		fd := gs.FailedDisks()
		for _, d := range fd {
			failed[d] = true
		}
		if len(s.stores) > 1 {
			st.StripesByGroup = append(st.StripesByGroup, gs.Stripes())
			st.FailedByGroup = append(st.FailedByGroup, fd)
		}
		for d := 0; d < sch.N(); d++ {
			st.DeviceReads[d] += gs.Device(d).Reads()
			st.DeviceWrites[d] += gs.Device(d).Writes()
		}
	}
	for d, f := range failed {
		if f {
			st.FailedDisks = append(st.FailedDisks, d)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// groupParam resolves the store an admin operation addresses: ?group=G,
// defaulting to group 0.
func (s *Server) groupParam(w http.ResponseWriter, r *http.Request) (*store.Store, bool) {
	grp := 0
	if v := r.URL.Query().Get("group"); v != "" {
		var err error
		if grp, err = strconv.Atoi(v); err != nil || grp < 0 || grp >= len(s.stores) {
			http.Error(w, "bad group parameter", http.StatusBadRequest)
			return nil, false
		}
	}
	return s.stores[grp], true
}

// diskParam resolves ?disk=D within the addressed group's store.
func (s *Server) diskParam(w http.ResponseWriter, r *http.Request) (*store.Store, int, bool) {
	st, ok := s.groupParam(w, r)
	if !ok {
		return nil, 0, false
	}
	d, err := strconv.Atoi(r.URL.Query().Get("disk"))
	if err != nil || d < 0 || d >= st.Scheme().N() {
		http.Error(w, "bad or missing disk parameter", http.StatusBadRequest)
		return nil, 0, false
	}
	return st, d, true
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	st, d, ok := s.diskParam(w, r)
	if !ok {
		return
	}
	// The tolerance check and the mark are one atomic store operation, so
	// concurrent fail requests cannot race past the fault tolerance.
	if !st.FailDiskWithinTolerance(d) {
		http.Error(w, fmt.Sprintf("refusing: %d failures already at tolerance", len(st.FailedDisks())),
			http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "disk %d failed\n", d)
}

func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	st, d, ok := s.diskParam(w, r)
	if !ok {
		return
	}
	cost, err := st.RecoverDisk(d)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrUnrecoverable) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	fmt.Fprintf(w, "disk %d recovered, %d elements read\n", d, cost)
}

// handleChecksums re-verifies every stored cell's CRC and reports failures.
func (s *Server) handleChecksums(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	st, ok := s.groupParam(w, r)
	if !ok {
		return
	}
	bad := st.VerifyChecksums()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"corrupt_cells": bad, "count": len(bad)})
}

// handleCorrupt injects silent bit rot into one stored cell — a failure-
// injection hook for demos and tests (the read path will heal it).
func (s *Server) handleCorrupt(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	st, ok := s.groupParam(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	stripe, err1 := strconv.Atoi(q.Get("stripe"))
	row, err2 := strconv.Atoi(q.Get("row"))
	col, err3 := strconv.Atoi(q.Get("col"))
	if err1 != nil || err2 != nil || err3 != nil {
		http.Error(w, "corrupt requires stripe, row, col", http.StatusBadRequest)
		return
	}
	lay := st.Scheme().Layout()
	if stripe < 0 || stripe >= st.Stripes() ||
		row < 0 || row >= lay.Rows() || col < 0 || col >= lay.N() {
		http.Error(w, "cell out of range", http.StatusBadRequest)
		return
	}
	if err := st.CorruptCell(stripe, layout.Pos{Row: row, Col: col}); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "corrupted stripe %d cell (%d,%d)\n", stripe, row, col)
}

// handleFaults drives the deterministic fault-injection subsystem: PUT
// installs a validated plan through SetFaultPlan, GET round-trips the
// installed plan, DELETE clears it.
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.faultMu.Lock()
		plan := s.faultPlan
		s.faultMu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(plan)
	case http.MethodPut:
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		plan, err := faultinject.ParsePlan(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.SetFaultPlan(plan)
		fmt.Fprintf(w, "fault plan installed: seed %d, %d policies\n", plan.Seed, len(plan.Policies))
	case http.MethodDelete:
		s.SetFaultPlan(faultinject.Plan{})
		fmt.Fprintln(w, "fault plan cleared")
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleScrub verifies the parity of every stripe of every group.
// corrupt_stripes lists the bad stripe indices of all groups together;
// with more than one group, corrupt_stripes_by_group says which is which.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var all []int
	var byGroup [][]int
	for _, st := range s.stores {
		bad, err := st.Scrub()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		all = append(all, bad...)
		byGroup = append(byGroup, bad)
	}
	reply := map[string]any{"corrupt_stripes": all}
	if len(s.stores) > 1 {
		reply["corrupt_stripes_by_group"] = byGroup
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}
