package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datanode"
	"repro/internal/gateway"
	"repro/internal/gf"
	"repro/internal/httpd"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/nodeapi"
	"repro/internal/obs"
	"repro/internal/rs"
	"repro/internal/shardio"
	"repro/internal/store"
)

// The per-layer metrics come from replaying one fixed request sample
// in-process, once per depth: over a socket, into ServeHTTP on a recorder,
// into the store or WAL, and into the planner, the encoder and the device
// files. Nothing inside the program is instrumented; every span is taken
// here, around a layer's public functions.

const (
	replayGetPasses = 5 // passes over the replay objects per GET depth
	replayPutSets   = 2 // sets of 20 objects per PUT depth
)

// replay accumulates span durations by name and request, and the metrics
// derived from them.
type replay struct {
	h    *harness
	dur  map[string]map[string]float64 // span name → request → µs
	out  map[string]metric
	bufs core.Buffers
}

// timed runs fn as the span name of request req under parent.
func (r *replay) timed(workload, name, parent, req string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.record(workload, name, parent, req, t0, time.Now())
	return err
}

// record keeps one span. Spans of one name and request add up: a request's
// ten device writes are one "device.write_runs" duration.
func (r *replay) record(workload, name, parent, req string, t0, t1 time.Time) {
	r.h.tr.span(workload, name, req, parent, t0, t1)
	m := r.dur[name]
	if m == nil {
		m = map[string]float64{}
		r.dur[name] = m
	}
	m[req] += float64(t1.Sub(t0).Nanoseconds()) / 1e3
}

// med is the median duration of the named span over requests, in µs.
func (r *replay) med(name string) float64 {
	var v []float64
	for _, d := range r.dur[name] {
		v = append(v, d)
	}
	return median(v)
}

// self is the median over requests of span name minus its children.
func (r *replay) self(name string, children ...string) float64 {
	var v []float64
	for req, d := range r.dur[name] {
		for _, c := range children {
			d -= r.dur[c][req]
		}
		v = append(v, d)
	}
	return median(v)
}

func (r *replay) set(name string, v float64, unit string) { r.out[name] = metric{v, unit} }

// sizedSets returns n sets of objects, each set holding sizes 1..20 elements
// in that order, so that object k of one depth and object k of another are
// the same request.
func (r *replay) sizedSets(label string, n int) []object {
	var objs []object
	for i := 0; i < n*maxElems; i++ {
		size := (i%maxElems + 1) * elemBytes
		off := (i * 7919 * 64) % (poolBytes - size + 1)
		objs = append(objs, object{
			name: fmt.Sprintf("%s-%d", label, i), off: off, size: size,
			crc: crc32.ChecksumIEEE(r.h.pool[off : off+size]),
		})
	}
	return objs
}

func (r *replay) payload(o object) []byte { return r.h.pool[o.off : o.off+o.size] }

// serve runs one request through a handler without a socket.
func serve(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// registryScrape reads an in-process registry the way /metrics serves it.
func registryScrape(reg *obs.Registry) (series, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	return parseSeries(&buf)
}

// located is an object stored in-process with where the store put it.
type located struct {
	object
	group int
	off   int64
}

// runs groups a plan's element reads into the contiguous per-device runs the
// store's executor issues: slot = stripe*rows + row.
func runsOf(plan *core.Plan, rows int) map[int][][2]int {
	slots := map[int][]int{}
	for _, a := range plan.Reads {
		slots[a.Disk] = append(slots[a.Disk], a.Stripe*rows+a.Pos.Row)
	}
	out := map[int][][2]int{}
	for d, s := range slots {
		sort.Ints(s)
		for i := 0; i < len(s); {
			j := i + 1
			for j < len(s) && s[j] == s[j-1]+1 {
				j++
			}
			out[d] = append(out[d], [2]int{s[i], j - i})
			i = j
		}
	}
	return out
}

// The workloads whose spans the single-mode replay produces.
const (
	wGet = "single-get"
	wDeg = "single-get-degraded"
	wPut = "single-put"
)

// singleRig is single mode opened in-process the way ecfrmd opens it:
// LRC(6,2,2), ecfrm layout, file backend with fsync, WAL spilling into the
// data directory, behind an httpd.Server on a loopback listener. Beside it
// sit device files of the same geometry for the device depth, which the
// store does not expose.
type singleRig struct {
	r      *replay
	scheme *core.Scheme
	st     *store.Store
	reg    *obs.Registry
	srv    *httpd.Server
	cl     *client
	disks  []*store.DiskStore
	files  []*os.File // the disks' data files, for bare preads
	close  []func()

	stored []located // the handler-depth PUTs, which the GET depths fetch
	gets   []getReq
	cells  [][]byte // the last stripe encoded
}

type getReq struct {
	id string
	o  located
}

func (r *replay) openSingle(dir string) (*singleRig, error) {
	g := &singleRig{r: r, reg: obs.NewRegistry()}
	code, err := lrc.New(6, 2, 2)
	if err != nil {
		return nil, err
	}
	if g.scheme, err = core.NewScheme(code, layout.Form("ecfrm")); err != nil {
		return nil, err
	}
	fileCfg := store.FileConfig{Dir: filepath.Join(dir, "store"), Fsync: store.FsyncAlways}
	if g.st, _, err = store.OpenFileBacked(g.scheme, elemBytes, fileCfg); err != nil {
		return nil, err
	}
	g.srv = httpd.NewServerWith(g.st, httpd.Config{Registry: g.reg,
		WAL: store.WALConfig{LogPath: filepath.Join(fileCfg.Dir, "wal.log")}})
	ts := httptest.NewServer(g.srv)
	g.cl = newClient(ts.URL, r.h.pool, nil, "")
	g.close = []func(){g.cl.close, ts.Close, func() { g.srv.Close() }, func() { g.st.Close() }}
	for d := 0; d < g.scheme.N(); d++ {
		data := filepath.Join(dir, fmt.Sprintf("replay_%02d.data", d))
		ds, err := store.OpenFileDisk(data, filepath.Join(dir, fmt.Sprintf("replay_%02d.crc", d)), elemBytes, fileCfg)
		if err != nil {
			g.shut()
			return nil, err
		}
		g.close = append(g.close, func() { ds.Close() })
		f, err := os.Open(data)
		if err != nil {
			g.shut()
			return nil, err
		}
		g.close = append(g.close, func() { f.Close() })
		g.disks, g.files = append(g.disks, ds), append(g.files, f)
	}
	return g, nil
}

func (g *singleRig) shut() {
	for _, fn := range g.close {
		fn()
	}
}

// single replays the three single-mode workloads.
func (r *replay) single() error {
	dir, err := r.h.sb.mkdir("replay-single")
	if err != nil {
		return err
	}
	defer r.h.sb.rmdir(dir)
	g, err := r.openSingle(dir)
	if err != nil {
		return err
	}
	defer g.shut()
	for _, step := range []func() error{g.puts, g.healthyGets, g.cacheAndRegistry, g.degradedGets} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// puts replays PUT one depth at a time.
func (g *singleRig) puts() error {
	r, ctx := g.r, context.Background()
	for _, o := range r.sizedSets("warm", 1) { // lazily built tables, first-touch pages
		if _, err := g.cl.put(o); err != nil {
			return err
		}
	}
	objs := r.sizedSets("h", replayPutSets)
	a0 := allocated()
	for i, o := range objs {
		var rec *httptest.ResponseRecorder
		r.timed(wPut, "httpd.put_handler", "socket.put", fmt.Sprint("put-", i), func() error {
			rec = serve(g.srv, http.MethodPut, "/objects/"+o.name, r.payload(o))
			return nil
		})
		var size int
		var off int64
		if _, err := fmt.Sscanf(rec.Body.String(), "stored %d bytes at offset %d", &size, &off); err != nil || rec.Code != http.StatusCreated {
			return fmt.Errorf("replay PUT %s: %d %q", o.name, rec.Code, rec.Body.String())
		}
		g.stored = append(g.stored, located{object: o, off: off})
	}
	r.set("httpd.put_alloc_bytes_per_op", float64(allocated()-a0)/float64(len(objs)), "B")
	for i, o := range r.sizedSets("s", replayPutSets) {
		if err := r.timed(wPut, "socket.put", "", fmt.Sprint("put-", i), func() error {
			_, err := g.cl.put(o)
			return err
		}); err != nil {
			return err
		}
	}
	before, err := registryScrape(g.reg)
	if err != nil {
		return err
	}
	a0 = allocated()
	for i, o := range objs {
		if err := r.timed(wPut, "wal.put", "httpd.put_handler", fmt.Sprint("put-", i), func() error {
			_, err := g.srv.WAL().Put(ctx, r.payload(o))
			return err
		}); err != nil {
			return err
		}
	}
	r.set("wal.put_alloc_bytes_per_op", float64(allocated()-a0)/float64(len(objs)), "B")
	after, err := registryScrape(g.reg)
	if err != nil {
		return err
	}
	spill := after.sub(before)
	spillUs := 1e6 * spill.sum("ecfrm_wal_log_sync_seconds_sum") / spill.sum("ecfrm_wal_log_sync_seconds_count")
	stripeBytes := g.scheme.DataPerStripe() * elemBytes
	for i := 0; i < maxElems; i++ { // an object that fills a stripe commits at once
		if err := r.timed(wPut, "wal.put_full_stripe", "", fmt.Sprint("full-", i), func() error {
			_, err := g.srv.WAL().Put(ctx, r.h.pool[:stripeBytes])
			return err
		}); err != nil {
			return err
		}
	}
	// Below the WAL the queue is empty and nothing else appends, so the
	// store's own Append+Flush is what a lone PUT's group commit runs.
	for i, o := range objs {
		if err := r.timed(wPut, "store.seal", "wal.put", fmt.Sprint("put-", i), func() error {
			if err := g.st.Append(r.payload(o)); err != nil {
				return err
			}
			return g.st.Flush()
		}); err != nil {
			return err
		}
	}
	// Encode and device depth: the stripe a lone PUT seals is its elements
	// padded with zeroes, encoded, and written as one run of rows cells to
	// each device, then fsynced. The replay issues the device calls one at a
	// time; the store overlaps them, so Σ device can exceed the seal's share.
	// Request i lands in the stripe the store gave handler-depth request i,
	// so that the GET replay finds on these files the runs its plans name.
	lay := g.scheme.Layout()
	n, rows := g.scheme.N(), lay.Rows()
	zero := make([]byte, elemBytes)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	g.cells = make([][]byte, g.scheme.CellsPerStripe()) // reused, so parity buffers are too
	for i, o := range objs {
		req := fmt.Sprint("put-", i)
		slot := int(g.stored[i].off/int64(stripeBytes)) * rows
		data := make([][]byte, g.scheme.DataPerStripe())
		for e := range data {
			data[e] = zero
			if e < o.size/elemBytes {
				data[e] = r.h.pool[o.off+e*elemBytes : o.off+(e+1)*elemBytes]
			}
		}
		if err := r.timed(wPut, "core.encode_stripe", "store.seal", req, func() error {
			return g.scheme.EncodeStripeInto(&r.bufs, g.cells, data)
		}); err != nil {
			return err
		}
		for d, ds := range g.disks {
			col := lay.Col(i, d)
			flat := make([]byte, 0, rows*elemBytes)
			crcs := make([]uint32, rows)
			for row := 0; row < rows; row++ {
				flat = append(flat, g.cells[row*n+col]...)
				crcs[row] = crc32.Checksum(g.cells[row*n+col], castagnoli)
			}
			if err := r.timed(wPut, "device.write_runs", "store.seal", req, func() error {
				return r.timed(wPut, "device.write_run", "device.write_runs", fmt.Sprint(req, "-d", d), func() error {
					return ds.WriteRun(slot, flat, crcs)
				})
			}); err != nil {
				return err
			}
		}
		for d, ds := range g.disks {
			if err := r.timed(wPut, "device.syncs", "store.seal", req, func() error {
				return r.timed(wPut, "device.sync", "device.syncs", fmt.Sprint(req, "-d", d), ds.Sync)
			}); err != nil {
				return err
			}
		}
	}
	r.set("httpd.put_handler_us", r.med("httpd.put_handler"), "us")
	r.set("httpd.put_self_us", r.self("httpd.put_handler", "wal.put"), "us")
	r.set("wal.put_us", r.med("wal.put"), "us")
	r.set("wal.spill_sync_us", spillUs, "us")
	r.set("wal.wait_us", r.self("wal.put", "store.seal")-spillUs, "us")
	r.set("wal.put_full_stripe_us", r.med("wal.put_full_stripe"), "us")
	r.set("store.seal_us", r.med("store.seal"), "us")
	r.set("store.seal_self_us", r.self("store.seal", "core.encode_stripe", "device.write_runs", "device.syncs"), "us")
	r.set("core.encode_stripe_us", r.med("core.encode_stripe"), "us")
	r.set("core.encode_mb_per_s", float64(stripeBytes)/r.med("core.encode_stripe"), "MB/s")
	r.set("device.write_run_us", r.med("device.write_run"), "us")
	r.set("device.sync_us", r.med("device.sync"), "us")

	for pass := 0; pass < replayGetPasses; pass++ {
		for i, o := range g.stored {
			g.gets = append(g.gets, getReq{fmt.Sprintf("get-%d-%d", i, pass), o})
		}
	}
	return nil
}

// elems is the run of data elements an object covers.
func elems(o located) (start, count int) {
	start = int(o.off / elemBytes)
	return start, int((o.off+int64(o.size)+elemBytes-1)/elemBytes) - start
}

// The three depths every GET replay shares: over the socket, into the
// handler, into the store. Each checks the bytes it got.

func (g *singleRig) readSocket(workload, name string) error {
	for _, q := range g.gets {
		if err := g.r.timed(workload, name, "", q.id, func() error {
			_, _, err := g.cl.get(q.o.object, false)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func (g *singleRig) readHandler(workload, name, parent string) error {
	for _, q := range g.gets {
		var rec *httptest.ResponseRecorder
		g.r.timed(workload, name, parent, q.id, func() error {
			rec = serve(g.srv, http.MethodGet, "/objects/"+q.o.name+"?nocache=1", nil)
			return nil
		})
		if rec.Code != http.StatusOK || crc32.ChecksumIEEE(rec.Body.Bytes()) != q.o.crc {
			return fmt.Errorf("replay %s %s: status %d or wrong bytes", name, q.o.name, rec.Code)
		}
	}
	return nil
}

func (g *singleRig) readStore(workload, name, parent string, opts store.ReadOptions) error {
	for _, q := range g.gets {
		var res *store.ReadResult
		if err := g.r.timed(workload, name, parent, q.id, func() (err error) {
			res, err = g.st.ReadAtCtx(context.Background(), q.o.off, q.o.size, opts)
			return err
		}); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(res.Data) != q.o.crc {
			return fmt.Errorf("replay %s %s: wrong bytes", name, q.o.name)
		}
	}
	return nil
}

// healthyGets replays the healthy GET one depth at a time.
func (g *singleRig) healthyGets() error {
	r := g.r
	if err := g.readSocket(wGet, "socket.get"); err != nil {
		return err
	}
	if err := g.readHandler(wGet, "httpd.get_handler", "socket.get"); err != nil {
		return err
	}
	a0 := allocated()
	if err := g.readStore(wGet, "store.read_fanout", "httpd.get_handler", store.ReadOptions{}); err != nil {
		return err
	}
	r.set("store.read_alloc_bytes_per_op", float64(allocated()-a0)/float64(len(g.gets)), "B")
	// The sequential executor issues one device call at a time, as the
	// replay below it does, so its time splits into plan, device and self.
	if err := g.readStore(wGet, "store.read_sequential", "", store.ReadOptions{Sequential: true}); err != nil {
		return err
	}
	rows := g.scheme.Layout().Rows()
	raw := make([]byte, rows*maxElems*elemBytes)
	loadSum := 0.0
	for _, q := range g.gets {
		start, count := elems(q.o)
		var plan *core.Plan
		if err := r.timed(wGet, "core.plan_normal", "store.read_sequential", q.id, func() (err error) {
			plan, err = g.scheme.PlanNormalRead(start, count)
			return err
		}); err != nil {
			return err
		}
		loadSum += float64(plan.MaxLoad())
		for d, runs := range runsOf(plan, rows) {
			for _, run := range runs {
				call := fmt.Sprint(q.id, "-d", d, "-s", run[0])
				if err := r.timed(wGet, "device.read_runs", "store.read_sequential", q.id, func() error {
					return r.timed(wGet, "device.read_run", "device.read_runs", call, func() error {
						_, _, err := g.disks[d].ReadRun(run[0], run[1])
						return err
					})
				}); err != nil {
					return err
				}
				if err := r.timed(wGet, "device.raw_pread", "device.read_run", call, func() error {
					_, err := g.files[d].ReadAt(raw[:run[1]*elemBytes], int64(run[0])*elemBytes)
					return err
				}); err != nil {
					return err
				}
			}
		}
	}
	r.set("httpd.get_handler_us", r.med("httpd.get_handler"), "us")
	r.set("httpd.get_self_us", r.self("httpd.get_handler", "store.read_fanout"), "us")
	r.set("store.read_fanout_us", r.med("store.read_fanout"), "us")
	r.set("store.read_sequential_us", r.med("store.read_sequential"), "us")
	r.set("store.read_self_us", r.self("store.read_sequential", "core.plan_normal", "device.read_runs"), "us")
	r.set("core.plan_normal_us", r.med("core.plan_normal"), "us")
	r.set("core.plan_max_load_normal", loadSum/float64(len(g.gets)), "elements")
	r.set("device.read_run_us", r.med("device.read_run"), "us")
	// What a device call costs beyond the bare pread of the same bytes:
	// the submission ring's hand-off and the checksum sidecar read.
	r.set("device.queue_wait_us", r.self("device.read_run", "device.raw_pread"), "us")
	return nil
}

// cacheAndRegistry measures the two layers the end-to-end workloads bypass
// or barely touch: the decoded-object cache, with GETs without nocache over
// a subset that fits its 64 MiB budget (the first pass fills, the rest hit),
// and the metrics registry's exposition.
func (g *singleRig) cacheAndRegistry() error {
	r := g.r
	before, err := registryScrape(g.reg)
	if err != nil {
		return err
	}
	subset := g.stored[:len(g.stored)*4/5]
	for pass := 0; pass*len(subset) < 1000; pass++ {
		for i, o := range subset {
			name := "httpd.get_hit"
			if pass == 0 {
				name = "httpd.get_fill"
			}
			var rec *httptest.ResponseRecorder
			r.timed(wGet, name, "", fmt.Sprintf("hit-%d-%d", i, pass), func() error {
				rec = serve(g.srv, http.MethodGet, "/objects/"+o.name, nil)
				return nil
			})
			if rec.Code != http.StatusOK || crc32.ChecksumIEEE(rec.Body.Bytes()) != o.crc {
				return fmt.Errorf("replay cached GET %s: status %d or wrong bytes", o.name, rec.Code)
			}
		}
	}
	after, err := registryScrape(g.reg)
	if err != nil {
		return err
	}
	cache := after.sub(before)
	hits, misses := cache.sum("ecfrm_httpd_cache_hits_total"), cache.sum("ecfrm_httpd_cache_misses_total")
	r.set("httpd.get_hit_us", r.med("httpd.get_hit"), "us")
	r.set("httpd.cache_hit_ratio", hits/(hits+misses), "ratio")

	var buf bytes.Buffer
	for i := 0; i < 50; i++ {
		buf.Reset()
		if err := r.timed(wGet, "obs.scrape", "", fmt.Sprint("scrape-", i), func() error { return g.reg.WriteText(&buf) }); err != nil {
			return err
		}
	}
	r.set("obs.scrape_us", r.med("obs.scrape"), "us")
	r.set("obs.series_count", float64(len(after)), "count")
	return nil
}

// degradedGets replays the same GETs with disks 3 and 8 failed.
func (g *singleRig) degradedGets() error {
	r := g.r
	failed := []int{3, 8}
	for _, d := range failed {
		if !g.st.FailDiskWithinTolerance(d) {
			return fmt.Errorf("replay: failing disk %d exceeds the scheme's tolerance", d)
		}
	}
	if err := g.readSocket(wDeg, "socket.get_degraded"); err != nil {
		return err
	}
	if err := g.readHandler(wDeg, "httpd.get_handler_degraded", "socket.get_degraded"); err != nil {
		return err
	}
	if err := g.readStore(wDeg, "store.read_degraded", "httpd.get_handler_degraded", store.ReadOptions{}); err != nil {
		return err
	}
	var load, reads, asked float64
	for _, q := range g.gets {
		start, count := elems(q.o)
		var plan *core.Plan
		if err := r.timed(wDeg, "core.plan_degraded", "store.read_degraded", q.id, func() (err error) {
			plan, err = g.scheme.PlanDegradedRead(start, count, failed)
			return err
		}); err != nil {
			return err
		}
		load += float64(plan.MaxLoad())
		reads += float64(plan.TotalReads())
		asked += float64(plan.Requested)
	}
	// Reconstruction: the last encoded stripe without the failed disks' cells.
	lay := g.scheme.Layout()
	var lostIdx []int
	for _, d := range failed {
		for row := 0; row < lay.Rows(); row++ {
			lostIdx = append(lostIdx, row*g.scheme.N()+lay.Col(0, d))
		}
	}
	for i := 0; i < replayPutSets*maxElems; i++ {
		lost := append([][]byte(nil), g.cells...)
		for _, idx := range lostIdx {
			lost[idx] = nil
		}
		if err := r.timed(wDeg, "core.reconstruct_stripe", "store.read_degraded", fmt.Sprint("rec-", i), func() error {
			return g.scheme.ReconstructStripeInto(&r.bufs, lost)
		}); err != nil {
			return err
		}
		for _, idx := range lostIdx {
			r.bufs.PutShard(lost[idx])
		}
	}
	r.set("store.read_degraded_us", r.med("store.read_degraded"), "us")
	r.set("core.plan_degraded_us", r.med("core.plan_degraded"), "us")
	r.set("core.plan_max_load_degraded", load/float64(len(g.gets)), "elements")
	r.set("core.plan_reads_per_elem_degraded", reads/asked, "ratio")
	r.set("core.reconstruct_stripe_us", r.med("core.reconstruct_stripe"), "us")
	return nil
}

// nodeTap sits in front of an in-process data node and records a span per
// cell request, under whatever request the replay is running at the time.
type nodeTap struct {
	r    *replay
	next http.Handler
	mu   *sync.Mutex
	cur  *tapState
}

type tapState struct {
	req, parent string // the replayed request node calls belong to; "" records nothing
	keepReads   bool   // remember the URLs of its cell-run reads, for the round-trip replay
	reads       []string
	count       int
}

func (t nodeTap) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	name := ""
	switch {
	case req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/cells/") && !strings.HasSuffix(req.URL.Path, "/meta"):
		name = "datanode.read_run_handler"
	case req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/cells/"):
		name = "datanode.write_run_handler"
	case strings.HasPrefix(req.URL.Path, "/sync/"):
		name = "datanode.sync_handler"
	}
	if name == "" {
		t.next.ServeHTTP(w, req)
		return
	}
	t0 := time.Now()
	t.next.ServeHTTP(w, req)
	t1 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur.req == "" {
		return
	}
	t.cur.count++
	call := fmt.Sprint(t.cur.req, "-n", t.cur.count)
	if t.cur.keepReads && name == "datanode.read_run_handler" {
		t.cur.reads = append(t.cur.reads, "http://"+req.Host+req.URL.RequestURI())
	}
	t.r.record("gateway-mixed", name, t.cur.parent, call, t0, t1)
}

// gateway replays the networked workload: RS(6,3) over three in-process
// file-backed data nodes behind an in-process gateway, every hop a real
// loopback HTTP request.
func (r *replay) gateway() error {
	const w = "gateway-mixed"
	ctx := context.Background()
	dir, err := r.h.sb.mkdir("replay-gateway")
	if err != nil {
		return err
	}
	defer r.h.sb.rmdir(dir)
	var mu sync.Mutex
	tap := &tapState{}
	var urls []string
	for i := 1; i <= 3; i++ {
		node, err := datanode.New(datanode.Config{ElemSize: elemBytes, Dir: filepath.Join(dir, fmt.Sprint("node", i)),
			File: store.FileConfig{Fsync: store.FsyncAlways}, Registry: obs.NewRegistry()})
		if err != nil {
			return err
		}
		defer node.Close()
		ts := httptest.NewServer(nodeTap{r: r, next: node, mu: &mu, cur: tap})
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	code, err := rs.New(6, 3)
	if err != nil {
		return err
	}
	scheme, err := core.NewScheme(code, layout.Form("ecfrm"))
	if err != nil {
		return err
	}
	gw, err := gateway.New(gateway.Config{Nodes: urls, Groups: 4, ElemSize: elemBytes, Scheme: scheme,
		SyncWrites: true, ProbeInterval: 200 * time.Millisecond})
	if err != nil {
		return err
	}
	defer gw.Close()
	gts := httptest.NewServer(gw)
	defer gts.Close()
	if err := waitReady(gts.URL + "/readyz"); err != nil {
		return err
	}
	cl := newClient(gts.URL, r.h.pool, nil, "")
	defer cl.close()
	// under points the tap at the request being replayed, has it keep the
	// URLs of the request's cell-run reads if asked, and returns how many
	// node requests the request caused.
	under := func(req, parent string, keepReads bool, fn func() error) (int, error) {
		mu.Lock()
		tap.req, tap.parent, tap.count, tap.keepReads = req, parent, 0, keepReads
		mu.Unlock()
		err := fn()
		mu.Lock()
		defer mu.Unlock()
		tap.req = ""
		return tap.count, err
	}

	var stored []located
	var putCalls float64
	for i, o := range r.sizedSets("g", replayPutSets) {
		req := fmt.Sprint("put-", i)
		var rec *httptest.ResponseRecorder
		calls, _ := under(req, "gateway.put_handler", false, func() error {
			return r.timed(w, "gateway.put_handler", "", req, func() error {
				rec = serve(gw, http.MethodPut, "/objects/"+o.name, r.payload(o))
				return nil
			})
		})
		putCalls += float64(calls)
		l := located{object: o}
		var size int
		if _, err := fmt.Sscanf(rec.Body.String(), "stored %d bytes in group %d at offset %d", &size, &l.group, &l.off); err != nil || rec.Code != http.StatusCreated {
			return fmt.Errorf("replay gateway PUT %s: %d %q", o.name, rec.Code, rec.Body.String())
		}
		stored = append(stored, l)
	}
	r.set("gateway.put_handler_us", r.med("gateway.put_handler"), "us")
	r.set("gateway.node_requests_per_put", putCalls/float64(len(stored)), "count")
	r.set("datanode.write_run_handler_us", r.med("datanode.write_run_handler"), "us")
	r.set("datanode.sync_handler_us", r.med("datanode.sync_handler"), "us")

	var getCalls, userBytes float64
	for pass := 0; pass < replayGetPasses; pass++ {
		for i, o := range stored {
			req := fmt.Sprintf("get-%d-%d", i, pass)
			if err := r.timed(w, "socket.get_gateway", "", req, func() error {
				_, _, err := cl.get(o.object, false)
				return err
			}); err != nil {
				return err
			}
			var rec *httptest.ResponseRecorder
			r.timed(w, "gateway.get_handler", "socket.get_gateway", req, func() error {
				rec = serve(gw, http.MethodGet, "/objects/"+o.name, nil)
				return nil
			})
			if rec.Code != http.StatusOK || crc32.ChecksumIEEE(rec.Body.Bytes()) != o.crc {
				return fmt.Errorf("replay gateway GET %s: status %d or wrong bytes", o.name, rec.Code)
			}
			calls, err := under(req, "gateway.read", true, func() error {
				return r.timed(w, "gateway.read", "gateway.get_handler", req, func() error {
					_, err := gw.Store(o.group).ReadAtCtx(ctx, o.off, o.size, store.ReadOptions{})
					return err
				})
			})
			if err != nil {
				return err
			}
			getCalls += float64(calls)
			userBytes += float64(o.size)
		}
	}
	// Round trip and framing: the cell-run reads the gateway issued, sent
	// again from here and decoded as its node client decodes them.
	mu.Lock()
	reads := tap.reads
	mu.Unlock()
	var nodeBytes float64
	for i, u := range reads {
		call := fmt.Sprint("run-", i)
		var body []byte
		if err := r.timed(w, "gateway.node_roundtrip", "gateway.read", call, func() error {
			resp, err := http.Get(u)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			body, err = io.ReadAll(resp.Body)
			return err
		}); err != nil {
			return err
		}
		var data []byte
		var crcs []uint32
		if err := r.timed(w, "nodeapi.decode_run", "gateway.node_roundtrip", call, func() (err error) {
			data, crcs, err = nodeapi.DecodeRun(body, elemBytes)
			return err
		}); err != nil {
			return err
		}
		nodeBytes += float64(len(data))
		r.timed(w, "nodeapi.encode_run", "datanode.read_run_handler", call, func() error {
			nodeapi.EncodeRun(elemBytes, data, crcs)
			return nil
		})
	}
	gets := float64(replayGetPasses * len(stored))
	r.set("gateway.get_handler_us", r.med("gateway.get_handler"), "us")
	r.set("gateway.read_us", r.med("gateway.read"), "us")
	r.set("gateway.node_roundtrip_us", r.med("gateway.node_roundtrip"), "us")
	r.set("gateway.network_tax", r.med("gateway.read")/r.out["store.read_fanout_us"].Value, "ratio")
	r.set("gateway.node_requests_per_get", getCalls/gets, "count")
	r.set("gateway.net_read_amplification", nodeBytes/userBytes, "ratio")
	r.set("datanode.read_run_handler_us", r.med("datanode.read_run_handler"), "us")
	r.set("nodeapi.encode_run_us", r.med("nodeapi.encode_run"), "us")
	r.set("nodeapi.decode_run_us", r.med("nodeapi.decode_run"), "us")
	return nil
}

// kernels measures the layers no request sample reaches on its own: the
// GF(2^8) slice kernels on element-sized slices, and the streaming encoder
// behind the ecfrm CLI.
func (r *replay) kernels() error {
	const total = 64 << 20
	src, dst := r.h.pool[:elemBytes], make([]byte, elemBytes)
	t0 := time.Now()
	for i := 0; i < total/elemBytes; i++ {
		gf.MulAddSlice(byte(i%254+2), dst, src)
	}
	r.set("gf.muladd_mb_per_s", total/1e6/time.Since(t0).Seconds(), "MB/s")
	vecs := make([][]byte, 6)
	coeffs := make([]byte, len(vecs))
	for i := range vecs {
		vecs[i] = r.h.pool[i*elemBytes : (i+1)*elemBytes]
		coeffs[i] = byte(i + 2)
	}
	t0 = time.Now()
	for i := 0; i < total/elemBytes/len(vecs); i++ {
		gf.DotSlice(dst, coeffs, vecs)
	}
	r.set("gf.dot_mb_per_s", total/1e6/time.Since(t0).Seconds(), "MB/s")

	code, err := lrc.New(6, 2, 2)
	if err != nil {
		return err
	}
	scheme, err := core.NewScheme(code, layout.Form("ecfrm"))
	if err != nil {
		return err
	}
	payload := bytes.Repeat(r.h.pool, total/poolBytes)
	for _, workers := range []int{1, 2} {
		dir, err := r.h.sb.mkdir("replay-shardio")
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = shardio.EncodeStream(scheme, bytes.NewReader(payload), dir, elemBytes, shardio.Manifest{}, workers)
		r.set(fmt.Sprintf("shardio.encode_stream_mb_per_s_w%d", workers), total/1e6/time.Since(t0).Seconds(), "MB/s")
		r.h.sb.rmdir(dir)
		if err != nil {
			return err
		}
	}
	return nil
}

// perLayer runs the whole replay and returns the per-layer metrics that do
// not depend on which workload the end-to-end part of the run drove.
func perLayer(h *harness) (*replay, error) {
	r := &replay{h: h, dur: map[string]map[string]float64{}, out: map[string]metric{}}
	for _, step := range []func() error{r.kernels, r.single, r.gateway} {
		if err := step(); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	return r, nil
}

// clientLayer adds what only a run against the real binary knows: the tails
// and means of its latencies, how much block throughput scattered, the
// counts its servers' counters give per operation, and what is left of the
// end-to-end median once the replayed handler time is taken out.
func clientLayer(t *tally, r *replay, out map[string]metric) {
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	gets, puts := sorted(t.getMs), sorted(t.putMs)
	set("client.get_p99_ms", percentile(gets, 99), "ms")
	set("client.put_p99_ms", percentile(puts, 99), "ms")
	set("client.get_mean_ms", mean(gets), "ms")
	set("client.put_mean_ms", mean(puts), "ms")
	set("client.put_max_ms", percentile(puts, 100), "ms")
	primary, e2e, handler := t.getBlocks, percentile(gets, 50), "httpd.get_handler"
	switch {
	case t.spec.putPrimary:
		primary, e2e, handler = t.putBlocks, percentile(puts, 50), "httpd.put_handler"
	case t.spec.gateway:
		handler = "gateway.get_handler"
	case len(t.spec.failDisks) > 0:
		handler = "httpd.get_handler_degraded"
	}
	set("client.block_cv", cv(blockMBps(primary)), "ratio")
	set("client.http_overhead_us", e2e*1e3-r.med(handler), "us")

	nGet, nPut := float64(len(gets)), float64(len(puts))
	var putBytes float64
	for _, b := range t.putBlocks {
		putBytes += float64(b.bytes)
	}
	cellsPerStripe := 50.0 // LRC(6,2,2), ecfrm: 5 rows × 10 disks
	if t.spec.gateway {
		cellsPerStripe = 27 // RS(6,3), ecfrm: 3 rows × 9 disks
	}
	c := t.counters
	set("store.elements_read_per_get", c.sum("ecfrm_disk_element_reads_total")/nGet, "count")
	set("store.replans_per_get", c.sum("ecfrm_store_read_replans_total")/nGet, "count")
	set("store.hedges_per_get", c.sum("ecfrm_store_hedge_total", `outcome="fired"`)/nGet, "count")
	set("store.stripes_per_put", c.sum("ecfrm_disk_element_writes_total")/cellsPerStripe/nPut, "count")
	set("wal.commits_per_put", c.sum("ecfrm_wal_commits_total", `outcome="ok"`)/nPut, "count")
	set("wal.batch_objects_mean", c.sum("ecfrm_wal_batch_objects_sum")/c.sum("ecfrm_wal_batch_objects_count"), "count")
	set("wal.log_bytes_per_user_byte", c.sum("ecfrm_wal_log_bytes")/putBytes, "ratio")
	reads, writes, syncs := c.sum("ecfrm_devq_io_seconds_count", `op="read"`),
		c.sum("ecfrm_devq_io_seconds_count", `op="write"`), c.sum("ecfrm_devq_io_seconds_count", `op="sync"`)
	if t.spec.gateway {
		// Nodes count requests, not queue operations: a read is a run the
		// gateway's store issued, a sync is counted as such, the rest wrote.
		reads, syncs = c.sum("ecfrm_store_read_run_bytes_count"), c.sum("ecfrm_node_syncs_total")
		writes = c.sum("ecfrm_node_request_seconds_count") - reads - syncs
	}
	set("device.read_calls_per_get", reads/nGet, "count")
	set("device.write_calls_per_put", writes/nPut, "count")
	set("device.fsyncs_per_put", syncs/nPut, "count")
}

// waterfall lists, outside in, the self time of each depth of the
// workload's main operation and compares their sum with the end-to-end
// median measured against the real binary.
func waterfall(t *tally, r *replay) string {
	chain, e2e := []string{"socket.get", "httpd.get_handler", "store.read_fanout"}, median(t.getMs)
	switch {
	case t.spec.putPrimary:
		chain, e2e = []string{"socket.put", "httpd.put_handler", "wal.put", "store.seal"}, median(t.putMs)
	case t.spec.gateway:
		chain = []string{"socket.get_gateway", "gateway.get_handler", "gateway.read"}
	case len(t.spec.failDisks) > 0:
		chain = []string{"socket.get_degraded", "httpd.get_handler_degraded", "store.read_degraded"}
	}
	var sb strings.Builder
	sum := 0.0
	for i, name := range chain {
		us := r.med(name)
		if i+1 < len(chain) {
			us = r.self(name, chain[i+1])
		}
		sum += us
		fmt.Fprintf(&sb, "  %-32s self %9.1f us\n", name, us)
	}
	fmt.Fprintf(&sb, "  %-32s      %9.1f us = %.0f %% of the end-to-end p50 of %.1f us\n", "replayed sum", sum, 100*sum/(e2e*1e3), e2e*1e3)
	fmt.Fprintf(&sb, "  %-32s      %9.1f us\n", "not explained by the replay", e2e*1e3-sum)
	if t.spec.gateway {
		// A quiet replay cannot see the waiting the PUT loop causes. The run
		// itself gives a measure of it, which is no replayed self time and so
		// stays out of the sum: its GETs during the loop against its GETs after.
		fmt.Fprintf(&sb, "  %-32s      %9.1f us (the run's GET p50 during the PUT loop minus after it)\n",
			"of which behind the PUT loop", (e2e-median(t.quietGetMs))*1e3)
	}
	return sb.String()
}
