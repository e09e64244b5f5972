// Command ecfrmd serves the erasure-coded blob store over HTTP — a
// miniature erasure-coded object service for poking at EC-FRM behaviour
// interactively:
//
//	ecfrmd -addr :8080 -code lrc -k 6 -l 2 -m 2 -form ecfrm -elem 65536
//
//	curl -X PUT --data-binary @song.mp3 localhost:8080/objects/song.mp3
//	curl localhost:8080/objects/song.mp3 -o out.mp3 -D -   # note X-Read-Cost
//	curl -X POST 'localhost:8080/admin/fail?disk=3'
//	curl localhost:8080/objects/song.mp3 -o out.mp3        # degraded, still OK
//	curl -X POST 'localhost:8080/admin/recover?disk=3'
//	curl localhost:8080/admin/status
//
// A deterministic fault plan (see internal/faultinject) can be loaded at
// startup with -faults plan.json, or installed/cleared at runtime:
//
//	curl -X PUT --data-binary @plan.json localhost:8080/faults
//	curl localhost:8080/faults
//	curl -X DELETE localhost:8080/faults
//
// Observability: GET /metrics always serves the Prometheus text exposition
// (per-disk load counters, the max-disk-load histogram, cache and latency
// distributions — see internal/obs). -obs additionally mounts net/http/pprof
// under /debug/pprof/ and logs a periodic load-imbalance line (max/mean
// element reads per disk over the interval), the live view of the paper's
// claim that EC-FRM keeps the most-loaded disk close to the mean:
//
//	ecfrmd -obs -obs-interval 10s
//	curl localhost:8080/metrics
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=5
//
// Read execution: by default GETs run through the parallel fan-out executor
// (per-device coalesced runs, bounded worker pool). -fanout=false restores
// the sequential executor; -read-concurrency bounds the per-read worker
// count; -hedge enables speculative re-reads of straggling devices after a
// -hedge-quantile latency delay (clamped below by -hedge-min). Individual
// GETs can override with ?sequential=, ?concurrency=, ?hedge= and bypass the
// cache with ?nocache=1.
//
// Write execution: PUTs queue into a group-commit WAL and ack once their
// batch seals, so concurrent small objects pack into shared stripes instead
// of flush-padding one stripe each. -wal-batch sets the byte threshold that
// triggers an immediate commit (default one stripe of user data);
// -wal-flush-interval is how long a PUT that arrived during another commit
// waits for company; a lone PUT never waits.
//
// Storage backend: by default the store lives in memory and dies with the
// process. -backend=file puts one data/checksum file pair per device in
// -data-dir, fronted by per-device async submission queues, and makes
// commits crash-consistent (write, fsync barrier, then publish; tune with
// -fsync=always|never and -direct). Startup re-derives the sealed extent
// from the files, heals torn cells, truncates torn tails, and replays the
// spilled WAL (-wal-log, default <data-dir>/wal.log):
//
//	ecfrmd -backend=file -data-dir /var/lib/ecfrm
//	curl -X PUT --data-binary @song.mp3 localhost:8080/objects/song.mp3
//	# kill -9, restart with the same -data-dir: the bytes are still there
//
// Object names live only in httpd memory for now, so after a restart
// recovered bytes are reachable by offset (store-level), not by name.
//
// Self-healing: -repair starts the background repair scheduler
// (internal/repair). It watches per-device error counts and latency
// quantiles, fail-stops disks that exceed the error burst or limp far
// behind their peers, and rebuilds them incrementally under a token-bucket
// rate limit (-repair-rate MiB/s) that backs off further whenever
// foreground reads are in flight. It also runs a continuous incremental
// checksum scrub (-scrub-interval between batches) whose cursor persists
// in <data-dir>/scrub.cursor with -backend=file, so a restarted daemon
// resumes scrubbing where it left off. Operator surface under /repair/:
//
//	ecfrmd -repair -repair-rate 64 -scrub-interval 30s
//	curl localhost:8080/repair/                       # JSON status
//	curl -X POST 'localhost:8080/repair/rebuild?disk=3'
//	curl -X POST 'localhost:8080/repair/migrate?disk=3'
//	curl -X POST 'localhost:8080/repair/scrub'        # kick a batch now
//	curl -X POST 'localhost:8080/repair/rate?bytes=8388608'
//
// MTTR, repair bytes, backoff, and scrub progress export on /metrics as
// ecfrm_repair_* and ecfrm_scrub_* series.
//
// The daemon shuts down gracefully: SIGINT/SIGTERM stops accepting new
// connections, drains in-flight requests for up to 10 seconds, then commits
// anything still queued in the WAL.
//
// Cluster modes: -mode picks which half of the cluster split this process
// runs. The default, -mode=single, is everything in one process as described
// above. -mode=node serves a data node: dumb per-(group,disk) cell extents
// behind the nodeapi HTTP protocol (mem or file backend, rediscovered from
// -data-dir on restart), plus /healthz, /readyz, /node/status, and /metrics.
// -mode=gateway serves the object API by fanning erasure-coded cell I/O out
// to the nodes listed in -nodes, hashing object names across -groups stripe
// groups:
//
//	ecfrmd -mode=node -addr :9001 -elem 65536 -backend=file -data-dir /var/lib/ecfrm/n1
//	ecfrmd -mode=node -addr :9002 -elem 65536 -backend=file -data-dir /var/lib/ecfrm/n2
//	ecfrmd -mode=node -addr :9003 -elem 65536 -backend=file -data-dir /var/lib/ecfrm/n3
//	ecfrmd -mode=gateway -addr :8080 -elem 65536 \
//	    -nodes http://localhost:9001,http://localhost:9002,http://localhost:9003
//	curl -X PUT --data-binary @song.mp3 localhost:8080/objects/song.mp3
//	curl localhost:8080/objects/song.mp3 -o out.mp3    # cells fetched node-side
//
// The gateway accepts the same scheme, WAL, and read-executor flags as
// single mode (-code/-k/-l/-m/-form, -wal-batch/-wal-flush-interval,
// -fanout/-read-concurrency/-hedge*), probes node health every
// -probe-interval, re-derives sealed extents from the nodes with -recover,
// and runs the node-side fsync commit barrier unless -fsync=never. Killing a
// whole node mid-traffic keeps reads serving degraded through the surviving
// nodes as long as the placement keeps each group within the scheme's fault
// tolerance (the gateway refuses to start otherwise; add nodes or lower n).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/httpd"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/rs"
	"repro/internal/store"
)

var (
	mode     = flag.String("mode", "single", "process role: single (store+API in one process), node (data node), gateway (access service over -nodes)")
	addr     = flag.String("addr", ":8080", "listen address")
	code     = flag.String("code", "lrc", "candidate code: rs or lrc")
	k        = flag.Int("k", 6, "data elements per row")
	l        = flag.Int("l", 2, "local parities (lrc only)")
	m        = flag.Int("m", 2, "parities (rs) / global parities (lrc)")
	form     = flag.String("form", "ecfrm", "layout: standard, rotated, ecfrm")
	elem     = flag.Int("elem", 64<<10, "element size in bytes")
	backend  = flag.String("backend", "mem", "device backend: mem (volatile) or file (one data/crc file pair per device)")
	dataDir  = flag.String("data-dir", "", "data directory for -backend=file")
	fsync    = flag.String("fsync", "always", "file backend durability: always (fsync barrier per commit) or never")
	direct   = flag.Bool("direct", false, "request O_DIRECT on device data files (needs 4KiB-aligned -elem)")
	walLog   = flag.String("wal-log", "", "WAL spill file (default <data-dir>/wal.log with -backend=file; empty with mem)")
	faults   = flag.String("faults", "", "JSON fault plan to install at startup (see internal/faultinject)")
	obsOn    = flag.Bool("obs", false, "enable pprof endpoints and the periodic load-imbalance log line")
	obsEvery = flag.Duration("obs-interval", 10*time.Second, "load-imbalance log interval (with -obs)")

	walBatch = flag.Int("wal-batch", 0, "group-commit byte threshold for PUTs (0 = one stripe of user data)")
	walEvery = flag.Duration("wal-flush-interval", store.DefaultFlushInterval,
		"how long a PUT that arrived during another commit waits for company; a lone PUT never waits")

	repairOn   = flag.Bool("repair", false, "run the background repair/scrub scheduler")
	repairRate = flag.Float64("repair-rate", 32, "repair bandwidth budget in MiB/s of rebuilt data (0 pauses rebuilds)")
	scrubEvery = flag.Duration("scrub-interval", time.Minute, "pause between incremental scrub batches (negative disables scrub; needs -repair)")

	fanout   = flag.Bool("fanout", true, "serve reads through the parallel fan-out executor (false = sequential)")
	readConc = flag.Int("read-concurrency", 0, "max devices served concurrently per read (0 = one worker per device)")
	hedge    = flag.Bool("hedge", false, "hedge straggling device reads from parity-equivalent sources")
	hedgeQ   = flag.Float64("hedge-quantile", 0.9, "latency quantile after which a straggler is hedged")
	hedgeMin = flag.Duration("hedge-min", time.Millisecond, "lower clamp on the hedge delay")

	nodesFlag   = flag.String("nodes", "", "comma-separated data-node base URLs (gateway mode, required)")
	groups      = flag.Int("groups", 4, "stripe groups object names hash across (gateway mode)")
	probeEvery  = flag.Duration("probe-interval", time.Second, "node health-probe cadence (gateway mode)")
	nodeTimeout = flag.Duration("node-timeout", 5*time.Second, "per-node request timeout before a node counts as unavailable (gateway mode)")
	gwRecover   = flag.Bool("recover", false, "re-derive sealed extents from the nodes at startup (gateway mode)")
)

// heapFloor keeps the garbage collector's pacing sane for a process that
// holds almost nothing — the write path keeps no bytes after an ack — yet
// moves megabytes per request: under GOGC's proportional trigger alone a
// ~10 MB live heap is collected every ~7 GETs, a third more CPU per GET than
// collecting every few dozen. The slice is never touched, so it costs address
// space, not memory; the collector just treats the heap as at least this big.
var heapFloor = make([]byte, 32<<20)

func main() {
	flag.Parse()
	switch *mode {
	case "single":
		runSingle()
	case "node":
		runNode()
	case "gateway":
		runGateway()
	default:
		log.Fatalf("ecfrmd: unknown -mode %q (single, node, or gateway)", *mode)
	}
}

// buildScheme constructs the erasure-coding scheme from the code flags.
func buildScheme() *core.Scheme {
	var (
		scheme *core.Scheme
		err    error
	)
	switch strings.ToLower(*code) {
	case "rs":
		var c *rs.Code
		if c, err = rs.New(*k, *m); err == nil {
			scheme, err = core.NewScheme(c, layout.Form(*form))
		}
	case "lrc":
		var c *lrc.Code
		if c, err = lrc.New(*k, *l, *m); err == nil {
			scheme, err = core.NewScheme(c, layout.Form(*form))
		}
	default:
		err = fmt.Errorf("unknown code %q", *code)
	}
	if err != nil {
		log.Fatal("ecfrmd: ", err)
	}
	return scheme
}

// serveUntilSignalled runs srv until SIGINT/SIGTERM, flips the drain hook (so
// /readyz starts failing while in-flight requests finish), shuts the listener
// down with a 10s grace, then runs the closers in order.
func serveUntilSignalled(srv *http.Server, drain func(), closers ...func() error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal("ecfrmd: ", err)
	case <-ctx.Done():
		stop()
		if drain != nil {
			drain()
		}
		log.Print("signal received, draining (10s grace)")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Fatal("ecfrmd: shutdown: ", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal("ecfrmd: ", err)
		}
		for _, fn := range closers {
			if err := fn(); err != nil {
				log.Fatal("ecfrmd: close: ", err)
			}
		}
		log.Print("drained, bye")
	}
}

// runSingle is the original everything-in-one-process daemon.
func runSingle() {
	scheme := buildScheme()
	var err error
	var st *store.Store
	switch *backend {
	case "mem":
		if st, err = store.New(scheme, *elem); err != nil {
			log.Fatal("ecfrmd: ", err)
		}
	case "file":
		if *dataDir == "" {
			log.Fatal("ecfrmd: -backend=file requires -data-dir")
		}
		if *fsync != string(store.FsyncAlways) && *fsync != string(store.FsyncNever) {
			log.Fatalf("ecfrmd: unknown -fsync mode %q (always or never)", *fsync)
		}
		var report *store.RecoveryReport
		st, report, err = store.OpenFileBacked(scheme, *elem, store.FileConfig{
			Dir:    *dataDir,
			Fsync:  store.FsyncMode(*fsync),
			Direct: *direct,
		})
		if err != nil {
			log.Fatal("ecfrmd: ", err)
		}
		log.Printf("file backend %s: %d stripes recovered (healed %d cells, re-encoded %d stripes, truncated %d torn stripes, O_DIRECT=%v)",
			*dataDir, report.Stripes, report.HealedCells, report.ReencodedStripes,
			report.TruncatedStripes, report.DirectActive)
		if *walLog == "" {
			*walLog = filepath.Join(*dataDir, "wal.log")
		}
		// Replay the spilled WAL before the new WAL attaches (attaching
		// truncates the file): commits that hardened in the log but not on
		// the devices are re-applied; orphaned un-acked puts are dropped.
		extents, dropped, err := store.RecoverWALFile(*walLog, st)
		if err != nil {
			log.Fatal("ecfrmd: wal recovery: ", err)
		}
		if len(extents) > 0 || dropped > 0 {
			log.Printf("wal log %s: %d committed objects verified, %d un-acked puts dropped",
				*walLog, len(extents), dropped)
		}
	default:
		log.Fatalf("ecfrmd: unknown backend %q (mem or file)", *backend)
	}
	if *faults != "" {
		blob, err := os.ReadFile(*faults)
		if err != nil {
			log.Fatal("ecfrmd: ", err)
		}
		plan, err := faultinject.ParsePlan(blob)
		if err != nil {
			log.Fatal("ecfrmd: ", err)
		}
		st.SetFaultInjector(faultinject.New(plan))
		log.Printf("fault plan %s installed: seed %d, %d device policies",
			*faults, plan.Seed, len(plan.Policies))
	}
	st.SetReadOptions(store.ReadOptions{
		Sequential:  !*fanout,
		Concurrency: *readConc,
		Hedge: store.HedgeConfig{
			Enabled:  *hedge,
			Quantile: *hedgeQ,
			Min:      *hedgeMin,
		},
	})
	reg := obs.NewRegistry()
	handler := httpd.NewServerWith(st, httpd.Config{
		Registry:    reg,
		EnablePprof: *obsOn,
		WAL:         store.WALConfig{BatchBytes: *walBatch, FlushInterval: *walEvery, LogPath: *walLog},
	})

	// The repair scheduler mounts beside the object server, not inside it:
	// httpd stays ignorant of the repair package and the scheduler's own
	// handler owns everything under /repair/.
	var root http.Handler = handler
	var sch *repair.Scheduler
	if *repairOn {
		cursor := ""
		if *backend == "file" {
			cursor = filepath.Join(*dataDir, "scrub.cursor")
		}
		sch, err = repair.New(st, repair.Config{
			Rate:          *repairRate * (1 << 20),
			ScrubInterval: *scrubEvery,
			CursorPath:    cursor,
			Registry:      reg,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatal("ecfrmd: repair: ", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/repair/", http.StripPrefix("/repair", sch.Handler()))
		mux.Handle("/", handler)
		root = mux
		log.Printf("repair scheduler on /repair/: rate %.0f MiB/s, scrub interval %v, cursor %q",
			*repairRate, *scrubEvery, cursor)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: root,
		// Bound how long a peer may dribble headers and how long idle
		// keep-alive connections pin resources; response bodies (large
		// objects, pprof profiles) stay unbounded.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Periodic load-imbalance line: the paper's max-load claim, watchable in
	// the daemon's own log. Reported over the interval (deltas, not
	// lifetime totals), so a balanced steady state reads near 1.0 even after
	// an unbalanced past.
	stopObs := make(chan struct{})
	if *obsOn {
		go func() {
			n := scheme.N()
			prev := make([]int, n)
			tick := time.NewTicker(*obsEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopObs:
					return
				case <-tick.C:
					cur := make([]int, n)
					total, max := 0, 0
					for d := 0; d < n; d++ {
						cur[d] = st.Device(d).Reads()
						delta := cur[d] - prev[d]
						total += delta
						if delta > max {
							max = delta
						}
					}
					if total == 0 {
						prev = cur
						continue
					}
					mean := float64(total) / float64(n)
					log.Printf("load: %d element reads in %v, max/disk=%d mean/disk=%.1f imbalance=%.2f",
						total, *obsEvery, max, mean, float64(max)/mean)
					prev = cur
				}
			}
		}()
	}

	// Graceful shutdown: SIGINT/SIGTERM stops the listener and drains
	// in-flight requests for up to 10s before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving %s (%d disks, tolerates %d failures, %.2fx overhead) on %s",
		scheme.Name(), scheme.N(), scheme.FaultTolerance(), scheme.StorageOverhead(), *addr)

	select {
	case err := <-errc:
		log.Fatal("ecfrmd: ", err)
	case <-ctx.Done():
		stop()
		close(stopObs)
		log.Print("signal received, draining (10s grace)")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Fatal("ecfrmd: shutdown: ", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal("ecfrmd: ", err)
		}
		// The listener is drained; commit any queued PUTs and stop the WAL,
		// then seal the backend (file: manifest write + final fsync).
		if sch != nil {
			// Stop detection, scrub, and any in-flight rebuild (aborted
			// batches roll back; the disk stays failed and a restarted
			// daemon's detector re-queues it) before the store seals.
			sch.Close()
		}
		if err := handler.Close(); err != nil {
			log.Fatal("ecfrmd: wal close: ", err)
		}
		if err := st.Close(); err != nil {
			log.Fatal("ecfrmd: store close: ", err)
		}
		log.Print("drained, bye")
	}
}
