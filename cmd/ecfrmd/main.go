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
// Read execution: a GET's plan is served as per-device coalesced runs, one
// worker per device — per data node in gateway mode, which gets all its
// runs in one request. Individual GETs can serve every run inline with
// ?sequential=1 and bypass the cache with ?nocache=1.
//
// Write execution: PUTs queue into a group-commit WAL and ack once their
// batch seals, so concurrent small objects pack into shared stripes instead
// of flush-padding one stripe each. A stripe of user data queued commits at
// once; -wal-flush-interval is how long a PUT that arrived during another
// commit waits for company; a lone PUT never waits.
//
// Storage backend: by default the store lives in memory and dies with the
// process. -backend=file puts one data/checksum file pair per device in
// -data-dir, read and written with positioned I/O, and makes commits
// crash-consistent (write, fsync barrier, then publish; tune with
// -fsync=always|never, where never's barrier is the WAL's fsynced spill to
// <data-dir>/wal.log). Startup re-derives the sealed extent from the
// files, heals torn cells, truncates torn tails, and replays wal.log:
//
//	ecfrmd -backend=file -data-dir /var/lib/ecfrm
//	curl -X PUT --data-binary @song.mp3 localhost:8080/objects/song.mp3
//	# kill -9, restart with the same -data-dir: the bytes are still there
//
// Object names live only in httpd memory for now, so after a restart
// recovered bytes are reachable by offset (store-level), not by name.
//
// Self-healing: -repair starts the background repair scheduler
// (internal/repair) over every placement group, in single and gateway mode
// alike. It watches each device's hard-error count, fail-stops disks that
// exceed the error burst or hold fewer cells than their group's sealed
// stripes (a wiped or unreachable node's extents), and rebuilds them in
// place incrementally under one token-bucket rate limit (-repair-rate MiB/s
// of rebuilt data for the whole daemon); a disk whose rebuild cannot
// start, on a node that stays down, is retried once a second. It also runs
// a continuous incremental checksum scrub over the groups in turn
// (-scrub-interval between batches) whose cursor persists in
// <data-dir>/scrub.cursor with single mode's -backend=file, so a restarted
// daemon resumes scrubbing where it left off; a gateway keeps it in
// memory. Operator surface under /repair/:
//
//	ecfrmd -repair -repair-rate 64 -scrub-interval 30s
//	curl localhost:8080/repair/                       # JSON status
//	curl -X POST 'localhost:8080/repair/rebuild?disk=3&group=1'
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
// A node never reads -fsync: it fsyncs a file extent when the gateway's
// write batch asks for it (?sync=1).
// -mode=gateway serves the same object API — one surface (internal/httpd)
// for both modes, single mode being its one-group case — by fanning
// erasure-coded cell I/O out to the nodes listed in -nodes, hashing object
// names across -groups stripe groups:
//
//	ecfrmd -mode=node -addr :9001 -elem 65536 -backend=file -data-dir /var/lib/ecfrm/n1
//	ecfrmd -mode=node -addr :9002 -elem 65536 -backend=file -data-dir /var/lib/ecfrm/n2
//	ecfrmd -mode=node -addr :9003 -elem 65536 -backend=file -data-dir /var/lib/ecfrm/n3
//	ecfrmd -mode=gateway -addr :8080 -elem 65536 \
//	    -nodes http://localhost:9001,http://localhost:9002,http://localhost:9003
//	curl -X PUT --data-binary @song.mp3 localhost:8080/objects/song.mp3
//	curl localhost:8080/objects/song.mp3 -o out.mp3    # cells fetched node-side
//
// The gateway accepts the same scheme, WAL, read-executor, -faults, -obs and
// -repair flags as single mode (the plan drives every group; the imbalance
// line sums per-disk reads over every group; /admin/fail, /repair/rebuild
// and friends take &group=G), probes node health every -probe-interval,
// recovers every group at start (refusing another geometry; a node down
// within tolerance degrades reads), and runs the node-side fsync commit
// barrier unless -fsync=never. Killing a whole node mid-traffic keeps reads
// serving degraded through the surviving nodes as long as the placement
// keeps each group within the scheme's fault tolerance (the gateway refuses
// to start otherwise; add nodes or lower n).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/httpd"
	"repro/internal/obs"
	"repro/internal/repair"
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
	fsync    = flag.String("fsync", "always", "file backend durability: always (fsync barrier per commit) or never; a node ignores it and fsyncs when the gateway's batch asks")
	faults   = flag.String("faults", "", "JSON fault plan to install at startup (see internal/faultinject)")
	obsOn    = flag.Bool("obs", false, "enable pprof endpoints and the periodic load-imbalance log line")
	obsEvery = flag.Duration("obs-interval", 10*time.Second, "load-imbalance log interval (with -obs)")

	walEvery = flag.Duration("wal-flush-interval", store.DefaultFlushInterval,
		"how long a PUT that arrived during another commit waits for company; a lone PUT never waits")

	repairOn   = flag.Bool("repair", false, "run the background repair/scrub scheduler")
	repairRate = flag.Float64("repair-rate", 32, "repair bandwidth budget in MiB/s of rebuilt data (0 pauses rebuilds)")
	scrubEvery = flag.Duration("scrub-interval", time.Minute, "pause between incremental scrub batches (negative disables scrub; needs -repair)")

	nodesFlag   = flag.String("nodes", "", "comma-separated data-node base URLs (gateway mode, required)")
	groups      = flag.Int("groups", 4, "stripe groups object names hash across (gateway mode)")
	probeEvery  = flag.Duration("probe-interval", time.Second, "node health-probe cadence (gateway mode)")
	nodeTimeout = flag.Duration("node-timeout", 5*time.Second, "per-node request timeout before a node counts as unavailable (gateway mode)")
)

func main() {
	flag.Parse()
	if err := checkFlags(*fsync, *repairRate, *obsOn, *obsEvery); err != nil {
		log.Fatal("ecfrmd: ", err)
	}
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

// checkFlags refuses, at startup, flag values that would otherwise be
// silently replaced or stop the daemon later: an unknown -fsync mode, a
// non-finite -repair-rate (flag.Float64 parses "NaN"), and under -obs a
// non-positive -obs-interval, on which the imbalance line's ticker panics.
func checkFlags(fsyncMode string, repairMiBs float64, obs bool, obsInterval time.Duration) error {
	if fsyncMode != string(store.FsyncAlways) && fsyncMode != string(store.FsyncNever) {
		return fmt.Errorf("unknown -fsync mode %q (always or never)", fsyncMode)
	}
	if math.IsNaN(repairMiBs) || math.IsInf(repairMiBs, 0) {
		return fmt.Errorf("-repair-rate %v is not a finite MiB/s", repairMiBs)
	}
	if obs && obsInterval <= 0 {
		return fmt.Errorf("-obs-interval %v must be positive under -obs", obsInterval)
	}
	return nil
}

// buildScheme constructs the erasure-coding scheme from the code flags.
func buildScheme() *core.Scheme {
	scheme, err := core.SchemeFor(*code, *k, *l, *m, *form)
	if err != nil {
		log.Fatal("ecfrmd: ", err)
	}
	return scheme
}

// httpConfig is the object-surface configuration both serving modes share.
func httpConfig(reg *obs.Registry, walLogPath string) httpd.Config {
	return httpd.Config{
		Registry:    reg,
		EnablePprof: *obsOn,
		WAL:         store.WALConfig{FlushInterval: *walEvery, LogPath: walLogPath},
	}
}

// serveObjects runs the object surface srv, reached through root, the way
// both serving modes run it: the -faults plan goes in through the same path
// as PUT /faults (so GET /faults round-trips it), -repair mounts the repair
// scheduler over srv's groups under /repair/ (metrics into reg, the scrub
// cursor persisted at cursor unless it is empty), -obs starts the
// load-imbalance line, and after the drain that line and the scheduler stop
// before the closers run in order.
func serveObjects(srv *httpd.Server, root http.Handler, reg *obs.Registry, cursor string, closers ...func() error) {
	if *faults != "" {
		blob, err := os.ReadFile(*faults)
		if err != nil {
			log.Fatal("ecfrmd: ", err)
		}
		plan, err := faultinject.ParsePlan(blob)
		if err != nil {
			log.Fatal("ecfrmd: ", err)
		}
		srv.SetFaultPlan(plan)
		log.Printf("fault plan %s installed: seed %d, %d device policies",
			*faults, plan.Seed, len(plan.Policies))
	}
	if *repairOn {
		sch, err := repair.New(srv.Stores(), repair.Config{
			Rate:          *repairRate * (1 << 20),
			ScrubInterval: *scrubEvery,
			CursorPath:    cursor,
			Registry:      reg,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatal("ecfrmd: repair: ", err)
		}
		// The scheduler mounts beside the object surface, not inside it:
		// httpd stays ignorant of the repair package.
		mux := http.NewServeMux()
		mux.Handle("/repair/", http.StripPrefix("/repair", sch.Handler()))
		mux.Handle("/", root)
		root = mux
		// Stop detection, scrub, and any in-flight rebuild (the disk stays
		// failed and a restarted daemon's detector re-queues it) before
		// the stores seal.
		closers = append([]func() error{func() error { sch.Close(); return nil }}, closers...)
		log.Printf("repair scheduler on /repair/ over %d groups: rate %.0f MiB/s, scrub interval %v, cursor %q",
			len(srv.Stores()), *repairRate, *scrubEvery, cursor)
	}
	if *obsOn {
		closers = append([]func() error{logLoadImbalance(srv.Stores())}, closers...)
	}
	serveUntilSignalled(root, nil, closers...)
}

// logLoadImbalance starts the periodic -obs line: the paper's max-load
// claim, watchable in the daemon's own log. It reports element reads per
// disk index, summed over every group, over the interval (deltas, not
// lifetime totals), so a balanced steady state reads near 1.0 even after an
// unbalanced past. The returned func stops it and waits for it to exit.
func logLoadImbalance(stores []*store.Store) func() error {
	stop, done := make(chan struct{}), make(chan struct{})
	n := stores[0].Scheme().N()
	go func() {
		defer close(done)
		prev := make([]int, n)
		tick := time.NewTicker(*obsEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			cur := make([]int, n)
			total, max := 0, 0
			for d := range cur {
				for _, st := range stores {
					cur[d] += st.Device(d).Reads()
				}
				delta := cur[d] - prev[d]
				total += delta
				if delta > max {
					max = delta
				}
			}
			prev = cur
			if total == 0 {
				continue
			}
			mean := float64(total) / float64(n)
			log.Printf("load: %d element reads in %v, max/disk=%d mean/disk=%.1f imbalance=%.2f",
				total, *obsEvery, max, mean, float64(max)/mean)
		}
	}()
	return func() error { close(stop); <-done; return nil }
}

// serveUntilSignalled serves h on -addr until SIGINT/SIGTERM, flips the
// drain hook (so /readyz starts failing while in-flight requests finish),
// shuts the listener down with a 10s grace, then runs the closers in order.
func serveUntilSignalled(h http.Handler, drain func(), closers ...func() error) {
	srv := &http.Server{
		Addr:    *addr,
		Handler: h,
		// Bound how long a peer may dribble headers and how long idle
		// keep-alive connections pin resources; response bodies (large
		// objects, pprof profiles) stay unbounded.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
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

// logRecovery logs what a store's open-time recovery found: once for single
// mode's file backend, once per group in gateway mode.
func logRecovery(what string, r *store.RecoveryReport) {
	log.Printf("%s: %d stripes recovered (healed %d cells, re-encoded %d stripes, truncated %d torn stripes)",
		what, r.Stripes, r.HealedCells, r.ReencodedStripes, r.TruncatedStripes)
}

// runSingle is everything in one process: the object surface over one
// placement group of local devices.
func runSingle() {
	scheme := buildScheme()
	var err error
	var st *store.Store
	var cursor, walLog string // a data dir's scrub cursor and (-fsync=never) WAL spill
	switch *backend {
	case "mem":
		if st, err = store.New(scheme, *elem); err != nil {
			log.Fatal("ecfrmd: ", err)
		}
	case "file":
		if *dataDir == "" {
			log.Fatal("ecfrmd: -backend=file requires -data-dir")
		}
		var report *store.RecoveryReport
		st, report, err = store.OpenFileBacked(scheme, *elem, store.FileConfig{
			Dir:   *dataDir,
			Fsync: store.FsyncMode(*fsync),
		})
		if err != nil {
			log.Fatal("ecfrmd: ", err)
		}
		logRecovery("file backend "+*dataDir, report)
		cursor = filepath.Join(*dataDir, "scrub.cursor")
		// Replay (and empty) any log a -fsync=never run spilled: re-apply what
		// hardened in it but not on the devices, drop orphaned un-acked puts.
		walLog = filepath.Join(*dataDir, "wal.log")
		extents, dropped, err := store.RecoverWALFile(walLog, st)
		if err != nil {
			log.Fatal("ecfrmd: wal recovery: ", err)
		}
		if len(extents) > 0 || dropped > 0 {
			log.Printf("wal log %s: %d committed objects verified, %d un-acked puts dropped",
				walLog, len(extents), dropped)
		}
		if store.FsyncMode(*fsync) == store.FsyncAlways {
			walLog = "" // the device barrier is each commit's durable record
		}
	default:
		log.Fatalf("ecfrmd: unknown backend %q (mem or file)", *backend)
	}
	reg := obs.NewRegistry()
	srv := httpd.NewServerWith(st, httpConfig(reg, walLog))
	log.Printf("serving %s (%d disks, tolerates %d failures, %.2fx overhead) on %s",
		scheme.Name(), scheme.N(), scheme.FaultTolerance(), scheme.StorageOverhead(), *addr)
	// After the drain: commit any queued PUTs and stop the WAL, then seal
	// the backend (file: manifest write + final fsync).
	serveObjects(srv, srv, reg, cursor, srv.Close, st.Close)
}
