package repair

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/httpd"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/obs"
	"repro/internal/store"
)

// chaosSeeds mirrors the faultinject suite: two fixed reproduction seeds
// plus an optional extra from CHAOS_SEED (the `make repair-chaos` target
// passes a time-derived one, logged so failures name their seed).
func chaosSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2}
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		extra, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", env, err)
		}
		t.Logf("chaos: running extra seed %d (reproduce with CHAOS_SEED=%d)", extra, extra)
		seeds = append(seeds, extra)
	}
	return seeds
}

// mttrBound is the acceptance ceiling on detection-to-rebuilt time for the
// in-memory chaos store. Typical runs finish in well under a second; the
// bound absorbs race-detector and CI scheduling slop, not design slack.
const mttrBound = 10.0 // seconds

// TestChaosKilledDiskMTTR is the acceptance suite for the repair scheduler:
// serve object traffic over HTTP with latency faults everywhere, kill a
// random disk mid-traffic via a seeded fail-after-ops fault, and require
//
//   - no foreground request fails at any point (degraded reads cover the
//     window between the kill and the fail-stop, and the shared-lock
//     rebuild batches never starve readers);
//   - the scheduler detects the kill from device error counts alone,
//     fail-stops the disk within tolerance, and rebuilds it with MTTR
//     under mttrBound — asserted from a live /metrics scrape, not test
//     internals;
//   - foreground p99 during the failure-and-rebuild window stays within
//     3x the no-failure baseline at the default-ish rate limit;
//   - every object reads back byte-identical afterwards and a full scrub
//     comes back clean.
//
// Run under -race by `make repair-chaos`.
func TestChaosKilledDiskMTTR(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosKilledDisk(t, seed)
		})
	}
}

// chaosStore is the store the chaos suite and BenchmarkRebuildAtRate share:
// LRC(6,2,2) under EC-FRM on in-memory devices with a short retry policy.
func chaosStore(elemBytes int) *store.Store {
	st := store.MustNew(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), elemBytes)
	st.SetRetryPolicy(10*time.Millisecond, 2)
	return st
}

func chaosKilledDisk(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	st := chaosStore(1024)
	reg := obs.NewRegistry()
	srv := httpd.NewServerWith(st, httpd.Config{Registry: reg})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Seed objects through the HTTP write path.
	const objects = 24
	payloads := make(map[string][]byte, objects)
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("obj-%02d", i)
		body := make([]byte, 4096+rng.Intn(16384))
		rng.Read(body)
		payloads[name] = body
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/objects/"+name, bytes.NewReader(body))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s = %d", name, resp.StatusCode)
		}
	}

	// Background latency everywhere — the no-failure regime.
	n := st.Scheme().N()
	latencyPlan := func() faultinject.Plan {
		p := faultinject.Plan{Seed: seed}
		for d := 0; d < n; d++ {
			p.Policies = append(p.Policies, faultinject.Policy{
				Device:  d,
				Latency: time.Millisecond,
				Jitter:  500 * time.Microsecond,
			})
		}
		return p
	}
	st.SetFaultInjector(faultinject.New(latencyPlan()))

	names := make([]string, 0, objects)
	for name := range payloads {
		names = append(names, name)
	}
	sort.Strings(names)
	get := func(name string) (time.Duration, error) {
		t0 := time.Now()
		resp, err := client.Get(ts.URL + "/objects/" + name + "?nocache=1")
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET %s = %d", name, resp.StatusCode)
		}
		if !bytes.Equal(body, payloads[name]) {
			return 0, fmt.Errorf("GET %s returned wrong bytes", name)
		}
		return time.Since(t0), nil
	}

	// Baseline p99 under the same client concurrency the chaos phase uses.
	const clients = 4
	baseline := concurrentGets(t, clients, 400, names, get, nil)
	p99Base := percentile(baseline, 0.99)
	if p99Base < 3*time.Millisecond {
		// Floor out scheduler noise on near-zero latencies so the 3x
		// bound tests repair interference, not microsecond jitter.
		p99Base = 3 * time.Millisecond
	}
	t.Logf("baseline p99 = %v over %d requests", p99Base, len(baseline))

	// Start the repair scheduler at a modest default-ish rate limit.
	sch, err := New(st, Config{
		Rate:           4 << 20,
		BatchStripes:   8,
		DetectInterval: 5 * time.Millisecond,
		Detector:       DetectorConfig{ErrorBurst: 6},
		ScrubInterval:  50 * time.Millisecond,
		Registry:       reg,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sch.Close()

	// Kill a random disk mid-traffic: after ~25 more ops it fail-stops at
	// the device level, and only the scheduler's error detector may notice.
	victim := rng.Intn(n)
	killPlan := latencyPlan()
	killPlan.Policies[victim].FailAfterOps = 25
	t.Logf("killing disk %d (fail after 25 ops)", victim)

	var failures atomic.Int64
	stop := make(chan struct{})
	var chaosLat []time.Duration
	var chaosMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := c
			for {
				select {
				case <-stop:
					return
				default:
				}
				lat, err := get(names[i%len(names)])
				if err != nil {
					t.Logf("foreground request failed: %v", err)
					failures.Add(1)
					return
				}
				chaosMu.Lock()
				chaosLat = append(chaosLat, lat)
				chaosMu.Unlock()
				i += clients
			}
		}(c)
	}

	st.SetFaultInjector(faultinject.New(killPlan))

	// Wait for detection + rebuild, observed via the live metrics endpoint
	// like an operator would.
	scrape := func() string {
		resp, err := client.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	deadline := time.Now().Add(30 * time.Second)
	for scrapeValue(t, scrape(), "ecfrm_repair_mttr_seconds_count") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no rebuild completed within 30s; errs=%v failed=%v", st.DiskErrorCounts(), st.FailedDisks())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The faulty hardware is replaced: back to the latency-only plan so the
	// rebuilt disk stops re-erroring.
	st.SetFaultInjector(faultinject.New(latencyPlan()))
	for len(st.FailedDisks()) != 0 || len(st.Rebuilding()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("store not healthy within 30s: failed=%v rebuilding=%v", st.FailedDisks(), st.Rebuilding())
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// 1. No foreground request failed across kill, degraded window, rebuild.
	if failures.Load() != 0 {
		t.Fatalf("%d foreground requests failed during chaos", failures.Load())
	}

	// 2. MTTR and repair bytes from the live scrape.
	text := scrape()
	if v := scrapeValue(t, text, "ecfrm_repair_last_mttr_seconds"); v <= 0 || v > mttrBound {
		t.Fatalf("MTTR = %vs, want (0, %v]", v, mttrBound)
	}
	if v := scrapeValue(t, text, `ecfrm_repair_bytes_total{kind="rebuild"}`); v <= 0 {
		t.Fatalf("repair bytes = %v, want > 0", v)
	}
	if v := scrapeValue(t, text, `ecfrm_repair_detections_total{kind="errored"}`); v < 1 {
		t.Fatalf("errored detections = %v, want >= 1", v)
	}

	// 3. Foreground p99 during failure + rebuild within 3x baseline.
	if len(chaosLat) < 100 {
		t.Fatalf("only %d chaos-phase requests recorded", len(chaosLat))
	}
	p99Chaos := percentile(chaosLat, 0.99)
	t.Logf("chaos p99 = %v over %d requests (baseline %v)", p99Chaos, len(chaosLat), p99Base)
	if p99Chaos > 3*p99Base {
		t.Fatalf("p99 during rebuild = %v, more than 3x baseline %v", p99Chaos, p99Base)
	}

	// 4. Byte-identical reads and a clean scrub after repair.
	for _, name := range names {
		if _, err := get(name); err != nil {
			t.Fatalf("post-repair read: %v", err)
		}
	}
	if bad, err := st.Scrub(); err != nil || len(bad) != 0 {
		t.Fatalf("post-repair scrub: bad=%v err=%v", bad, err)
	}
}

// BenchmarkRebuildAtRate is the repair scheduler's MTTR-versus-rate-limit
// curve: on the chaos suite's store, filled with 64 stripes of 16 KiB elements
// (5 MiB per disk), fail-stop one disk and time the scheduler's detection plus
// token-bucket-paced rebuild. The first four of the eight batches ride the
// bucket's default burst, so mttr_ms is about 2.5 MiB / rate plus detection.
func BenchmarkRebuildAtRate(b *testing.B) {
	for _, mib := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("%dMiBps", mib), func(b *testing.B) {
			const elemBytes, stripes, victim = 16 << 10, 64, 3
			st := chaosStore(elemBytes)
			defer st.Close()
			fillStripes(b, st, stripes, 42)
			sch, err := New(st, Config{
				Rate:           float64(mib << 20),
				BatchStripes:   8,
				DetectInterval: 2 * time.Millisecond,
				ScrubInterval:  -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sch.Close()
			b.SetBytes(int64(stripes * st.Scheme().Layout().Rows() * elemBytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.FailDisk(victim)
				for len(st.FailedDisks()) != 0 || len(st.Rebuilding()) != 0 {
					time.Sleep(time.Millisecond)
				}
			}
			b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "mttr_ms")
		})
	}
}

// concurrentGets runs total GETs across c goroutines and returns latencies.
func concurrentGets(t *testing.T, c, total int, names []string, get func(string) (time.Duration, error), _ *rand.Rand) []time.Duration {
	t.Helper()
	var mu sync.Mutex
	var lats []time.Duration
	var wg sync.WaitGroup
	per := total / c
	for i := 0; i < c; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				lat, err := get(names[(i+j*c)%len(names)])
				if err != nil {
					t.Errorf("baseline GET: %v", err)
					return
				}
				mu.Lock()
				lats = append(lats, lat)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return lats
}

// percentile returns the p-quantile of lats (copied, sorted).
func percentile(lats []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

// scrapeValue pulls one sample's value out of Prometheus exposition text.
func scrapeValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range splitLines(text) {
		if len(line) > len(sample) && line[:len(sample)] == sample && line[len(sample)] == ' ' {
			v, err := strconv.ParseFloat(line[len(sample)+1:], 64)
			if err != nil {
				t.Fatalf("parse metric line %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
