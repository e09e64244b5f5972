package repair

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/store"
)

// fastConfig is an aggressive scheduler tuning for in-memory test stores.
func fastConfig(reg *obs.Registry) Config {
	return Config{
		Rate:           64 << 20, // effectively unthrottled for tiny stores
		BatchStripes:   4,
		DetectInterval: 2 * time.Millisecond,
		ErrorBurst:     4,
		ScrubInterval:  -1, // scrub off unless the test wants it
		Registry:       reg,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// metricValue scrapes reg's text exposition for the sample named line (name
// plus optional {labels}) and returns its value.
func metricValue(t *testing.T, reg *obs.Registry, sample string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, sample+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, sample)), 64)
		if err != nil {
			t.Fatalf("parse metric line %q: %v", line, err)
		}
		return v
	}
	return 0
}

// failReads fails every read of device dev beneath the store, as a device
// that fail-stopped would, and lets writes through.
func failReads(dev int) func(store.CellBackend) store.CellBackend {
	return func(be store.CellBackend) store.CellBackend { return deadReads{be, dev} }
}

type deadReads struct {
	store.CellBackend
	dev int
}

func (b deadReads) ReadRuns(ctx context.Context, runs []store.Run) {
	b.CellBackend.ReadRuns(ctx, runs)
	for i := range runs {
		if runs[i].Disk == b.dev {
			runs[i].Err, runs[i].Data, runs[i].CRCs = store.ErrFailed, nil, nil
		}
	}
}

// TestSchedulerRebuildsFailedDisk: an operator fail-stop is detected on the
// next tick and rebuilt automatically, with MTTR and byte metrics recorded.
func TestSchedulerRebuildsFailedDisk(t *testing.T) {
	s := testStore(t)
	data := fillStripes(t, s, 12, 21)
	reg := obs.NewRegistry()
	sch, err := New([]*store.Store{s}, fastConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer sch.Close()

	s.FailDisk(4)
	waitFor(t, 5*time.Second, "auto rebuild", func() bool {
		return len(s.FailedDisks()) == 0 && len(s.Rebuilding()) == 0
	})

	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("rebuilt store returned different data")
	}
	waitFor(t, time.Second, "rebuild metrics", func() bool {
		return metricValue(t, reg, `ecfrm_repair_rebuilds_total{outcome="ok"}`) >= 1
	})
	if v := metricValue(t, reg, `ecfrm_repair_detections_total{kind="failed"}`); v < 1 {
		t.Fatalf("failed detections = %v, want >= 1", v)
	}
	if v := metricValue(t, reg, `ecfrm_repair_bytes_total{kind="rebuild"}`); v <= 0 {
		t.Fatalf("repair bytes = %v, want > 0", v)
	}
	if v := metricValue(t, reg, "ecfrm_repair_mttr_seconds_count"); v != 1 {
		t.Fatalf("MTTR observations = %v, want 1", v)
	}
}

// TestSchedulerSkipsDiskRecoveredBeforeBegin: a disk detected failed but
// recovered before its queued rebuild begins is refused with
// store.ErrNotFailed, which does not count as a failed rebuild; a Begin
// refused for any other reason does.
func TestSchedulerSkipsDiskRecoveredBeforeBegin(t *testing.T) {
	s := testStore(t)
	fillStripes(t, s, 2, 22)
	reg := obs.NewRegistry()
	sch, err := New([]*store.Store{s}, fastConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	sch.Close() // no loop runs: the test plays detector and worker

	s.FailDisk(3)
	sch.mu.Lock()
	sch.pending[DiskRef{0, 3}] = time.Now()
	sch.mu.Unlock()
	if _, err := s.RecoverDisk(3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginDiskRebuild(3); !errors.Is(err, store.ErrNotFailed) {
		t.Fatalf("BeginDiskRebuild of a healthy disk: %v, want ErrNotFailed", err)
	}
	sch.runRepair(DiskRef{0, 3})
	if v := metricValue(t, reg, `ecfrm_repair_rebuilds_total{outcome="error"}`); v != 0 {
		t.Fatalf("failed rebuilds = %v after a disk recovered before Begin, want 0", v)
	}
	if _, queued := sch.pending[DiskRef{0, 3}]; queued {
		t.Fatal("disk 3 still pending")
	}
	sch.runRepair(DiskRef{0, 99})
	if v := metricValue(t, reg, `ecfrm_repair_rebuilds_total{outcome="error"}`); v != 1 {
		t.Fatalf("failed rebuilds = %v after a refused Begin of no disk, want 1", v)
	}
}

// TestSchedulerDetectsErrorBurst: a disk that serves hard errors (without
// anyone fail-stopping it) trips the error detector, is fail-stopped within
// tolerance, and rebuilds — while foreground reads keep succeeding degraded.
func TestSchedulerDetectsErrorBurst(t *testing.T) {
	s := testStore(t)
	data := fillStripes(t, s, 12, 33)
	reg := obs.NewRegistry()
	sch, err := New([]*store.Store{s}, fastConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer sch.Close()

	s.WrapBackends(failReads(2))
	// Drive reads until the error budget on disk 2 trips the detector. The
	// tiny store rebuilds near-instantly, so wait on the detection counter
	// rather than trying to catch the transient failed state.
	waitFor(t, 5*time.Second, "error-burst fail-stop", func() bool {
		if _, err := s.ReadAt(0, len(data)); err != nil {
			t.Fatalf("foreground read failed during error burst: %v", err)
		}
		return metricValue(t, reg, `ecfrm_repair_detections_total{kind="errored"}`) >= 1
	})
	// The faulty hardware is "replaced" (decorator lifted) and the rebuild
	// runs.
	s.WrapBackends(nil)
	waitFor(t, 5*time.Second, "rebuild after error burst", func() bool {
		return len(s.FailedDisks()) == 0 && len(s.Rebuilding()) == 0
	})
	if v := metricValue(t, reg, `ecfrm_repair_detections_total{kind="errored"}`); v < 1 {
		t.Fatalf("errored detections = %v, want >= 1", v)
	}
	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("rebuilt store returned different data")
	}
}

// TestSchedulerZeroRatePaused: with a zero rate the failure is detected and
// the rebuild begins, but no batch runs until the rate rises.
func TestSchedulerZeroRatePaused(t *testing.T) {
	s := testStore(t)
	data := fillStripes(t, s, 10, 41)
	reg := obs.NewRegistry()
	cfg := fastConfig(reg)
	cfg.Rate = 0
	sch, err := New([]*store.Store{s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sch.Close()

	s.FailDisk(1)
	waitFor(t, 5*time.Second, "rebuild to begin", func() bool {
		return len(s.Rebuilding()) == 1
	})
	time.Sleep(50 * time.Millisecond)
	if len(s.FailedDisks()) != 1 {
		t.Fatal("paused scheduler rebuilt the disk anyway")
	}
	st := sch.StatusSnapshot()
	if len(st.Active) != 1 || st.Active[0].Next != 0 {
		t.Fatalf("paused rebuild made progress: %+v", st.Active)
	}
	if v := metricValue(t, reg, `ecfrm_repair_backoff_total{reason="tokens"}`); v < 1 {
		t.Fatalf("paused rebuild recorded no token backoff (= %v)", v)
	}

	sch.SetRate(64 << 20)
	waitFor(t, 5*time.Second, "rebuild after unpause", func() bool {
		return len(s.FailedDisks()) == 0 && len(s.Rebuilding()) == 0
	})
	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("rebuilt store returned different data")
	}
}

// TestSchedulerScrubHeals: the background scrub loop finds and heals silent
// corruption, advancing its cursor and cycle metrics.
func TestSchedulerScrubHeals(t *testing.T) {
	s := testStore(t)
	fillStripes(t, s, 8, 61)
	if err := s.CorruptCell(5, layout.Pos{Row: 0, Col: 3}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := fastConfig(reg)
	cfg.ScrubInterval = 2 * time.Millisecond
	sch, err := New([]*store.Store{s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sch.Close()

	waitFor(t, 5*time.Second, "scrub heal", func() bool {
		return metricValue(t, reg, "ecfrm_scrub_heals_total") == 1 &&
			metricValue(t, reg, "ecfrm_scrub_cycles_total") >= 1
	})
	if bad, err := s.Scrub(); err != nil || len(bad) != 0 {
		t.Fatalf("store dirty after background scrub: bad=%v err=%v", bad, err)
	}
}

// TestSchedulerHTTP drives the /repair endpoint surface.
func TestSchedulerHTTP(t *testing.T) {
	s := testStore(t)
	data := fillStripes(t, s, 8, 71)
	reg := obs.NewRegistry()
	sch, err := New([]*store.Store{s}, fastConfig(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer sch.Close()
	ts := httptest.NewServer(sch.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), `"rate_bytes_per_sec"`) {
		t.Fatalf("GET / = %d %q", resp.StatusCode, body.String())
	}

	// Rebuild of a healthy disk queues, then no-ops harmlessly.
	resp, err = http.Post(ts.URL+"/rebuild?disk=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /rebuild = %d", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/rebuild?disk=99", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /rebuild?disk=99 = %d, want conflict", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/rate?bytes=1048576", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent || sch.bucket.Rate() != 1<<20 {
		t.Fatalf("POST /rate = %d, rate now %v", resp.StatusCode, sch.bucket.Rate())
	}
	// A non-finite rate is refused and the old one kept: NaN would let
	// every Take through and leave the status JSON unencodable.
	for _, v := range []string{"NaN", "Inf", "-Inf"} {
		resp, err = http.Post(ts.URL+"/rate?bytes="+v, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /rate?bytes=%s = %d, want bad request", v, resp.StatusCode)
		}
		resp, err = http.Get(ts.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		body.Reset()
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), `"rate_bytes_per_sec": 1048576`) {
			t.Fatalf("after bytes=%s: GET / = %d %q, want the old rate", v, resp.StatusCode, body.String())
		}
	}

	// A group the scheduler does not serve is a bad request, as on /admin/*.
	for _, g := range []string{"1", "-1", "x"} {
		resp, err = http.Post(ts.URL+"/rebuild?disk=0&group="+g, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /rebuild?disk=0&group=%s = %d, want bad request", g, resp.StatusCode)
		}
	}

	waitFor(t, 5*time.Second, "the queued rebuild to no-op", func() bool {
		return len(sch.StatusSnapshot().QueuedDisks) == 0
	})
	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("data changed across HTTP-driven repairs")
	}

	resp, err = http.Post(ts.URL+"/scrub", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /scrub = %d", resp.StatusCode)
	}
}

// TestSchedulerCloseAbortsCleanly: closing mid-rebuild aborts the run and a
// fresh scheduler picks the disk back up.
func TestSchedulerCloseAbortsCleanly(t *testing.T) {
	s := testStore(t)
	data := fillStripes(t, s, 30, 81)
	cfg := fastConfig(nil)
	cfg.Rate = float64(s.Scheme().Layout().Rows() * s.ElementSize()) // ~1 stripe/sec: glacial
	cfg.BatchStripes = 1
	sch, err := New([]*store.Store{s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.FailDisk(2)
	waitFor(t, 5*time.Second, "rebuild to begin", func() bool {
		return len(s.Rebuilding()) == 1
	})
	sch.Close()
	if got := s.Rebuilding(); len(got) != 0 {
		t.Fatalf("close left rebuild registered: %v", got)
	}
	if got := s.FailedDisks(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("aborted disk not still failed: %v", got)
	}

	// A new scheduler (a daemon restart) finishes the job.
	sch2, err := New([]*store.Store{s}, fastConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer sch2.Close()
	waitFor(t, 5*time.Second, "rebuild after restart", func() bool {
		return len(s.FailedDisks()) == 0 && len(s.Rebuilding()) == 0
	})
	res, err := s.ReadAt(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("rebuilt store returned different data")
	}
}
