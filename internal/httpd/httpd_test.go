package httpd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/httpd"
)

func TestPutGetRoundTrip(t *testing.T) {
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		payload := make([]byte, 10_000)
		rand.New(rand.NewSource(1)).Read(payload)

		resp, _ := doReq(t, http.MethodPut, s.url+"/objects/song.mp3", payload)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT status %d", resp.StatusCode)
		}
		resp, body := doReq(t, http.MethodGet, s.url+"/objects/song.mp3", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET status %d", resp.StatusCode)
		}
		if !bytes.Equal(body, payload) {
			t.Fatal("payload mismatch")
		}
		if resp.Header.Get("X-Read-Cost") != "1.000" {
			t.Fatalf("read cost header %q, want 1.000", resp.Header.Get("X-Read-Cost"))
		}
		if resp.Header.Get("X-Max-Disk-Load") == "" {
			t.Fatal("missing max-load header")
		}
	})
}

func TestObjectErrors(t *testing.T) {
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		if resp, _ := doReq(t, http.MethodGet, s.url+"/objects/missing", nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing GET status %d", resp.StatusCode)
		}
		if resp, _ := doReq(t, http.MethodPut, s.url+"/objects/empty", []byte{}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("empty PUT status %d", resp.StatusCode)
		}
		if resp, _ := doReq(t, http.MethodPut, s.url+"/objects/", []byte("x")); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("nameless PUT status %d", resp.StatusCode)
		}
		if resp, _ := doReq(t, http.MethodDelete, s.url+"/objects/x", nil); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("DELETE status %d", resp.StatusCode)
		}
		// Duplicate PUT conflicts (append-only).
		doReq(t, http.MethodPut, s.url+"/objects/dup", []byte("abc"))
		if resp, _ := doReq(t, http.MethodPut, s.url+"/objects/dup", []byte("xyz")); resp.StatusCode != http.StatusConflict {
			t.Fatalf("duplicate PUT status %d", resp.StatusCode)
		}
	})
}

func TestDegradedReadThroughFailures(t *testing.T) {
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		payload := make([]byte, 40_000)
		rand.New(rand.NewSource(2)).Read(payload)
		doReq(t, http.MethodPut, s.url+"/objects/data", payload)
		group := groupOf(t, s.url, "data")
		n := s.stores[0].Scheme().N()

		// Fail three disks of the object's group (the tolerance of both
		// schemes).
		disks := []int{0, 4, n - 1}
		for _, d := range disks {
			resp, body := doReq(t, http.MethodPost, fmt.Sprintf("%s/admin/fail?disk=%d&group=%s", s.url, d, group), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("fail disk %d: %d %s", d, resp.StatusCode, body)
			}
		}
		// A fourth failure must be refused.
		if resp, _ := doReq(t, http.MethodPost, s.url+"/admin/fail?disk=5&group="+group, nil); resp.StatusCode != http.StatusConflict {
			t.Fatalf("over-tolerance fail status %d", resp.StatusCode)
		}
		resp, body := doReq(t, http.MethodGet, s.url+"/objects/data", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded GET status %d", resp.StatusCode)
		}
		if !bytes.Equal(body, payload) {
			t.Fatal("degraded payload mismatch")
		}
		if resp.Header.Get("X-Read-Cost") <= "1.000" && resp.Header.Get("X-Read-Cost") != "1.000" {
			t.Fatalf("degraded read cost header %q", resp.Header.Get("X-Read-Cost"))
		}
		// Recover all three and scrub every group.
		for _, d := range disks {
			resp, body := doReq(t, http.MethodPost, fmt.Sprintf("%s/admin/recover?disk=%d&group=%s", s.url, d, group), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("recover disk %d: %d %s", d, resp.StatusCode, body)
			}
			if !strings.Contains(string(body), "elements read") {
				t.Fatalf("recover body %q", body)
			}
		}
		resp, body = doReq(t, http.MethodPost, s.url+"/admin/scrub", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrub status %d", resp.StatusCode)
		}
		var scrub map[string]json.RawMessage
		if err := json.Unmarshal(body, &scrub); err != nil {
			t.Fatal(err)
		}
		var corrupt []int
		if err := json.Unmarshal(scrub["corrupt_stripes"], &corrupt); err != nil || len(corrupt) != 0 {
			t.Fatalf("scrub found %s (err %v)", body, err)
		}
		if _, perGroup := scrub["corrupt_stripes_by_group"]; perGroup != (len(s.stores) > 1) {
			t.Fatalf("scrub reply %s: per-group breakdown with %d groups", body, len(s.stores))
		}
	})
}

func TestStatus(t *testing.T) {
	ts, _ := newTestServer(t)
	doReq(t, http.MethodPut, ts.URL+"/objects/a", []byte("hello world"))
	st := getStatus(t, ts.URL)
	if st.Scheme != "EC-FRM-LRC(6,2,2)" || st.Disks != 10 || st.FaultTolerance != 3 || st.Groups != 1 {
		t.Fatalf("status wrong: %+v", st)
	}
	if st.Objects != 1 || st.Stripes < 1 || st.Bytes != 11 {
		t.Fatalf("counters wrong: %+v", st)
	}
	if len(st.DeviceWrites) != 10 || st.DeviceWrites[0] == 0 {
		t.Fatalf("device writes wrong: %v", st.DeviceWrites)
	}
}

func TestAdminParamValidation(t *testing.T) {
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		for _, url := range []string{
			s.url + "/admin/fail",
			s.url + "/admin/fail?disk=abc",
			s.url + "/admin/fail?disk=10",
			s.url + "/admin/recover?disk=-1",
			s.url + "/admin/fail?disk=1&group=99",
			s.url + "/admin/fail?disk=1&group=-1",
			s.url + "/admin/recover?disk=1&group=x",
			s.url + "/admin/corrupt?stripe=0&row=0&col=0&group=99",
		} {
			if resp, _ := doReq(t, http.MethodPost, url, nil); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
			}
		}
		if resp, _ := doReq(t, http.MethodGet, s.url+"/admin/checksums?group=99", nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("checksums?group=99: status %d, want 400", resp.StatusCode)
		}
		// Recovering a healthy disk is a 400.
		if resp, _ := doReq(t, http.MethodPost, s.url+"/admin/recover?disk=1", nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("healthy recover status %d", resp.StatusCode)
		}
		// Without ?group the disk operations address group 0.
		if resp, body := doReq(t, http.MethodPost, s.url+"/admin/fail?disk=1", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("fail disk 1: %d %s", resp.StatusCode, body)
		}
		if got := s.stores[0].FailedDisks(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("group 0 failed disks %v, want [1]", got)
		}
		wantByGroup := 0 // the per-group breakdown appears only with several groups
		if len(s.stores) > 1 {
			wantByGroup = len(s.stores)
		}
		if st := getStatus(t, s.url); len(st.FailedDisks) != 1 || st.FailedDisks[0] != 1 || len(st.FailedByGroup) != wantByGroup {
			t.Fatalf("status after failing disk 1: %+v", st)
		}
		if resp, body := doReq(t, http.MethodPost, s.url+"/admin/recover?disk=1", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("recover disk 1: %d %s", resp.StatusCode, body)
		}
		// Wrong methods.
		for _, c := range []struct{ method, path string }{
			{http.MethodGet, "/admin/fail?disk=1"},
			{http.MethodPost, "/admin/status"},
			{http.MethodGet, "/admin/scrub"},
			{http.MethodPost, "/healthz"},
			{http.MethodPost, "/readyz"},
			{http.MethodPost, "/faults"},
		} {
			if resp, _ := doReq(t, c.method, s.url+c.path, nil); resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
			}
		}
	})
}

// TestReadyzLifecycle covers ready → draining: /readyz answers 200 once the
// surface serves (for a gateway, once every node has answered a probe) and
// 503 from the moment Close starts, while /healthz keeps answering 200.
func TestReadyzLifecycle(t *testing.T) {
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, body := doReq(t, http.MethodGet, s.url+"/readyz", nil)
			if resp.StatusCode == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("never became ready: %d %s", resp.StatusCode, body)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := s.close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if resp, _ := doReq(t, http.MethodGet, s.url+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz after close = %d, want 503", resp.StatusCode)
		}
		if resp, _ := doReq(t, http.MethodGet, s.url+"/healthz", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz after close = %d, want 200", resp.StatusCode)
		}
	})
}

func TestConcurrentClients(t *testing.T) {
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		payload := make([]byte, 5000)
		rand.New(rand.NewSource(3)).Read(payload)
		doReq(t, http.MethodPut, s.url+"/objects/shared", payload)

		var wg sync.WaitGroup
		errs := make(chan error, 24)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					resp, body := func() (*http.Response, []byte) {
						resp, err := http.Get(s.url + "/objects/shared")
						if err != nil {
							errs <- err
							return nil, nil
						}
						defer resp.Body.Close()
						b, _ := io.ReadAll(resp.Body)
						return resp, b
					}()
					if resp == nil {
						return
					}
					if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
						errs <- fmt.Errorf("goroutine %d: bad read status=%d", g, resp.StatusCode)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// TestNocacheGetsOverlap: GETs that bypass the decoded cache never take the
// per-object mutex, so two concurrent ones of the same object run side by
// side — under a seeded all-device latency plan, together they take about
// as long as one, not twice as long. (A plan this small runs its device
// reads inline, one after another, so one GET costs about n × latency.)
func TestNocacheGetsOverlap(t *testing.T) {
	const latency = 10 * time.Millisecond
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		payload := putTestObject(t, s.url, "hot", 4096)
		plan := faultinject.Plan{Seed: 1}
		for d := 0; d < s.stores[0].Scheme().N(); d++ {
			plan.Policies = append(plan.Policies, faultinject.Policy{Device: d, Latency: latency})
		}
		blob, _ := json.Marshal(plan)
		if resp, _ := doReq(t, http.MethodPut, s.url+"/faults", blob); resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT /faults status %d", resp.StatusCode)
		}
		get := func() { // runs on other goroutines too: t.Error, never t.Fatal
			resp, err := http.Get(s.url + "/objects/hot?nocache=1")
			if err != nil {
				t.Error(err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
				t.Errorf("nocache GET: status %d, err %v", resp.StatusCode, err)
			}
		}
		// Each cost is the best of three samples: scheduler noise only ever
		// adds time, while two serialised GETs cost at least twice one in
		// every sample.
		best := func(run func()) time.Duration {
			var d time.Duration
			for i := 0; i < 3; i++ {
				t0 := time.Now()
				run()
				if el := time.Since(t0); i == 0 || el < d {
					d = el
				}
			}
			return d
		}
		one := best(get)
		two := best(func() {
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() { defer wg.Done(); get() }()
			}
			wg.Wait()
		})
		if two >= one*3/2 {
			t.Fatalf("two concurrent nocache GETs took %v, one took %v: they serialised", two, one)
		}
	})
}

func TestCorruptionInjectionAndHealing(t *testing.T) {
	ts, _ := newTestServer(t)
	payload := make([]byte, 8000)
	rand.New(rand.NewSource(5)).Read(payload)
	doReq(t, http.MethodPut, ts.URL+"/objects/x", payload)

	// Inject silent corruption into a data cell.
	resp, body := doReq(t, http.MethodPost, ts.URL+"/admin/corrupt?stripe=0&row=0&col=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corrupt: %d %s", resp.StatusCode, body)
	}
	// Checksums report it.
	resp, body = doReq(t, http.MethodGet, ts.URL+"/admin/checksums", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checksums: %d", resp.StatusCode)
	}
	var rep map[string]any
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep["count"].(float64) != 1 {
		t.Fatalf("checksum count = %v, want 1", rep["count"])
	}
	// Reading the object heals it transparently.
	resp, body = doReq(t, http.MethodGet, ts.URL+"/objects/x", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatal("healing read failed")
	}
	resp, body = doReq(t, http.MethodGet, ts.URL+"/admin/checksums", nil)
	json.Unmarshal(body, &rep)
	if rep["count"].(float64) != 0 {
		t.Fatalf("corruption not healed: %v", rep["count"])
	}
	// Parameter validation.
	for _, q := range []string{"", "stripe=0&row=0", "stripe=99&row=0&col=0", "stripe=0&row=0&col=99"} {
		if resp, _ := doReq(t, http.MethodPost, ts.URL+"/admin/corrupt?"+q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("corrupt?%s status %d, want 400", q, resp.StatusCode)
		}
	}
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/admin/checksums", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Error("POST checksums must be 405")
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/admin/corrupt?stripe=0&row=0&col=0", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Error("GET corrupt must be 405")
	}
}

// TestConcurrentChaos hammers the server with overlapping PUTs, GETs,
// failure injection, and recovery from many goroutines. Run under -race it
// checks the sharded locking: any interleaving must keep every successful
// GET byte-identical to its PUT, and the failed-disk set within tolerance.
func TestConcurrentChaos(t *testing.T) {
	ts, srv := newTestServer(t)
	st := srv.Stores()[0]
	rng := rand.New(rand.NewSource(11))

	// Seed a set of objects whose contents every reader can verify.
	const objects = 8
	payloads := make([][]byte, objects)
	for i := range payloads {
		payloads[i] = make([]byte, 1+rng.Intn(4096))
		rng.Read(payloads[i])
		resp, body := doReq(t, http.MethodPut, fmt.Sprintf("%s/objects/chaos%d", ts.URL, i), payloads[i])
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("seed put %d: %d %s", i, resp.StatusCode, body)
		}
	}

	tol := st.Scheme().FaultTolerance()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Readers: every 200 must return the exact payload.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				oi := rng.Intn(objects)
				req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/objects/chaos%d", ts.URL, oi), nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					report("get: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if !bytes.Equal(body, payloads[oi]) {
						report("chaos%d: got %d bytes, want %d", oi, len(body), len(payloads[oi]))
						return
					}
				case http.StatusServiceUnavailable:
					// Transiently unrecoverable while disks cycle: allowed.
				default:
					report("get chaos%d: status %d", oi, resp.StatusCode)
					return
				}
			}
		}(int64(100 + g))
	}

	// Writers: fresh names so they never conflict with the verified set.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + id)))
			for i := 0; i < 10; i++ {
				data := make([]byte, 1+rng.Intn(2048))
				rng.Read(data)
				resp, body := doReq(t, http.MethodPut, fmt.Sprintf("%s/objects/w%d-%d", ts.URL, id, i), data)
				if resp.StatusCode != http.StatusCreated {
					report("writer put: %d %s", resp.StatusCode, body)
					return
				}
			}
		}(g)
	}

	// Chaos agents: fail and recover random disks. Any status the server
	// chooses is fine (409 at tolerance, 400/503 racing recover) — the
	// invariant is that failures never exceed tolerance.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := st.Scheme().N()
			for i := 0; i < 20; i++ {
				d := rng.Intn(n)
				if rng.Intn(2) == 0 {
					doReq(t, http.MethodPost, fmt.Sprintf("%s/admin/fail?disk=%d", ts.URL, d), nil)
				} else {
					doReq(t, http.MethodPost, fmt.Sprintf("%s/admin/recover?disk=%d", ts.URL, d), nil)
				}
				if failed := len(st.FailedDisks()); failed > tol {
					report("%d disks failed, tolerance %d", failed, tol)
					return
				}
			}
		}(int64(300 + g))
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Settle: recover everything and verify all objects come back clean.
	for _, d := range st.FailedDisks() {
		if resp, body := doReq(t, http.MethodPost, fmt.Sprintf("%s/admin/recover?disk=%d", ts.URL, d), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("settle recover %d: %d %s", d, resp.StatusCode, body)
		}
	}
	for i, want := range payloads {
		resp, body := doReq(t, http.MethodGet, fmt.Sprintf("%s/objects/chaos%d", ts.URL, i), nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("post-chaos read chaos%d: status %d", i, resp.StatusCode)
		}
	}
}
