package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/store"
)

// newWriteTestServer builds a server whose WAL config the test controls.
func newWriteTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *store.Store) {
	t.Helper()
	scheme := core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	st := store.MustNew(scheme, 256)
	srv := NewServerWith(st, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, srv, st
}

// TestPutPacksConcurrentSmallObjects: concurrent small PUTs through the full
// HTTP path must share stripes — the store seals far fewer stripes than the
// old one-object-one-stripe path would — and every object reads back intact.
func TestPutPacksConcurrentSmallObjects(t *testing.T) {
	ts, srv, st := newWriteTestServer(t, Config{})
	objects := 48
	obj := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 200) }

	var wg sync.WaitGroup
	for i := 0; i < objects; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := doReq(t, http.MethodPut, fmt.Sprintf("%s/objects/o%d", ts.URL, i), obj(i))
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("put o%d: %d %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	if err := srv.WAL().Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if got := st.Stripes(); got >= objects {
		t.Fatalf("%d objects sealed %d stripes; group commit should pack them into fewer", objects, got)
	}
	for i := 0; i < objects; i++ {
		resp, body := doReq(t, http.MethodGet, fmt.Sprintf("%s/objects/o%d", ts.URL, i), nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, obj(i)) {
			t.Fatalf("get o%d: %d, %d bytes", i, resp.StatusCode, len(body))
		}
	}
}

// TestPutFaulted503ThenRetrySucceeds is the write-fault regression: a PUT
// whose group commit trips the injector must return 503 with Retry-After and
// release its name reservation; after the plan clears, the retry succeeds
// and the WAL's retained bytes are still exactly-once in the store.
func TestPutFaulted503ThenRetrySucceeds(t *testing.T) {
	// A short interval lets the WAL's own retry timer drive both the faulted
	// attempt and the post-clear recovery — no manual flushing.
	ts, srv, st := newWriteTestServer(t, Config{WAL: store.WALConfig{FlushInterval: time.Millisecond}})
	st.SetRetryPolicy(200*time.Microsecond, 2)

	// Deterministic plan: device 3 fails every write. Installed through the
	// HTTP surface so the whole fault path is end-to-end.
	plan := `{"seed": 42, "policies": [{"device": 3, "write_err_prob": 1}]}`
	resp, body := doReq(t, http.MethodPut, ts.URL+"/faults", []byte(plan))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install plan: %d %s", resp.StatusCode, body)
	}

	payload := bytes.Repeat([]byte{0xcd}, 300)
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/objects/hot", payload)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted put: %d; want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("faulted put missing Retry-After")
	}
	// The reservation is gone (404, not a half-visible object) but the WAL
	// keeps the bytes queued for the next batch.
	if r, _ := doReq(t, http.MethodGet, ts.URL+"/objects/hot", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("uncommitted object visible: %d", r.StatusCode)
	}
	if n, _ := srv.WAL().Depth(); n != 1 {
		t.Fatalf("wal retained %d entries; want 1", n)
	}

	// Clear the plan; the retry claims the freed name and commits — along
	// with the retained first attempt, which becomes an orphaned extent.
	if r, _ := doReq(t, http.MethodDelete, ts.URL+"/faults", nil); r.StatusCode != http.StatusOK {
		t.Fatal("clear plan failed")
	}
	resp, body = doReq(t, http.MethodPut, ts.URL+"/objects/hot", payload)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("retry put: %d %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodGet, ts.URL+"/objects/hot", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("get after retry: %d, %d bytes", resp.StatusCode, len(body))
	}
	// Parity must be consistent after the fault/retry dance.
	resp, body = doReq(t, http.MethodPost, ts.URL+"/admin/scrub", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub: %d", resp.StatusCode)
	}
	var scrub struct {
		Corrupt []int `json:"corrupt_stripes"`
	}
	if err := json.Unmarshal(body, &scrub); err != nil || len(scrub.Corrupt) != 0 {
		t.Fatalf("scrub after faulted commit: %s (err %v)", body, err)
	}
}

// holdGate is a fault injector that parks the first device write it is asked
// about until release is closed: it holds a PUT's commit in flight (a lone
// PUT commits at once, so no flush interval can).
type holdGate struct {
	once             sync.Once
	entered, release chan struct{}
}

func (g *holdGate) ReadFault(int) store.Fault { return store.Fault{} }

func (g *holdGate) WriteFault(int) store.Fault {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return store.Fault{}
}

// TestPutDuplicateConflictsWhilePending: the 409 contract holds even while
// the first PUT is still waiting for its group commit, and the pending
// object stays invisible to GET/HEAD until the ack.
func TestPutDuplicateConflictsWhilePending(t *testing.T) {
	ts, _, st := newWriteTestServer(t, Config{})
	gate := &holdGate{entered: make(chan struct{}), release: make(chan struct{})}
	st.SetFaultInjector(gate)
	payload := bytes.Repeat([]byte{7}, 100)

	done := make(chan *http.Response, 1)
	go func() {
		r, _ := doReq(t, http.MethodPut, ts.URL+"/objects/dup", payload)
		done <- r
	}()
	<-gate.entered

	if r, _ := doReq(t, http.MethodPut, ts.URL+"/objects/dup", payload); r.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate put while pending: %d; want 409", r.StatusCode)
	}
	if r, _ := doReq(t, http.MethodGet, ts.URL+"/objects/dup", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("pending object visible to GET: %d", r.StatusCode)
	}
	if r, _ := doReq(t, http.MethodHead, ts.URL+"/objects/dup", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("pending object visible to HEAD: %d", r.StatusCode)
	}

	close(gate.release)
	if r := <-done; r.StatusCode != http.StatusCreated {
		t.Fatalf("first put after its commit: %d", r.StatusCode)
	}
	if r, body := doReq(t, http.MethodGet, ts.URL+"/objects/dup", nil); r.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("get after commit: %d", r.StatusCode)
	}
	if r, _ := doReq(t, http.MethodPut, ts.URL+"/objects/dup", payload); r.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate put after commit: %d; want 409", r.StatusCode)
	}
}

// TestPutAfterCloseUnavailable: a drained server refuses writes with 503.
func TestPutAfterCloseUnavailable(t *testing.T) {
	ts, srv, _ := newWriteTestServer(t, Config{})
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	resp, _ := doReq(t, http.MethodPut, ts.URL+"/objects/late", []byte("x"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("put after close: %d; want 503", resp.StatusCode)
	}
}

// waitDepth polls until the WAL holds n queued objects.
func waitDepth(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got, _ := srv.WAL().Depth(); got == n {
			return
		}
		if time.Now().After(deadline) {
			got, _ := srv.WAL().Depth()
			t.Fatalf("wal depth %d; want %d", got, n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestPutAllocatesOnceForTheBody: the handler reads the body into one
// exactly sized buffer which the WAL borrows and the seal never copies into
// fresh memory, so a PUT allocates the body and little else — at most twice
// the object's size, on a file-backed store with the log spilled.
func TestPutAllocatesOnceForTheBody(t *testing.T) {
	const elem = 4096
	dir := t.TempDir()
	st, _, err := store.OpenFileBacked(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), elem, store.FileConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := NewServerWith(st, Config{WAL: store.WALConfig{LogPath: dir + "/wal.log"}})
	defer srv.Close()
	payload := bytes.Repeat([]byte{0x5c}, 10*elem)
	put := func(i int) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, fmt.Sprintf("/objects/a%d", i), bytes.NewReader(payload)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("put %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	put(0) // warm: stripe buffer, seal runs, spill buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const puts = 20
	for i := 1; i <= puts; i++ {
		put(i)
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / puts; per > 2*uint64(len(payload)) {
		t.Fatalf("a PUT of %d bytes allocates %d; want at most twice the object", len(payload), per)
	}
}
