package httpd_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datanode"
	"repro/internal/gateway"
	"repro/internal/httpd"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/store"
)

// getElem is the element size the allocation tests and BenchmarkObjectGet
// read at: the benchmark's 64 KiB, so a byte copied per request shows.
const getElem = 64 << 10

// objectServer is one way to serve objects of getElem-byte cells: single
// mode over the file backend, or a gateway over three in-process data
// nodes on file disks.
type objectServer struct{ h http.Handler }

func openObjectServer(tb testing.TB, mode string) *objectServer {
	tb.Helper()
	if mode == "single" {
		st, _, err := store.OpenFileBacked(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), getElem, store.FileConfig{Dir: tb.TempDir()})
		if err != nil {
			tb.Fatal(err)
		}
		srv := httpd.NewServerWith(st, httpd.Config{})
		tb.Cleanup(func() { srv.Close(); st.Close() })
		return &objectServer{h: srv}
	}
	var urls []string
	for i := 0; i < 3; i++ {
		n, err := datanode.New(datanode.Config{ElemSize: getElem, Dir: tb.TempDir()})
		if err != nil {
			tb.Fatal(err)
		}
		ns := httptest.NewServer(n)
		tb.Cleanup(func() { ns.Close(); n.Close() })
		urls = append(urls, ns.URL)
	}
	gw, err := gateway.New(gateway.Config{Nodes: urls, Groups: 2, ElemSize: getElem,
		Scheme: core.MustScheme(mustRS(6, 3), layout.FormECFRM), SyncWrites: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { gw.Close() })
	return &objectServer{h: gw}
}

// put stores an object of elems random elements under name.
func (o *objectServer) put(tb testing.TB, name string, elems int) []byte {
	tb.Helper()
	payload := make([]byte, elems*getElem)
	rand.New(rand.NewSource(int64(elems))).Read(payload)
	rec := httptest.NewRecorder()
	o.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/objects/"+name, bytes.NewReader(payload)))
	if rec.Code != http.StatusCreated {
		tb.Fatalf("put %s: %d %s", name, rec.Code, rec.Body)
	}
	return payload
}

// discard is a ResponseWriter that keeps nothing of the body, so an
// allocation count sees the server's work alone.
type discard struct {
	h    http.Header
	code int
	n    int
}

func (d *discard) Header() http.Header { return d.h }

func (d *discard) WriteHeader(code int) { d.code = code }

func (d *discard) Write(p []byte) (int, error) {
	if d.code == 0 {
		d.code = http.StatusOK
	}
	d.n += len(p)
	return len(p), nil
}

// get serves req, a GET, into a discard and returns it.
func (o *objectServer) get(tb testing.TB, req *http.Request) *discard {
	w := &discard{h: make(http.Header)}
	o.h.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		tb.Fatalf("get %s: %d", req.URL, w.code)
	}
	return w
}

// TestNocacheGetAllocatesLessThanAnElement: a streamed GET sends the cells
// from the run buffers they were read into, so the bytes a 20-element
// ?nocache=1 GET allocates, device to response, stay below one element —
// in single mode over file disks, and through a gateway over data nodes,
// where the frames are read straight into those buffers.
func TestNocacheGetAllocatesLessThanAnElement(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so allocation counts are meaningless")
	}
	for _, mode := range []string{"single", "gateway"} {
		t.Run(mode, func(t *testing.T) {
			o := openObjectServer(t, mode)
			payload := o.put(t, "obj", 20)
			req := httptest.NewRequest(http.MethodGet, "/objects/obj?nocache=1", nil)
			for i := 0; i < 5; i++ { // warm the pools and connections
				if w := o.get(t, req); w.n != len(payload) {
					t.Fatalf("GET sent %d bytes, want %d", w.n, len(payload))
				}
			}
			const gets = 20
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < gets; i++ {
				o.get(t, req)
			}
			runtime.ReadMemStats(&m1)
			per := (m1.TotalAlloc - m0.TotalAlloc) / gets
			t.Logf("%d bytes allocated per %d-byte GET", per, len(payload))
			if per >= getElem {
				t.Fatalf("a %d-byte GET allocates %d bytes; want under one %d-byte element", len(payload), per, getElem)
			}
		})
	}
}

// TestPutBodyIsPooled: an acked PUT's body goes back to the run pool and a
// data node's write frame to the node's, so a PUT allocates a small
// fraction of its body. For a 640 KiB object over file disks: 20 KiB in
// single mode (660 KiB before bodies were pooled), and 82 KiB through a
// gateway over three in-process nodes (203 KiB while net/http copied each
// node request's frame through a fresh 32 KiB buffer); each bounded here at
// twice its figure.
func TestPutBodyIsPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so allocation counts are meaningless")
	}
	for _, tc := range []struct {
		mode  string
		bound uint64
	}{{"single", 40 << 10}, {"gateway", 164 << 10}} {
		t.Run(tc.mode, func(t *testing.T) {
			o := openObjectServer(t, tc.mode)
			payload := bytes.Repeat([]byte{0x5c}, 10*getElem)
			put := func(i int) {
				rec := httptest.NewRecorder()
				o.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, fmt.Sprintf("/objects/p%d", i), bytes.NewReader(payload)))
				if rec.Code != http.StatusCreated {
					t.Fatalf("put %d: %d %s", i, rec.Code, rec.Body)
				}
			}
			for i := 0; i < 5; i++ { // warm the pools, the seal's buffers and the connections
				put(i)
			}
			const puts = 40
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 5; i < 5+puts; i++ {
				put(i)
			}
			runtime.ReadMemStats(&m1)
			per := (m1.TotalAlloc - m0.TotalAlloc) / puts
			t.Logf("%d bytes allocated per %d-byte PUT", per, len(payload))
			if per > tc.bound {
				t.Fatalf("a %d-byte PUT allocates %d bytes; want at most %d", len(payload), per, tc.bound)
			}
		})
	}
}

// BenchmarkObjectGet reports B/op for one 20-element ?nocache=1 GET,
// single mode over file disks and a gateway over in-process data nodes:
// about 2.6 MB and 4.0 MB before GETs streamed from pooled run buffers,
// about 8 KB and 37 KB after.
func BenchmarkObjectGet(b *testing.B) {
	for _, mode := range []string{"single", "gateway"} {
		b.Run(mode, func(b *testing.B) {
			o := openObjectServer(b, mode)
			payload := o.put(b, "obj", 20)
			req := httptest.NewRequest(http.MethodGet, "/objects/obj?nocache=1", nil)
			o.get(b, req)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.get(b, req)
			}
		})
	}
}

// TestDegradedGetFailureIs503: a GET resolves every cell before its status
// line, so a degraded read whose decode cannot finish — every cell of the
// store corrupt, with a disk failed — answers 503 with no object bytes,
// never a 200 cut short.
func TestDegradedGetFailureIs503(t *testing.T) {
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		payload := putTestObject(t, s.url, "rot", 20*256)
		for _, st := range s.stores {
			lay := st.Scheme().Layout()
			for stripe := 0; stripe < st.Stripes(); stripe++ {
				for row := 0; row < lay.Rows(); row++ {
					for col := 0; col < lay.N(); col++ {
						if err := st.CorruptCell(stripe, layout.Pos{Row: row, Col: col}); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			st.FailDisk(0)
		}
		resp, body := doReq(t, http.MethodGet, s.url+"/objects/rot?nocache=1", nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET of an undecodable object: %d; want 503", resp.StatusCode)
		}
		if bytes.Contains(body, payload[:256]) {
			t.Fatal("a failed GET sent object bytes")
		}
	})
}

// TestGetClientGoneReleasesBuffers: a client that goes away mid-GET leaves
// no run buffer lent. In single mode it stops reading mid-body and hangs
// up; the buffers come back once the handler returns. Through a gateway one
// node's read handler stalls 2 s and the client cancels after 20 ms: the
// GET's context reaches the node request, which is cancelled at the node,
// and the gateway's buffers come back within 200 ms of the cancel rather
// than after the stall.
func TestGetClientGoneReleasesBuffers(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		st := store.MustNew(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), getElem)
		srv := httpd.NewServerWith(st, httpd.Config{})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		// Larger than loopback socket buffering, so the handler blocks in its
		// write with the object's buffers lent.
		const elems = 192
		o := &objectServer{h: srv}
		o.put(t, "big", elems)
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "GET /objects/big?nocache=1 HTTP/1.1\r\nHost: x\r\n\r\n")
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil || !strings.Contains(line, "200") {
			t.Fatalf("status line %q: %v", line, err)
		}
		if n := lentWithin(st, 10*time.Second, func(n int) bool { return n > 0 }); n == 0 {
			t.Fatal("no buffer lent while the body is being written")
		}
		conn.Close()
		if n := lentWithin(st, 10*time.Second, func(n int) bool { return n == 0 }); n != 0 {
			t.Fatalf("%d run buffers still lent after the client hung up", n)
		}
		if got := getStatus(t, ts.URL).RunBuffersLent; got != 0 {
			t.Fatalf("status reports %d run buffers lent", got)
		}
	})
	t.Run("gateway-cancel", func(t *testing.T) {
		var stalling atomic.Bool
		gone := make(chan struct{}) // closed when the stalled node request is cancelled
		var once sync.Once
		var urls []string
		for i := 0; i < 3; i++ {
			n, err := datanode.New(datanode.Config{ElemSize: getElem, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			h := http.Handler(n)
			if i == 1 {
				h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if stalling.Load() && r.Method == http.MethodGet && r.URL.Path == "/cells/runs" {
						select {
						case <-time.After(2 * time.Second):
						case <-r.Context().Done():
							once.Do(func() { close(gone) })
							return
						}
					}
					n.ServeHTTP(w, r)
				})
			}
			ns := httptest.NewServer(h)
			defer func() { ns.Close(); n.Close() }()
			urls = append(urls, ns.URL)
		}
		gw, err := gateway.New(gateway.Config{Nodes: urls, Groups: 1, ElemSize: getElem,
			Scheme: core.MustScheme(mustRS(6, 3), layout.FormECFRM)})
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		ts := httptest.NewServer(gw)
		defer ts.Close()
		(&objectServer{h: gw}).put(t, "obj", 20)

		stalling.Store(true)
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/objects/obj?nocache=1", nil)
		cancelled := make(chan time.Time, 1)
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancelled <- time.Now()
			cancel()
		}()
		if resp, err := ts.Client().Do(req); err == nil {
			resp.Body.Close()
			t.Fatalf("GET answered %d through a stalled node despite the cancel", resp.StatusCode)
		}
		at := <-cancelled
		select {
		case <-gone:
		case <-time.After(time.Second):
			t.Fatal("the stalled node request was not cancelled")
		}
		if n := lentWithin(gw.Store(0), time.Second, func(n int) bool { return n == 0 }); n != 0 {
			t.Fatalf("%d run buffers still lent after the client cancelled", n)
		}
		if took := time.Since(at); took > 200*time.Millisecond {
			t.Fatalf("run buffers came back %v after the cancel; want within 200ms", took)
		}
	})
}

// lentWithin polls st's lent run buffers until want holds or d passes, and
// returns the last count.
func lentWithin(st *store.Store, d time.Duration, want func(int) bool) int {
	n := 0
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if n = st.RunPool().Lent(); want(n) {
			break
		}
	}
	return n
}
