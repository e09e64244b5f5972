package gateway

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datanode"
	"repro/internal/layout"
	"repro/internal/nodeapi"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// startNode serves an in-memory data node, through wrap when it is non-nil,
// and returns a client for it.
func startNode(t *testing.T, elem int, wrap func(http.Handler) http.Handler) *nodeClient {
	t.Helper()
	node, err := datanode.New(datanode.Config{ElemSize: elem})
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = node
	if wrap != nil {
		h = wrap(node)
	}
	srv := httptest.NewServer(h)
	nc := newNodeClient(0, srv.URL, 5*time.Second, obs.NewRegistry())
	t.Cleanup(func() {
		nc.hc.CloseIdleConnections()
		srv.Close()
		node.Close()
	})
	return nc
}

// TestRemoteCellContract runs the CellBackend contract the local disks keep
// against the data-node client, one fresh extent per case.
func TestRemoteCellContract(t *testing.T) {
	const elem = 64
	nc := startNode(t, elem, nil)
	group := 0
	storetest.TestCellBackend(t, elem, func(t *testing.T) (store.CellBackend, func() store.CellBackend) {
		group++
		g := group
		open := func() store.CellBackend { return &remoteCell{nc: nc, group: g, disk: 0, elem: elem} }
		return open(), open
	})
}

// TestRemoteCellShortFrame: a node that answers a batch with a well-formed
// frame of fewer cells than its runs asked for is a faulty device, not a
// short slice — the client fails every run of the batch, and a store over
// it replans the read around that disk.
func TestRemoteCellShortFrame(t *testing.T) {
	const elem, liar = 64, 0
	nc := startNode(t, elem, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			if refs, err := nodeapi.ParseRuns(q.Get("runs"), q.Get("zero"), elem); r.Method == http.MethodGet && err == nil {
				for i := range refs {
					if refs[i].Disk == liar {
						refs[i].Count = 1
					}
				}
				q.Set("runs", string(nodeapi.AppendRuns(nil, refs)))
				r.URL.RawQuery = q.Encode()
			}
			next.ServeHTTP(w, r)
		})
	})
	scheme := core.MustScheme(mustRS(4, 2), layout.FormStandard)
	st, _, err := store.NewWithCellBackends(scheme, elem, store.CellStoreConfig{Sync: true},
		func(d int) (store.CellBackend, error) {
			return &remoteCell{nc: nc, group: 0, disk: d, elem: elem}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := make([]byte, 3*scheme.DataPerStripe()*elem)
	rand.New(rand.NewSource(29)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}

	rc := &remoteCell{nc: nc, group: 0, disk: liar, elem: elem}
	runs := []store.Run{{Disk: liar, Slot: 0, Count: 2}, {Disk: 1, Slot: 0, Count: 1}}
	rc.ReadRuns(context.Background(), runs)
	for _, r := range runs {
		if r.Err == nil || r.Data != nil || r.CRCs != nil {
			t.Fatalf("disk %d of a batch answered 1 cell short: %d bytes, %d checksums, err %v; want an error and nothing else",
				r.Disk, len(r.Data), len(r.CRCs), r.Err)
		}
	}
	// Disk 0 holds data element 0 of every stripe: three consecutive
	// stripes are one 3-cell run on it, which the node answers short.
	res, err := st.ReadAt(0, len(payload))
	if err != nil {
		t.Fatalf("read over a node answering short: %v", err)
	}
	if !bytes.Equal(res.Data, payload) {
		t.Fatal("read over a node answering short returned wrong bytes")
	}
	for _, a := range res.Plan.Reads {
		if a.Disk == liar {
			t.Fatalf("the served plan still reads disk %d: %+v", liar, a)
		}
	}
}

// TestNodeReadErrorsCountOnce: a failed node read request moves the node's
// ecfrm_gateway_node_errors_total by exactly one, whichever step saw it
// fail — the transport, the status, or the frame.
func TestNodeReadErrorsCountOnce(t *testing.T) {
	const elem = 64
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	for _, tc := range []struct {
		name string
		url  string           // the node's base URL, unless
		node http.HandlerFunc // serves it
	}{
		{name: "closed port", url: closed.URL},
		{name: "status 500", node: func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "disk on fire", http.StatusInternalServerError)
		}},
		{name: "short frame", node: func(w http.ResponseWriter, r *http.Request) {
			w.Write(nodeapi.FrameHead(elem, [][]uint32{{0}})) // one cell of the two asked for
			w.Write(make([]byte, elem))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url := tc.url
			if tc.node != nil {
				srv := httptest.NewServer(tc.node)
				defer srv.Close()
				url = srv.URL
			}
			nc := newNodeClient(0, url, 5*time.Second, obs.NewRegistry())
			defer nc.hc.CloseIdleConnections()
			runs := []store.Run{{Disk: 0, Slot: 0, Count: 2}}
			(&remoteCell{nc: nc, elem: elem}).ReadRuns(context.Background(), runs)
			if runs[0].Err == nil {
				t.Fatal("the read succeeded")
			}
			if n := nc.errs.Value(); n != 1 {
				t.Fatalf("ecfrm_gateway_node_errors_total = %d after one failed request, want 1 (%v)", n, runs[0].Err)
			}
		})
	}
}

// TestGatewayCloseClosesNodeConnections: a closed gateway leaves no
// keep-alive connection to any node behind — every connection the nodes
// saw open is closed once Close returns.
func TestGatewayCloseClosesNodeConnections(t *testing.T) {
	const elem = 64
	var mu sync.Mutex
	open := make(map[net.Conn]bool)
	var urls []string
	for i := 0; i < 3; i++ {
		node, err := datanode.New(datanode.Config{ElemSize: elem})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewUnstartedServer(node)
		srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
			mu.Lock()
			defer mu.Unlock()
			switch s {
			case http.StateNew:
				open[c] = true
			case http.StateClosed, http.StateHijacked:
				delete(open, c)
			}
		}
		srv.Start()
		t.Cleanup(func() { srv.Close(); node.Close() })
		urls = append(urls, srv.URL)
	}
	gw, err := New(Config{Nodes: urls, Groups: 2, ElemSize: elem, SyncWrites: true,
		Scheme: core.MustScheme(mustRS(6, 3), layout.FormECFRM), ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		body := bytes.Repeat([]byte{byte(i)}, 1+i*elem)
		name := fmt.Sprintf("o%d", i)
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/objects/"+name, bytes.NewReader(body)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", name, rec.Code, rec.Body.String())
		}
		rec = httptest.NewRecorder()
		gw.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/objects/"+name+"?nocache=1", nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body) {
			t.Fatalf("GET %s: %d", name, rec.Code)
		}
	}
	mu.Lock()
	used := len(open)
	mu.Unlock()
	if used == 0 {
		t.Fatal("the gateway opened no node connection")
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	// The nodes see the close asynchronously.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		left := len(open)
		mu.Unlock()
		if left == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of the gateway's node connections still open after Close", left)
		}
	}
}

// TestRemoteCellCutCountsPayloadOnly: a write batch is cut by the payload
// cells its frames carry. A zero run ships none, so it fills no room and is
// never split, however many cells it records.
func TestRemoteCellCutCountsPayloadOnly(t *testing.T) {
	const elem = 4096
	limit := nodeapi.MaxCells(elem)
	rc := &remoteCell{elem: elem}
	runs := []store.Run{
		{Count: limit - 1, CRCs: make([]uint32, limit-1)},
		{Slot: limit - 1, Count: 2 * limit},
		{Slot: 3*limit - 1, Count: 2, CRCs: make([]uint32, 2)},
	}
	want := [][]piece{
		{{run: 0, n: limit - 1}, {run: 1, n: 2 * limit, zero: true}, {run: 2, n: 1}},
		{{run: 2, from: 1, n: 1}},
	}
	if got := rc.requests(runs, true); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cut %v, want %v", got, want)
	}
}
