package gateway

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/crs"
	"repro/internal/datanode"
	"repro/internal/httpd"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/obs"
	"repro/internal/rs"
	"repro/internal/store"
)

// schemeGrid is the {RS, LRC, CRS} × {standard, rotated, ecfrm} sweep the
// equivalence property covers — the same grid the single-process fan-out
// tests use, now re-proven across a process boundary.
func schemeGrid(t testing.TB) map[string]*core.Scheme {
	t.Helper()
	cells := make(map[string]*core.Scheme)
	for cname, c := range map[string]codes.Code{
		"rs":  rs.Must(6, 3),
		"lrc": lrc.Must(6, 2, 2),
		"crs": crs.Must(6, 3),
	} {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM} {
			cells[fmt.Sprintf("%s-%s", cname, form)] = core.MustScheme(c, form)
		}
	}
	return cells
}

// testCluster is N in-process data nodes plus a gateway over them, all
// sharing one obs registry — which is itself a regression test for the
// With-view namespacing: gateway, every group store, and every node register
// identically-named families in one scrape.
type testCluster struct {
	gw      *Gateway
	nodes   []*datanode.Server
	servers []*httptest.Server
}

func newTestCluster(t testing.TB, scheme *core.Scheme, elem, groups, nNodes int, opts store.ReadOptions) *testCluster {
	t.Helper()
	reg := obs.NewRegistry()
	tc := &testCluster{}
	urls := make([]string, nNodes)
	for i := 0; i < nNodes; i++ {
		n, err := datanode.New(datanode.Config{
			ElemSize: elem,
			Registry: reg.With(obs.L("component", "node"), obs.L("node", fmt.Sprint(i))),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(n)
		tc.nodes = append(tc.nodes, n)
		tc.servers = append(tc.servers, srv)
		urls[i] = srv.URL
	}
	gw, err := New(Config{
		Nodes:         urls,
		Groups:        groups,
		ElemSize:      elem,
		HTTP:          httpd.Config{Registry: reg, WAL: store.WALConfig{FlushInterval: time.Millisecond}},
		Scheme:        scheme,
		Read:          opts,
		SyncWrites:    true,
		ProbeInterval: 50 * time.Millisecond,
		NodeTimeout:   5 * time.Second,
	})
	if err != nil {
		tc.teardown()
		t.Fatal(err)
	}
	tc.gw = gw
	return tc
}

func (tc *testCluster) teardown() {
	if tc.gw != nil {
		tc.gw.Close()
	}
	for _, s := range tc.servers {
		s.Close()
	}
	for _, n := range tc.nodes {
		n.Close()
	}
}

// put stores an object through the gateway's HTTP surface.
func (tc *testCluster) put(t testing.TB, name string, body []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPut, "/objects/"+name, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	tc.gw.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT %s: %d %s", name, rec.Code, rec.Body.String())
	}
}

// get reads an object through the gateway's HTTP surface, always bypassing
// the decoded-object cache so every read crosses the network (query adds
// further knobs, e.g. "&hedge=1").
func (tc *testCluster) get(t testing.TB, name, query string) ([]byte, int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/objects/"+name+"?nocache=1"+query, nil)
	rec := httptest.NewRecorder()
	tc.gw.ServeHTTP(rec, req)
	return rec.Body.Bytes(), rec.Code
}

// nodesNeeded picks the smallest cluster (≥3 nodes) where losing one whole
// node stays within the scheme's tolerance in every group.
func nodesNeeded(scheme *core.Scheme) int {
	n, tol := scheme.N(), scheme.FaultTolerance()
	w := (n + tol - 1) / tol
	if w < 3 {
		w = 3
	}
	return w
}

// TestGatewayLocalEquivalence is the acceptance property: the same objects
// PUT through a gateway over in-process networked nodes and into a single
// local store must read back byte-identical — across every code × layout
// cell, through the plain, forced-fanout, and hedged executors, and still
// after one whole node is killed (degraded reads reconstruct over the
// network). Runs under -race via `make race-io`.
func TestGatewayLocalEquivalence(t *testing.T) {
	const elem = 512
	rng := rand.New(rand.NewSource(42))
	for name, scheme := range schemeGrid(t) {
		scheme := scheme
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, scheme, elem, 3, nodesNeeded(scheme), store.ReadOptions{})
			defer tc.teardown()

			// The local twin: one store + WAL fed the same bytes.
			local := store.MustNew(scheme, elem)
			localWAL := store.NewWAL(local, store.WALConfig{FlushInterval: time.Millisecond})
			defer localWAL.Close()

			type obj struct {
				name     string
				payload  []byte
				localOff int64
			}
			var objs []obj
			for i := 0; i < 14; i++ {
				size := 1 + rng.Intn(4*elem*scheme.DataPerStripe()/elem)
				payload := make([]byte, size)
				rng.Read(payload)
				o := obj{name: fmt.Sprintf("obj-%02d", i), payload: payload}
				tc.put(t, o.name, payload)
				off, err := localWAL.Put(context.Background(), payload)
				if err != nil {
					t.Fatalf("local put: %v", err)
				}
				o.localOff = off
				objs = append(objs, o)
			}

			check := func(stage string) {
				for _, o := range objs {
					for _, q := range []string{"", "&sequential=1", "&concurrency=4", "&hedge=1"} {
						got, code := tc.get(t, o.name, q)
						if code != http.StatusOK {
							t.Fatalf("%s: GET %s%s: status %d %s", stage, o.name, q, code, got)
						}
						if !bytes.Equal(got, o.payload) {
							t.Fatalf("%s: GET %s%s: bytes differ from payload", stage, o.name, q)
						}
					}
					res, err := local.ReadAt(o.localOff, len(o.payload))
					if err != nil {
						t.Fatalf("%s: local read %s: %v", stage, o.name, err)
					}
					if !bytes.Equal(res.Data, o.payload) {
						t.Fatalf("%s: local store diverged from payload for %s", stage, o.name)
					}
				}
			}
			check("healthy")

			// Kill one whole node mid-life: every group loses at most
			// tolerance disks, so degraded reads must keep returning exactly
			// the same bytes, reconstructing cells over the network.
			tc.servers[1].Close()
			check("node 1 down")
		})
	}
}

// TestGatewayConcurrentPutGetWithNodeKill exercises the cluster the way the
// smoke test does, in-process and race-detected: concurrent PUTs and GETs
// while a node dies under the load. Reads must never fail or return wrong
// bytes; PUTs may 503 during the outage (writes need every disk) but must
// not corrupt anything.
func TestGatewayConcurrentPutGetWithNodeKill(t *testing.T) {
	scheme := core.MustScheme(rs.Must(6, 3), layout.FormECFRM)
	const elem = 512
	tc := newTestCluster(t, scheme, elem, 4, nodesNeeded(scheme), store.ReadOptions{})
	defer tc.teardown()

	rng := rand.New(rand.NewSource(7))
	payloads := make(map[string][]byte)
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("pre-%02d", i)
		p := make([]byte, 1+rng.Intn(6*elem))
		rng.Read(p)
		payloads[name] = p
		tc.put(t, name, p)
	}

	stop := make(chan struct{})
	errc := make(chan error, 64)
	for w := 0; w < 4; w++ {
		w := w
		go func() {
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("pre-%02d", r.Intn(24))
				q := ""
				if i%3 == 1 {
					q = "&hedge=1"
				}
				got, code := tc.get(t, name, q)
				if code != http.StatusOK {
					errc <- fmt.Errorf("GET %s: status %d: %s", name, code, got)
					return
				}
				if !bytes.Equal(got, payloads[name]) {
					errc <- fmt.Errorf("GET %s: wrong bytes", name)
					return
				}
			}
		}()
	}
	// Writers keep PUTting; 503s are legal once the node is gone.
	go func() {
		r := rand.New(rand.NewSource(999))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := make([]byte, 1+r.Intn(4*elem))
			r.Read(p)
			req := httptest.NewRequest(http.MethodPut, fmt.Sprintf("/objects/live-%04d", i), bytes.NewReader(p))
			rec := httptest.NewRecorder()
			tc.gw.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated && rec.Code != http.StatusServiceUnavailable {
				errc <- fmt.Errorf("PUT live-%04d: status %d: %s", i, rec.Code, rec.Body.String())
				return
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	tc.servers[2].Close() // SIGKILL-equivalent: connections refused from here on
	time.Sleep(200 * time.Millisecond)
	close(stop)

	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// After the dust settles the survivors must still serve every preloaded
	// object byte-identically.
	for name, p := range payloads {
		got, code := tc.get(t, name, "")
		if code != http.StatusOK {
			t.Fatalf("final GET %s: status %d: %s", name, code, got)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("final GET %s: wrong bytes", name)
		}
	}
}
