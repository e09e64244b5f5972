package httpd_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datanode"
	"repro/internal/gateway"
	"repro/internal/httpd"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
	"repro/internal/store"
)

// surface is one object surface under test: its URL, the group stores
// behind it, and its drain (Server.Close or Gateway.Close).
type surface struct {
	url    string
	stores []*store.Store
	close  func() error
}

// constructors are the two ways the one object surface is built: single
// mode's one group over local devices, and a gateway's two groups over
// three in-process data nodes. Both schemes tolerate 3 failed disks.
var constructors = []struct {
	name string
	open func(t *testing.T, cfg httpd.Config) *surface
}{
	{"single", openSingle},
	{"gateway", openGateway},
}

// forEachSurface runs test once per constructor, as a subtest.
func forEachSurface(t *testing.T, cfg httpd.Config, test func(t *testing.T, s *surface)) {
	for _, c := range constructors {
		t.Run(c.name, func(t *testing.T) { test(t, c.open(t, cfg)) })
	}
}

func openSingle(t *testing.T, cfg httpd.Config) *surface {
	srv := httpd.NewServerWith(store.MustNew(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), 256), cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &surface{url: ts.URL, stores: srv.Stores(), close: srv.Close}
}

// openGateway runs RS(6,3): each of three nodes holds 3 of a group's 9
// disks, exactly the tolerance the gateway demands.
func openGateway(t *testing.T, cfg httpd.Config) *surface {
	var urls []string
	for i := 0; i < 3; i++ {
		n, err := datanode.New(datanode.Config{ElemSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		ns := httptest.NewServer(n)
		t.Cleanup(func() { ns.Close(); n.Close() })
		urls = append(urls, ns.URL)
	}
	gw, err := gateway.New(gateway.Config{
		Nodes:         urls,
		Groups:        2,
		ElemSize:      256,
		Scheme:        core.MustScheme(rs.Must(6, 3), layout.FormECFRM),
		HTTP:          cfg,
		SyncWrites:    true,
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() { ts.Close(); gw.Close() })
	return &surface{url: ts.URL, stores: gw.Server().Stores(), close: gw.Close}
}

// newTestServer is the single-mode server the single-only tests share.
func newTestServer(t *testing.T) (*httptest.Server, *httpd.Server) {
	t.Helper()
	scheme := core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	srv := httpd.NewServerWith(store.MustNew(scheme, 256), httpd.Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

func doReq(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// getStatus fetches and decodes /admin/status.
func getStatus(t *testing.T, url string) httpd.Status {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, url+"/admin/status", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st httpd.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// groupOf is the placement group a stored object lives in, as HEAD reports
// it (X-Placement-Group appears only with more than one group).
func groupOf(t *testing.T, url, name string) string {
	t.Helper()
	resp, _ := doReq(t, http.MethodHead, url+"/objects/"+name, nil)
	if g := resp.Header.Get("X-Placement-Group"); g != "" {
		return g
	}
	return "0"
}
