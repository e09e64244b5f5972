package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpd"
	"repro/internal/layout"
	"repro/internal/nodeapi"
	"repro/internal/obs"
	"repro/internal/store"
)

// restartConfig is the configuration a gateway over tc's nodes restarts
// with: newTestCluster's, with a fresh registry and no start-up flag.
func restartConfig(tc *testCluster, scheme *core.Scheme, elem, groups int) Config {
	var urls []string
	for _, srv := range tc.servers {
		urls = append(urls, srv.URL)
	}
	return Config{Nodes: urls, Groups: groups, ElemSize: elem, Scheme: scheme, SyncWrites: true,
		HTTP:          httpd.Config{Registry: obs.NewRegistry(), WAL: store.WALConfig{FlushInterval: time.Millisecond}},
		ProbeInterval: -1, NodeTimeout: 5 * time.Second}
}

// putAt stores an object through the gateway's surface and returns the
// group and offset its ack names.
func putAt(t *testing.T, gw *Gateway, name string, body []byte) (grp int, off int64) {
	t.Helper()
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/objects/"+name, bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT %s: %d %s", name, rec.Code, rec.Body.String())
	}
	var n int
	if _, err := fmt.Sscanf(rec.Body.String(), "stored %d bytes in group %d at offset %d", &n, &grp, &off); err != nil {
		t.Fatalf("PUT %s ack %q: %v", name, rec.Body.String(), err)
	}
	return grp, off
}

// nodeSlots is every extent's slot count on every node, from the nodes'
// own status.
func nodeSlots(t *testing.T, tc *testCluster) []nodeapi.NodeStatus {
	t.Helper()
	var out []nodeapi.NodeStatus
	for _, n := range tc.nodes {
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, nodeapi.StatusPath, nil))
		var st nodeapi.NodeStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

// readAt reads an object back by its group and offset, bypassing names.
func readAt(t *testing.T, gw *Gateway, grp int, off int64, want []byte) {
	t.Helper()
	res, err := gw.Store(grp).ReadAt(off, len(want))
	if err != nil {
		t.Fatalf("read group %d at %d: %v", grp, off, err)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatalf("group %d at %d: bytes differ from what was acked", grp, off)
	}
}

// TestGatewayRestartKeepsAckedStripes: a gateway closed and rebuilt over the
// same nodes, with no start-up flag, keeps every acked stripe. An object PUT
// before the restart reads back byte-identical at its offset, every group
// keeps its stripe count, and the next PUT lands past them. A restart under
// another form, element size, group count or node order is refused naming
// both geometries, with every node's slots untouched. A node down at the
// restart fails its disks in every group and reads degrade byte-identically;
// two down refuse the start with ErrUnavailable, again touching nothing.
func TestGatewayRestartKeepsAckedStripes(t *testing.T) {
	scheme := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	const elem, groups = 512, 4
	tc := newTestCluster(t, scheme, elem, groups, 3)
	defer tc.teardown()
	cfg := restartConfig(tc, scheme, elem, groups)

	a := make([]byte, 5*scheme.DataPerStripe()*elem/2)
	rand.New(rand.NewSource(38)).Read(a)
	ga, offA := putAt(t, tc.gw, "a", a)
	stripes := make([]int, groups)
	for grp := range stripes {
		stripes[grp] = tc.gw.Store(grp).Stripes()
	}
	restart := func(cfg Config) error {
		t.Helper()
		if tc.gw != nil {
			tc.gw.Close()
		}
		gw, err := New(cfg)
		tc.gw = gw
		return err
	}
	kept := func(stage string) {
		t.Helper()
		for grp, n := range stripes {
			if got := tc.gw.Store(grp).Stripes(); got != n {
				t.Fatalf("%s: group %d serves %d stripes, %d were sealed before the restart", stage, grp, got, n)
			}
		}
		readAt(t, tc.gw, ga, offA, a)
	}

	if err := restart(cfg); err != nil {
		t.Fatal(err)
	}
	kept("restart")
	b := bytes.Repeat([]byte("b"), 3*elem)
	gb, offB := putAt(t, tc.gw, "b", b)
	if sb := int64(scheme.DataPerStripe() * elem); offB < int64(stripes[gb])*sb {
		t.Fatalf("b landed in group %d at %d, inside the %d stripes sealed before the restart", gb, offB, stripes[gb])
	}
	readAt(t, tc.gw, ga, offA, a)
	readAt(t, tc.gw, gb, offB, b)
	stripes[gb] = tc.gw.Store(gb).Stripes()

	reversed := slices.Clone(cfg.Nodes)
	slices.Reverse(reversed)
	for _, c := range []struct {
		name   string
		change func(*Config)
		names  []string // what the refusal must name, recorded and requested
	}{
		{"form", func(c *Config) { c.Scheme = core.MustScheme(mustRS(6, 3), layout.FormRotated) },
			[]string{scheme.Name(), "R-RS(6,3)"}},
		{"elem", func(c *Config) { c.ElemSize = 2 * elem }, []string{"512-byte", "1024-byte"}},
		{"groups", func(c *Config) { c.Groups = groups + 1 }, []string{"4 groups", "5 groups"}},
		{"node order", func(c *Config) { c.Nodes = reversed },
			[]string{strings.Join(cfg.Nodes, ","), strings.Join(reversed, ",")}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := nodeSlots(t, tc)
			other := cfg
			c.change(&other)
			other.HTTP.Registry = obs.NewRegistry()
			err := restart(other)
			if err == nil {
				t.Fatalf("restart with another %s opened", c.name)
			}
			for _, name := range c.names {
				if !strings.Contains(err.Error(), name) {
					t.Fatalf("refusal %q does not name %q", err, name)
				}
			}
			if after := nodeSlots(t, tc); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("refused restart changed the nodes: %v, was %v", after, before)
			}
		})
	}
	cfg.HTTP.Registry = obs.NewRegistry()
	if err := restart(cfg); err != nil {
		t.Fatal(err)
	}
	kept("after the refusals")

	// Node 2 down at the restart: its three disks of every group fail, and
	// reads decode around them.
	tc.servers[2].Close()
	cfg.HTTP.Registry = obs.NewRegistry()
	if err := restart(cfg); err != nil {
		t.Fatalf("restart with node 2 down: %v", err)
	}
	for grp := range stripes {
		if got, want := tc.gw.Store(grp).FailedDisks(), tc.gw.pm.DisksOn(grp, 2); !slices.Equal(got, want) {
			t.Fatalf("group %d: failed disks %v after a restart with node 2 down, want its disks %v", grp, got, want)
		}
	}
	kept("node 2 down")
	readAt(t, tc.gw, gb, offB, b)

	// Node 1 too: beyond tolerance.
	tc.servers[1].Close()
	before := nodeSlots(t, tc)
	cfg.HTTP.Registry = obs.NewRegistry()
	if err := restart(cfg); !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("restart with nodes 1 and 2 down: %v, want ErrUnavailable", err)
	}
	if after := nodeSlots(t, tc); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refused restart changed the nodes: %v, was %v", after, before)
	}
}

// TestGatewayDurableStripesNeverTruncated is the gateway's
// TestFileBackendDurableStripesNeverTruncated: with f+1 of a group's
// extents wiped on the nodes, no stripe of the group decodes, but the
// nodes' manifest copies record its stripes as durable — so the restart
// refuses, naming the lost stripe, instead of truncating the group to zero.
func TestGatewayDurableStripesNeverTruncated(t *testing.T) {
	scheme := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	const elem, groups, wiped = 512, 2, 1
	tc := newTestCluster(t, scheme, elem, groups, 3)
	defer tc.teardown()
	cfg := restartConfig(tc, scheme, elem, groups)
	for i := 0; tc.gw.Store(wiped).Stripes() < 3; i++ {
		putAt(t, tc.gw, fmt.Sprintf("obj-%d", i), bytes.Repeat([]byte{byte(i)}, 4*elem))
	}
	pm := tc.gw.pm
	tc.gw.Close()
	tc.gw = nil
	for d := 0; d <= scheme.FaultTolerance(); d++ {
		u := fmt.Sprintf("%s%s?slots=0", tc.servers[pm.Node(wiped, d)].URL, nodeapi.TruncatePath(wiped, d))
		resp, err := http.Post(u, "", nil)
		if err != nil || resp.StatusCode != http.StatusNoContent {
			t.Fatalf("wipe group %d disk %d: %v %v", wiped, d, resp, err)
		}
		resp.Body.Close()
	}
	before := nodeSlots(t, tc)
	gw, err := New(cfg)
	if err == nil {
		tc.gw = gw
		t.Fatalf("restart over a group with f+1 extents wiped opened, serving %d stripes", gw.Store(wiped).Stripes())
	}
	if want := "stripe 0 unrecoverable"; !strings.Contains(err.Error(), want) {
		t.Fatalf("restart over wiped extents: %v, want a refusal naming %q", err, want)
	}
	if after := nodeSlots(t, tc); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refused restart changed the nodes: %v, was %v", after, before)
	}
}
