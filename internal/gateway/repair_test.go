package gateway

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datanode"
	"repro/internal/layout"
	"repro/internal/nodeapi"
	"repro/internal/obs"
	"repro/internal/repair"
)

// repairCluster is RS(6,3)/ecfrm over 3 in-process nodes and 4 groups, its
// objects PUT, and one repair scheduler built from the gateway's group
// stores the way ecfrmd builds it. Logs go to logf.
func repairCluster(t *testing.T, logf func(string, ...any)) (*testCluster, map[string][]byte, *repair.Scheduler, *obs.Registry) {
	t.Helper()
	scheme := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	const elem, groups = 512, 4
	tc := newTestCluster(t, scheme, elem, groups, 3)
	rng := rand.New(rand.NewSource(39))
	objects := make(map[string][]byte)
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("obj-%02d", i)
		objects[name] = make([]byte, 1+rng.Intn(3*scheme.DataPerStripe()*elem/2))
		rng.Read(objects[name])
		tc.put(t, name, objects[name])
	}
	reg := obs.NewRegistry()
	sch, err := repair.New(tc.gw.Server().Stores(), repair.Config{
		Rate:           64 << 20,
		DetectInterval: 5 * time.Millisecond,
		ScrubInterval:  20 * time.Millisecond,
		Registry:       reg,
		Logf:           logf,
	})
	if err != nil {
		tc.teardown()
		t.Fatal(err)
	}
	return tc, objects, sch, reg
}

// scrapeValue is the value of the sample named sample in reg's exposition.
func scrapeValue(t *testing.T, reg *obs.Registry, sample string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, sample+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	return 0
}

// waitRebuilt waits until the scheduler has rebuilt want disks and no group
// has a failed or rebuilding disk.
func waitRebuilt(t *testing.T, tc *testCluster, reg *obs.Registry, want float64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		healthy := true
		for grp := range tc.gw.stores {
			st := tc.gw.Store(grp)
			healthy = healthy && len(st.FailedDisks()) == 0 && len(st.Rebuilding()) == 0
		}
		mttrs := scrapeValue(t, reg, "ecfrm_repair_mttr_seconds_count")
		if healthy && mttrs >= want {
			if mttrs != want {
				t.Fatalf("%v rebuilds, want %v: one per disk of the node", mttrs, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 20s: %v rebuilds of %v, every group healthy: %v", mttrs, want, healthy)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkObjects GETs every object by name through the gateway.
func checkObjects(t *testing.T, tc *testCluster, objects map[string][]byte, stage string) {
	t.Helper()
	for name, want := range objects {
		got, code := tc.get(t, name, "")
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: GET %s: %d, byte-identical %v", stage, name, code, bytes.Equal(got, want))
		}
	}
}

// TestGatewaySchedulerRebuildsWipedNode: a node restarted on an empty
// directory answers every read of its old cells as missing. The scheduler
// over the gateway's groups fail-stops each of its extents, though healthy
// GETs read none of its parity, and rebuilds them in place on that node:
// all twelve (4 groups × 3 disks), each once. Every object reads back by
// name throughout, the scrub is clean, and the node's extents hold as many
// slots as their peers'.
func TestGatewaySchedulerRebuildsWipedNode(t *testing.T) {
	tc, objects, sch, reg := repairCluster(t, t.Logf)
	defer tc.teardown()
	defer sch.Close()

	fresh, err := datanode.New(datanode.Config{ElemSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	tc.nodes[2].Close()
	tc.nodes[2] = fresh
	tc.live[2].set(fresh)
	checkObjects(t, tc, objects, "node 2 wiped")
	waitRebuilt(t, tc, reg, 12)
	checkObjects(t, tc, objects, "node 2 rebuilt")

	rec := httptest.NewRecorder()
	tc.gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/scrub", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"corrupt_stripes":[]`) &&
		!strings.Contains(rec.Body.String(), `"corrupt_stripes":null`) {
		t.Fatalf("scrub after the rebuild: %d %s", rec.Code, rec.Body.String())
	}
	slots := make(map[int]map[int]bool) // group → the slot counts its extents hold
	for _, ns := range nodeSlots(t, tc) {
		for _, m := range ns.Disks {
			if slots[m.Group] == nil {
				slots[m.Group] = make(map[int]bool)
			}
			slots[m.Group][m.Slots] = true
		}
	}
	for grp := range tc.gw.stores {
		want := tc.gw.Store(grp).Stripes() * tc.gw.Store(grp).Scheme().Layout().Rows()
		if len(slots[grp]) != 1 || !slots[grp][want] {
			t.Fatalf("group %d extents hold %v slots, want all %d", grp, slots[grp], want)
		}
	}
}

// TestGatewaySchedulerRetriesDownNode: a node that stays down for 2 s has
// its extents fail-stopped, and each rebuild that cannot start is retried
// at most once a second — at most 3 attempts per disk in that time, each
// disk's failing streak logged once. Once the node answers again, every
// one of its disks rebuilds without an operator.
func TestGatewaySchedulerRetriesDownNode(t *testing.T) {
	var mu sync.Mutex
	streaks := make(map[string]int)  // disk → failing-streak log lines
	attempts := make(map[string]int) // extent truncate path → rebuild attempts
	tc, objects, sch, reg := repairCluster(t, func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if k, _, ok := strings.Cut(line, ": begin rebuild"); ok {
			mu.Lock()
			streaks[k]++
			mu.Unlock()
		}
	})
	defer tc.teardown()
	defer sch.Close()

	tc.live[2].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("slots") { // a rebuild's Truncate(0)
			mu.Lock()
			attempts[r.URL.Path]++
			mu.Unlock()
		}
		http.Error(w, "node down", http.StatusServiceUnavailable)
	}))
	time.Sleep(2 * time.Second)
	tc.live[2].set(tc.nodes[2])

	mu.Lock()
	for grp := range tc.gw.stores {
		for d := 0; d < 9; d++ {
			if tc.gw.pm.Node(grp, d) != 2 {
				continue
			}
			k := repair.DiskRef{Group: grp, Disk: d}
			if n := attempts[nodeapi.TruncatePath(grp, d)]; n < 1 || n > 3 {
				t.Errorf("%v: %d rebuild attempts while its node was down 2s, want 1 to 3", k, n)
			}
			if n := streaks["repair: "+k.String()]; n != 1 {
				t.Errorf("%v: failing streak logged %d times, want once", k, n)
			}
		}
	}
	mu.Unlock()
	waitRebuilt(t, tc, reg, 12)
	checkObjects(t, tc, objects, "node 2 back")
}
