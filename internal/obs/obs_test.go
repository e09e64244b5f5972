package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Same (name, labels) returns the same instrument.
	if c2 := reg.Counter("x_total", "help"); c2 != c {
		t.Fatal("counter lookup not idempotent")
	}
	// Different labels are distinct series.
	if c3 := reg.Counter("x_total", "help", L("disk", "0")); c3 == c {
		t.Fatal("labelled series aliases the unlabelled one")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	StartSpan(nil).End()
	var sp Span
	sp.End()
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("g", "")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	reg.GaugeFunc("gf", "", func() float64 { return 7 })
	if got := reg.Gauge("gf", "").Value(); got != 7 {
		t.Fatalf("func gauge = %v, want 7", got)
	}
}

// TestHistogramBucketBoundaries pins down the le semantics: an observation
// equal to a bound lands in that bound's bucket, one epsilon above lands in
// the next, and values beyond the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 2.1, 4.0, 4.5, 100} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 2} // le=1:{0.5,1.0} le=2:{1.5,2.0} le=4:{2.1,4.0} +Inf:{4.5,100}
	for i := range want {
		if got := h.buckets[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if got, wantSum := h.Sum(), 0.5+1+1.5+2+2.1+4+4.5+100; math.Abs(got-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
}

// TestHistogramUnsortedBuckets: bounds are sorted at registration, so callers
// may pass them in any order.
func TestHistogramUnsortedBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "", []float64{4, 1, 2})
	h.Observe(1.5)
	if got := h.buckets[1].Load(); got != 1 {
		t.Fatalf("1.5 landed in bucket with count %d at le=2, want 1", got)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 4, 3)
	for i, want := range []float64{1, 4, 16} {
		if exp[i] != want {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, exp[i], want)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("m", "")
}

// TestRegistryConcurrency hammers every operation — series creation,
// increments, observations, and scrapes — from many goroutines at once, and
// then checks the totals. Run under -race this is the registry's thread-
// safety proof.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const (
		workers = 16
		perW    = 1000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			lbl := L("w", string(rune('a'+w%4)))
			for i := 0; i < perW; i++ {
				reg.Counter("conc_total", "h", lbl).Inc()
				reg.Histogram("conc_hist", "h", []float64{1, 10, 100}, lbl).Observe(float64(i % 128))
				reg.Gauge("conc_gauge", "h", lbl).Add(1)
				if i%100 == 0 {
					var sink discard
					if err := reg.WriteText(&sink); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, v := range []string{"a", "b", "c", "d"} {
		total += reg.Counter("conc_total", "h", L("w", v)).Value()
	}
	if want := int64(workers * perW); total != want {
		t.Fatalf("concurrent counter total = %d, want %d", total, want)
	}
	var hcount int64
	for _, v := range []string{"a", "b", "c", "d"} {
		hcount += reg.Histogram("conc_hist", "h", nil, L("w", v)).Count()
	}
	if want := int64(workers * perW); hcount != want {
		t.Fatalf("concurrent histogram count = %d, want %d", hcount, want)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestWithNamespacing(t *testing.T) {
	reg := NewRegistry()
	gw := reg.With(L("component", "gateway"))
	node := reg.With(L("component", "node"))

	// Identical metric name + call-site labels through two views must be
	// distinct series — this is exactly the gateway + embedded-node-in-one-
	// test-binary collision With exists to prevent.
	a := gw.Counter("ecfrm_requests_total", "h", L("op", "get"))
	b := node.Counter("ecfrm_requests_total", "h", L("op", "get"))
	if a == b {
		t.Fatal("views with distinct base labels returned the same series")
	}
	a.Add(3)
	b.Add(5)
	if a.Value() != 3 || b.Value() != 5 {
		t.Fatalf("series values cross-contaminated: %d, %d", a.Value(), b.Value())
	}

	// Same view + same labels stays idempotent.
	if gw.Counter("ecfrm_requests_total", "h", L("op", "get")) != a {
		t.Fatal("lookup through the same view was not idempotent")
	}
	// Chained With composes base labels.
	g3 := gw.With(L("group", "3")).Gauge("ecfrm_depth", "h")
	g3.Set(7)

	var buf bytes.Buffer
	if err := node.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`ecfrm_requests_total{component="gateway",op="get"} 3`,
		`ecfrm_requests_total{component="node",op="get"} 5`,
		`ecfrm_depth{component="gateway",group="3"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}
