// Package obs is the repo's zero-dependency observability kit: a named
// registry of counters, gauges, and fixed-bucket histograms built on
// sync/atomic, rendered in the Prometheus text exposition format, plus
// lightweight span timing for pipeline stages.
//
// The paper's whole argument is a load statement — spreading data over all n
// disks lowers the load on the most-loaded disk and thereby bounds read
// latency — and this package is how the live system exposes that statement
// as numbers: per-disk element counters, a max-load-per-request histogram,
// cache and latency distributions, all scrapeable from GET /metrics.
//
// Design constraints, in order:
//
//   - Zero external dependencies. Everything is hand-rolled on sync/atomic;
//     go.mod does not change. The exposition format is the stable,
//     line-oriented subset of Prometheus text format 0.0.4.
//   - Hot-path cheap. Instruments are looked up (and created) once, through
//     the locked registry, then held by the instrumented code; Inc/Add/
//     Observe touch only atomics. A nil instrument is a no-op, so call sites
//     need no "is observability on?" branches.
//   - Deterministic output. Families render in registration order and series
//     in creation order, so tests can assert on scrapes byte-for-byte.
//
// Typical use:
//
//	reg := obs.NewRegistry()
//	reads := reg.Counter("ecfrm_disk_element_reads_total",
//	    "Element reads served per disk.", obs.L("disk", "3"))
//	reads.Inc()
//	lat := reg.Histogram("ecfrm_http_request_seconds",
//	    "Request latency.", obs.ExpBuckets(1e-4, 4, 8), obs.L("op", "get"))
//	defer obs.StartSpan(lat).End()
//	mux.Handle("/metrics", reg.Handler())
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric series.
type Label struct{ Key, Value string }

// L builds a Label; it keeps call sites short.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter. The zero value is unusable;
// obtain counters from a Registry. A nil *Counter is a valid no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta, which must be non-negative (counters are monotonic).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	if delta < 0 {
		panic("obs: counter decrement")
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A nil *Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
	fn   atomic.Pointer[func() float64]
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add folds delta into the gauge with a CAS loop (safe for concurrent use).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (calling the callback for func gauges).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if fn := g.fn.Load(); fn != nil {
		return (*fn)()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value (Prometheus "le" semantics), with
// an implicit +Inf bucket, plus a running sum and count. All operations are
// atomic; Observe never allocates. A nil *Histogram is a valid no-op.
type Histogram struct {
	bounds  []float64 // sorted ascending upper bounds; +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-folded
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are few (typically < 20): a linear scan beats binary search
	// on branch prediction and is trivially correct at the boundaries.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Span times one region of code into a histogram of seconds. The zero Span
// (and any span over a nil histogram) is a no-op, so instrumented code works
// identically whether or not observability is wired up.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// StartSpan opens a span recording into h on End.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, t0: time.Now()}
}

// End closes the span, observing its duration in seconds.
func (sp Span) End() {
	if sp.h != nil {
		sp.h.ObserveSince(sp.t0)
	}
}

// ExpBuckets returns count upper bounds start, start*factor, ...
func ExpBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// kind discriminates metric families in the exposition output.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labelled instrument inside a family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64 // histogram families only; shared by all series
	order  []string  // label signatures in creation order
	series map[string]*series
}

// Registry holds named metric families and renders them as Prometheus text.
// All methods are safe for concurrent use. Get-or-create is idempotent:
// asking for an existing (name, labels) pair returns the same instrument, so
// instrumented layers can be wired independently and still share series.
//
// A Registry is a *view* onto a shared family store: With derives a view
// that stamps extra base labels onto every instrument it creates, so two
// components instantiated in one process (a gateway plus an embedded data
// node, or one store per placement group) can reuse identical metric names
// without colliding on series — same name, disjoint label sets. All views
// of one registry render into the same /metrics scrape.
type Registry struct {
	core *registryCore
	base []Label // labels this view prepends to every instrument
}

// registryCore is the family store every view of a registry shares.
type registryCore struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family names in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{core: &registryCore{families: make(map[string]*family)}}
}

// With returns a view of the same registry whose instruments all carry the
// given labels in addition to (and before) their call-site labels. Views are
// cheap, immutable, and compose: reg.With(L("component","gateway")).With(
// L("group","3")) stamps both. Series created through different views with
// distinct base labels never collide, even for identical metric names.
func (r *Registry) With(labels ...Label) *Registry {
	base := make([]Label, 0, len(r.base)+len(labels))
	base = append(base, r.base...)
	base = append(base, labels...)
	return &Registry{core: r.core, base: base}
}

// lookup returns (creating if needed) the family and the series for labels.
func (r *Registry) lookup(name, help string, k kind, bounds []float64, labels []Label) *series {
	if len(r.base) > 0 {
		all := make([]Label, 0, len(r.base)+len(labels))
		all = append(all, r.base...)
		all = append(all, labels...)
		labels = all
	}
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, bounds: bounds, series: make(map[string]*series)}
		c.families[name] = f
		c.order = append(c.order, name)
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, k, f.kind))
	}
	sig := labelSignature(labels)
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = &Histogram{
				bounds:  f.bounds,
				buckets: make([]atomic.Int64, len(f.bounds)+1),
			}
		}
		f.series[sig] = s
		f.order = append(f.order, sig)
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, nil, labels).c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, nil, labels).g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time —
// for mirroring values something else already maintains (cache bytes, queue
// depths) without double accounting.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(name, help, kindGauge, nil, labels).g.fn.Store(&fn)
}

// Histogram returns the histogram for (name, labels), creating it on first
// use. Buckets are the sorted upper bounds (an implicit +Inf bucket is
// appended); every series of one family shares the family's buckets — the
// buckets argument of later calls is ignored.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return r.lookup(name, help, kindHistogram, bounds, labels).h
}

// labelSignature renders labels into the exact {k="v",...} form used in the
// exposition output; it doubles as the series map key.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	out := "{"
	for i, l := range labels {
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabel(l.Value) + `"`
	}
	return out + "}"
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}
