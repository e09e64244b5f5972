package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// fanoutGrid is the {RS, LRC} × {standard, rotated, ecfrm} sweep the
// fan-out property tests cover.
func fanoutGrid(t testing.TB) map[string]*core.Scheme {
	t.Helper()
	cells := make(map[string]*core.Scheme)
	for cname, c := range map[string]codes.Code{
		"rs":  mustRS(6, 3),
		"lrc": lrc.Must(6, 2, 2),
	} {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM} {
			cells[fmt.Sprintf("%s-%s", cname, form)] = core.MustScheme(c, form)
		}
	}
	return cells
}

// fanoutLeakCheck asserts the test leaves no goroutines behind, giving
// exiting workers a grace window to drain.
func fanoutLeakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	})
}

// readOptionsGrid is every way a read can be served: the default (a worker
// per node's queues) and sequential (inline).
var readOptionsGrid = []ReadOptions{
	{},
	{Sequential: true},
}

// TestFanoutMatchesSequentialProperty is the byte-identity property: across
// every code×layout cell, with random in-tolerance disk failures or random
// corrupt cells, every read option returns exactly the written payload's
// bytes. Runs under -race via `make race-io`.
func TestFanoutMatchesSequentialProperty(t *testing.T) {
	fanoutLeakCheck(t)
	for name, scheme := range fanoutGrid(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(500))
			for trial := 0; trial < 6; trial++ {
				st := MustNew(scheme, 64)
				payload := make([]byte, 4*scheme.DataPerStripe()*64)
				rng.Read(payload)
				if err := st.Append(payload); err != nil {
					t.Fatal(err)
				}
				if trial%2 == 0 {
					// Failure trial: knock out a random set of disks, never
					// past tolerance.
					for i := 0; i < rng.Intn(scheme.FaultTolerance()+1); i++ {
						st.FailDiskWithinTolerance(rng.Intn(scheme.N()))
					}
				} else {
					// Corruption trial (disks all healthy, so heals always
					// stay within tolerance).
					pos := scheme.Layout().DataPos(rng.Intn(scheme.DataPerStripe()))
					if err := st.CorruptCell(rng.Intn(st.Stripes()), pos); err != nil {
						t.Fatal(err)
					}
				}
				for r := 0; r < 8; r++ {
					off := rng.Intn(len(payload) - 1)
					ln := 1 + rng.Intn(len(payload)-off)
					opts := readOptionsGrid[r%len(readOptionsGrid)]
					res, err := st.ReadAtCtx(context.Background(), int64(off), ln, opts)
					if err != nil {
						t.Fatalf("trial %d read %d opts %+v: %v", trial, r, opts, err)
					}
					if !bytes.Equal(res.Data, payload[off:off+ln]) {
						t.Fatalf("trial %d read %d opts %+v: wrong bytes at [%d,%d)",
							trial, r, opts, off, off+ln)
					}
				}
			}
		})
	}
}

// TestFanoutConcurrentSharedStore hammers one store from many goroutines
// mixing read options — reads span the inline threshold, so the default
// serves some inline and some on workers — while a device persistently
// errors (forcing replans and degraded decodes on the shared buffer arena).
// Any double-recycled buffer would alias two readers' shards and surface as
// wrong bytes or a race.
func TestFanoutConcurrentSharedStore(t *testing.T) {
	fanoutLeakCheck(t)
	const elem = 4096
	sch := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	st := MustNew(sch, elem)
	payload := make([]byte, 6*sch.DataPerStripe()*elem)
	rand.New(rand.NewSource(501)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}
	stub(st, onlyDev(2, errors.New("io error")), nil)

	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(600 + g)))
			opts := readOptionsGrid[g%len(readOptionsGrid)]
			for i := 0; i < 40; i++ {
				off := rng.Intn(len(payload) - 1)
				ln := 1 + rng.Intn(128<<10) // 1 B to 128 KiB
				if off+ln > len(payload) {
					ln = len(payload) - off
				}
				res, err := st.ReadAtCtx(context.Background(), int64(off), ln, opts)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				if !bytes.Equal(res.Data, payload[off:off+ln]) {
					errs <- fmt.Errorf("reader %d: wrong bytes at [%d,%d)", g, off, off+ln)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestFanoutBoundedAllocs is the satellite alloc-regression gate: on the
// fan-out path the per-stripe cell containers and decoded shards come from
// pools, so steady-state allocations per read are a small constant — they
// must not scale with the number of cells fetched. (The result buffer, plan,
// and ReadResult are necessarily fresh per call.)
func TestFanoutBoundedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so alloc counts are meaningless")
	}
	sch := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	st := MustNew(sch, 4096)
	payload := make([]byte, 4*sch.DataPerStripe()*4096)
	rand.New(rand.NewSource(502)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}

	measure := func(name string, length int, opts ReadOptions) float64 {
		t.Helper()
		// Warm the pools.
		if _, err := st.ReadAtCtx(context.Background(), 0, length, opts); err != nil {
			t.Fatalf("%s warmup: %v", name, err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := st.ReadAtCtx(context.Background(), 0, length, opts); err != nil {
				t.Fatal(err)
			}
		})
	}

	small := measure("small", st.ElementSize(), ReadOptions{})
	large := measure("large", 4*sch.DataPerStripe()*st.ElementSize(), ReadOptions{})
	if small > 40 {
		t.Errorf("1-element fan-out read: %v allocs/op, want <= 40", small)
	}
	// 24 data elements across 4 stripes: if per-cell or per-stripe slices
	// were still allocated per request this would blow far past the bound.
	if large > small+60 {
		t.Errorf("24-element fan-out read: %v allocs/op vs %v for 1 element — per-cell allocation crept back",
			large, small)
	}

	// Degraded reads decode lost shards; those buffers must come from (and
	// return to) the arena, and the planner's search scratch from its pool,
	// so a degraded read adds only a small constant over the healthy read of
	// the same size (its target list and the plan's failed set among them).
	st.FailDiskWithinTolerance(0)
	degraded := measure("degraded", 4*sch.DataPerStripe()*st.ElementSize(), ReadOptions{})
	t.Logf("allocs/op: 1-element %v, 24-element %v, degraded 24-element %v", small, large, degraded)
	if degraded > large+10 {
		t.Errorf("degraded 24-element read: %v allocs/op vs %v healthy — decoded shards or planner scratch are not pooled",
			degraded, large)
	}
}

// TestFanoutReplanRecyclesBuffers is the satellite bugfix regression: when a
// pass discovers an unavailable device and replans, every already-fetched
// container must be recycled exactly once before the retry. A leak would
// grow allocations per replanning read; a double-put would corrupt the pool
// and surface as wrong bytes in the property tests. Here we count container
// pool traffic directly via a replan-heavy workload.
func TestFanoutReplanRecyclesBuffers(t *testing.T) {
	sch := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	st := MustNew(sch, 64)
	payload := make([]byte, 4*sch.DataPerStripe()*64)
	rand.New(rand.NewSource(503)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}
	// Device 1 always errors: every read plans normally, fails, replans
	// degraded around it — exercising the recycle-before-continue path.
	stub(st, onlyDev(1, errors.New("io error")), nil)
	for i := 0; i < 30; i++ {
		res, err := st.ReadAtCtx(context.Background(), 0, len(payload), ReadOptions{})
		if err != nil {
			t.Fatalf("replanning read %d: %v", i, err)
		}
		if !bytes.Equal(res.Data, payload) {
			t.Fatalf("replanning read %d returned wrong bytes", i)
		}
	}
	if st.Metrics() != nil {
		t.Fatal("test assumes no metrics installed")
	}
}

// TestFanoutStuckOpCancellable is the fault-injection-safety test: every
// backend stalling for 5 s must be cut short by context cancellation,
// because the read's context reaches the backend call, and the read must
// return promptly with the context's error — no goroutine parked in a wait
// it cannot leave.
func TestFanoutStuckOpCancellable(t *testing.T) {
	fanoutLeakCheck(t)
	sch := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	st := MustNew(sch, 64)
	payload := make([]byte, sch.DataPerStripe()*64)
	rand.New(rand.NewSource(504)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}
	stub(st, stall(5*time.Second, errors.New("stuck")), nil)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := st.ReadAtCtx(ctx, 0, len(payload), ReadOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v; stuck-op sleep is not cancellable", elapsed)
	}
}

// TestFanoutBeatsSequentialUnderUniformLatency: with the same injected
// latency on every device, a fan-out read serves each node's runs on its own
// worker, so it costs about the most-loaded device's runs, while a
// Sequential read pays for every run in turn. On RS(6,3)/ecfrm, a 512 KiB
// read in 4 KiB cells at 2 ms per run measures about 7x apart; the test asks
// for 3x, each side the best of three reads.
func TestFanoutBeatsSequentialUnderUniformLatency(t *testing.T) {
	fanoutLeakCheck(t)
	const elem = 4096
	sch := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	st := MustNew(sch, elem)
	payload := make([]byte, 512<<10)
	rand.New(rand.NewSource(505)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	stub(st, stall(2*time.Millisecond, nil), nil)

	best := func(opts ReadOptions) time.Duration {
		t.Helper()
		var min time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			res, err := st.ReadAtCtx(context.Background(), 0, len(payload), opts)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("read %+v: %v", opts, err)
			}
			if !bytes.Equal(res.Data, payload) {
				t.Fatalf("read %+v returned wrong bytes", opts)
			}
			if i == 0 || elapsed < min {
				min = elapsed
			}
		}
		return min
	}
	fanout, sequential := best(ReadOptions{}), best(ReadOptions{Sequential: true})
	t.Logf("fan-out %v, sequential %v", fanout, sequential)
	if 3*fanout > sequential {
		t.Fatalf("fan-out read took %v, sequential %v: want fan-out at least 3x faster", fanout, sequential)
	}
}

// TestFanoutCoalescing: run construction merges same-device cells at
// adjacent on-disk offsets. With the standard layout (one row per stripe) a
// multi-stripe read collapses to exactly one run per device; with EC-FRM's
// rotated multi-row stripes, runs never span an offset gap.
func TestFanoutCoalescing(t *testing.T) {
	sch := core.MustScheme(mustRS(6, 3), layout.FormStandard)
	st := MustNew(sch, 64)
	payload := make([]byte, 5*sch.DataPerStripe()*64)
	rand.New(rand.NewSource(507)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}
	plan, err := sch.PlanNormalRead(0, 5*sch.DataPerStripe())
	if err != nil {
		t.Fatal(err)
	}
	queues := buildRuns(sch, plan.Reads)
	for _, q := range queues {
		if len(q.runs) != 1 {
			t.Fatalf("standard layout: device %d got %d runs, want 1 coalesced run", q.dev, len(q.runs))
		}
		for _, run := range q.runs {
			for i := 1; i < len(run.slots); i++ {
				if run.slots[i].off != run.slots[i-1].off+1 {
					t.Fatalf("device %d: run has offset gap %d -> %d",
						q.dev, run.slots[i-1].off, run.slots[i].off)
				}
			}
		}
	}

	ecfrm := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	plan, err = ecfrm.PlanNormalRead(0, 2*ecfrm.DataPerStripe())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range buildRuns(ecfrm, plan.Reads) {
		for _, run := range q.runs {
			for i := 1; i < len(run.slots); i++ {
				if run.slots[i].off != run.slots[i-1].off+1 {
					t.Fatalf("ecfrm: device %d run has offset gap %d -> %d",
						q.dev, run.slots[i-1].off, run.slots[i].off)
				}
			}
		}
	}
}

// TestReadAtCtxRespectsSealedExtent: reads past the sealed extent or at a
// negative offset are ErrRange; a zero-length read is an empty success.
func TestReadAtCtxRespectsSealedExtent(t *testing.T) {
	st := testStore(t, layout.FormECFRM)
	fill(t, st, 1000, 508)
	sealed := int64(st.Stripes()) * int64(st.Scheme().DataPerStripe()*st.ElementSize())
	if _, err := st.ReadAtCtx(context.Background(), sealed-1, 2, ReadOptions{}); !errors.Is(err, ErrRange) {
		t.Fatalf("read past sealed extent: err = %v, want ErrRange", err)
	}
	if _, err := st.ReadAtCtx(context.Background(), -1, 1, ReadOptions{}); !errors.Is(err, ErrRange) {
		t.Fatalf("negative offset: err = %v, want ErrRange", err)
	}
	res, err := st.ReadAtCtx(context.Background(), 0, 0, ReadOptions{})
	if err != nil || len(res.Data) != 0 {
		t.Fatalf("zero-length read = (%v, %v), want empty success", res, err)
	}
}

// TestDegradedGetPlansWhatHeadPlans: a degraded GET serves the plan HEAD
// (PlanRead) reports — planning reads the request, the failed set and the
// stripes' fills alone, so X-Max-Disk-Load and X-Read-Cost describe the
// read a GET makes: on full stripes and on a padded one, HEAD's loads are
// the device reads the GET made.
func TestDegradedGetPlansWhatHeadPlans(t *testing.T) {
	for _, sch := range []*core.Scheme{
		core.MustScheme(mustRS(6, 3), layout.FormECFRM),
		core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM),
	} {
		const elem = 64
		for _, length := range []int{2 * sch.DataPerStripe() * elem, (sch.DataPerStripe()+3)*elem + 5} {
			st := MustNew(sch, elem)
			data := fill(t, st, length, 509)
			st.FailDisk(0)
			head, err := st.PlanRead(0, length)
			if err != nil {
				t.Fatal(err)
			}
			st.ResetCounters()
			res, err := st.ReadAt(0, length)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Data, data) {
				t.Fatalf("%s, %d bytes: degraded GET returned wrong bytes", sch.Name(), length)
			}
			if !reflect.DeepEqual(res.Plan, head) {
				t.Fatalf("%s, %d bytes: the GET planned loads %v (max %d), HEAD %v (max %d)",
					sch.Name(), length, res.Plan.Loads, res.Plan.MaxLoad(), head.Loads, head.MaxLoad())
			}
			for d, want := range head.Loads {
				if got := st.Device(d).Reads(); got != want {
					t.Fatalf("%s, %d bytes: the GET read %d cells of device %d, HEAD planned %d",
						sch.Name(), length, got, d, want)
				}
			}
		}
	}
}

// paddedSet appends the benchmark's object set to st — objects of 1 to 20
// elements of random bytes, each flushed into stripes of its own, so most
// of every stripe is padding — and returns the objects and their offsets.
func paddedSet(t testing.TB, st *Store) (objs [][]byte, offs []int64) {
	t.Helper()
	for size := 1; size <= 20; size++ {
		offs = append(offs, st.NextOffset())
		objs = append(objs, fill(t, st, size*st.ElementSize(), int64(size)))
	}
	return objs, offs
}

// handedCells records every cell a decorated backend is asked to read.
type handedCells struct {
	mu    sync.Mutex
	cells []core.Access // Disk and, in Stripe, the slot
}

// countingBackend decorates a backend, logging each read run's cells.
type countingBackend struct {
	CellBackend
	log *handedCells
}

func (b countingBackend) ReadRuns(ctx context.Context, runs []Run) {
	b.log.mu.Lock()
	for _, r := range runs {
		for c := 0; c < r.Count; c++ {
			b.log.cells = append(b.log.cells, core.Access{Disk: r.Disk, Stripe: r.Slot + c})
		}
	}
	b.log.mu.Unlock()
	b.CellBackend.ReadRuns(ctx, runs)
}

// TestDegradedReadsNeverReadZeroCells reads the benchmark's object set
// under ecfrm with disks 3 and 8 failed, as single-get-degraded does: no
// zero cell reaches a backend, so LRC(6,2,2) reads exactly the 210
// elements the set holds (226 when padding was read) and RS(6,3), which
// needs a parity per lost element, 213 (242). Every object reads back, and
// each GET reads what HEAD plans.
func TestDegradedReadsNeverReadZeroCells(t *testing.T) {
	for _, tc := range []struct {
		code  codes.Code
		reads int
	}{
		{lrc.Must(6, 2, 2), 210},
		{mustRS(6, 3), 213},
	} {
		sch := core.MustScheme(tc.code, layout.FormECFRM)
		st := MustNew(sch, 64)
		objs, offs := paddedSet(t, st)
		handed := &handedCells{}
		st.WrapBackends(func(be CellBackend) CellBackend { return countingBackend{be, handed} })
		st.ResetCounters()
		st.FailDisk(3)
		st.FailDisk(8)
		for i, obj := range objs {
			head, err := st.PlanRead(offs[i], len(obj))
			if err != nil {
				t.Fatal(err)
			}
			res, err := st.ReadAt(offs[i], len(obj))
			if err != nil || !bytes.Equal(res.Data, obj) {
				t.Fatalf("%s: object %d read back wrong (%v)", sch.Name(), i, err)
			}
			if !reflect.DeepEqual(res.Plan, head) {
				t.Fatalf("%s: object %d: the GET planned %v, HEAD %v", sch.Name(), i, res.Plan.Reads, head.Reads)
			}
		}
		reads := 0
		for d := 0; d < sch.N(); d++ {
			reads += st.Device(d).Reads()
		}
		if reads != tc.reads || len(handed.cells) != reads {
			t.Fatalf("%s: the set's degraded GETs read %d cells (%d handed to backends), want %d",
				sch.Name(), reads, len(handed.cells), tc.reads)
		}
		lay, rows := sch.Layout(), sch.Layout().Rows()
		for _, c := range handed.cells {
			stripe := c.Stripe / rows
			if pos := (layout.Pos{Row: c.Stripe % rows, Col: lay.Col(stripe, c.Disk)}); sch.ZeroCell(st.fills, stripe, pos) {
				t.Fatalf("%s: device %d was handed zero cell %+v of stripe %d", sch.Name(), c.Disk, pos, stripe)
			}
		}
	}
}

// mustRS is rs.New for parameters the test knows are valid.
func mustRS(k, m int) *rs.Code {
	c, err := rs.New(k, m)
	if err != nil {
		panic(err)
	}
	return c
}
