package faultinject

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
	"repro/internal/store"
)

// chaosSeeds returns the fixed reproduction seeds plus an optional extra
// from CHAOS_SEED (the `make chaos` target passes a time-derived one,
// logged here so any failure names the seed that reproduces it).
func chaosSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2}
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		extra, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", env, err)
		}
		t.Logf("chaos: running extra seed %d (reproduce with CHAOS_SEED=%d)", extra, extra)
		seeds = append(seeds, extra)
	}
	return seeds
}

// chaosCells is the {RS, LRC} × {standard, rotated, ecfrm} grid the
// chaos suite sweeps.
func chaosCells(t testing.TB) map[string]*core.Scheme {
	t.Helper()
	cells := make(map[string]*core.Scheme)
	codesList := map[string]codes.Code{
		"rs":  mustRS(6, 3),
		"lrc": lrc.Must(6, 2, 2),
	}
	for cname, c := range codesList {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM} {
			cells[fmt.Sprintf("%s-%s", cname, form)] = core.MustScheme(c, form)
		}
	}
	return cells
}

// leakCheck asserts the test leaves no goroutines behind, giving stragglers
// a grace window to drain.
func leakCheck(t *testing.T) {
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

// randomPlan draws a moderate per-device fault mix: all policy knobs
// exercised, latencies kept tiny so schedules stay fast, and fail-after
// thresholds high enough that at most transient outages occur mid-schedule.
func randomPlan(rng *rand.Rand, n int) Plan {
	p := Plan{Seed: rng.Int63()}
	for d := 0; d < n; d++ {
		if rng.Float64() < 0.4 {
			continue // leave some devices fault-free
		}
		pol := Policy{
			Device:      d,
			Latency:     time.Duration(rng.Intn(20)) * time.Microsecond,
			Jitter:      time.Duration(rng.Intn(30)) * time.Microsecond,
			ReadErrProb: rng.Float64() * 0.25,
			StuckProb:   rng.Float64() * 0.08,
			CorruptProb: rng.Float64() * 0.2,
		}
		if rng.Float64() < 0.3 {
			pol.WriteErrProb = rng.Float64() * 0.1
		}
		if rng.Float64() < 0.25 {
			pol.FailAfterOps = 300 + rng.Intn(500)
		}
		p.Policies = append(p.Policies, pol)
	}
	return p
}

// install compiles plan beneath every device of st, stuck runs stalling
// 200 µs so schedules stay fast, and returns the injector.
func install(st *store.Store, plan Plan) *Injector {
	in := New(plan)
	in.StuckTimeout = 200 * time.Microsecond
	st.WrapBackends(in.Wrap)
	return in
}

// chaosStore builds a store holding a seeded payload.
func chaosStore(t *testing.T, scheme *core.Scheme, seed int64, stripes int) (*store.Store, []byte) {
	t.Helper()
	st := store.MustNew(scheme, 64)
	payload := make([]byte, stripes*scheme.DataPerStripe()*64)
	rand.New(rand.NewSource(seed)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}
	return st, payload
}

// TestChaosSeededWithinTolerance drives randomized fault schedules whose
// permanent damage stays within each scheme's tolerance — transient faults
// on every device, disks failing and recovering, cells corrupting, bytes
// appended — and asserts two things throughout: no read ever returns
// silent wrong bytes, and the invariant checker passes at the end.
func TestChaosSeededWithinTolerance(t *testing.T) {
	for name, scheme := range chaosCells(t) {
		for _, seed := range chaosSeeds(t) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				leakCheck(t)
				runWithinToleranceSchedule(t, scheme, seed)
			})
		}
	}
}

func runWithinToleranceSchedule(t *testing.T, scheme *core.Scheme, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	st, payload := chaosStore(t, scheme, seed, 4)
	install(st, randomPlan(rng, scheme.N()))

	tol := scheme.FaultTolerance()
	elem := st.ElementSize()
	// Outstanding corruptions, one per stripe at most. Stripes never share a
	// code group, so with failed disks capped at tol-1 no group ever carries
	// more than tol erasures — the schedule stays within tolerance by
	// construction. (A read may heal an entry early; windDown tolerates that.)
	corrupted := make(map[int]layout.Pos)
	for step := 0; step < 50; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // read a random range; correct bytes or loud error
			off := rng.Intn(len(payload) - 1)
			ln := 1 + rng.Intn(min(len(payload)-off, 3*scheme.DataPerStripe()*elem))
			res, err := st.ReadAt(int64(off), ln)
			if err == nil && !bytes.Equal(res.Data, payload[off:off+ln]) {
				t.Fatalf("step %d: silent wrong bytes at [%d,+%d)", step, off, ln)
			}
		case 5: // fail a disk, leaving headroom for one corruption per group
			if len(st.FailedDisks()) < tol-1 {
				st.FailDiskWithinTolerance(rng.Intn(scheme.N()))
			}
		case 6: // recover a failed disk (may fail transiently; retried later)
			if failed := st.FailedDisks(); len(failed) > 0 {
				st.RecoverDisk(failed[rng.Intn(len(failed))])
			}
		case 7: // corrupt one cell of a live disk, max one outstanding per stripe
			stripe := rng.Intn(st.Stripes())
			if _, dirty := corrupted[stripe]; !dirty {
				lay := scheme.Layout()
				pos := layout.Pos{Row: rng.Intn(lay.Rows()), Col: rng.Intn(lay.N())}
				if slices.Contains(st.FailedDisks(), lay.Disk(stripe, pos.Col)) {
					// A recovery the plan's write faults cut short leaves
					// the failed disk's replacement partly written: no
					// cell there to corrupt, and recovery rewrites it.
					continue
				}
				if err := st.CorruptCell(stripe, pos); err != nil {
					t.Fatalf("step %d: corrupt: %v", step, err)
				}
				corrupted[stripe] = pos
			}
		case 8, 9: // append a few elements under write faults
			if len(st.FailedDisks()) > 0 {
				continue
			}
			upd := make([]byte, (1+rng.Intn(3))*elem)
			rng.Read(upd)
			// A faulted commit keeps every byte it was handed and seals it
			// on a later commit, so the model takes them either way.
			_ = st.Append(upd)
			payload = append(payload, upd...)
		}
	}
	windDown(t, st, corrupted)
	if err := CheckStore(st, payload); err != nil {
		t.Fatalf("invariants violated after within-tolerance schedule: %v", err)
	}
}

// windDown clears the fault plan and repairs all tracked permanent damage:
// first heal outstanding corruptions (cells on failed disks are skipped —
// recovery rebuilds them clean), then recover every failed disk, then seal
// whatever a faulted commit left buffered. After a within-tolerance schedule
// none of this may fail.
func windDown(t *testing.T, st *store.Store, corrupted map[int]layout.Pos) {
	t.Helper()
	st.WrapBackends(nil)
	lay := st.Scheme().Layout()
	failed := make(map[int]bool)
	for _, d := range st.FailedDisks() {
		failed[d] = true
	}
	for stripe, pos := range corrupted {
		if failed[lay.Disk(stripe, pos.Col)] {
			continue
		}
		if _, err := st.HealStripe(stripe); err != nil {
			t.Fatalf("final heal of stripe %d cell (%d,%d): %v", stripe, pos.Row, pos.Col, err)
		}
	}
	for _, d := range st.FailedDisks() {
		if _, err := st.RecoverDisk(d); err != nil {
			t.Fatalf("final recovery of disk %d: %v", d, err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
}

// TestChaosConcurrentReaders runs the fault schedule against a pool of
// concurrent readers under -race: failures, recoveries, corruption, and
// healing churn in the foreground while readers continuously assert the
// no-silent-wrong-bytes contract (content never changes in this variant).
func TestChaosConcurrentReaders(t *testing.T) {
	cells := chaosCells(t)
	for _, name := range []string{"rs-ecfrm", "lrc-ecfrm", "rs-rotated"} {
		scheme := cells[name]
		for _, seed := range chaosSeeds(t) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				leakCheck(t)
				rng := rand.New(rand.NewSource(seed))
				st, payload := chaosStore(t, scheme, seed, 3)
				install(st, randomPlan(rng, scheme.N()))

				var wg sync.WaitGroup
				stop := make(chan struct{})
				for r := 0; r < 4; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rrng := rand.New(rand.NewSource(seed + int64(r)))
						for {
							select {
							case <-stop:
								return
							default:
							}
							off := rrng.Intn(len(payload) - 1)
							ln := 1 + rrng.Intn(min(len(payload)-off, 2048))
							res, err := st.ReadAt(int64(off), ln)
							if err == nil && !bytes.Equal(res.Data, payload[off:off+ln]) {
								t.Errorf("reader %d: silent wrong bytes at [%d,+%d)", r, off, ln)
								return
							}
						}
					}(r)
				}

				tol := scheme.FaultTolerance()
				corrupted := make(map[int]layout.Pos)
				for step := 0; step < 25; step++ {
					switch rng.Intn(3) {
					case 0:
						if len(st.FailedDisks()) < tol-1 {
							st.FailDiskWithinTolerance(rng.Intn(scheme.N()))
						}
					case 1:
						if failed := st.FailedDisks(); len(failed) > 0 {
							st.RecoverDisk(failed[0])
						}
					case 2:
						stripe := rng.Intn(st.Stripes())
						if _, dirty := corrupted[stripe]; !dirty {
							lay := scheme.Layout()
							pos := layout.Pos{Row: rng.Intn(lay.Rows()), Col: rng.Intn(lay.N())}
							if st.CorruptCell(stripe, pos) == nil {
								corrupted[stripe] = pos
							}
						}
					}
					time.Sleep(time.Millisecond)
				}
				close(stop)
				wg.Wait()

				windDown(t, st, corrupted)
				if err := CheckStore(st, payload); err != nil {
					t.Fatalf("invariants violated: %v", err)
				}
			})
		}
	}
}

// TestChaosOutOfToleranceFailsLoudly: schedules that exceed tolerance must
// fail loudly — reads error, the invariant checker reports a violation, and
// no path returns fabricated bytes.
func TestChaosOutOfToleranceFailsLoudly(t *testing.T) {
	for name, scheme := range chaosCells(t) {
		if !strings.HasPrefix(name, "rs-") {
			continue // LRC recovers some beyond-guarantee patterns; MDS codes give a crisp contract
		}
		for _, seed := range chaosSeeds(t) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				leakCheck(t)
				rng := rand.New(rand.NewSource(seed))
				st, payload := chaosStore(t, scheme, seed, 2)
				install(st, randomPlan(rng, scheme.N()))

				perm := rng.Perm(scheme.N())
				for _, d := range perm[:scheme.FaultTolerance()+1] {
					st.FailDisk(d) // deliberately unchecked: push past tolerance
				}
				res, err := st.ReadAt(0, len(payload))
				if err == nil {
					t.Fatalf("read through %d failures succeeded with data %v...",
						scheme.FaultTolerance()+1, res.Data[:8])
				}
				if err := CheckStore(st, payload); err == nil {
					t.Fatal("invariant checker blessed an out-of-tolerance store")
				}
			})
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
