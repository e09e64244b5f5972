package store

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
)

// stubBackend decorates a device's backend for tests: before the device
// serves a run, read or write (when set) is asked about the run's device,
// and an error fails the run — a write, its whole batch — instead.
type stubBackend struct {
	CellBackend
	read, write func(ctx context.Context, dev int) error
}

func (b stubBackend) ReadRuns(ctx context.Context, runs []Run) {
	for i := range runs {
		if b.read != nil {
			if err := b.read(ctx, runs[i].Disk); err != nil {
				runs[i].Err, runs[i].Data, runs[i].CRCs = err, nil, nil
				continue
			}
		}
		b.CellBackend.ReadRuns(ctx, runs[i:i+1])
	}
}

func (b stubBackend) WriteRuns(ctx context.Context, runs []Run, sync bool) error {
	for _, r := range runs {
		if b.write == nil {
			break
		}
		if err := b.write(ctx, r.Disk); err != nil {
			return err
		}
	}
	return b.CellBackend.WriteRuns(ctx, runs, sync)
}

// stub puts read and write hooks beneath every device of s.
func stub(s *Store, read, write func(ctx context.Context, dev int) error) {
	s.WrapBackends(func(be CellBackend) CellBackend { return stubBackend{be, read, write} })
}

// onlyDev fails device dev's runs with err and lets the rest through.
func onlyDev(dev int, err error) func(context.Context, int) error {
	return func(_ context.Context, d int) error {
		if d == dev {
			return err
		}
		return nil
	}
}

// stall holds a run for d, or until its context ends, then lets it through
// (fail nil) or fails it.
func stall(d time.Duration, fail error) func(context.Context, int) error {
	return func(ctx context.Context, _ int) error {
		select {
		case <-time.After(d):
			return fail
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// on applies hook to device dev's runs only.
func on(dev int, hook func(context.Context, int) error) func(context.Context, int) error {
	return func(ctx context.Context, d int) error {
		if d == dev {
			return hook(ctx, d)
		}
		return nil
	}
}

// TestReadFallsBackOnErroringDevice: a device that always errors (but is
// not marked failed) must be routed around via the degraded-read fallback,
// returning correct bytes from a plan that never touches it.
func TestReadFallsBackOnErroringDevice(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	want := fill(t, s, 4*s.stripeBytes(), 11)
	stub(s, onlyDev(0, errors.New("io error")), nil)

	res, err := s.ReadAt(0, len(want))
	if err != nil {
		t.Fatalf("ReadAt through erroring device: %v", err)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatal("fallback read returned wrong bytes")
	}
	for _, a := range res.Plan.Reads {
		if a.Disk == 0 {
			t.Fatalf("final plan still reads unavailable device 0: %+v", a)
		}
	}
}

// TestReadFallsBackOnStuckDevice: a device whose backend stalls and then
// fails is routed around: the read degrades instead of failing.
func TestReadFallsBackOnStuckDevice(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	want := fill(t, s, 2*s.stripeBytes(), 12)
	stub(s, on(3, stall(50*time.Millisecond, errors.New("stuck"))), nil)

	start := time.Now()
	res, err := s.ReadAt(0, len(want))
	if err != nil {
		t.Fatalf("ReadAt through stuck device: %v", err)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatal("fallback read returned wrong bytes")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stuck device stalled the read for %v", elapsed)
	}
}

// TestReadFallsBackOnInjectedFailStop: a backend that reports a fail-stop
// (ErrFailed, as a fault plan's fail-after-N does) degrades reads exactly
// like a FailDisk, without the device ever being marked failed.
func TestReadFallsBackOnInjectedFailStop(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	want := fill(t, s, 2*s.stripeBytes(), 13)
	stub(s, onlyDev(5, ErrFailed), nil)

	res, err := s.ReadAt(0, len(want))
	if err != nil {
		t.Fatalf("ReadAt through fail-stopped device: %v", err)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatal("fallback read returned wrong bytes")
	}
	if len(s.FailedDisks()) != 0 {
		t.Fatal("injected fail-stop must not mark the device failed")
	}
	runs := []Run{{Disk: 5, Count: 1}}
	if s.readBatch(context.Background(), runs); !errors.Is(runs[0].Err, ErrFailed) || !errors.Is(runs[0].Err, ErrUnavailable) {
		t.Fatalf("a fail-stopped run settles as %v; want ErrFailed and ErrUnavailable both", runs[0].Err)
	}
}

// TestReadUnavailableBeyondTolerance: when more devices are unavailable
// than the code tolerates, the read fails loudly with ErrUnavailable —
// never silent wrong bytes.
func TestReadUnavailableBeyondTolerance(t *testing.T) {
	s := testStore(t, layout.FormECFRM) // LRC(6,2,2): tolerance 3
	want := fill(t, s, s.stripeBytes(), 14)
	bad := map[int]bool{0: true, 1: true, 2: true, 3: true}
	stub(s, func(_ context.Context, d int) error {
		if bad[d] {
			return errors.New("io error")
		}
		return nil
	}, nil)

	_, err := s.ReadAt(0, len(want))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}

	// The failure is transient: lifting the decorator restores the read.
	s.WrapBackends(nil)
	res, err := s.ReadAt(0, len(want))
	if err != nil || !bytes.Equal(res.Data, want) {
		t.Fatalf("read after clearing faults: %v", err)
	}
}

// TestInjectedLatencyIsServed: a slow backend is waited for, not treated
// as a fault.
func TestInjectedLatencyIsServed(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	want := fill(t, s, s.stripeBytes(), 15)
	stub(s, stall(100*time.Microsecond, nil), nil)
	res, err := s.ReadAt(0, len(want))
	if err != nil || !bytes.Equal(res.Data, want) {
		t.Fatalf("latency-only plan broke the read: %v", err)
	}
}

// TestWriteFaultAbortsSealCleanly: a seal one device's backend refuses
// publishes nothing — no stripe, bytes retryable after the fault clears —
// and counts one error against that device alone.
func TestWriteFaultAbortsSealCleanly(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	stub(s, nil, onlyDev(2, errors.New("io error")))

	data := make([]byte, s.stripeBytes())
	for i := range data {
		data[i] = byte(i)
	}
	if err := s.Append(data); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Append through write fault: err = %v, want ErrUnavailable", err)
	}
	if s.Stripes() != 0 {
		t.Fatalf("faulted seal left %d stripes", s.Stripes())
	}
	for d, n := range s.DiskErrorCounts() {
		want := int64(0)
		if d == 2 {
			want = 1
		}
		if n != want {
			t.Fatalf("device %d error count after the refused seal = %d, want %d", d, n, want)
		}
	}

	// Clearing the fault and flushing the retained buffer must succeed.
	s.WrapBackends(nil)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush after clearing faults: %v", err)
	}
	res, err := s.ReadAt(0, len(data))
	if err != nil || !bytes.Equal(res.Data, data) {
		t.Fatalf("read after retried seal: %v", err)
	}
}

// TestHealRevalidatesToleranceUnderWriteLock is the regression test for the
// shared→exclusive heal escalation: a concurrent FailDisk in the lock gap
// can push the corrupt cell's group past tolerance mid-heal. The heal must
// re-validate under the write lock and fail loudly (ErrUnrecoverable) —
// never rewrite from an over-erased group, never return wrong bytes.
func TestHealRevalidatesToleranceUnderWriteLock(t *testing.T) {
	// RS(6,3) EC-FRM: every group has one element per disk, tolerance 3.
	sch := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	s := MustNew(sch, 64)
	fill(t, s, s.stripeBytes(), 17)
	if err := s.CorruptCell(0, layout.Pos{Row: 0, Col: 0}); err != nil {
		t.Fatal(err)
	}
	// In the window between corruption detection (shared lock) and healing
	// (exclusive lock), three more disks fail: together with the corrupt
	// cell that is four erasures in its group — beyond RS(6,3)'s reach.
	s.testBeforeHeal = func() {
		s.FailDisk(1)
		s.FailDisk(2)
		s.FailDisk(3)
	}
	_, err := s.ReadAt(0, s.ElementSize())
	if err == nil {
		t.Fatal("read healed through an over-erased group; want a loud error")
	}
	if !errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

// TestHealSurvivesInterleavedFailureWithinTolerance: the same interleaving
// with the group still within tolerance must heal and return clean bytes.
func TestHealSurvivesInterleavedFailureWithinTolerance(t *testing.T) {
	sch := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	s := MustNew(sch, 64)
	want := fill(t, s, s.stripeBytes(), 18)
	if err := s.CorruptCell(0, layout.Pos{Row: 0, Col: 0}); err != nil {
		t.Fatal(err)
	}
	s.testBeforeHeal = func() {
		s.FailDisk(1)
		s.FailDisk(2)
	}
	res, err := s.ReadAt(0, len(want))
	if err != nil {
		t.Fatalf("within-tolerance interleaved heal: %v", err)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatal("interleaved heal returned wrong bytes")
	}
	if res.Healed == 0 {
		t.Fatal("read did not report the heal")
	}
}

// TestHealInsideCoalescedRun: under the standard layout each device's cells
// of a multi-stripe read form one run, so corrupting the middle cell of a
// 3-cell run fails the whole run's checksum. The exclusive retry re-reads
// that run cell by cell and rebuilds only the corrupt cell: one heal, one
// device write, exact bytes, clean checksums, even with the corrupt device
// slowed before the retry.
func TestHealInsideCoalescedRun(t *testing.T) {
	// The subtest keeps the name it had beside a hedged variant.
	t.Run("hedge=false", func(t *testing.T) {
		sch := core.MustScheme(mustRS(6, 3), layout.FormStandard)
		s := MustNew(sch, 64)
		const stripes, dev = 3, 2
		want := fill(t, s, stripes*s.stripeBytes(), 20)
		plan, err := sch.PlanNormalRead(0, stripes*sch.DataPerStripe())
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range buildRuns(sch, plan.Reads) {
			if q.dev == dev && (len(q.runs) != 1 || len(q.runs[0].slots) != stripes) {
				t.Fatalf("device %d runs %+v, want one %d-cell run", dev, q.runs, stripes)
			}
		}
		if err := s.CorruptCell(1, layout.Pos{Row: 0, Col: dev}); err != nil {
			t.Fatal(err)
		}
		s.testBeforeHeal = func() {
			stub(s, on(dev, stall(40*time.Millisecond, nil)), nil)
		}
		writes := s.Device(dev).Writes()
		res, err := s.ReadAt(0, len(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, want) {
			t.Fatal("healing read returned wrong bytes")
		}
		if res.Healed != 1 {
			t.Fatalf("Healed = %d, want 1", res.Healed)
		}
		if got := s.Device(dev).Writes() - writes; got != 1 {
			t.Fatalf("device %d took %d writes, want 1 (the healed cell)", dev, got)
		}
		if bad := s.VerifyChecksums(); bad != nil {
			t.Fatalf("checksums after heal: %+v", bad)
		}
	})
}

// TestHealExported: HealStripe repairs exactly the corrupt cell and
// reports it — nothing on a clean stripe, one cell after one corruption.
func TestHealExported(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	want := fill(t, s, s.stripeBytes(), 19)
	if healed, err := s.HealStripe(0); err != nil || healed != 0 {
		t.Fatalf("HealStripe on a clean stripe = (%d, %v), want (0, nil)", healed, err)
	}
	if err := s.CorruptCell(0, layout.Pos{Row: 0, Col: 4}); err != nil {
		t.Fatal(err)
	}
	if healed, err := s.HealStripe(0); err != nil || healed != 1 {
		t.Fatalf("HealStripe after one corruption = (%d, %v), want (1, nil)", healed, err)
	}
	if got := s.VerifyChecksums(); got != nil {
		t.Fatalf("checksums after HealStripe: %+v", got)
	}
	res, err := s.ReadAt(0, len(want))
	if err != nil || !bytes.Equal(res.Data, want) {
		t.Fatalf("read after HealStripe: %v", err)
	}
}

// TestWrapBackendsBumpsEpoch: installing, replacing, or lifting a backend
// decorator must invalidate epoch-keyed decoded-read caches, and
// WrapBackends hands back the decorator it replaced.
func TestWrapBackendsBumpsEpoch(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	before := s.Epoch()
	stub(s, nil, nil)
	if s.Epoch() == before {
		t.Fatal("WrapBackends did not bump the epoch")
	}
	mid := s.Epoch()
	if prev := s.WrapBackends(nil); prev == nil {
		t.Fatal("WrapBackends(nil) did not return the decorator it lifted")
	}
	if s.Epoch() == mid {
		t.Fatal("lifting the decorator did not bump the epoch")
	}
	if _, wrapped := s.Device(0).be.(stubBackend); wrapped {
		t.Fatal("a lifted decorator still sits under device 0")
	}
}

// TestDiskElementsDuringWrapBackends: the repair census asks every device
// for its cell count while a fault plan may be installed or lifted; run
// under -race, the two must not touch a device's backend unordered.
func TestDiskElementsDuringWrapBackends(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fill(t, s, s.stripeBytes(), 23)
	want := s.DiskElements(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			stub(s, nil, nil)
			s.WrapBackends(nil)
		}
	}()
	for i := 0; i < 50; i++ {
		if got := s.DiskElements(0); got != want {
			t.Errorf("device 0 holds %d cells during WrapBackends, want %d", got, want)
		}
	}
	<-done
}
