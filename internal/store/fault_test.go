package store

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
)

// stubInjector adapts plain funcs to the FaultInjector interface so tests
// can script exact per-device behaviour.
type stubInjector struct {
	read  func(dev int) Fault
	write func(dev int) Fault
}

func (s stubInjector) ReadFault(dev int) Fault {
	if s.read != nil {
		return s.read(dev)
	}
	return Fault{}
}

func (s stubInjector) WriteFault(dev int) Fault {
	if s.write != nil {
		return s.write(dev)
	}
	return Fault{}
}

// onlyDev returns a fault for one device and no fault for the rest.
func onlyDev(dev int, f Fault) func(int) Fault {
	return func(d int) Fault {
		if d == dev {
			return f
		}
		return Fault{}
	}
}

func fastRetries(s *Store) { s.SetRetryPolicy(200*time.Microsecond, 2) }

// TestReadFallsBackOnErroringDevice: a device that always errors (but is
// not marked failed) must be routed around via the degraded-read fallback,
// returning correct bytes from a plan that never touches it.
func TestReadFallsBackOnErroringDevice(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fastRetries(s)
	want := fill(t, s, 4*s.stripeBytes(), 11)
	s.SetFaultInjector(stubInjector{read: onlyDev(0, Fault{Err: errors.New("io error")})})

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

// TestReadFallsBackOnStuckDevice: a stuck device times out per-op and the
// read degrades around it instead of hanging.
func TestReadFallsBackOnStuckDevice(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fastRetries(s)
	want := fill(t, s, 2*s.stripeBytes(), 12)
	s.SetFaultInjector(stubInjector{read: onlyDev(3, Fault{Stuck: true})})

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

// TestReadFallsBackOnInjectedFailStop: a fault-plan fail-stop (fail-after-N
// tripping) degrades reads exactly like a FailDisk, without the device ever
// being marked failed.
func TestReadFallsBackOnInjectedFailStop(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fastRetries(s)
	want := fill(t, s, 2*s.stripeBytes(), 13)
	s.SetFaultInjector(stubInjector{read: onlyDev(5, Fault{Failed: true})})

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
}

// TestReadUnavailableBeyondTolerance: when more devices are unavailable
// than the code tolerates, the read fails loudly with ErrUnavailable —
// never silent wrong bytes.
func TestReadUnavailableBeyondTolerance(t *testing.T) {
	s := testStore(t, layout.FormECFRM) // LRC(6,2,2): tolerance 3
	fastRetries(s)
	want := fill(t, s, s.stripeBytes(), 14)
	bad := map[int]bool{0: true, 1: true, 2: true, 3: true}
	s.SetFaultInjector(stubInjector{read: func(d int) Fault {
		if bad[d] {
			return Fault{Err: errors.New("io error")}
		}
		return Fault{}
	}})

	_, err := s.ReadAt(0, len(want))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}

	// The failure is transient: clearing the plan restores the read.
	s.SetFaultInjector(nil)
	res, err := s.ReadAt(0, len(want))
	if err != nil || !bytes.Equal(res.Data, want) {
		t.Fatalf("read after clearing faults: %v", err)
	}
}

// TestInjectedLatencyIsServed: latency within the timeout is slept, not
// treated as a fault.
func TestInjectedLatencyIsServed(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	want := fill(t, s, s.stripeBytes(), 15)
	s.SetFaultInjector(stubInjector{read: func(int) Fault {
		return Fault{Delay: 100 * time.Microsecond}
	}})
	res, err := s.ReadAt(0, len(want))
	if err != nil || !bytes.Equal(res.Data, want) {
		t.Fatalf("latency-only plan broke the read: %v", err)
	}
}

// TestWriteFaultAbortsSealCleanly: a seal that cannot clear its write gate
// fails whole — no partial stripe, bytes retryable after the fault clears.
func TestWriteFaultAbortsSealCleanly(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fastRetries(s)
	s.SetFaultInjector(stubInjector{write: onlyDev(2, Fault{Err: errors.New("io error")})})

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

	// Clearing the fault and flushing the retained buffer must succeed.
	s.SetFaultInjector(nil)
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
		s.SetRetryPolicy(time.Second, 0)
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
			s.SetFaultInjector(stubInjector{read: onlyDev(dev, Fault{Delay: 40 * time.Millisecond})})
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

// TestSetFaultInjectorBumpsEpoch: installing, replacing, or clearing a
// fault plan must invalidate epoch-keyed decoded-read caches.
func TestSetFaultInjectorBumpsEpoch(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	before := s.Epoch()
	s.SetFaultInjector(stubInjector{})
	if s.Epoch() == before {
		t.Fatal("SetFaultInjector did not bump the epoch")
	}
	mid := s.Epoch()
	s.SetFaultInjector(nil)
	if s.Epoch() == mid {
		t.Fatal("clearing the injector did not bump the epoch")
	}
}
