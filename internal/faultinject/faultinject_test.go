package faultinject

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/store"
)

// spicyPlan exercises every policy field on three devices.
func spicyPlan(seed int64) Plan {
	return Plan{
		Seed: seed,
		Policies: []Policy{
			{Device: 0, Latency: 5 * time.Microsecond, Jitter: 10 * time.Microsecond,
				ReadErrProb: 0.3, WriteErrProb: 0.2, StuckProb: 0.1, CorruptProb: 0.25},
			{Device: 1, ReadErrProb: 0.5, FailAfterOps: 40},
			{Device: 2, StuckProb: 0.4, CorruptProb: 0.4},
		},
	}
}

// ops returns how many verdicts device dev has drawn.
func ops(in *Injector, dev int) int {
	ds := in.devs[dev]
	if ds == nil {
		return 0
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.ops
}

// faultString flattens a verdict for byte-for-byte sequence comparison.
func faultString(v verdict) string {
	return fmt.Sprintf("%+v", v)
}

// TestFaultSequenceDeterministic is the determinism contract: two injectors
// compiled from the same plan serve identical fault sequences to identical
// per-device operation sequences, verdict by verdict.
func TestFaultSequenceDeterministic(t *testing.T) {
	a, b := New(spicyPlan(1234)), New(spicyPlan(1234))
	for i := 0; i < 600; i++ {
		dev := i % 3
		if i%5 == 0 {
			fa, fb := a.draw(dev, true), b.draw(dev, true)
			if faultString(fa) != faultString(fb) {
				t.Fatalf("write op %d device %d: %q vs %q", i, dev, faultString(fa), faultString(fb))
			}
			continue
		}
		fa, fb := a.draw(dev, false), b.draw(dev, false)
		if faultString(fa) != faultString(fb) {
			t.Fatalf("read op %d device %d: %q vs %q", i, dev, faultString(fa), faultString(fb))
		}
	}
}

// TestFaultStreamsPerDeviceIndependent: the sequence a device serves
// depends only on its own operation count, not on traffic to other devices.
func TestFaultStreamsPerDeviceIndependent(t *testing.T) {
	a, b := New(spicyPlan(77)), New(spicyPlan(77))
	// Drive device 0 identically on both, but hammer device 2 only on b.
	for i := 0; i < 200; i++ {
		b.draw(2, false)
	}
	for i := 0; i < 200; i++ {
		fa, fb := a.draw(0, false), b.draw(0, false)
		if faultString(fa) != faultString(fb) {
			t.Fatalf("op %d: device 0 stream shifted by device 2 traffic: %q vs %q",
				i, faultString(fa), faultString(fb))
		}
	}
}

// TestDifferentSeedsDiffer: a different seed reshuffles the sequences.
func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(spicyPlan(1)), New(spicyPlan(2))
	for i := 0; i < 400; i++ {
		if faultString(a.draw(0, false)) != faultString(b.draw(0, false)) {
			return
		}
	}
	t.Fatal("seeds 1 and 2 produced identical 400-op fault sequences")
}

// TestFailAfterOps: the device serves exactly FailAfterOps operations and
// fail-stops on every one after.
func TestFailAfterOps(t *testing.T) {
	in := New(Plan{Seed: 9, Policies: []Policy{{Device: 0, FailAfterOps: 10}}})
	for i := 0; i < 10; i++ {
		if f := in.draw(0, false); f.failed {
			t.Fatalf("op %d fail-stopped before the threshold", i)
		}
	}
	for i := 0; i < 5; i++ {
		if f := in.draw(0, true); !f.failed {
			t.Fatalf("op %d after threshold did not fail-stop", 10+i)
		}
	}
	if got := ops(in, 0); got != 15 {
		t.Fatalf("Ops(0) = %d, want 15", got)
	}
}

// TestPlanJSONRoundTrip: marshal → ParsePlan is the identity.
func TestPlanJSONRoundTrip(t *testing.T) {
	p := spicyPlan(4242)
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePlan(blob)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", p) {
		t.Fatalf("round-trip changed the plan:\n%+v\n%+v", got, p)
	}
}

// TestParsePlanRejectsInvalid: every malformed shape is a loud ErrPlan.
func TestParsePlanRejectsInvalid(t *testing.T) {
	bad := map[string]string{
		"not json":       `{"seed":`,
		"prob above one": `{"seed":1,"policies":[{"device":0,"read_err_prob":1.5}]}`,
		"negative prob":  `{"seed":1,"policies":[{"device":0,"stuck_prob":-0.1}]}`,
		"negative lat":   `{"seed":1,"policies":[{"device":0,"latency":-5}]}`,
		"huge latency":   `{"seed":1,"policies":[{"device":0,"latency":99000000000000}]}`,
		"negative dev":   `{"seed":1,"policies":[{"device":-1}]}`,
		"dup device":     `{"seed":1,"policies":[{"device":3},{"device":3}]}`,
		"negative fails": `{"seed":1,"policies":[{"device":0,"fail_after_ops":-2}]}`,
	}
	for name, blob := range bad {
		if _, err := ParsePlan([]byte(blob)); !errors.Is(err, ErrPlan) {
			t.Errorf("%s: err = %v, want ErrPlan", name, err)
		}
	}
}

// TestScheduleReplaysIdentically is the end-to-end determinism test the
// acceptance criteria name: the same fault-plan seed driving the same
// single-threaded schedule against two fresh stores produces an identical
// observable outcome log, byte for byte.
func TestScheduleReplaysIdentically(t *testing.T) {
	run := func() string {
		scheme := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
		st := store.MustNew(scheme, 64)
		payload := make([]byte, 3*scheme.DataPerStripe()*64)
		rand.New(rand.NewSource(5)).Read(payload)
		if err := st.Append(payload); err != nil {
			t.Fatal(err)
		}
		install(st, spicyPlan(31337))

		var log bytes.Buffer
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 60; i++ {
			off := int64(rng.Intn(len(payload) - 256))
			res, err := st.ReadAt(off, 256)
			switch {
			case err != nil:
				fmt.Fprintf(&log, "%d:err=%v\n", i, err)
			case !bytes.Equal(res.Data, payload[off:off+256]):
				fmt.Fprintf(&log, "%d:WRONG BYTES\n", i)
			default:
				fmt.Fprintf(&log, "%d:ok cost=%.3f healed=%d\n", i, res.Plan.Cost(), res.Healed)
			}
		}
		fmt.Fprintf(&log, "check=%v\n", CheckStore(st, payload))
		return log.String()
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("same seed, different schedules:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if bytes.Contains([]byte(first), []byte("WRONG BYTES")) {
		t.Fatalf("schedule returned silent wrong bytes:\n%s", first)
	}
}

// TestCheckStoreCatchesViolations: the checker must actually detect wrong
// bytes and parity damage, not just bless everything.
func TestCheckStoreCatchesViolations(t *testing.T) {
	scheme := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	st := store.MustNew(scheme, 64)
	payload := make([]byte, 2*scheme.DataPerStripe()*64)
	rand.New(rand.NewSource(6)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := CheckStore(st, payload); err != nil {
		t.Fatalf("clean store flagged: %v", err)
	}
	// Wrong expectation ⇒ decode-correctness failure.
	mangled := append([]byte(nil), payload...)
	mangled[17] ^= 0xff
	if err := CheckStore(st, mangled); err == nil {
		t.Fatal("checker missed a byte mismatch")
	}
	// A corrupt cell is healable ⇒ still within tolerance.
	if err := st.CorruptCell(0, layout.Pos{Row: 1, Col: 3}); err != nil {
		t.Fatal(err)
	}
	if err := CheckStore(st, payload); err != nil {
		t.Fatalf("healable corruption flagged: %v", err)
	}
	if got := st.VerifyChecksums(); got != nil {
		t.Fatalf("CheckStore did not heal: %+v", got)
	}
}

// TestCheckStoreSuspendsInjection: the checker's own reads must not be
// sabotaged by the plan under test, and the plan must be restored after.
func TestCheckStoreSuspendsInjection(t *testing.T) {
	scheme := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	st := store.MustNew(scheme, 64)
	payload := make([]byte, scheme.DataPerStripe()*64)
	rand.New(rand.NewSource(7)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}
	// Every device always errors: any un-suspended read would fail.
	pols := make([]Policy, scheme.N())
	for d := range pols {
		pols[d] = Policy{Device: d, ReadErrProb: 1}
	}
	in := install(st, Plan{Seed: 1, Policies: pols})
	if err := CheckStore(st, payload); err != nil {
		t.Fatalf("CheckStore under a total-outage plan: %v", err)
	}
	before := ops(in, 0)
	if _, err := st.ReadAt(0, len(payload)); !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("read after CheckStore: %v; want the restored plan's ErrUnavailable", err)
	}
	if ops(in, 0) == before {
		t.Fatal("CheckStore did not restore the installed injector")
	}
}
