package ecfrm

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

func TestPublicQuickstartFlow(t *testing.T) {
	// The README's quickstart, as a test: encode, fail a disk, read
	// degraded, recover, verify.
	code, err := NewLRC(6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := NewScheme(code, FormECFRM)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(scheme, 4096)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096*scheme.DataPerStripe()*2)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := st.ReadAt(0, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, payload) {
		t.Fatal("normal read mismatch")
	}
	st.FailDisk(3)
	res, err = st.ReadAt(100, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, payload[100:9100]) {
		t.Fatal("degraded read mismatch")
	}
	if _, err := st.RecoverDisk(3); err != nil {
		t.Fatal(err)
	}
	if bad, err := st.Scrub(); err != nil || bad != nil {
		t.Fatalf("scrub after recovery: %v %v", bad, err)
	}
}

func TestPublicRSMDS(t *testing.T) {
	code, err := NewRS(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if code.FaultTolerance() != 3 {
		t.Fatalf("RS(6,3) tolerance = %d", code.FaultTolerance())
	}
	for _, form := range []Form{FormStandard, FormRotated, FormECFRM} {
		scheme, err := NewScheme(code, form)
		if err != nil {
			t.Fatal(err)
		}
		if scheme.FaultTolerance() != 3 {
			t.Fatalf("%s: tolerance %d", scheme.Name(), scheme.FaultTolerance())
		}
	}
}

func TestPublicPlanAPIs(t *testing.T) {
	code, _ := NewLRC(6, 2, 2)
	scheme, _ := NewScheme(code, FormECFRM)
	p, err := scheme.PlanNormalRead(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxLoad() != 1 {
		t.Fatalf("EC-FRM 8-element read max load = %d, want 1 (Figure 7a)", p.MaxLoad())
	}
	pd, err := scheme.PlanDegradedRead(0, 8, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if pd.Cost() <= 1.0 && pd.Loads[2] != 0 {
		t.Fatal("degraded plan malformed")
	}
	pb, err := scheme.PlanDegradedReadBiased(0, 8, []int{2}, make([]int, scheme.N()))
	if err != nil {
		t.Fatal(err)
	}
	if pb.TotalReads() != pd.TotalReads() || pb.MaxLoad() != pd.MaxLoad() {
		t.Fatal("a zero bias changed the degraded plan")
	}
}

func TestPublicDiskArrayAndSpeed(t *testing.T) {
	arr, err := NewDiskArray(10, DefaultDiskConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	d := arr.ServeRead([]int{1, 1, 0, 0, 0, 0, 0, 0, 0, 0}, 1<<20)
	if d <= 0 {
		t.Fatal("non-positive service time")
	}
	if s := SpeedMBps(2<<20, d); s <= 0 {
		t.Fatal("non-positive speed")
	}
	if got := SpeedMBps(5e6, 50*time.Millisecond); got != 100 {
		t.Fatalf("SpeedMBps = %v, want 100", got)
	}
}

func TestPublicWorkload(t *testing.T) {
	gen, err := NewWorkload(WorkloadConfig{TotalElements: 100, Disks: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Degraded()
	if tr.FailedDisk < 0 || tr.FailedDisk >= 10 || tr.Count < 1 || tr.Count > 20 {
		t.Fatalf("bad trial %+v", tr)
	}
}
