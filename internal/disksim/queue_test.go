package disksim

import (
	"testing"
	"time"
)

// noJitter returns a deterministic config for exact-arithmetic tests.
func noJitter() Config {
	c := DefaultConfig()
	c.PositioningJitter = 0
	c.BandwidthJitter = 0
	return c
}

func TestSimulateQueuedValidation(t *testing.T) {
	a := MustArray(2, noJitter(), 1)
	if _, err := a.SimulateQueued([]Request{{ID: 0, Loads: []int{1}}}, 1e6); err == nil {
		t.Fatal("mismatched loads must fail")
	}
	if _, err := a.SimulateQueued([]Request{{ID: 0, Arrival: -1, Loads: []int{1, 0}}}, 1e6); err == nil {
		t.Fatal("negative arrival must fail")
	}
	out, err := a.SimulateQueued(nil, 1e6)
	if err != nil || len(out) != 0 {
		t.Fatal("empty simulation must succeed")
	}
}

func TestSimulateQueuedSingleRequestEqualsServeTime(t *testing.T) {
	a := MustArray(3, noJitter(), 2)
	per := a.DiskTime(0, 1, 1e6) // deterministic per-access time
	comps, err := a.SimulateQueued([]Request{{ID: 0, Loads: []int{1, 2, 0}}}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if comps[0].Latency() != 2*per {
		t.Fatalf("latency = %v, want %v (slowest disk has 2 accesses)", comps[0].Latency(), 2*per)
	}
}

func TestSimulateQueuedFIFOContention(t *testing.T) {
	// Two identical requests hitting the same single disk back to back:
	// the second waits for the first.
	a := MustArray(1, noJitter(), 3)
	per := a.DiskTime(0, 1, 1e6)
	comps, err := a.SimulateQueued([]Request{
		{ID: 0, Arrival: 0, Loads: []int{1}},
		{ID: 1, Arrival: 0, Loads: []int{1}},
	}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if comps[0].Finish != per {
		t.Fatalf("first finish %v, want %v", comps[0].Finish, per)
	}
	if comps[1].Finish != 2*per {
		t.Fatalf("second finish %v, want %v (queued)", comps[1].Finish, 2*per)
	}
	if comps[1].Latency() != 2*per {
		t.Fatalf("second latency %v includes no queueing", comps[1].Latency())
	}
}

func TestSimulateQueuedDisjointDisksNoContention(t *testing.T) {
	a := MustArray(2, noJitter(), 4)
	per := a.DiskTime(0, 1, 1e6)
	comps, err := a.SimulateQueued([]Request{
		{ID: 0, Arrival: 0, Loads: []int{1, 0}},
		{ID: 1, Arrival: 0, Loads: []int{0, 1}},
	}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range comps {
		if c.Latency() != per {
			t.Fatalf("request %d latency %v, want %v (no contention)", c.ID, c.Latency(), per)
		}
	}
}

func TestSimulateQueuedArrivalOrdering(t *testing.T) {
	// A late-arriving request must not be served before an earlier one on
	// the same disk, regardless of slice order.
	a := MustArray(1, noJitter(), 5)
	per := a.DiskTime(0, 1, 1e6)
	comps, err := a.SimulateQueued([]Request{
		{ID: 0, Arrival: per / 2, Loads: []int{1}},
		{ID: 1, Arrival: 0, Loads: []int{1}},
	}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// comps sorted by ID: request 1 arrived first, finishes at per;
	// request 0 queues behind it.
	if comps[1].Finish != per {
		t.Fatalf("early request finish %v, want %v", comps[1].Finish, per)
	}
	if comps[0].Finish != 2*per {
		t.Fatalf("late request finish %v, want %v", comps[0].Finish, 2*per)
	}
}

func TestSummarize(t *testing.T) {
	comps := []Completion{
		{ID: 0, Start: 0, Finish: 10 * time.Millisecond},
		{ID: 1, Start: 0, Finish: 30 * time.Millisecond},
	}
	stats, err := Summarize(comps, []int{1e6, 2e6})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 2 || stats.MeanLatency != 20*time.Millisecond {
		t.Fatalf("stats wrong: %+v", stats)
	}
	if stats.P99Latency != 30*time.Millisecond {
		t.Fatalf("p99 = %v", stats.P99Latency)
	}
	if stats.MakespanTotal != 30*time.Millisecond {
		t.Fatalf("makespan = %v", stats.MakespanTotal)
	}
	if stats.ThroughputMBs != 100 {
		t.Fatalf("throughput = %v, want 100", stats.ThroughputMBs)
	}
	if _, err := Summarize(comps, []int{1}); err == nil {
		t.Fatal("mismatched payloads must fail")
	}
	empty, err := Summarize(nil, nil)
	if err != nil || empty.Requests != 0 {
		t.Fatal("empty summary")
	}
}

func TestQueueingAmplifiesImbalance(t *testing.T) {
	// Under concurrency, the balanced load profile must win by MORE than
	// its serial max-load ratio — queueing compounds the hot disk.
	a := MustArray(10, DefaultConfig(), 6)
	const n = 200
	mk := func(loads []int) []Request {
		reqs := make([]Request, n)
		for i := range reqs {
			// Open loop: arrivals every 5 ms — faster than a hot disk can
			// drain, slower than the balanced profile needs.
			reqs[i] = Request{ID: i, Arrival: time.Duration(i) * 5 * time.Millisecond, Loads: loads}
		}
		return reqs
	}
	balanced := []int{1, 1, 1, 1, 1, 1, 1, 1, 0, 0} // EC-FRM-like 8-elem read
	hot := []int{2, 2, 1, 1, 1, 1, 0, 0, 0, 0}      // standard-like
	payloads := make([]int, n)
	for i := range payloads {
		payloads[i] = 8e6
	}
	cb, err := a.SimulateQueued(mk(balanced), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := a.SimulateQueued(mk(hot), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := Summarize(cb, payloads)
	sh, _ := Summarize(ch, payloads)
	if sb.MeanLatency >= sh.MeanLatency {
		t.Fatalf("balanced mean %v not below hot %v", sb.MeanLatency, sh.MeanLatency)
	}
	if sb.P99Latency >= sh.P99Latency {
		t.Fatalf("balanced p99 %v not below hot %v", sb.P99Latency, sh.P99Latency)
	}
}

func BenchmarkSimulateQueued(b *testing.B) {
	a := MustArray(10, DefaultConfig(), 7)
	reqs := make([]Request, 1000)
	for i := range reqs {
		reqs[i] = Request{ID: i, Arrival: time.Duration(i) * time.Millisecond,
			Loads: []int{1, 1, 1, 1, 1, 1, 1, 1, 0, 0}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SimulateQueued(reqs, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}
