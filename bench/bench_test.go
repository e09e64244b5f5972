package main

import (
	"math"
	"testing"
)

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if v[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	asc := sorted(v)
	for p, want := range map[float64]float64{1: 1, 20: 1, 21: 2, 50: 3, 99: 5, 100: 5} {
		if got := percentile(asc, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

// tailPercentile must not report a percentile with fewer than ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{10, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		v := make([]float64, tc.n)
		for i := range v {
			v[i] = float64(tc.n - i) // descending: the helper must sort
		}
		p, value, n := tailPercentile(v)
		if p != tc.p || n != tc.n {
			t.Errorf("n=%d: got p%v over %d samples, want p%v", tc.n, p, n, tc.p)
		}
		if want := math.Ceil(tc.p/100*float64(tc.n) - 1e-9); value != want {
			t.Errorf("n=%d: p%v = %v, want %v", tc.n, p, value, want)
		}
	}
}

// One stalled block must not move the reported throughput.
func TestBlockMedian(t *testing.T) {
	blocks := []block{
		{ops: 20, bytes: 10e6, wallS: 0.1},  // 100 MB/s
		{ops: 20, bytes: 10e6, wallS: 0.1},  // 100 MB/s
		{ops: 20, bytes: 10e6, wallS: 0.08}, // 125 MB/s
		{ops: 20, bytes: 10e6, wallS: 2.0},  // a 1.9 s stall: 5 MB/s
		{ops: 0, bytes: 0, wallS: 0},        // abandoned before its first op
	}
	got := blockMBps(blocks)
	if len(got) != 4 {
		t.Fatalf("blockMBps kept %d blocks, want 4", len(got))
	}
	if m := median(got); m != 100 {
		t.Errorf("median block throughput = %v MB/s, want 100", m)
	}
	if m := mean(got); m > 90 {
		t.Errorf("mean = %v: the stall should have dragged it down, or this test shows nothing", m)
	}
	cpu := blockCPUMs([]block{{ops: 200, cpuS: 0.15}, {ops: 0, cpuS: 0.01}})
	if len(cpu) != 1 || math.Abs(cpu[0]-0.75) > 1e-12 {
		t.Errorf("blockCPUMs = %v, want [0.75]: ms per operation, blocks without operations dropped", cpu)
	}
	if c := cv([]float64{2, 2, 2}); c != 0 {
		t.Errorf("cv of equal values = %v", c)
	}
}

func TestParseStatCPU(t *testing.T) {
	// comm holds a space and a ')' on purpose; utime=1234 stime=66.
	stat := "4242 (ec frmd) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 66 0 0 20 0 9 0 12345 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	ticks, err := parseStatCPU(stat)
	if err != nil || ticks != 1300 {
		t.Errorf("parseStatCPU = %d, %v; want 1300", ticks, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a b 13"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) did not fail", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tecfrmd\nVmPeak:\t 2000000 kB\nVmHWM:\t  391116 kB\nVmRSS:\t  100000 kB\n"
	kb, err := parseVmHWM(status)
	if err != nil || kb != 391116 {
		t.Errorf("parseVmHWM = %d, %v; want 391116", kb, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) did not fail", bad)
		}
	}
}

func TestParseSeries(t *testing.T) {
	s := series{
		`f_total{disk="0"}`: 2, `f_total{disk="1"}`: 3, `f_totally`: 100,
		`g{op="read"}`: 5, `g{op="sync"}`: 7, `n_total@node1`: 1, `n_total@node2`: 1,
	}
	if got := s.sum("f_total"); got != 5 {
		t.Errorf("sum(f_total) = %v, want 5: a family must not match a longer name", got)
	}
	if got := s.sum("g", `op="sync"`); got != 7 {
		t.Errorf("sum(g, sync) = %v, want 7", got)
	}
	if got := s.sum("n_total"); got != 2 {
		t.Errorf("sum(n_total) = %v, want 2 across nodes", got)
	}
}

// The same seed must give the same operations, a different seed different
// ones; the preload must be whole sets of sizes 1..20, every measured PUT
// block a fifth of a set's bytes, and every set's sizes in the same order.
func TestSeedDeterminism(t *testing.T) {
	poolA, poolB := newPool(7), newPool(8)
	const setBytes = maxElems * (maxElems + 1) / 2 * elemBytes
	for _, s := range specs {
		a, again, other := planRound(s, poolA, 7, 2), planRound(s, poolA, 7, 2), planRound(s, poolB, 8, 2)
		if a.hash() != again.hash() {
			t.Errorf("%s: same seed and round, different plans", s.name)
		}
		if a.hash() == other.hash() {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", s.name)
		}
		if a.hash() == planRound(s, poolA, 7, 3).hash() {
			t.Errorf("%s: rounds 2 and 3 gave the same plan", s.name)
		}
		if got := bytesOf(a.objs, a.preload); got != int64(s.preloadSets)*setBytes {
			t.Errorf("%s: the preload holds %d bytes, want %d whole sets", s.name, got, s.preloadSets)
		}
		if len(a.putBlocks) != s.putSets*putBlocksPerSet {
			t.Errorf("%s: %d PUT blocks, want %d", s.name, len(a.putBlocks), s.putSets*putBlocksPerSet)
		}
		for _, b := range a.putBlocks {
			if got := bytesOf(a.objs, b); got != setBytes/putBlocksPerSet {
				t.Errorf("%s: a PUT block of %d objects holds %d bytes, want %d", s.name, len(b), got, setBytes/putBlocksPerSet)
			}
		}
		seen := map[int]int{}
		for i, o := range a.objs {
			seen[o.size]++
			if o.size != other.objs[i].size || o.size != a.objs[i%maxElems].size {
				t.Fatalf("%s: object %d is %d bytes: sizes must come in one order in every set and seed", s.name, i, o.size)
			}
		}
		for e := 1; e <= maxElems; e++ {
			if seen[e*elemBytes] != len(a.objs)/maxElems {
				t.Errorf("%s: %d objects of %d elements among %d sets", s.name, seen[e*elemBytes], e, len(a.objs)/maxElems)
			}
		}
		for _, b := range a.getBlocks {
			if bytesOf(a.objs, b) != bytesOf(a.objs, a.getBlocks[0]) {
				t.Errorf("%s: GET blocks differ in bytes", s.name)
			}
		}
	}
}
