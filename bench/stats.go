package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(asc)) - 1e-9)) // 99.9/100*10000 is not quite 9990
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

func median(v []float64) float64 { return percentile(sorted(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// cv is the coefficient of variation (population standard deviation ÷ mean).
func cv(v []float64) float64 {
	m := mean(v)
	if m == 0 {
		return 0
	}
	ss := 0.0
	for _, x := range v {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(v))) / m
}

// tailPercentile reports the highest of p99.9, p99, p95, p90 and p75 that
// still has at least ten samples beyond it, its value, and the sample count.
// A tail read off fewer samples than that is one slow request, not a
// percentile. With too few samples for any of them it falls back to p50.
func tailPercentile(v []float64) (p, value float64, n int) {
	asc := sorted(v)
	n = len(asc)
	for _, permille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-permille)/1000 >= 10 {
			p := float64(permille) / 10
			return p, percentile(asc, p), n
		}
	}
	return 50, percentile(asc, 50), n
}

// block is one run of consecutive operations by one client, the unit over
// which throughput is taken so that one stall spoils one block, not the run.
type block struct {
	ops   int
	bytes int64
	wallS float64
	cpuS  float64 // server CPU time over the block, where it was taken
}

// blockMBps is each block's user bytes ÷ wall time in MB/s (1e6 bytes).
func blockMBps(blocks []block) []float64 {
	out := make([]float64, 0, len(blocks))
	for _, b := range blocks {
		if b.wallS > 0 {
			out = append(out, float64(b.bytes)/1e6/b.wallS)
		}
	}
	return out
}

// blockCPUMs is each block's server CPU time ÷ operations, in ms.
func blockCPUMs(blocks []block) []float64 {
	out := make([]float64, 0, len(blocks))
	for _, b := range blocks {
		if b.ops > 0 {
			out = append(out, b.cpuS*1e3/float64(b.ops))
		}
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metric) String() string { return fmt.Sprintf("%.6g %s", m.Value, m.Unit) }
