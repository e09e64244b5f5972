// Package disksim models the timing behaviour of the paper's testbed — a
// 16-disk array of Seagate Savvio 10K.3 drives — well enough to reproduce
// the read-performance *shape* the paper reports.
//
// The paper's central mechanism is purely about load distribution: a read
// completes when the slowest participating disk finishes, and the slowest
// disk is usually the most loaded one (§III-B). The simulator therefore
// models each disk as a serial device with per-access positioning time
// (seek + rotational latency, with jitter) followed by a sequential
// transfer at the disk's bandwidth (with jitter), and a request's service
// time as the maximum over the participating disks:
//
//	T(request) = max_d Σ_{i<load_d} (position_i + elemBytes/bandwidth_d)
//
// Randomness is fully seeded so experiments are reproducible; per-disk RNG
// streams keep timing independent across disks.
package disksim

import (
	"fmt"
	"math/rand"
	"time"
)

// Config describes one disk model. The zero value is invalid; use
// DefaultConfig (a 10K-rpm SAS profile) as a starting point.
type Config struct {
	// Positioning is the mean time to position the head before each
	// element access (seek + rotational latency).
	Positioning time.Duration
	// PositioningJitter is the relative half-width of the uniform jitter
	// applied per access: actual = Positioning × (1 ± J).
	PositioningJitter float64
	// BandwidthMBps is the mean sequential transfer rate in MB/s
	// (1 MB = 1e6 bytes, matching how drive vendors and the paper quote
	// speeds).
	BandwidthMBps float64
	// BandwidthJitter is the relative half-width of the uniform jitter
	// applied per access to the transfer rate.
	BandwidthJitter float64
}

// DefaultConfig approximates the paper's testbed as observed end-to-end:
// Savvio 10K.3 SAS drives (~3 ms rotational + ~4 ms seek, ~100 MB/s raw
// sustained rate) behind a storage stack whose measured per-element service
// cost is considerably higher than the raw drive numbers — the paper's
// aggregate read speeds top out around 165 MB/s for multi-disk parallel
// reads of 1 MB elements. A 15 ms effective positioning time and 50 MB/s
// effective per-disk transfer reproduce that measured envelope (see
// EXPERIMENTS.md for the calibration); only relative comparisons between
// layout forms are claimed, and those are insensitive to this choice (the
// BenchmarkAblationDiskModel ablation varies it).
func DefaultConfig() Config {
	return Config{
		Positioning:       15 * time.Millisecond,
		PositioningJitter: 0.4,
		BandwidthMBps:     50,
		BandwidthJitter:   0.15,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Positioning < 0 {
		return fmt.Errorf("disksim: negative positioning time %v", c.Positioning)
	}
	if c.BandwidthMBps <= 0 {
		return fmt.Errorf("disksim: bandwidth must be positive, got %v", c.BandwidthMBps)
	}
	if c.PositioningJitter < 0 || c.PositioningJitter >= 1 {
		return fmt.Errorf("disksim: positioning jitter %v out of [0,1)", c.PositioningJitter)
	}
	if c.BandwidthJitter < 0 || c.BandwidthJitter >= 1 {
		return fmt.Errorf("disksim: bandwidth jitter %v out of [0,1)", c.BandwidthJitter)
	}
	return nil
}

// Array simulates a set of disks sharing one model, optionally with fixed
// per-disk speed factors (heterogeneous arrays).
type Array struct {
	cfg   Config
	rngs  []*rand.Rand
	speed []float64 // per-disk bandwidth multiplier; nil = homogeneous
}

// NewArray creates an array of n identical disks with the given model,
// seeding each disk's jitter stream deterministically from seed.
func NewArray(n int, cfg Config, seed int64) (*Array, error) {
	if n < 1 {
		return nil, fmt.Errorf("disksim: need at least one disk, got %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{cfg: cfg, rngs: make([]*rand.Rand, n)}
	for d := range a.rngs {
		a.rngs[d] = rand.New(rand.NewSource(seed + int64(d)*0x9E3779B9))
	}
	return a, nil
}

// NewHeterogeneousArray is NewArray with per-disk bandwidth diversity: disk
// d's transfer rate is permanently scaled by a seeded uniform factor in
// [1-spread, 1+spread] (spread in [0,1)). Mixed-generation arrays are the
// norm in practice, and the paper's "the most loaded disk is usually the
// slowest" premise gets sharper the more the disks differ.
func NewHeterogeneousArray(n int, cfg Config, seed int64, spread float64) (*Array, error) {
	if spread < 0 || spread >= 1 {
		return nil, fmt.Errorf("disksim: heterogeneity spread %v out of [0,1)", spread)
	}
	a, err := NewArray(n, cfg, seed)
	if err != nil {
		return nil, err
	}
	mix := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	a.speed = make([]float64, n)
	for d := range a.speed {
		a.speed[d] = 1 + spread*(2*mix.Float64()-1)
	}
	return a, nil
}

// MustArray is NewArray for known-good arguments; it panics on error.
func MustArray(n int, cfg Config, seed int64) *Array {
	a, err := NewArray(n, cfg, seed)
	if err != nil {
		panic(err)
	}
	return a
}

func (a *Array) jitter(d int, half float64) float64 {
	if half == 0 {
		return 1
	}
	return 1 + half*(2*a.rngs[d].Float64()-1)
}

// DiskTime returns the simulated time for disk d to serve `load` element
// accesses of elemBytes each: per access, one positioning operation plus a
// sequential transfer. A zero load takes zero time.
func (a *Array) DiskTime(d, load, elemBytes int) time.Duration {
	if d < 0 || d >= len(a.rngs) {
		panic(fmt.Sprintf("disksim: disk %d out of [0,%d)", d, len(a.rngs)))
	}
	if load < 0 || elemBytes < 0 {
		panic(fmt.Sprintf("disksim: negative load %d or size %d", load, elemBytes))
	}
	factor := 1.0
	if a.speed != nil {
		factor = a.speed[d]
	}
	var total time.Duration
	for i := 0; i < load; i++ {
		pos := time.Duration(float64(a.cfg.Positioning) * a.jitter(d, a.cfg.PositioningJitter))
		bw := a.cfg.BandwidthMBps * 1e6 * factor * a.jitter(d, a.cfg.BandwidthJitter) // bytes/s
		xfer := time.Duration(float64(elemBytes) / bw * float64(time.Second))
		total += pos + xfer
	}
	return total
}

// ServeRead returns the simulated service time of a parallel read request
// that places loads[d] element accesses on disk d. The request completes
// when the slowest disk finishes. loads must have one entry per disk.
func (a *Array) ServeRead(loads []int, elemBytes int) time.Duration {
	if len(loads) != len(a.rngs) {
		panic(fmt.Sprintf("disksim: got %d loads for %d disks", len(loads), len(a.rngs)))
	}
	var worst time.Duration
	for d, l := range loads {
		if l == 0 {
			continue
		}
		if t := a.DiskTime(d, l, elemBytes); t > worst {
			worst = t
		}
	}
	return worst
}

// SpeedMBps converts a payload size and service time into the paper's
// read-speed metric (MB/s, 1 MB = 1e6 bytes).
func SpeedMBps(payloadBytes int, t time.Duration) float64 {
	if t <= 0 {
		return 0
	}
	return float64(payloadBytes) / 1e6 / t.Seconds()
}
