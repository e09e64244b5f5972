package repair

import (
	"time"
)

// Sample is one snapshot of the store's per-device health signals, taken by
// the scheduler's detect loop from Store.DiskErrorCounts, Store.DiskLatencies,
// Store.FailedDisks, and Store.Rebuilding.
type Sample struct {
	// Errors holds the cumulative hard-error count per disk
	// (ecfrm_disk_errors_total): fail-stop faults, exhausted retry
	// budgets, and backend I/O failures.
	Errors []int64
	// Latency holds the per-disk service-latency EWMA; zero means the
	// disk has not served an op since the counter was seeded.
	Latency []time.Duration
	// Failed lists disks already marked failed in the store.
	Failed []int
	// Rebuilding lists disks with an in-progress rebuild.
	Rebuilding []int
}

// DetectorConfig tunes the failure and limping detectors.
type DetectorConfig struct {
	// ErrorBurst is how many hard errors beyond a disk's baseline mark it
	// errored. The baseline resets when Reset is called after a rebuild,
	// so the detector counts errors per disk lifetime, not per window —
	// a slow trickle of real faults still trips it. <=0 uses 8.
	ErrorBurst int64
	// LatencyFactor flags a disk as limping when its latency EWMA exceeds
	// this multiple of the median across healthy peers. <=0 uses 4.
	LatencyFactor float64
	// MinLatency is the floor below which a disk is never considered
	// limping, however skewed the ratio — microsecond-scale memory
	// backends produce wild but harmless ratios. <=0 uses 2ms.
	MinLatency time.Duration
	// LimpWindows is how many consecutive samples a disk must look slow
	// before it is reported — a single GC pause is not a limp. <=0 uses 3.
	LimpWindows int
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.ErrorBurst <= 0 {
		c.ErrorBurst = 8
	}
	if c.LatencyFactor <= 0 {
		c.LatencyFactor = 4
	}
	if c.MinLatency <= 0 {
		c.MinLatency = 2 * time.Millisecond
	}
	if c.LimpWindows <= 0 {
		c.LimpWindows = 3
	}
	return c
}

// Verdict is the detector's per-sample classification. A disk appears in at
// most one list; Failed takes precedence over Errored over Limping.
type Verdict struct {
	// Failed: disks the store already marks failed (no detection needed;
	// the scheduler just has to repair them).
	Failed []int
	// Errored: disks whose hard-error count rose past the burst
	// threshold since their baseline — candidates for fail-stop.
	Errored []int
	// Limping: disks consistently serving far slower than their peers —
	// reported, and left in service.
	Limping []int
}

// Detector turns health samples into repair verdicts. It is a pure state
// machine — no clocks, no goroutines — so tests drive it with synthetic
// samples. Not safe for concurrent use; the scheduler owns one instance.
type Detector struct {
	cfg      DetectorConfig
	baseline map[int]int64 // error count at last reset per disk
	slow     map[int]int   // consecutive samples each disk looked slow
}

// NewDetector creates a detector with zero-valued fields of cfg replaced by
// defaults.
func NewDetector(cfg DetectorConfig) *Detector {
	return &Detector{
		cfg:      cfg.withDefaults(),
		baseline: make(map[int]int64),
		slow:     make(map[int]int),
	}
}

// Observe classifies one sample. Disks already failed or rebuilding are
// reported only in Failed (if failed) and never as Errored/Limping — the
// scheduler must not re-detect a disk it is already repairing.
func (d *Detector) Observe(s Sample) Verdict {
	var v Verdict
	busy := make(map[int]bool)
	for _, i := range s.Failed {
		busy[i] = true
	}
	v.Failed = append(v.Failed, s.Failed...)
	for _, i := range s.Rebuilding {
		busy[i] = true
	}

	for i, errs := range s.Errors {
		if busy[i] {
			continue
		}
		base, ok := d.baseline[i]
		if !ok {
			// First sight of this disk: its current count is the
			// baseline, so pre-existing errors (e.g. from before a
			// scheduler restart) don't instantly trip detection.
			d.baseline[i] = errs
			continue
		}
		if errs-base >= d.cfg.ErrorBurst {
			v.Errored = append(v.Errored, i)
			busy[i] = true
		}
	}

	med := medianLatency(s.Latency, busy)
	for i, lat := range s.Latency {
		if busy[i] || lat < d.cfg.MinLatency || med <= 0 {
			d.slow[i] = 0
			continue
		}
		if float64(lat) >= d.cfg.LatencyFactor*float64(med) {
			d.slow[i]++
		} else {
			d.slow[i] = 0
		}
		if d.slow[i] >= d.cfg.LimpWindows {
			v.Limping = append(v.Limping, i)
		}
	}
	return v
}

// Reset rebaselines a disk after its rebuild completes: the error count it
// has now becomes the new zero, and its limp streak clears. Without this a
// repaired disk would trip the detector forever on its historical errors.
func (d *Detector) Reset(disk int, errs int64) {
	d.baseline[disk] = errs
	d.slow[disk] = 0
}

// medianLatency is the median EWMA across disks that are healthy (not in
// skip) and have served at least one op. Returns 0 when fewer than two
// disks qualify — a median of one disk would compare it against itself.
func medianLatency(lat []time.Duration, skip map[int]bool) time.Duration {
	var vals []time.Duration
	for i, l := range lat {
		if skip[i] || l <= 0 {
			continue
		}
		vals = append(vals, l)
	}
	if len(vals) < 2 {
		return 0
	}
	// Insertion sort: n is the disk count, tiny.
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	return vals[len(vals)/2]
}
