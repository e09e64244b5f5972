package repair

// Sample is one snapshot of a group's device health, taken by the
// scheduler's detect loop from Store.DiskErrorCounts, Store.FailedDisks and
// Store.Rebuilding.
type Sample struct {
	// Errors holds the cumulative hard-error count per disk
	// (ecfrm_disk_errors_total): fail-stop faults and backend I/O
	// failures.
	Errors []int64
	// Failed lists disks already marked failed in the store.
	Failed []int
	// Rebuilding lists disks with an in-progress rebuild.
	Rebuilding []int
}

// Verdict is the detector's per-sample classification. A disk appears in at
// most one list; Failed takes precedence over Errored.
type Verdict struct {
	// Failed: disks the store already marks failed (no detection needed;
	// the scheduler just has to repair them).
	Failed []int
	// Errored: disks whose hard-error count rose past the burst
	// threshold since their baseline — candidates for fail-stop.
	Errored []int
}

// Detector turns health samples into repair verdicts. It is a pure state
// machine — no clocks, no goroutines — so tests drive it with synthetic
// samples. Not safe for concurrent use; the scheduler owns one instance.
type Detector struct {
	burst    int64
	baseline map[int]int64 // error count at last reset per disk
}

// NewDetector creates a detector that marks a disk errored once burst hard
// errors have accrued beyond its baseline.
func NewDetector(burst int64) *Detector {
	return &Detector{burst: burst, baseline: make(map[int]int64)}
}

// Observe classifies one sample. Disks already failed or rebuilding are
// reported only in Failed (if failed) and never as Errored — the scheduler
// must not re-detect a disk it is already repairing.
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
		if errs-base >= d.burst {
			v.Errored = append(v.Errored, i)
		}
	}
	return v
}

// Reset rebaselines a disk after its rebuild completes: the error count it
// has now becomes the new zero. Without this a repaired disk would trip the
// detector forever on its historical errors.
func (d *Detector) Reset(disk int, errs int64) {
	d.baseline[disk] = errs
}
