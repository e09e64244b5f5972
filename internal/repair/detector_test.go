package repair

import (
	"reflect"
	"testing"
)

func TestDetectorErrorBurst(t *testing.T) {
	d := NewDetector(5)
	// First sample sets baselines — pre-existing errors don't trip.
	v := d.Observe(Sample{Errors: []int64{100, 0, 0}})
	if len(v.Errored) != 0 {
		t.Fatalf("baseline sample reported errored disks: %v", v.Errored)
	}
	// +4 since baseline: below the burst.
	v = d.Observe(Sample{Errors: []int64{104, 0, 0}})
	if len(v.Errored) != 0 {
		t.Fatalf("sub-threshold delta reported errored: %v", v.Errored)
	}
	// +5: trips. Cumulative-since-baseline, not per-window — the errors
	// arrived across two samples.
	v = d.Observe(Sample{Errors: []int64{105, 0, 0}})
	if !reflect.DeepEqual(v.Errored, []int{0}) {
		t.Fatalf("Errored = %v, want [0]", v.Errored)
	}
	// Reset rebaselines: the disk is clean again until 5 more.
	d.Reset(0, 105)
	v = d.Observe(Sample{Errors: []int64{109, 0, 0}})
	if len(v.Errored) != 0 {
		t.Fatalf("post-reset sub-threshold reported errored: %v", v.Errored)
	}
	v = d.Observe(Sample{Errors: []int64{110, 0, 0}})
	if !reflect.DeepEqual(v.Errored, []int{0}) {
		t.Fatalf("post-reset Errored = %v, want [0]", v.Errored)
	}
}

func TestDetectorSkipsFailedAndRebuilding(t *testing.T) {
	d := NewDetector(1)
	d.Observe(Sample{Errors: []int64{0, 0, 0}})
	// Disk 0 failed, disk 1 rebuilding: both over threshold, neither may be
	// re-detected.
	v := d.Observe(Sample{
		Errors:     []int64{50, 50, 0},
		Failed:     []int{0},
		Rebuilding: []int{1},
	})
	if !reflect.DeepEqual(v.Failed, []int{0}) {
		t.Fatalf("Failed = %v, want [0]", v.Failed)
	}
	if len(v.Errored) != 0 {
		t.Fatalf("Errored = %v, want none (both disks busy)", v.Errored)
	}
}

func TestDetectorDefaults(t *testing.T) {
	if got := (Config{}).withDefaults().ErrorBurst; got != 8 {
		t.Fatalf("default ErrorBurst = %d, want 8", got)
	}
}
