package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckFlagsNamesTheBadFlag checks that startup validation accepts the
// defaults and refuses each out-of-range value with an error naming its
// flag, instead of serving with a silently substituted value.
func TestCheckFlagsNamesTheBadFlag(t *testing.T) {
	if err := checkFlags("always", 0.9, time.Millisecond); err != nil {
		t.Fatalf("defaults refused: %v", err)
	}
	if err := checkFlags("never", 0.999, time.Microsecond); err != nil {
		t.Fatalf("valid values refused: %v", err)
	}
	for _, c := range []struct {
		fsync string
		q     float64
		min   time.Duration
		flag  string
	}{
		{"sometimes", 0.9, time.Millisecond, "-fsync"},
		{"always", 99, time.Millisecond, "-hedge-quantile"},
		{"always", 1, time.Millisecond, "-hedge-quantile"},
		{"always", 0, time.Millisecond, "-hedge-quantile"},
		{"always", -0.5, time.Millisecond, "-hedge-quantile"},
		{"always", math.NaN(), time.Millisecond, "-hedge-quantile"},
		{"always", 0.9, 0, "-hedge-min"},
		{"always", 0.9, -time.Second, "-hedge-min"},
	} {
		err := checkFlags(c.fsync, c.q, c.min)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("checkFlags(%q, %v, %v) = %v, want an error naming %s", c.fsync, c.q, c.min, err, c.flag)
		}
	}
}
