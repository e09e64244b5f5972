package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckFlagsNamesTheBadFlag checks that startup validation accepts
// sound flag values and refuses each bad one with an error naming its flag,
// instead of serving with a silently substituted value or stopping later.
func TestCheckFlagsNamesTheBadFlag(t *testing.T) {
	type flags struct {
		fsync    string
		rate     float64
		obs      bool
		interval time.Duration
	}
	ok := flags{"always", 32, true, 10 * time.Second}
	for _, f := range []flags{
		ok,
		{"never", 0, false, 0}, // rate 0 pauses; -obs-interval is unused without -obs
		{"always", -1, false, -time.Second},
	} {
		if err := checkFlags(f.fsync, f.rate, f.obs, f.interval); err != nil {
			t.Fatalf("checkFlags(%+v) refused: %v", f, err)
		}
	}
	for _, tc := range []struct {
		f    flags
		flag string
	}{
		{flags{"sometimes", ok.rate, ok.obs, ok.interval}, "-fsync"},
		{flags{"", ok.rate, ok.obs, ok.interval}, "-fsync"},
		{flags{ok.fsync, math.NaN(), ok.obs, ok.interval}, "-repair-rate"},
		{flags{ok.fsync, math.Inf(1), ok.obs, ok.interval}, "-repair-rate"},
		{flags{ok.fsync, math.Inf(-1), ok.obs, ok.interval}, "-repair-rate"},
		{flags{ok.fsync, ok.rate, true, 0}, "-obs-interval"},
		{flags{ok.fsync, ok.rate, true, -time.Second}, "-obs-interval"},
	} {
		f := tc.f
		if err := checkFlags(f.fsync, f.rate, f.obs, f.interval); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("checkFlags(%+v) = %v, want an error naming %s", f, err, tc.flag)
		}
	}
}
