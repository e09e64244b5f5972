package main

import (
	"strings"
	"testing"
)

// TestCheckFlagsNamesTheBadFlag checks that startup validation accepts both
// -fsync modes and refuses any other with an error naming the flag, instead
// of serving with a silently substituted value.
func TestCheckFlagsNamesTheBadFlag(t *testing.T) {
	for _, mode := range []string{"always", "never"} {
		if err := checkFlags(mode); err != nil {
			t.Fatalf("checkFlags(%q) refused: %v", mode, err)
		}
	}
	for _, mode := range []string{"sometimes", ""} {
		if err := checkFlags(mode); err == nil || !strings.Contains(err.Error(), "-fsync") {
			t.Errorf("checkFlags(%q) = %v, want an error naming -fsync", mode, err)
		}
	}
}
