package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/lrc"

	"repro/internal/layout"
)

// TestPlanDegradedReadBiasedNilMatchesUnbiased: the biased planner with a
// nil (or all-zero) bias is exactly the unbiased planner — same plans,
// element for element — so single-threaded replays stay deterministic.
func TestPlanDegradedReadBiasedNilMatchesUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	zero := func(n int) []int { return make([]int, n) }
	for _, s := range allSchemes(t) {
		for trial := 0; trial < 30; trial++ {
			start := rng.Intn(2 * s.DataPerStripe())
			count := 1 + rng.Intn(20)
			failed := []int{rng.Intn(s.N())}
			want, err := s.PlanDegradedRead(start, count, failed)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			for _, bias := range [][]int{nil, zero(s.N())} {
				got, err := s.PlanDegradedReadBiased(start, count, failed, bias)
				if err != nil {
					t.Fatalf("%s bias=%v: %v", s.Name(), bias, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s bias=%v: biased plan differs from unbiased", s.Name(), bias)
				}
			}
		}
	}
}

// TestPlanDegradedReadBiasedSteersAwayFromBusyDisk: a large external bias on
// one surviving disk must shift rebuild reads off it whenever an equivalent
// recovery set exists — the store feeds live in-flight run counts through
// this knob. The bias may only move reads around: the plan still avoids
// failed disks and reads the same number of elements per rebuilt target.
func TestPlanDegradedReadBiasedSteersAwayFromBusyDisk(t *testing.T) {
	for _, s := range []*Scheme{
		MustScheme(mustRS(6, 3), layout.FormECFRM),
		MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM),
	} {
		failed := []int{0}
		unbiased, err := s.PlanDegradedRead(0, 2*s.DataPerStripe(), failed)
		if err != nil {
			t.Fatal(err)
		}
		// Pick the busiest surviving disk of the unbiased plan and bias it.
		busy, bl := -1, 0
		for d, l := range unbiased.Loads {
			if d != 0 && l > bl {
				busy, bl = d, l
			}
		}
		bias := make([]int, s.N())
		bias[busy] = 1000
		biased, err := s.PlanDegradedReadBiased(0, 2*s.DataPerStripe(), failed, bias)
		if err != nil {
			t.Fatal(err)
		}
		if biased.Loads[busy] >= unbiased.Loads[busy] {
			t.Fatalf("%s: bias on disk %d did not reduce its load (%d -> %d)",
				s.Name(), busy, unbiased.Loads[busy], biased.Loads[busy])
		}
		if biased.Loads[0] != 0 {
			t.Fatalf("%s: biased plan reads failed disk 0", s.Name())
		}
		for _, a := range biased.Reads {
			if a.Disk == 0 {
				t.Fatalf("%s: biased plan touches failed disk", s.Name())
			}
		}
	}
}

// TestPlanDegradedReadBiasedValidation: a bias of the wrong length is a bad
// request, not a silent truncation.
func TestPlanDegradedReadBiasedValidation(t *testing.T) {
	s := MustScheme(mustRS(6, 3), layout.FormECFRM)
	if _, err := s.PlanDegradedReadBiased(0, 1, []int{1}, []int{1, 2}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("short bias: err = %v, want ErrBadRequest", err)
	}
}
