package core

import (
	"bytes"
	"testing"

	"repro/internal/codes"
	"repro/internal/layout"
	"repro/internal/lrc"
)

// TestWideStripeSchemes drives codes at production stripe widths (k =
// 32/64/128, n up to 136) through the framework end to end: encode, verify,
// repair after FaultTolerance() disk failures, and plan+execute a degraded
// read. This is the integration gate for the wide-stripe hot path: the
// audited tolerance and the multi-word decode-cache key at widths far past
// the paper's Table I.
func TestWideStripeSchemes(t *testing.T) {
	const size = 2048
	type cfg struct {
		code codes.Code
		fail []int
	}
	cfgs := []cfg{
		{mustRS(32, 4), []int{0, 7, 18, 33}},
		{mustRS(64, 4), []int{3, 20, 41, 66}},
		{mustRS(128, 4), []int{0, 64, 100, 131}},
		{mustRS(128, 8), []int{0, 17, 63, 64, 100, 127, 128, 135}},
		{lrc.Must(64, 8, 2), []int{5, 40}},
		{lrc.Must(128, 4, 4), []int{2, 31, 131, 135}},
	}
	for _, c := range cfgs {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormECFRM} {
			s := MustScheme(c.code, form)
			t.Run(s.Name(), func(t *testing.T) {
				if len(c.fail) != c.code.FaultTolerance() {
					t.Fatalf("failing %d disks, tolerance %d", len(c.fail), c.code.FaultTolerance())
				}
				data := makeStripeData(s, size, int64(c.code.N()))
				cells, err := s.EncodeStripe(data)
				if err != nil {
					t.Fatal(err)
				}
				if ok, err := s.VerifyStripe(new(Buffers), cells); err != nil || !ok {
					t.Fatalf("VerifyStripe: ok=%v err=%v", ok, err)
				}

				// Fail FaultTolerance() disks and repair the stripe.
				failed := make(map[int]bool, len(c.fail))
				for _, d := range c.fail {
					failed[d] = true
				}
				broken := make([][]byte, len(cells))
				lay := s.Layout()
				for i := range cells {
					if !failed[lay.Disk(0, i%s.N())] {
						broken[i] = cells[i]
					}
				}
				if err := s.ReconstructStripe(broken); err != nil {
					t.Fatal(err)
				}
				for i := range cells {
					if !bytes.Equal(broken[i], cells[i]) {
						t.Fatalf("cell %d mismatch after repair", i)
					}
				}

				// Degraded read across the whole stripe with one disk down.
				plan, err := s.PlanDegradedRead(0, s.DataPerStripe(), c.fail[:1])
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range plan.Reads {
					if r.Disk == c.fail[0] {
						t.Fatalf("plan reads failed disk %d", c.fail[0])
					}
				}
				degraded := make([][]byte, len(cells))
				for i := range cells {
					if lay.Disk(0, i%s.N()) != c.fail[0] {
						degraded[i] = cells[i]
					}
				}
				for e := 0; e < s.DataPerStripe(); e++ {
					got, err := s.RebuildCellInto(new(Buffers), degraded, s.Layout().DataPos(e))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, data[e]) {
						t.Fatalf("degraded read of element %d wrong", e)
					}
				}
			})
		}
	}
}

// TestZeroAllocSteadyState16 is the wide-stripe twin of
// TestZeroAllocSteadyState (the name dates from when wide codes ran over
// GF(2^16)): at n = 136 the decode-cache keys span several mask words, and
// the warm pooled encode, reconstruct, and degraded-rebuild paths must
// still allocate nothing.
func TestZeroAllocSteadyState16(t *testing.T) {
	checkZeroAllocSteadyState(t, mustRS(128, 8), lrc.Must(128, 4, 4))
}

func BenchmarkEncodeStripeWide(b *testing.B) {
	const size = 64 << 10
	s := MustScheme(mustRS(64, 4), layout.FormECFRM)
	var bufs Buffers
	data := makeStripeData(s, size, 1)
	cells := make([][]byte, s.CellsPerStripe())
	if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(s.DataPerStripe() * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
			b.Fatal(err)
		}
	}
}
