package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/codes"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// makeStripeData builds DataPerStripe deterministic shards of the given size.
func makeStripeData(s *Scheme, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]byte, s.DataPerStripe())
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

// TestIntoPathsMatchAllocatingPaths checks the pooled ...Into variants
// produce bit-identical stripes to the allocating paths, across codes and
// layouts.
func TestIntoPathsMatchAllocatingPaths(t *testing.T) {
	const size = 96
	codesUnder := []codes.Code{mustRS(6, 3), lrc.Must(6, 2, 2)}
	for _, c := range codesUnder {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormECFRM} {
			s := MustScheme(c, form)
			t.Run(s.Name(), func(t *testing.T) {
				var bufs Buffers
				data := makeStripeData(s, size, 42)
				want, err := s.EncodeStripe(data)
				if err != nil {
					t.Fatal(err)
				}
				cells := make([][]byte, s.CellsPerStripe())
				if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
					t.Fatal(err)
				}
				for i := range cells {
					if !bytes.Equal(cells[i], want[i]) {
						t.Fatalf("cell %d differs between EncodeStripeInto and EncodeStripe", i)
					}
				}

				// Knock out two cells and repair via the pooled path.
				lost := []int{0, len(cells) / 2}
				for _, i := range lost {
					cells[i] = nil
				}
				if err := s.ReconstructStripeInto(&bufs, cells); err != nil {
					t.Fatal(err)
				}
				for i := range cells {
					if !bytes.Equal(cells[i], want[i]) {
						t.Fatalf("cell %d differs after ReconstructStripeInto", i)
					}
				}

				// Degraded single-element rebuild via the pooled path.
				idx := s.cellIndex(s.lay.DataPos(0))
				cells[idx] = nil
				got, err := s.RebuildCellInto(&bufs, cells, s.Layout().DataPos(0))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data[0]) {
					t.Fatal("RebuildCellInto returned wrong data")
				}
			})
		}
	}
}

// TestZeroAllocSteadyState asserts the pooled encode/reconstruct/rebuild
// paths allocate nothing once the Buffers arena and scratch pools are warm —
// the regression gate for the zero-allocation hot path.
func TestZeroAllocSteadyState(t *testing.T) {
	checkZeroAllocSteadyState(t, mustRS(6, 3), lrc.Must(6, 2, 2))
}

// checkZeroAllocSteadyState warms each code's ECFRM scheme, then asserts its
// pooled encode, reconstruct, and degraded-rebuild paths allocate nothing.
func checkZeroAllocSteadyState(t *testing.T, cs ...codes.Code) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so allocs/op cannot be 0")
	}
	const size = 4096
	for _, c := range cs {
		s := MustScheme(c, layout.FormECFRM)
		var bufs Buffers
		data := makeStripeData(s, size, 7)
		cells := make([][]byte, s.CellsPerStripe())

		// Warm-up: fill pools, populate the decode-coefficient cache.
		if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
			t.Fatal(err)
		}
		lost := []int{1, len(cells) - 1}
		idx0 := s.cellIndex(s.lay.DataPos(0))

		check := func(name string, fn func()) {
			t.Helper()
			if avg := testing.AllocsPerRun(20, fn); avg != 0 {
				t.Errorf("%s/%s: %v allocs/op, want 0", s.Name(), name, avg)
			}
		}
		check("EncodeStripeInto", func() {
			if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
				t.Fatal(err)
			}
		})
		check("ReconstructStripeInto", func() {
			for _, i := range lost {
				bufs.PutShard(cells[i])
				cells[i] = nil
			}
			if err := s.ReconstructStripeInto(&bufs, cells); err != nil {
				t.Fatal(err)
			}
		})
		check("RebuildCellInto", func() {
			bufs.PutShard(cells[idx0])
			cells[idx0] = nil
			if _, err := s.RebuildCellInto(&bufs, cells, s.Layout().DataPos(0)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBuffersRecycle checks the arena actually reuses memory and self-heals
// across size changes.
func TestBuffersRecycle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so recycling is not deterministic")
	}
	var b Buffers
	s1 := b.GetShard(128)
	b.PutShard(s1)
	s2 := b.GetShard(64)
	if cap(s2) < 128 {
		t.Fatalf("expected recycled 128-cap buffer, got cap %d", cap(s2))
	}
	b.PutShard(s2)
	s3 := b.GetShard(256) // larger than anything pooled: fresh allocation
	if len(s3) != 256 {
		t.Fatalf("got %d bytes, want 256", len(s3))
	}
	cells := [][]byte{[]byte{1}, nil, []byte{2, 3}}
	b.PutShards(cells)
	for i, c := range cells {
		if c != nil {
			t.Fatalf("PutShards left slot %d non-nil", i)
		}
	}
}

func BenchmarkEncodeStripePooled(b *testing.B) {
	const size = 64 << 10
	s := MustScheme(mustRS(6, 3), layout.FormECFRM)
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

func BenchmarkReconstructStripePooled(b *testing.B) {
	const size = 64 << 10
	s := MustScheme(mustRS(6, 3), layout.FormECFRM)
	var bufs Buffers
	data := makeStripeData(s, size, 2)
	cells := make([][]byte, s.CellsPerStripe())
	if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
		b.Fatal(err)
	}
	lost := []int{0, len(cells) / 2}
	b.SetBytes(int64(len(lost) * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range lost {
			bufs.PutShard(cells[x])
			cells[x] = nil
		}
		if err := s.ReconstructStripeInto(&bufs, cells); err != nil {
			b.Fatal(err)
		}
	}
}

// mustRS is rs.New for parameters the test knows are valid.
func mustRS(k, m int) *rs.Code {
	c, err := rs.New(k, m)
	if err != nil {
		panic(err)
	}
	return c
}
