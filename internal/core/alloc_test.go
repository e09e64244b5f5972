package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/codes"
	"repro/internal/gf"
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

// referenceStripe builds the stripe the scheme must encode from data
// without going through codes: each group's parity is its generator rows
// applied byte by byte with gf.Mul.
func referenceStripe(s *Scheme, data [][]byte) [][]byte {
	cells := make([][]byte, s.CellsPerStripe())
	for e, d := range data {
		cells[s.cellIndex(s.lay.DataPos(e))] = d
	}
	gen := s.code.Generator()
	k, n := s.code.K(), s.code.N()
	for g := 0; g < s.lay.Groups(); g++ {
		for t := k; t < n; t++ {
			p := make([]byte, len(data[0]))
			for j := 0; j < k; j++ {
				src := cells[s.cellIndex(s.lay.GroupCell(g, j))]
				for b := range p {
					p[b] ^= gf.Mul(gen.At(t, j), src[b])
				}
			}
			cells[s.cellIndex(s.lay.GroupCell(g, t))] = p
		}
	}
	return cells
}

// TestIntoPathsMatchAllocatingPaths checks the pooled ...Into forms and
// their allocating wrappers against a stripe built from the source bytes,
// across codes and layouts.
func TestIntoPathsMatchAllocatingPaths(t *testing.T) {
	const size = 96
	codesUnder := []codes.Code{mustRS(6, 3), lrc.Must(6, 2, 2)}
	for _, c := range codesUnder {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormECFRM} {
			s := MustScheme(c, form)
			t.Run(s.Name(), func(t *testing.T) {
				var bufs Buffers
				data := makeStripeData(s, size, 42)
				want := referenceStripe(s, data)
				same := func(what string, cells [][]byte) {
					t.Helper()
					for i := range want {
						if !bytes.Equal(cells[i], want[i]) {
							t.Fatalf("%s: cell %d differs from the source stripe", what, i)
						}
					}
				}
				alloc, err := s.EncodeStripe(data)
				if err != nil {
					t.Fatal(err)
				}
				same("EncodeStripe", alloc)
				cells := make([][]byte, s.CellsPerStripe())
				if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
					t.Fatal(err)
				}
				same("EncodeStripeInto", cells)

				// Knock out two cells and repair through both forms.
				lost := []int{0, len(cells) / 2}
				for _, i := range lost {
					cells[i], alloc[i] = nil, nil
				}
				if err := s.ReconstructStripe(alloc); err != nil {
					t.Fatal(err)
				}
				same("ReconstructStripe", alloc)
				if err := s.ReconstructStripeInto(&bufs, cells); err != nil {
					t.Fatal(err)
				}
				same("ReconstructStripeInto", cells)

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
// paths and VerifyStripe allocate nothing once the Buffers arena and scratch pools are warm —
// the regression gate for the zero-allocation hot path.
func TestZeroAllocSteadyState(t *testing.T) {
	checkZeroAllocSteadyState(t, mustRS(6, 3), lrc.Must(6, 2, 2))
}

// checkZeroAllocSteadyState warms each code's ECFRM scheme, then asserts its
// pooled encode, reconstruct, degraded-rebuild and verify paths allocate
// nothing.
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
		check("VerifyStripe", func() {
			if ok, err := s.VerifyStripe(&bufs, cells); err != nil || !ok {
				t.Fatalf("clean stripe: ok=%v err=%v", ok, err)
			}
		})
		// The pooled re-encode must still see one flipped parity byte.
		last := cells[len(cells)-1]
		last[size/2] ^= 1
		if ok, err := s.VerifyStripe(&bufs, cells); err != nil || ok {
			t.Errorf("%s: flipped parity byte verified: ok=%v err=%v", s.Name(), ok, err)
		}
		last[size/2] ^= 1
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
