package crs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/layout"
	"repro/internal/rs"
)

func randShards(rng *rand.Rand, count, size int) [][]byte {
	s := make([][]byte, count)
	for i := range s {
		s[i] = make([]byte, size)
		rng.Read(s[i])
	}
	return s
}

func TestNewValidation(t *testing.T) {
	for _, p := range [][2]int{{0, 1}, {1, 0}, {200, 100}} {
		if _, err := New(p[0], p[1]); err == nil {
			t.Errorf("New(%d,%d) succeeded", p[0], p[1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Must did not panic")
		}
	}()
	Must(0, 0)
}

func TestNameAndParams(t *testing.T) {
	c := Must(6, 3)
	if c.Name() != "CRS(6,3)" || c.K() != 6 || c.M() != 3 || c.N() != 9 {
		t.Fatalf("params wrong: %s", c.Name())
	}
}

func TestMDSProperty(t *testing.T) {
	// Cauchy construction: every pattern up to m erasures decodable.
	for _, p := range [][2]int{{4, 2}, {6, 3}} {
		c := Must(p[0], p[1])
		if got := c.FaultTolerance(); got != p[1] {
			t.Errorf("CRS(%d,%d) tolerance = %d", p[0], p[1], got)
		}
	}
}

func TestEncodeRejectsBadSizes(t *testing.T) {
	c := Must(3, 2)
	if _, err := c.Encode(randShards(rand.New(rand.NewSource(1)), 2, 16)); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("wrong count: %v", err)
	}
	if _, err := c.Encode(randShards(rand.New(rand.NewSource(1)), 3, 15)); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("non-multiple-of-W size: %v", err)
	}
	if _, err := c.Encode([][]byte{make([]byte, 16), nil, make([]byte, 16)}); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("nil shard: %v", err)
	}
	if _, err := c.Encode([][]byte{make([]byte, 16), make([]byte, 8), make([]byte, 16)}); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("ragged shards: %v", err)
	}
}

func TestEncodeIsPureXOROfPackets(t *testing.T) {
	// Hand-check linearity: encoding the XOR of two datasets equals the
	// XOR of their encodings (any XOR-only scheme must satisfy this), and
	// encoding zeros yields zeros.
	c := Must(4, 2)
	rng := rand.New(rand.NewSource(2))
	a := randShards(rng, 4, 64)
	b := randShards(rng, 4, 64)
	sum := make([][]byte, 4)
	for i := range sum {
		sum[i] = make([]byte, 64)
		for t2 := range sum[i] {
			sum[i][t2] = a[i][t2] ^ b[i][t2]
		}
	}
	pa, err := c.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := c.Encode(b)
	ps, _ := c.Encode(sum)
	for i := range ps {
		for t2 := range ps[i] {
			if ps[i][t2] != pa[i][t2]^pb[i][t2] {
				t.Fatalf("not linear at parity %d byte %d", i, t2)
			}
		}
	}
	zero, _ := c.Encode([][]byte{make([]byte, 64), make([]byte, 64), make([]byte, 64), make([]byte, 64)})
	for i := range zero {
		for _, v := range zero[i] {
			if v != 0 {
				t.Fatal("encoding zeros gave nonzero parity")
			}
		}
	}
}

func TestBitGeneratorMatchesFieldArithmetic(t *testing.T) {
	// Block (i,j) of the expanded generator must implement multiplication
	// by gen[i][j]: applying the block to the bit-decomposition of v gives
	// the bits of gen[i][j]·v.
	c := Must(3, 2)
	g := c.Generator()
	bg := c.BitGenerator()
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			a := g.At(i, j)
			for v := 0; v < 256; v += 17 {
				want := gf.Mul(a, byte(v))
				var got byte
				for row := 0; row < W; row++ {
					bit := byte(0)
					for col := 0; col < W; col++ {
						if bg.At(i*W+row, j*W+col) && byte(v)>>uint(col)&1 == 1 {
							bit ^= 1
						}
					}
					got |= bit << uint(row)
				}
				if got != want {
					t.Fatalf("block (%d,%d): %#x·%#x = %#x, want %#x", i, j, a, v, got, want)
				}
			}
		}
	}
}

func TestRoundTripAllPatterns(t *testing.T) {
	const k, m = 4, 2
	c := Must(k, m)
	rng := rand.New(rand.NewSource(3))
	data := randShards(rng, k, 48)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)
	n := k + m
	for mask := 1; mask < 1<<n; mask++ {
		cnt := 0
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				cnt++
			}
		}
		if cnt > m {
			continue
		}
		shards := make([][]byte, n)
		for i := range shards {
			if mask>>i&1 == 0 {
				shards[i] = append([]byte(nil), full[i]...)
			}
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], full[i]) {
				t.Fatalf("mask %b shard %d mismatch", mask, i)
			}
		}
	}
}

func TestReconstructBeyondTolerance(t *testing.T) {
	c := Must(3, 2)
	rng := rand.New(rand.NewSource(4))
	data := randShards(rng, 3, 16)
	parity, _ := c.Encode(data)
	shards := [][]byte{nil, nil, nil, parity[0], parity[1]}
	if err := c.Reconstruct(shards); !errors.Is(err, codes.ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestReconstructElements(t *testing.T) {
	c := Must(3, 2)
	rng := rand.New(rand.NewSource(5))
	data := randShards(rng, 3, 24)
	parity, _ := c.Encode(data)
	shards := [][]byte{data[0], nil, data[2], parity[0], nil}
	if err := c.ReconstructElements(shards, []int{1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[1], data[1]) {
		t.Fatal("target not rebuilt correctly")
	}
	if err := c.ReconstructElements(shards, []int{9}); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("out-of-range target: %v", err)
	}
}

func TestXORCountPositiveAndBounded(t *testing.T) {
	c := Must(6, 3)
	x := c.XORCount()
	if x <= 0 {
		t.Fatal("XOR count must be positive")
	}
	// Upper bound: every parity bit-row can cost at most k·W-1 XORs.
	if x >= c.M()*W*c.K()*W {
		t.Fatalf("XOR count %d implausibly large", x)
	}
}

func TestCRSWorksAsECFRMCandidate(t *testing.T) {
	// The point of CRS here: it drops into the framework unchanged.
	c := Must(6, 3)
	scheme, err := core.NewScheme(c, layout.FormECFRM)
	if err != nil {
		t.Fatal(err)
	}
	if scheme.Name() != "EC-FRM-CRS(6,3)" {
		t.Fatalf("name %q", scheme.Name())
	}
	rng := rand.New(rand.NewSource(6))
	data := randShards(rng, scheme.DataPerStripe(), 32)
	cells, err := scheme.EncodeStripe(data)
	if err != nil {
		t.Fatal(err)
	}
	// Fail 3 disks, reconstruct, verify.
	n := scheme.N()
	broken := make([][]byte, len(cells))
	for i := range cells {
		if i%n != 0 && i%n != 4 && i%n != 8 {
			broken[i] = cells[i]
		}
	}
	if err := scheme.ReconstructStripe(broken); err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !bytes.Equal(broken[i], cells[i]) {
			t.Fatalf("cell %d mismatch", i)
		}
	}
}

func TestRecoverySetsValid(t *testing.T) {
	c := Must(5, 3)
	for idx := 0; idx < c.N(); idx++ {
		for si, set := range c.RecoverySets(idx) {
			if !c.VerifySet(idx, set) {
				t.Fatalf("element %d set %d invalid: %v", idx, si, set)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out of range did not panic")
		}
	}()
	c.RecoverySets(8)
}

func BenchmarkEncodeCRS63(b *testing.B) {
	c := Must(6, 3)
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 1<<20)
	}
	b.SetBytes(6 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeCRS63(b *testing.B) {
	c := Must(6, 3)
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 1<<20)
	}
	parity, _ := c.Encode(data)
	full := append(append([][]byte{}, data...), parity...)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := append([][]byte{}, full...)
		shards[1] = nil
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScheduledEncodeMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range [][2]int{{3, 2}, {6, 3}, {8, 4}} {
		c := Must(p[0], p[1])
		data := randShards(rng, p[0], 64)
		direct, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := c.EncodeScheduled(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range direct {
			if !bytes.Equal(direct[i], sched[i]) {
				t.Fatalf("CRS(%d,%d): scheduled parity %d differs", p[0], p[1], i)
			}
		}
	}
}

func TestScheduleSavesOperations(t *testing.T) {
	// The point of scheduling: fewer XOR passes than the naive bit count.
	for _, p := range [][2]int{{6, 3}, {8, 4}, {10, 5}} {
		c := Must(p[0], p[1])
		if got, naive := c.Schedule().Ops(), c.NaiveXOROps(); got >= naive {
			t.Errorf("CRS(%d,%d): schedule %d ops not below naive %d", p[0], p[1], got, naive)
		}
	}
}

func TestEncodeScheduledValidation(t *testing.T) {
	c := Must(3, 2)
	if _, err := c.EncodeScheduled(make([][]byte, 2)); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("count: %v", err)
	}
	if _, err := c.EncodeScheduled([][]byte{make([]byte, 15), make([]byte, 15), make([]byte, 15)}); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("alignment: %v", err)
	}
}

func BenchmarkEncodeScheduledCRS63(b *testing.B) {
	c := Must(6, 3)
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 1<<20)
	}
	b.SetBytes(6 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeScheduled(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestApplyDeltaMatchesReencode(t *testing.T) {
	c := Must(4, 2)
	rng := rand.New(rand.NewSource(8))
	data := randShards(rng, 4, 48)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Update element 2 via the delta path.
	newData := make([]byte, 48)
	rng.Read(newData)
	delta := make([]byte, 48)
	for i := range delta {
		delta[i] = data[2][i] ^ newData[i]
	}
	if err := c.ApplyDelta(parity, 2, delta); err != nil {
		t.Fatal(err)
	}
	data[2] = newData
	want, _ := c.Encode(data)
	for i := range want {
		if !bytes.Equal(parity[i], want[i]) {
			t.Fatalf("parity %d diverges from re-encode after delta", i)
		}
	}
	// Validation paths.
	if err := c.ApplyDelta(parity[:1], 0, delta); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("short parity: %v", err)
	}
	if err := c.ApplyDelta(parity, 9, delta); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("bad element: %v", err)
	}
	if err := c.ApplyDelta(parity, 0, delta[:47]); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("unaligned delta: %v", err)
	}
	if err := c.ApplyDelta([][]byte{make([]byte, 40), make([]byte, 48)}, 0, delta); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("ragged parity: %v", err)
	}
}

// TestWideConstructionIsFast builds CRS(64,4) under a generous deadline:
// construction audits the claimed tolerance rather than searching every
// erasure pattern, so its cost no longer explodes with the stripe width.
func TestWideConstructionIsFast(t *testing.T) {
	start := time.Now()
	c, err := New(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("New(64,4) took %v", took)
	}
	if c.FaultTolerance() != 4 {
		t.Fatalf("tolerance = %d, want 4", c.FaultTolerance())
	}
}

func TestWideStripeRoundTrip(t *testing.T) {
	// Stripes far past Table I's widths: encode at k=64, knock out m random
	// shards, rebuild through the XOR decode.
	const k, m = 64, 4
	c := Must(k, m)
	rng := rand.New(rand.NewSource(9))
	data := randShards(rng, k, 64)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)
	for trial := 0; trial < 4; trial++ {
		shards := make([][]byte, k+m)
		for i := range shards {
			shards[i] = append([]byte(nil), full[i]...)
		}
		for _, e := range rng.Perm(k + m)[:m] {
			shards[e] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], full[i]) {
				t.Fatalf("trial %d shard %d mismatch", trial, i)
			}
		}
	}
}

func TestCRSSameCodeAsRS(t *testing.T) {
	// CRS and RS are built from the same Cauchy generator, so the recovered
	// data must agree even though the shard layouts differ: rebuild the same
	// erased data element through both kernels.
	const k, m = 8, 3
	xc := Must(k, m)
	fc := rs.Must(k, m)
	rng := rand.New(rand.NewSource(11))
	data := randShards(rng, k, 32)
	px, err := xc.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := fc.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	sx := append(append([][]byte{}, data...), px...)
	sf := append(append([][]byte{}, data...), pf...)
	sx[2], sf[2] = nil, nil
	if err := xc.Reconstruct(sx); err != nil {
		t.Fatal(err)
	}
	if err := fc.Reconstruct(sf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sx[2], data[2]) || !bytes.Equal(sf[2], data[2]) {
		t.Fatal("recovered data element differs from original")
	}
}
