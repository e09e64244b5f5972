package gf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAddIsXOR: field addition is XOR, so adding a slice with coefficient 1
// XORs it in, and adding it twice cancels (subtraction equals addition in
// characteristic 2).
func TestAddIsXOR(t *testing.T) {
	dst, src := []byte{0x53}, []byte{0xCA}
	MulAddSlice(1, dst, src)
	if dst[0] != 0x53^0xCA {
		t.Fatalf("0x53 + 0xCA = %#x, want %#x", dst[0], 0x53^0xCA)
	}
	MulAddSlice(1, dst, src)
	if dst[0] != 0x53 {
		t.Fatalf("0x53 + 0xCA - 0xCA = %#x, want 0x53", dst[0])
	}
}

func TestMulKnownVectors(t *testing.T) {
	// Vectors for polynomial 0x11d (standard in storage systems).
	cases := []struct{ a, b, want byte }{
		{0, 0, 0},
		{0, 21, 0},
		{1, 1, 1},
		{1, 0x53, 0x53},
		{2, 2, 4},
		{2, 0x80, 0x1d}, // overflow wraps through the polynomial
		{4, 0x80, 0x3a},
		{0x80, 0x80, 0x13},
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x,%#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

// mulSlow is a bitwise carry-less multiply reduced by Poly, used as an
// independent oracle for the table-driven Mul.
func mulSlow(a, b byte) byte {
	var prod uint16
	aa, bb := uint16(a), uint16(b)
	for bb != 0 {
		if bb&1 != 0 {
			prod ^= aa
		}
		aa <<= 1
		if aa&0x100 != 0 {
			aa ^= Poly
		}
		bb >>= 1
	}
	return byte(prod)
}

func TestMulMatchesBitwiseOracle(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), mulSlow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x,%#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestFieldAxiomsExhaustive(t *testing.T) {
	// Commutativity and identity over the full field.
	for a := 0; a < 256; a++ {
		if Mul(byte(a), 1) != byte(a) {
			t.Fatalf("1 is not multiplicative identity for %#x", a)
		}
		if Mul(byte(a), 0) != 0 {
			t.Fatalf("0 is not absorbing for %#x", a)
		}
		for b := a; b < 256; b++ {
			if Mul(byte(a), byte(b)) != Mul(byte(b), byte(a)) {
				t.Fatalf("Mul not commutative at %#x,%#x", a, b)
			}
		}
	}
}

func TestAssociativityAndDistributivity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 5000}
	assoc := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(assoc, cfg); err != nil {
		t.Errorf("associativity: %v", err)
	}
	distrib := func(a, b, c byte) bool {
		return Mul(a, b^c) == Mul(a, b)^Mul(a, c)
	}
	if err := quick.Check(distrib, cfg); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

func TestInvDivExhaustive(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("Inv(%#x)=%#x is not an inverse", a, inv)
		}
		if Div(1, byte(a)) != inv {
			t.Fatalf("Div(1,%#x) != Inv(%#x)", a, a)
		}
		for b := 1; b < 256; b++ {
			q := Div(byte(a), byte(b))
			if Mul(q, byte(b)) != byte(a) {
				t.Fatalf("Div(%#x,%#x)*%#x != %#x", a, b, b, a)
			}
		}
	}
	if Div(0, 7) != 0 {
		t.Fatal("0/x must be 0")
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(3, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

func TestExp(t *testing.T) {
	if Exp(0, 0) != 1 {
		t.Fatal("Exp(0,0) must be 1 by convention")
	}
	if Exp(0, 5) != 0 {
		t.Fatal("Exp(0,5) must be 0")
	}
	for _, base := range []byte{1, 2, 3, 0x53, 0xff} {
		acc := byte(1)
		for e := 0; e < 520; e++ {
			if got := Exp(base, e); got != acc {
				t.Fatalf("Exp(%#x,%d) = %#x, want %#x", base, e, got, acc)
			}
			acc = Mul(acc, base)
		}
	}
	// Negative exponents invert.
	for _, base := range []byte{2, 3, 0x53} {
		if Mul(Exp(base, -3), Exp(base, 3)) != 1 {
			t.Fatalf("Exp(%#x,-3) is not inverse of Exp(%#x,3)", base, base)
		}
	}
}

func TestGeneratorCyclesThroughField(t *testing.T) {
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		seen[Generator(i)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator visits %d elements, want 255", len(seen))
	}
	if Generator(0) != 1 || Generator(255) != 1 {
		t.Fatal("generator period must be 255")
	}
	if Generator(-1) != Generator(254) {
		t.Fatal("negative indices must wrap")
	}
}

func TestLogExpRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Generator(Log(byte(a))) != byte(a) {
			t.Fatalf("Generator(Log(%#x)) != %#x", a, a)
		}
	}
}

func TestPolyEval(t *testing.T) {
	// p(x) = 3 + 2x + x^2 over GF(256)
	p := []byte{3, 2, 1}
	if got := PolyEval(p, 0); got != 3 {
		t.Fatalf("p(0) = %#x, want 3", got)
	}
	for _, x := range []byte{1, 2, 7, 0xfe} {
		want := 3 ^ Mul(2, x) ^ Mul(x, x)
		if got := PolyEval(p, x); got != want {
			t.Fatalf("p(%#x) = %#x, want %#x", x, got, want)
		}
	}
	if PolyEval(nil, 9) != 0 {
		t.Fatal("empty polynomial must evaluate to 0")
	}
}

func TestAddSlice(t *testing.T) {
	dst := []byte{1, 2, 3, 4}
	src := []byte{4, 3, 2, 1}
	AddSlice(dst, src)
	want := []byte{5, 1, 1, 5}
	if !bytes.Equal(dst, want) {
		t.Fatalf("AddSlice = %v, want %v", dst, want)
	}
	AddSlice(dst, src)
	if !bytes.Equal(dst, []byte{1, 2, 3, 4}) {
		t.Fatal("AddSlice must be an involution")
	}
}

func TestSliceKernelMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"AddSlice":    func() { AddSlice(make([]byte, 3), make([]byte, 4)) },
		"MulSlice":    func() { MulSlice(2, make([]byte, 3), make([]byte, 4)) },
		"MulAddSlice": func() { MulAddSlice(2, make([]byte, 3), make([]byte, 4)) },
		"DotSlice":    func() { DotSlice(make([]byte, 3), []byte{1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMulSliceAgainstScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 257)
	dst := make([]byte, 257)
	for trial := 0; trial < 64; trial++ {
		c := byte(rng.Intn(256))
		rng.Read(src)
		MulSlice(c, dst, src)
		for i := range src {
			if dst[i] != Mul(c, src[i]) {
				t.Fatalf("MulSlice(c=%#x) mismatch at %d", c, i)
			}
		}
	}
}

func TestMulAddSliceAgainstScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 129)
	dst := make([]byte, 129)
	orig := make([]byte, 129)
	for trial := 0; trial < 64; trial++ {
		c := byte(rng.Intn(256))
		rng.Read(src)
		rng.Read(dst)
		copy(orig, dst)
		MulAddSlice(c, dst, src)
		for i := range src {
			if dst[i] != orig[i]^Mul(c, src[i]) {
				t.Fatalf("MulAddSlice(c=%#x) mismatch at %d", c, i)
			}
		}
	}
}

func TestMulSliceSpecialCases(t *testing.T) {
	src := []byte{9, 8, 7}
	dst := []byte{1, 1, 1}
	MulSlice(0, dst, src)
	if !bytes.Equal(dst, []byte{0, 0, 0}) {
		t.Fatal("MulSlice with c=0 must zero dst")
	}
	MulSlice(1, dst, src)
	if !bytes.Equal(dst, src) {
		t.Fatal("MulSlice with c=1 must copy")
	}
	copy(dst, []byte{1, 1, 1})
	MulAddSlice(0, dst, src)
	if !bytes.Equal(dst, []byte{1, 1, 1}) {
		t.Fatal("MulAddSlice with c=0 must be a no-op")
	}
}

func TestDotSlice(t *testing.T) {
	vecs := [][]byte{{1, 0, 2}, {0, 1, 3}, {5, 5, 5}}
	coeffs := []byte{2, 3, 1}
	dst := make([]byte, 3)
	DotSlice(dst, coeffs, vecs)
	for i := 0; i < 3; i++ {
		want := Mul(2, vecs[0][i]) ^ Mul(3, vecs[1][i]) ^ Mul(1, vecs[2][i])
		if dst[i] != want {
			t.Fatalf("DotSlice[%d] = %#x, want %#x", i, dst[i], want)
		}
	}
}

func TestPropertyMulLinearOverSlices(t *testing.T) {
	f := func(c byte, a, b [16]byte) bool {
		// c*(a+b) == c*a + c*b elementwise.
		sum := make([]byte, 16)
		copy(sum, a[:])
		AddSlice(sum, b[:])
		lhs := make([]byte, 16)
		MulSlice(c, lhs, sum)

		ca := make([]byte, 16)
		cb := make([]byte, 16)
		MulSlice(c, ca, a[:])
		MulSlice(c, cb, b[:])
		AddSlice(ca, cb)
		return bytes.Equal(lhs, ca)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMulAddSlice(b *testing.B) {
	src := make([]byte, 1<<20)
	dst := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(src)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x57, dst, src)
	}
}

func BenchmarkMul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Mul(byte(i), byte(i>>8))
	}
	_ = acc
}
