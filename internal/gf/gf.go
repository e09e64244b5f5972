// Package gf implements arithmetic over the finite field GF(2^8).
//
// It is the stand-in for the GF-Complete library the paper's Jerasure-based
// implementation relied on: full field arithmetic (add, multiply, divide,
// invert, exponentiate) built on log/exp tables over the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), plus the bulk slice kernels erasure
// coding actually spends its time in (see kernels.go).
//
// All operations are allocation-free and safe for concurrent use: the tables
// are computed once at package init and never mutated afterwards.
package gf

// Poly is the primitive polynomial used to generate the field,
// x^8 + x^4 + x^3 + x^2 + 1. The same polynomial is used by Jerasure's
// default GF(2^8) and by most storage systems, so test vectors carry over.
const Poly = 0x11d

// Order is the number of elements in the field.
const Order = 256

// generator of the multiplicative group. 2 is primitive for 0x11d.
const generator = 2

var (
	// expTable[i] = generator^i for i in [0, 510). Doubled so that
	// Mul can index exp[log(a)+log(b)] without a modulo reduction.
	expTable [2 * (Order - 1)]byte
	// logTable[a] = discrete log of a (log of 0 is unused and set to 0).
	logTable [Order]uint16
	// invTable[a] = multiplicative inverse of a (inv of 0 unused, 0).
	invTable [Order]byte
	// mulTable[a][b] = a*b, a full 64KiB product table. Bulk kernels use
	// a row of this table to avoid the double log lookup per byte.
	mulTable [Order][Order]byte
)

func init() {
	x := 1
	for i := 0; i < Order-1; i++ {
		expTable[i] = byte(x)
		expTable[i+Order-1] = byte(x)
		logTable[x] = uint16(i)
		x <<= 1
		if x >= Order {
			x ^= Poly
		}
	}
	for a := 1; a < Order; a++ {
		invTable[a] = expTable[(Order-1)-int(logTable[a])]
	}
	for a := 1; a < Order; a++ {
		la := int(logTable[a])
		for b := 1; b < Order; b++ {
			mulTable[a][b] = expTable[la+int(logTable[b])]
		}
	}
}

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Div returns a/b in GF(2^8). It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += Order - 1
	}
	return expTable[d]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return invTable[a]
}

// Exp returns base^e in GF(2^8). Exp(0, 0) is 1 by convention.
func Exp(base byte, e int) byte {
	if e == 0 {
		return 1
	}
	if base == 0 {
		return 0
	}
	if e < 0 {
		base = Inv(base)
		e = -e
	}
	lg := (int(logTable[base]) * e) % (Order - 1)
	return expTable[lg]
}

// Generator returns g^i where g is the field's primitive element (2).
// Generator(0) == 1 and the sequence has period 255.
func Generator(i int) byte {
	i %= Order - 1
	if i < 0 {
		i += Order - 1
	}
	return expTable[i]
}

// Log returns the discrete logarithm of a base the primitive element.
// It panics if a is zero, which has no logarithm.
func Log(a byte) int {
	if a == 0 {
		panic("gf: log of zero")
	}
	return int(logTable[a])
}

// PolyEval evaluates the polynomial with coefficients coeffs (coeffs[i] is
// the coefficient of x^i) at point x.
func PolyEval(coeffs []byte, x byte) byte {
	var acc byte
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = Mul(acc, x) ^ coeffs[i]
	}
	return acc
}
