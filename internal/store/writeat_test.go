package store

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// totalWrites sums the element-write counters across all devices.
func totalWrites(s *Store) int {
	n := 0
	for d := 0; d < s.Scheme().N(); d++ {
		n += s.Device(d).Writes()
	}
	return n
}

// TestWriteAtDeltaEquivalentToReencode is the parity-delta property test:
// for every candidate code × layout form, a random sequence of element-
// aligned sub-stripe overwrites applied via the parity-delta path (WriteAt)
// and via full-stripe re-encode (WriteAtReencode) must leave two stores
// byte-identical and scrub-clean — while the delta path writes strictly
// fewer device elements.
func TestWriteAtDeltaEquivalentToReencode(t *testing.T) {
	codeSet := map[string]codes.Code{
		"rs":  rs.Must(6, 3),
		"lrc": lrc.Must(6, 2, 2),
	}
	forms := []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM}
	for name, code := range codeSet {
		for _, form := range forms {
			t.Run(name+"/"+string(form), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(len(name)) + int64(len(form))*17))
				mk := func() *Store {
					s := MustNew(core.MustScheme(code, form), 64)
					fill(t, s, 6*s.stripeBytes(), 42)
					return s
				}
				delta, reenc := mk(), mk()
				delta.ResetCounters()
				reenc.ResetCounters()

				elem := delta.ElementSize()
				extent := delta.NextOffset()
				for i := 0; i < 24; i++ {
					// Element-aligned offset and length, inside the sealed
					// extent, spanning 1..4 elements (often sub-stripe).
					maxElems := int(extent)/elem - 1
					at := int64(rng.Intn(maxElems)) * int64(elem)
					n := 1 + rng.Intn(4)
					if rem := int(extent-at) / elem; n > rem {
						n = rem
					}
					data := make([]byte, n*elem)
					rng.Read(data)
					if err := delta.WriteAt(at, data); err != nil {
						t.Fatalf("update %d: delta WriteAt(%d,%d): %v", i, at, len(data), err)
					}
					if err := reenc.WriteAtReencode(at, data); err != nil {
						t.Fatalf("update %d: WriteAtReencode(%d,%d): %v", i, at, len(data), err)
					}
				}

				dres, err := delta.ReadAt(0, int(extent))
				if err != nil {
					t.Fatalf("delta read: %v", err)
				}
				rres, err := reenc.ReadAt(0, int(extent))
				if err != nil {
					t.Fatalf("reencode read: %v", err)
				}
				if !bytes.Equal(dres.Data, rres.Data) {
					t.Fatal("delta and re-encode stores diverged")
				}
				for which, s := range map[string]*Store{"delta": delta, "reencode": reenc} {
					bad, err := s.Scrub()
					if err != nil {
						t.Fatalf("%s scrub: %v", which, err)
					}
					if len(bad) != 0 {
						t.Fatalf("%s scrub found corrupt stripes %v", which, bad)
					}
				}

				// Scrub reads don't write; compare the accumulated write
				// counters. The delta path touches changed data cells plus
				// their parity cells; re-encode rewrites whole stripes.
				dw, rw := totalWrites(delta), totalWrites(reenc)
				if dw >= rw {
					t.Fatalf("parity-delta wrote %d elements, re-encode wrote %d; delta must be strictly cheaper", dw, rw)
				}
				t.Logf("%s/%s: delta wrote %d elements vs re-encode %d (%.1fx fewer)",
					name, form, dw, rw, float64(rw)/float64(dw))
			})
		}
	}
}

// TestWriteAtReencodeValidation: the baseline path enforces the same
// argument contract as WriteAt.
func TestWriteAtReencodeValidation(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fill(t, s, 2*s.stripeBytes(), 1)
	elem := s.ElementSize()
	if err := s.WriteAtReencode(1, make([]byte, elem)); err == nil {
		t.Fatal("unaligned offset accepted")
	}
	if err := s.WriteAtReencode(0, make([]byte, elem-1)); err == nil {
		t.Fatal("unaligned length accepted")
	}
	if err := s.WriteAtReencode(s.NextOffset(), make([]byte, elem)); err == nil {
		t.Fatal("write past sealed extent accepted")
	}
}

// TestWriteAtReencodeFaultAborts: like WriteAt, the re-encode baseline must
// gate every cell before mutating any device — a faulted device aborts the
// whole update and leaves both data and parity untouched.
func TestWriteAtReencodeFaultAborts(t *testing.T) {
	s := testStore(t, layout.FormECFRM)
	fastRetries(s)
	fill(t, s, 2*s.stripeBytes(), 5)
	before, err := s.ReadAt(0, int(s.NextOffset()))
	if err != nil {
		t.Fatalf("read before: %v", err)
	}
	orig := append([]byte(nil), before.Data...)

	s.SetFaultInjector(stubInjector{write: onlyDev(2, Fault{Err: errors.New("injected write fault")})})
	upd := bytes.Repeat([]byte{0xee}, 2*s.ElementSize())
	if err := s.WriteAtReencode(0, upd); err == nil {
		t.Fatal("faulted re-encode reported success")
	}
	s.SetFaultInjector(nil)

	after, err := s.ReadAt(0, int(s.NextOffset()))
	if err != nil {
		t.Fatalf("read after: %v", err)
	}
	if !bytes.Equal(after.Data, orig) {
		t.Fatal("aborted re-encode mutated the store")
	}
	if bad, err := s.Scrub(); err != nil || len(bad) != 0 {
		t.Fatalf("scrub after aborted write: bad=%v err=%v", bad, err)
	}
}
