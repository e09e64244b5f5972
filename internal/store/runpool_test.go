package store

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
)

// TestRunPoolClasses: Get lends exactly the bytes asked for, with a
// checksum slot per whole cell, from power-of-two cell classes; a buffer
// past the largest class is a plain allocation Lent does not count, and
// every pooled buffer Put back leaves Lent at zero.
func TestRunPoolClasses(t *testing.T) {
	const elem = 512
	p := NewRunPool(elem)
	var lent []*RunBuf
	for _, tc := range []struct{ n, class, crcs int }{
		{0, 0, 0}, {1, 0, 0}, {elem, 0, 1}, {elem + 1, 1, 1}, {3 * elem, 2, 3},
		{64 * elem, 6, 64}, {65 * elem, -1, 65},
	} {
		b := p.Get(tc.n)
		if len(b.Data) != tc.n || cap(b.Data) != tc.n || len(b.CRCs) != tc.crcs || b.class != tc.class {
			t.Fatalf("Get(%d): %d bytes (cap %d), %d checksums, class %d; want %d, %d, class %d",
				tc.n, len(b.Data), cap(b.Data), len(b.CRCs), b.class, tc.n, tc.crcs, tc.class)
		}
		lent = append(lent, b)
	}
	if got := p.Lent(); got != 6 {
		t.Fatalf("Lent = %d with six pooled buffers out", got)
	}
	for _, b := range lent {
		p.Put(b)
	}
	p.Put(nil)
	if got := p.Lent(); got != 0 {
		t.Fatalf("Lent = %d after every buffer came back", got)
	}
}

// TestReleasedCellsArePoisoned: a run buffer going back to the pool is
// filled with poisonByte in test binaries, so a cell kept past its result's
// Release reads as poison — which is how every test of the store, the
// gateway and the heal, rebuild, scrub and recovery paths would catch a
// reader that does. Here one deliberately keeps a cell.
func TestReleasedCellsArePoisoned(t *testing.T) {
	if !poisonReleased {
		t.Fatal("released run buffers are not poisoned in this test binary")
	}
	st := MustNew(core.MustScheme(mustRS(6, 3), layout.FormECFRM), 4096)
	payload := fill(t, st, 2*st.stripeBytes(), 9)
	res, err := st.ReadStream(context.Background(), 0, len(payload), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	res.WriteTo(&got)
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("streamed read returned wrong bytes")
	}
	kept := res.parts[0]
	res.Release()
	res.Release() // a second Release is a no-op
	if !bytes.Equal(kept, bytes.Repeat([]byte{poisonByte}, len(kept))) {
		t.Fatal("a cell kept past Release still reads as data, not poison")
	}
	if n := st.RunPool().Lent(); n != 0 {
		t.Fatalf("%d run buffers lent after Release", n)
	}
}
