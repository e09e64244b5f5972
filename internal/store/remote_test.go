package store

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/rs"
)

// newRemoteOverDisks builds a store over caller-supplied CellBackends that
// are in-process MemDisks — the wiring the gateway uses, minus HTTP.
func newRemoteOverDisks(t *testing.T, scheme *core.Scheme, elem int, cfg CellStoreConfig) (*Store, []*MemDisk) {
	t.Helper()
	disks := make([]*MemDisk, scheme.N())
	for i := range disks {
		disks[i] = NewMemDisk(elem)
	}
	st, _, err := NewWithCellBackends(scheme, elem, cfg, func(d int) (CellBackend, error) {
		return disks[d], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, disks
}

// TestRemoteStoreMatchesLocal: a store over cell backends behaves byte-for-
// byte like a plain mem store across append, read, partial overwrite,
// corruption heal, and disk recovery through the remote replacement factory.
func TestRemoteStoreMatchesLocal(t *testing.T) {
	scheme := core.MustScheme(rs.Must(4, 2), layout.FormECFRM)
	const elem = 64
	remote, _ := newRemoteOverDisks(t, scheme, elem, CellStoreConfig{Sync: true})
	defer remote.Close()
	local := MustNew(scheme, elem)

	rng := rand.New(rand.NewSource(11))
	payload := make([]byte, 7*scheme.DataPerStripe()*elem+37)
	rng.Read(payload)
	for _, s := range []*Store{remote, local} {
		if err := s.Append(payload); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	check := func(stage string) {
		t.Helper()
		for trial := 0; trial < 8; trial++ {
			off := int64(rng.Intn(len(payload)))
			n := 1 + rng.Intn(len(payload)-int(off))
			rr, err := remote.ReadAt(off, n)
			if err != nil {
				t.Fatalf("%s: remote read: %v", stage, err)
			}
			lr, err := local.ReadAt(off, n)
			if err != nil {
				t.Fatalf("%s: local read: %v", stage, err)
			}
			if !bytes.Equal(rr.Data, lr.Data) {
				t.Fatalf("%s: remote and local bytes differ at %d+%d", stage, off, n)
			}
		}
	}
	check("sealed")

	// Partial overwrite (parity-delta path) through both.
	over := make([]byte, 3*elem)
	rng.Read(over)
	for _, s := range []*Store{remote, local} {
		if err := s.WriteAt(int64(elem), over); err != nil {
			t.Fatal(err)
		}
	}
	copy(payload[elem:], over)
	check("overwritten")

	// Silent corruption heals on read.
	if err := remote.CorruptCell(2, layout.Pos{Row: 0, Col: 1}); err != nil {
		t.Fatal(err)
	}
	check("healed")

	// Fail a disk, then rebuild it through the remote replacement factory.
	if !remote.FailDiskWithinTolerance(3) {
		t.Fatal("could not fail disk 3")
	}
	check("degraded")
	if _, err := remote.RecoverDisk(3); err != nil {
		t.Fatalf("recover over remote backends: %v", err)
	}
	check("recovered")
	if got := remote.FailedDisks(); len(got) != 0 {
		t.Fatalf("failed disks after recover: %v", got)
	}
}

// TestRemoteStoreRecoverExtent: a second store opened over the same cell
// backends with Recover re-derives the sealed extent — the gateway-restart
// path — and serves identical bytes.
func TestRemoteStoreRecoverExtent(t *testing.T) {
	scheme := core.MustScheme(rs.Must(4, 2), layout.FormRotated)
	const elem = 32
	disks := make([]*MemDisk, scheme.N())
	for i := range disks {
		disks[i] = NewMemDisk(elem)
	}
	open := func(d int) (CellBackend, error) { return disks[d], nil }

	st1, _, err := NewWithCellBackends(scheme, elem, CellStoreConfig{Sync: true}, open)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 5*scheme.DataPerStripe()*elem/16)
	if err := st1.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := st1.Flush(); err != nil {
		t.Fatal(err)
	}
	stripes := st1.Stripes()
	// Close the first store: MemDisk.Close keeps the cells — the "gateway
	// restarted, nodes alive" scenario.
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, report, err := NewWithCellBackends(scheme, elem, CellStoreConfig{Sync: true, Recover: true}, open)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if report.Stripes != stripes {
		t.Fatalf("recovered %d stripes, want %d", report.Stripes, stripes)
	}
	got, err := st2.ReadAt(0, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, payload) {
		t.Fatal("recovered store returned different bytes")
	}
}

// TestSetDeviceNodesBias: with a device→node map installed, a busy device
// inflates the bias of every device on its node.
func TestSetDeviceNodesBias(t *testing.T) {
	scheme := core.MustScheme(rs.Must(4, 2), layout.FormStandard)
	st := MustNew(scheme, 32)
	n := scheme.N()
	nodeOf := make([]int, n)
	for d := range nodeOf {
		nodeOf[d] = d % 3 // 3 nodes
	}
	if err := st.SetDeviceNodes(nodeOf); err != nil {
		t.Fatal(err)
	}
	if err := st.SetDeviceNodes(make([]int, n+1)); err == nil {
		t.Fatal("wrong-length map accepted")
	}

	// Simulate inflight load on device 0 (node 0); every node-0 device must
	// inherit it, others stay zero.
	st.devices[0].inflight.Add(5)
	defer st.devices[0].inflight.Add(-5)
	bias := st.inflightBias()
	if bias == nil {
		t.Fatal("bias nil with inflight load")
	}
	for d := 0; d < n; d++ {
		want := 0
		if nodeOf[d] == 0 {
			want = 5
		}
		if bias[d] != want {
			t.Fatalf("bias[%d] = %d, want %d (node %d)", d, bias[d], want, nodeOf[d])
		}
	}
}
