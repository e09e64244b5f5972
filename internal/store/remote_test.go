package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
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
// byte like a plain mem store across append, read, corruption heal, and
// disk recovery through the remote replacement factory.
func TestRemoteStoreMatchesLocal(t *testing.T) {
	scheme := core.MustScheme(mustRS(4, 2), layout.FormECFRM)
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
	scheme := core.MustScheme(mustRS(4, 2), layout.FormRotated)
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

	st2, report, err := NewWithCellBackends(scheme, elem, CellStoreConfig{Sync: true}, open)
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

// TestRemoteStoreRecoverTornTail is FuzzDiskRecovery's crash model over
// NewWithCellBackends, the gateway-restart path: every node keeps the
// stripes up to a barrier and an arbitrary, uneven share of the rest. The
// reopen with Recover must keep the barrier stripes and serve a byte-identical
// prefix, and a second reopen must find nothing to do. A GET that then meets
// a cell its backend lacks heals it from its group like a corrupt one and
// serves the right bytes.
func TestRemoteStoreRecoverTornTail(t *testing.T) {
	scheme := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	const elem, stripes = 32, 5
	rows := scheme.Layout().Rows()
	var healed, truncated int
	for seed := int64(1); seed <= 12; seed++ {
		st, disks := newRemoteOverDisks(t, scheme, elem, CellStoreConfig{Sync: true})
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, stripes*scheme.DataPerStripe()*elem)
		rng.Read(data)
		if err := st.Append(data); err != nil {
			t.Fatal(err)
		}
		st.Close()

		barrier := rng.Intn(stripes + 1)
		for _, d := range disks {
			if err := d.Truncate(barrier*rows + rng.Intn((stripes-barrier)*rows+1)); err != nil {
				t.Fatal(err)
			}
		}
		open := func(d int) (CellBackend, error) { return disks[d], nil }
		cfg := CellStoreConfig{Sync: true}
		st2, rep, err := NewWithCellBackends(scheme, elem, cfg, open)
		if err != nil {
			t.Fatalf("seed %d: recovery failed (barrier %d of %d): %v", seed, barrier, stripes, err)
		}
		if rep.Stripes < barrier {
			t.Fatalf("seed %d: recovered %d stripes, barrier guaranteed %d", seed, rep.Stripes, barrier)
		}
		healed += rep.HealedCells
		truncated += rep.TruncatedStripes
		if n := int(st2.Len()); n > 0 {
			res, err := st2.ReadAt(0, n)
			if err != nil || !bytes.Equal(res.Data, data[:n]) {
				t.Fatalf("seed %d: recovered extent diverges from written data (%v)", seed, err)
			}
		}
		st2.Close()
		st3, rep3, err := NewWithCellBackends(scheme, elem, cfg, open)
		if err != nil {
			t.Fatal(err)
		}
		if *rep3 != (RecoveryReport{Stripes: rep.Stripes}) {
			t.Fatalf("seed %d: recovery not idempotent: second open found %+v after %+v", seed, rep3, rep)
		}
		if rep.Stripes == 0 {
			continue
		}

		// The node holding the last stripe's first data element loses its
		// share of that stripe.
		last := rep.Stripes - 1
		disk := scheme.Layout().Disk(last, scheme.Layout().DataPos(0).Col)
		if err := disks[disk].Truncate(last * rows); err != nil {
			t.Fatal(err)
		}
		off, n := last*scheme.DataPerStripe()*elem, scheme.DataPerStripe()*elem
		for pass, wantHealed := range []bool{true, false} {
			res, err := st3.ReadAt(int64(off), n)
			if err != nil {
				t.Fatalf("seed %d pass %d: GET over a missing cell: %v", seed, pass, err)
			}
			if !bytes.Equal(res.Data, data[off:off+n]) {
				t.Fatalf("seed %d pass %d: GET over a missing cell returned wrong bytes", seed, pass)
			}
			lost := 0
			for _, a := range res.Plan.Reads {
				if a.Disk == disk {
					lost++
					run := []Run{{Disk: disk, Slot: a.Stripe*rows + a.Pos.Row, Count: 1}}
					if disks[disk].ReadRuns(context.Background(), run); run[0].Err != nil {
						t.Fatalf("seed %d pass %d: cell %+v not rewritten: %v", seed, pass, a, run[0].Err)
					}
				}
			}
			if !wantHealed {
				lost = 0
			}
			if res.Healed != lost {
				t.Fatalf("seed %d pass %d: healed %d cells, want %d", seed, pass, res.Healed, lost)
			}
		}
		st3.Close()
	}
	if healed == 0 || truncated == 0 {
		t.Fatalf("the seeds healed %d cells and truncated %d stripes: both paths must run", healed, truncated)
	}
}

// downDisk is a node that does not answer.
type downDisk struct{ *MemDisk }

func (downDisk) ReadRuns(_ context.Context, runs []Run) {
	for i := range runs {
		runs[i].Err = errors.New("connection refused")
	}
}
func (downDisk) WriteRuns(context.Context, []Run, bool) error {
	return errors.New("connection refused")
}

// TestRemoteStoreRecoverRefusesUnreachableDisk: a device out of reach at
// open is neither an erasure to heal nor a torn tail to cut. Within the
// scheme's tolerance the store opens with it failed and serves degraded
// reads byte-identically; with f+1 out of reach the open fails with
// ErrUnavailable. Either way no device is truncated — not even the one
// holding a torn partial stripe past the extent, which an open with every
// device answering cuts.
func TestRemoteStoreRecoverRefusesUnreachableDisk(t *testing.T) {
	scheme := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	const elem, torn = 32, 1
	rows := scheme.Layout().Rows()
	for _, down := range [][]int{nil, {2}, {0, 2, 4, 6}} {
		t.Run(fmt.Sprintf("down=%v", down), func(t *testing.T) {
			st, disks := newRemoteOverDisks(t, scheme, elem, CellStoreConfig{Sync: true})
			data := fill(t, st, 3*scheme.DataPerStripe()*elem, 5)
			st.Close()
			tail := []Run{{Disk: torn, Slot: 3 * rows, Count: 1, Data: make([]byte, elem), CRCs: []uint32{0}}}
			if err := disks[torn].WriteRuns(context.Background(), tail, false); err != nil {
				t.Fatal(err)
			}
			st2, _, err := NewWithCellBackends(scheme, elem, CellStoreConfig{}, func(d int) (CellBackend, error) {
				if slices.Contains(down, d) {
					return downDisk{disks[d]}, nil
				}
				return disks[d], nil
			})
			switch {
			case len(down) > scheme.FaultTolerance():
				if !errors.Is(err, ErrUnavailable) {
					t.Fatalf("open with disks %v down: %v, want ErrUnavailable", down, err)
				}
			case err != nil:
				t.Fatalf("open with disks %v down: %v", down, err)
			default:
				if got := st2.FailedDisks(); !slices.Equal(got, down) {
					t.Fatalf("failed disks after the open: %v, want %v", got, down)
				}
				if st2.Stripes() != 3 || !bytes.Equal(readAll(t, st2), data) {
					t.Fatalf("open with disks %v down serves %d stripes, or other bytes", down, st2.Stripes())
				}
				st2.Close()
			}
			for d, disk := range disks {
				want := 3 * rows
				if d == torn && len(down) > 0 {
					want++
				}
				if disk.Slots() != want {
					t.Fatalf("disk %d holds %d slots after the open, want %d", d, disk.Slots(), want)
				}
			}
		})
	}
}

// nodeDisk is one device's extent on a node that serves any of the group's
// devices' runs, and counts each batch it is handed — one request to a data
// node.
type nodeDisk struct {
	*MemDisk // Slots, Elements, Truncate and Close of its own extent
	disks    []*MemDisk
	calls    *atomic.Int64
}

func (nd nodeDisk) ReadRuns(ctx context.Context, runs []Run) {
	nd.calls.Add(1)
	for i := range runs {
		nd.disks[runs[i].Disk].ReadRuns(ctx, runs[i:i+1])
	}
}

func (nd nodeDisk) WriteRuns(ctx context.Context, runs []Run, sync bool) error {
	nd.calls.Add(1)
	for i := range runs {
		if err := nd.disks[runs[i].Disk].WriteRuns(ctx, runs[i:i+1], sync); err != nil {
			return err
		}
	}
	return nil
}

// TestRecoverBatchesByNode: the device→node map is in force while recovery
// runs, so a gateway restart over RS(6,3)/ecfrm on 3 nodes reads each
// recovered stripe with one request per node — 3, not one per disk (9). A
// map of the wrong length is refused at construction.
func TestRecoverBatchesByNode(t *testing.T) {
	scheme := core.MustScheme(mustRS(6, 3), layout.FormECFRM)
	const elem, stripes, nodes = 32, 4, 3
	nodeOf := make([]int, scheme.N())
	for d := range nodeOf {
		nodeOf[d] = d % nodes
	}
	st, disks := newRemoteOverDisks(t, scheme, elem, CellStoreConfig{Sync: true})
	fill(t, st, stripes*scheme.DataPerStripe()*elem, 13)
	st.Close()

	var calls atomic.Int64
	open := func(d int) (CellBackend, error) { return nodeDisk{disks[d], disks, &calls}, nil }
	if _, _, err := NewWithCellBackends(scheme, elem, CellStoreConfig{NodeOf: append(nodeOf, 0)}, open); err == nil {
		t.Fatal("wrong-length map accepted")
	}
	st2, rep, err := NewWithCellBackends(scheme, elem, CellStoreConfig{NodeOf: nodeOf}, open)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rep.Stripes != stripes {
		t.Fatalf("recovered %d stripes, want %d", rep.Stripes, stripes)
	}
	if got := calls.Load(); got > nodes*stripes {
		t.Fatalf("recovering %d stripes over %d nodes took %d backend calls, want at most %d", stripes, nodes, got, nodes*stripes)
	}
}
