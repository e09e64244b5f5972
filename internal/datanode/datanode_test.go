package datanode

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/nodeapi"
	"repro/internal/obs"
	"repro/internal/store"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func do(t *testing.T, s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, r)
	return rec
}

func frame(elem int, cells ...[]byte) []byte {
	var data []byte
	var crcs []uint32
	for _, c := range cells {
		data = append(data, c...)
		crcs = append(crcs, crc32.Checksum(c, castagnoli))
	}
	return nodeapi.EncodeRun(elem, data, crcs)
}

// runs is the batch URL for a run list.
func runs(sync bool, refs ...nodeapi.RunRef) string { return nodeapi.RunsPath(refs, sync) }

// TestNodeCellRoundTrip drives the wire protocol end to end: write a run,
// read it back (whole and sub-ranges), sync, meta, status, truncate, and the
// missing-cell marker.
func TestNodeCellRoundTrip(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			cfg := Config{ElemSize: 64, Registry: obs.NewRegistry()}
			if backend == "file" {
				cfg.Dir = t.TempDir()
				cfg.File = store.FileConfig{Fsync: store.FsyncNever}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			cells := [][]byte{
				bytes.Repeat([]byte{0xaa}, 64),
				bytes.Repeat([]byte{0xbb}, 64),
				bytes.Repeat([]byte{0xcc}, 64),
			}
			if rec := do(t, s, http.MethodPut, runs(false, nodeapi.RunRef{Group: 2, Disk: 1, Slot: 4, Count: 3}), frame(64, cells...)); rec.Code != http.StatusNoContent {
				t.Fatalf("write run: %d %s", rec.Code, rec.Body.String())
			}
			// The whole run, then two sub-ranges in one batch, in list order.
			for _, c := range []struct {
				refs []nodeapi.RunRef
				want [][]byte
			}{
				{[]nodeapi.RunRef{{Group: 2, Disk: 1, Slot: 4, Count: 3}}, cells},
				{[]nodeapi.RunRef{{Group: 2, Disk: 1, Slot: 6, Count: 1}, {Group: 2, Disk: 1, Slot: 4, Count: 2}},
					[][]byte{cells[2], cells[0], cells[1]}},
			} {
				rec := do(t, s, http.MethodGet, runs(false, c.refs...), nil)
				if rec.Code != http.StatusOK {
					t.Fatalf("read %v: %d %s", c.refs, rec.Code, rec.Body.String())
				}
				data, crcs, err := nodeapi.DecodeRun(rec.Body.Bytes(), 64)
				if err != nil {
					t.Fatal(err)
				}
				if len(crcs) != len(c.want) || !bytes.Equal(data, bytes.Join(c.want, nil)) {
					t.Fatalf("read %v returned wrong cells", c.refs)
				}
				// Checksums came back verbatim.
				for i, cell := range c.want {
					if crcs[i] != crc32.Checksum(cell, castagnoli) {
						t.Fatalf("read %v: cell %d crc mismatch", c.refs, i)
					}
				}
			}

			// A run never stored is named by the missing marker; the frame
			// carries the others' cells.
			rec := do(t, s, http.MethodGet, runs(false,
				nodeapi.RunRef{Group: 2, Disk: 1, Slot: 100, Count: 1}, nodeapi.RunRef{Group: 2, Disk: 1, Slot: 5, Count: 1}), nil)
			if rec.Code != http.StatusOK || rec.Header().Get(nodeapi.MissingHeader) != "0" {
				t.Fatalf("batch with a missing run: %d, header %q", rec.Code, rec.Header().Get(nodeapi.MissingHeader))
			}
			if data, _, err := nodeapi.DecodeRun(rec.Body.Bytes(), 64); err != nil || !bytes.Equal(data, cells[1]) {
				t.Fatalf("batch with a missing run carried the wrong cells (%v)", err)
			}
			// Nothing present — a slot or an extent never written → 404.
			rec = do(t, s, http.MethodGet, runs(false,
				nodeapi.RunRef{Group: 2, Disk: 1, Slot: 100, Count: 1}, nodeapi.RunRef{Group: 9, Disk: 0, Slot: 0, Count: 1}), nil)
			if rec.Code != http.StatusNotFound || rec.Header().Get(nodeapi.MissingHeader) != "0,1" {
				t.Fatalf("missing runs: %d, header %q", rec.Code, rec.Header().Get(nodeapi.MissingHeader))
			}

			// A barrier-only batch.
			if rec := do(t, s, http.MethodPut, runs(true, nodeapi.RunRef{Group: 2, Disk: 1}), nil); rec.Code != http.StatusNoContent {
				t.Fatalf("sync: %d %s", rec.Code, rec.Body.String())
			}

			rec = do(t, s, http.MethodGet, "/cells/2/1/meta", nil)
			var meta nodeapi.DiskMeta
			if err := json.Unmarshal(rec.Body.Bytes(), &meta); err != nil {
				t.Fatal(err)
			}
			if meta.Slots != 7 || meta.Elements != 3 {
				t.Fatalf("meta = %+v, want slots 7 elements 3", meta)
			}

			var st nodeapi.NodeStatus
			rec = do(t, s, http.MethodGet, nodeapi.StatusPath, nil)
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.Backend != backend || len(st.Disks) != 1 {
				t.Fatalf("status = %+v", st)
			}

			if rec := do(t, s, http.MethodPost, "/truncate/2/1?slots=5", nil); rec.Code != http.StatusNoContent {
				t.Fatalf("truncate: %d", rec.Code)
			}
			rec = do(t, s, http.MethodGet, runs(false, nodeapi.RunRef{Group: 2, Disk: 1, Slot: 6, Count: 1}), nil)
			if rec.Code != http.StatusNotFound {
				t.Fatalf("read past truncation: %d", rec.Code)
			}
			rec = do(t, s, http.MethodGet, runs(false, nodeapi.RunRef{Group: 2, Disk: 1, Slot: 4, Count: 1}), nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("read below truncation: %d", rec.Code)
			}
		})
	}
}

// TestNodeBatchAcrossExtents: one write batch spans extents — the frame's
// cells go to each run's extent in list order — and with sync every extent
// it names is fsynced once before the answer; a read batch returns them in
// its own list order.
func TestNodeBatchAcrossExtents(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{ElemSize: 16, Dir: t.TempDir(), File: store.FileConfig{Fsync: store.FsyncAlways}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, b, c := bytes.Repeat([]byte{1}, 16), bytes.Repeat([]byte{2}, 16), bytes.Repeat([]byte{3}, 16)
	w := runs(true, nodeapi.RunRef{Group: 0, Disk: 1, Slot: 0, Count: 2}, nodeapi.RunRef{Group: 0, Disk: 4, Slot: 3, Count: 1})
	if rec := do(t, s, http.MethodPut, w, frame(16, a, b, c)); rec.Code != http.StatusNoContent {
		t.Fatalf("batch write: %d %s", rec.Code, rec.Body.String())
	}
	if got := s.syncs.Value(); got != 2 {
		t.Fatalf("a synced batch over 2 extents fsynced %d", got)
	}
	rec := do(t, s, http.MethodGet, runs(false,
		nodeapi.RunRef{Group: 0, Disk: 4, Slot: 3, Count: 1}, nodeapi.RunRef{Group: 0, Disk: 1, Slot: 0, Count: 2}), nil)
	data, _, err := nodeapi.DecodeRun(rec.Body.Bytes(), 16)
	if rec.Code != http.StatusOK || err != nil || !bytes.Equal(data, bytes.Join([][]byte{c, a, b}, nil)) {
		t.Fatalf("batch read: %d %v", rec.Code, err)
	}
	// A frame that does not carry exactly the listed cells is refused whole.
	if rec := do(t, s, http.MethodPut, w, frame(16, a, b)); rec.Code != http.StatusBadRequest {
		t.Fatalf("short frame: %d, want 400", rec.Code)
	}
}

// TestNodeBatchBounds: the node caps a batch's runs, cells and bytes.
func TestNodeBatchBounds(t *testing.T) {
	const elem = 4096
	s, err := New(Config{ElemSize: elem})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	over := nodeapi.RunRef{Count: nodeapi.MaxCells(elem) + 1}
	if rec := do(t, s, http.MethodGet, runs(false, over), nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("read of %d cells: %d, want 400", over.Count, rec.Code)
	}
	many := make([]nodeapi.RunRef, nodeapi.MaxBatchRuns+1)
	for i := range many {
		many[i] = nodeapi.RunRef{Slot: i, Count: 1}
	}
	if rec := do(t, s, http.MethodGet, runs(false, many...), nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("read of %d runs: %d, want 400", len(many), rec.Code)
	}
	// Zero runs ship no frame bytes, so only payload cells count against
	// the cap; a read cannot name one.
	zero := nodeapi.RunRef{Slot: 1, Count: nodeapi.MaxCells(elem) + 1, Zero: true}
	if rec := do(t, s, http.MethodPut, runs(true, nodeapi.RunRef{Count: 1}, zero), frame(elem, make([]byte, elem))); rec.Code != http.StatusNoContent {
		t.Fatalf("write of one cell and a zero run of %d: %d, want 204", zero.Count, rec.Code)
	}
	if rec := do(t, s, http.MethodGet, runs(false, zero), nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("read naming a zero run: %d, want 400", rec.Code)
	}
	// A body declared past the cap is refused before it is read.
	r := httptest.NewRequest(http.MethodPut, runs(false, nodeapi.RunRef{Count: 1}), bytes.NewReader(frame(elem, make([]byte, elem))))
	r.ContentLength = nodeapi.MaxBatchBytes + 1
	rec := httptest.NewRecorder()
	if s.ServeHTTP(rec, r); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("write declaring %d bytes: %d, want 413", r.ContentLength, rec.Code)
	}
}

// TestNodeNeverStoredExtentStaysAbsent: truncating or syncing an extent the
// node never stored — what a gateway's startup recovery does to every
// device — is a no-op that creates nothing, in memory or on disk.
func TestNodeNeverStoredExtentStaysAbsent(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{ElemSize: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := do(t, s, http.MethodPost, "/truncate/3/7?slots=0", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("truncate: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, http.MethodPut, runs(true, nodeapi.RunRef{Group: 3, Disk: 8}), nil); rec.Code != http.StatusNoContent {
		t.Fatalf("barrier: %d %s", rec.Code, rec.Body.String())
	}
	var st nodeapi.NodeStatus
	if err := json.Unmarshal(do(t, s, http.MethodGet, nodeapi.StatusPath, nil).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Disks) != 0 || len(files) != 0 {
		t.Fatalf("never-stored extents created: status %+v, %d files", st.Disks, len(files))
	}
}

// TestNodeRestartRediscovers proves a file-backed node reopened on the same
// directory serves its sealed cells again.
func TestNodeRestartRediscovers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{ElemSize: 32, Dir: dir, File: store.FileConfig{Fsync: store.FsyncNever}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := bytes.Repeat([]byte{0x5a}, 32)
	ref := nodeapi.RunRef{Group: 0, Disk: 3, Slot: 0, Count: 1}
	if rec := do(t, s, http.MethodPut, runs(true, ref), frame(32, cell)); rec.Code != http.StatusNoContent {
		t.Fatalf("write: %d", rec.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := do(t, s2, http.MethodGet, runs(false, ref), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("read after restart: %d %s", rec.Code, rec.Body.String())
	}
	data, _, err := nodeapi.DecodeRun(rec.Body.Bytes(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, cell) {
		t.Fatal("restarted node returned wrong bytes")
	}
}

// TestNodeHealthEndpoints covers the liveness/readiness pair.
func TestNodeHealthEndpoints(t *testing.T) {
	s, err := New(Config{ElemSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := do(t, s, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d", rec.Code)
	}
	s.SetDraining(true)
	if rec := do(t, s, http.MethodGet, "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz draining: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz draining: %d", rec.Code)
	}
}
