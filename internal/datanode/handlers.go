package datanode

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/nodeapi"
	"repro/internal/obs"
	"repro/internal/store"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /cells/runs", s.timed(s.handleReadRuns))
	s.mux.HandleFunc("PUT /cells/runs", s.timed(s.handleWriteRuns))
	s.mux.HandleFunc("GET /cells/{group}/{disk}/meta", s.timed(s.handleMeta))
	s.mux.HandleFunc("POST /truncate/{group}/{disk}", s.timed(s.handleTruncate))
	s.mux.HandleFunc("GET /manifest/{group}", s.timed(s.handleManifest))
	s.mux.HandleFunc("PUT /manifest/{group}", s.timed(s.handleManifest))
	s.mux.HandleFunc("GET "+nodeapi.StatusPath, s.timed(s.handleStatus))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	if s.reg != nil {
		s.mux.Handle("GET /metrics", s.reg.Handler())
	}
}

// timed wraps a handler with the request-latency histogram.
func (s *Server) timed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer obs.StartSpan(s.reqLat).End()
		h(w, r)
	}
}

// pathKey parses the {group}/{disk} wildcards.
func pathKey(r *http.Request) (diskKey, error) {
	g, err := strconv.Atoi(r.PathValue("group"))
	if err != nil || g < 0 {
		return diskKey{}, fmt.Errorf("bad group %q", r.PathValue("group"))
	}
	d, err := strconv.Atoi(r.PathValue("disk"))
	if err != nil || d < 0 {
		return diskKey{}, fmt.Errorf("bad disk %q", r.PathValue("disk"))
	}
	return diskKey{g, d}, nil
}

// handleReadRuns serves a batch read: every listed run's cells in one frame,
// in list order, sent from the pooled buffer each run was read into. Runs
// the node never stored are named in the missing header instead; a batch of
// which no run is present answers 404.
func (s *Server) handleReadRuns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	refs, err := nodeapi.ParseRuns(q.Get("runs"), q.Get("zero"), s.cfg.ElemSize)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	runs := make([]store.Run, len(refs))
	lent := make([]*store.RunBuf, len(refs))
	defer func() {
		for _, b := range lent {
			s.runs.Put(b) // the frame is written
		}
	}()
	crcs := make([][]uint32, 0, len(refs))
	var missing []int
	cells := 0
	for i, ref := range refs {
		if ref.Count < 1 || ref.Zero {
			http.Error(w, fmt.Sprintf("run %d reads no cells", i), http.StatusBadRequest)
			return
		}
		runs[i] = store.Run{Disk: ref.Disk, Slot: ref.Slot, Count: ref.Count, Err: store.ErrCellMissing}
		if ds, _ := s.getDisk(diskKey{ref.Group, ref.Disk}, false); ds != nil {
			lent[i] = s.runs.Get(ref.Count * s.cfg.ElemSize)
			runs[i].Data, runs[i].CRCs = lent[i].Data, lent[i].CRCs
			ds.ReadRuns(r.Context(), runs[i:i+1])
		}
		switch err := runs[i].Err; {
		case errors.Is(err, store.ErrCellMissing):
			missing = append(missing, i)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		default:
			crcs = append(crcs, runs[i].CRCs)
			cells += ref.Count
		}
	}
	if len(missing) > 0 {
		w.Header().Set(nodeapi.MissingHeader, nodeapi.FormatMissing(missing))
	}
	if cells == 0 {
		http.Error(w, "cells not present", http.StatusNotFound)
		return
	}
	// No Content-Length: the run list and the missing header tell the
	// client the frame's size, and the reply ends only once the handler has
	// returned — after whatever wraps it (the request-latency histogram)
	// has recorded the request.
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(nodeapi.FrameHead(s.cfg.ElemSize, crcs))
	for _, run := range runs {
		if run.Err == nil {
			w.Write(run.Data)
		}
	}
	s.readCells.Add(int64(cells))
	s.readBytes.Add(int64(cells * s.cfg.ElemSize))
}

// handleWriteRuns serves a batch write: the frame's cells, in list order,
// go to the extents the runs name, each zero run records its cells as zeros
// with nothing from the frame, and with ?sync=1 every named extent is
// fsynced before the answer. A run of no cells writes nothing and never
// creates an extent; its barrier on an extent never stored is a durable
// no-op. The frame's pooled buffer goes back once the extents wrote it.
func (s *Server) handleWriteRuns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	refs, err := nodeapi.ParseRuns(q.Get("runs"), q.Get("zero"), s.cfg.ElemSize)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if r.ContentLength > nodeapi.MaxBatchBytes {
		http.Error(w, "batch too large", http.StatusRequestEntityTooLarge)
		return
	}
	buf, err := s.runs.ReadBody(io.LimitReader(r.Body, nodeapi.MaxBatchBytes+1), r.ContentLength)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer s.runs.Put(buf)
	if len(buf.Data) > nodeapi.MaxBatchBytes {
		http.Error(w, "batch too large", http.StatusRequestEntityTooLarge)
		return
	}
	cells := 0
	for _, ref := range refs {
		if !ref.Zero {
			cells += ref.Count
		}
	}
	var data []byte
	var crcs []uint32
	if cells > 0 || len(buf.Data) > 0 {
		if data, crcs, err = nodeapi.DecodeRun(buf.Data, s.cfg.ElemSize); err == nil && len(crcs) != cells {
			err = fmt.Errorf("frame carries %d cells for runs of %d", len(crcs), cells)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	// Each extent's runs, extents in order of first appearance.
	var order []diskKey
	byExtent := make(map[diskKey][]store.Run)
	es := s.cfg.ElemSize
	for _, ref := range refs {
		k := diskKey{ref.Group, ref.Disk}
		if _, seen := byExtent[k]; !seen {
			order = append(order, k)
		}
		run := store.Run{Disk: ref.Disk, Slot: ref.Slot, Count: ref.Count}
		if !ref.Zero {
			run.Data, run.CRCs = data[:ref.Count*es:ref.Count*es], crcs[:ref.Count:ref.Count]
			data, crcs = data[ref.Count*es:], crcs[ref.Count:]
		}
		byExtent[k] = append(byExtent[k], run)
	}
	sync := r.URL.Query().Get("sync") == "1"
	for _, k := range order {
		runs := byExtent[k]
		written, recorded := 0, 0
		for _, run := range runs {
			written += len(run.CRCs)
			recorded += run.Count
		}
		ds, err := s.getDisk(k, recorded > 0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if ds == nil {
			continue
		}
		if err := ds.WriteRuns(r.Context(), runs, sync); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if sync {
			s.syncs.Inc()
		}
		s.writeCells.Add(int64(written))
		s.writeBytes.Add(int64(written * es))
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	k, err := pathKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	meta := nodeapi.DiskMeta{Group: k.group, Disk: k.disk}
	if ds, _ := s.getDisk(k, false); ds != nil {
		meta.Slots = ds.Slots()
		meta.Elements = ds.Elements()
	}
	writeJSON(w, meta)
}

func (s *Server) handleTruncate(w http.ResponseWriter, r *http.Request) {
	k, err := pathKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	slots, err := strconv.Atoi(r.URL.Query().Get("slots"))
	if err != nil || slots < 0 {
		http.Error(w, "bad slots", http.StatusBadRequest)
		return
	}
	// Truncating an extent that was never written is a no-op: it must not
	// create one.
	if ds, _ := s.getDisk(k, false); ds != nil {
		if err := ds.Truncate(slots); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleManifest stores (PUT) or serves (GET) a group's manifest copy
// verbatim, an empty one before the first PUT; with a data directory the
// copy is a file, replaced atomically.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	g, err := strconv.Atoi(r.PathValue("group"))
	if err != nil || g < 0 {
		http.Error(w, "bad group", http.StatusBadRequest)
		return
	}
	path := filepath.Join(s.cfg.Dir, fmt.Sprintf("g%04d.manifest", g))
	s.manMu.Lock()
	defer s.manMu.Unlock()
	raw, ok := s.manifests[g]
	switch {
	case r.Method == http.MethodPut:
		if raw, err = io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<10)); err == nil && s.cfg.Dir != "" {
			err = store.AtomicWriteFile(path, raw)
		}
		if err == nil {
			s.manifests[g] = raw
			w.WriteHeader(http.StatusNoContent)
			return
		}
	case !ok && s.cfg.Dir != "":
		if raw, err = os.ReadFile(path); errors.Is(err, os.ErrNotExist) {
			err = nil
		}
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	keys := make([]diskKey, 0, len(s.disks))
	for k := range s.disks {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].group != keys[j].group {
			return keys[i].group < keys[j].group
		}
		return keys[i].disk < keys[j].disk
	})
	st := nodeapi.NodeStatus{
		Backend:  s.Backend(),
		ElemSize: s.cfg.ElemSize,
		Draining: s.draining.Load(),
	}
	for _, k := range keys {
		ds, _ := s.getDisk(k, false)
		if ds == nil {
			continue
		}
		st.Disks = append(st.Disks, nodeapi.DiskMeta{
			Group: k.group, Disk: k.disk, Slots: ds.Slots(), Elements: ds.Elements(),
		})
	}
	writeJSON(w, st)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
