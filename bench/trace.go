package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanRec is one timed call. Spans of one request share Req; Parent names the
// span one depth up. Depths are replayed one after the other, not nested in
// time, so a layer's self time is its span's duration minus the duration of
// the spans naming it as parent for the same request.
type spanRec struct {
	Workload string `json:"-"`
	Name     string `json:"name"`
	Req      string `json:"req"`
	Parent   string `json:"parent,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how end-to-end numbers are taken.
type tracer struct {
	mu    sync.Mutex
	spans []spanRec
}

func (t *tracer) span(workload, name, req, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{workload, name, req, parent, start.UnixNano(), end.UnixNano()})
	t.mu.Unlock()
}

// write stores each workload's spans in dir/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	byWorkload := map[string][]spanRec{}
	for _, s := range t.spans {
		byWorkload[s.Workload] = append(byWorkload[s.Workload], s)
	}
	for w, spans := range byWorkload {
		b, err := json.Marshal(spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "trace-"+w+".json"), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
