package repair

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// Handler returns the scheduler's HTTP surface, mounted by the daemon under
// /repair:
//
//	GET  /          scheduler status JSON (rates, queues, active repairs, scrub cursor)
//	POST /rebuild?disk=N[&group=G]   queue a rebuild of failed disk N of group G (default 0) now
//	POST /scrub            run an extra scrub batch without waiting the interval
//	POST /rate?bytes=N     retune the repair bandwidth budget (0 pauses; N must be finite)
func (s *Scheduler) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" && r.URL.Path != "" {
			http.NotFound(w, r)
			return
		}
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.StatusSnapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/rebuild", s.handleRebuild)
	mux.HandleFunc("/scrub", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		s.TriggerScrub()
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("/rate", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		q := r.URL.Query().Get("bytes")
		bytes, err := strconv.ParseFloat(q, 64)
		if err != nil || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
			http.Error(w, fmt.Sprintf("bad bytes parameter %q: want a finite number", q), http.StatusBadRequest)
			return
		}
		s.SetRate(bytes)
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

func (s *Scheduler) handleRebuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	g := 0
	if v := r.URL.Query().Get("group"); v != "" {
		var err error
		if g, err = strconv.Atoi(v); err != nil || g < 0 || g >= len(s.stores) {
			http.Error(w, "bad group parameter", http.StatusBadRequest)
			return
		}
	}
	d, err := strconv.Atoi(r.URL.Query().Get("disk"))
	if err != nil {
		http.Error(w, "bad disk parameter: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.TriggerRebuild(g, d); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}
