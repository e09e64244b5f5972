package repair

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/store"
)

// Cursor is the scrub's persisted position: which full pass over every
// group we are on, the group it is in, and the next stripe of that group to
// verify. It is saved after each batch completes, so a crash resumes at the
// start of the in-flight batch. Re-verifying (and, if needed, re-healing)
// those few stripes is idempotent — healing rewrites a cell to the value it
// should already have — so the at-least-once semantics never skip a stripe
// and never corrupt one.
type Cursor struct {
	// Cycle counts completed full passes over the groups.
	Cycle int `json:"cycle"`
	// Group is the group the current pass is in; a cursor saved before
	// groups existed has none and loads as group 0.
	Group int `json:"group"`
	// Next is the first unverified stripe of Group in the current pass.
	Next int `json:"next"`
}

// LoadCursor reads a cursor from path. A missing file is a fresh start, not
// an error; a corrupt file is reported so the operator knows scrub history
// was lost.
func LoadCursor(path string) (Cursor, error) {
	var c Cursor
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return c, fmt.Errorf("repair: read scrub cursor: %w", err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return Cursor{}, fmt.Errorf("repair: parse scrub cursor %s: %w", path, err)
	}
	if c.Next < 0 || c.Cycle < 0 || c.Group < 0 {
		return Cursor{}, fmt.Errorf("repair: scrub cursor %s has negative fields", path)
	}
	return c, nil
}

// Save atomically persists the cursor (store.AtomicWriteFile): a crash
// leaves either the old cursor or the new one, never a torn file.
func (c Cursor) Save(path string) error {
	b, _ := json.Marshal(c) // a Cursor always marshals
	if err := store.AtomicWriteFile(path, b); err != nil {
		return fmt.Errorf("repair: save scrub cursor: %w", err)
	}
	return nil
}

// ScrubReport summarises one incremental scrub batch.
type ScrubReport struct {
	// Group is the group verified; Start and End bound its stripes
	// verified this batch: [Start, End).
	Group, Start, End int
	// Bad lists stripes where a checksum or parity check failed.
	Bad []int
	// Healed counts cells rebuilt from redundancy and rewritten.
	Healed int
	// Wrapped is true when this batch finished a full pass.
	Wrapped bool
}

// ScrubStep verifies one batch of stripes of the group stores starting at
// cur, heals any stripe that fails verification, and persists the advanced
// cursor to path (skipped when path is empty, for callers that keep the
// cursor in memory). A pass walks the groups in order, each from stripe 0
// to its sealed extent, skipping empty ones.
//
// The store lock is held per batch, not per pass: ScrubRange takes a shared
// read lock over at most batch stripes, and each heal is its own short
// exclusive section. Foreground reads interleave freely between them.
//
// Persisting after the work (not before) gives crash-safe at-least-once
// coverage: a crash between verify and save re-runs the batch on restart.
func ScrubStep(stores []*store.Store, cur Cursor, batch int, path string) (Cursor, ScrubReport, error) {
	if batch <= 0 {
		batch = store.DefaultScrubBatch
	}
	// A cursor at or past its group's extent (a stale cursor file over a
	// shrunken store) moves on to the next group holding stripes.
	cur, wrapped := advance(stores, cur)
	switch {
	case cur.Group >= len(stores):
		// Nothing sealed yet; stay at the pass origin so the first sealed
		// stripe is covered.
		return Cursor{Cycle: cur.Cycle}, ScrubReport{}, nil
	case wrapped:
		return cur, ScrubReport{Wrapped: true}, saveCursor(cur, path)
	}
	rep := ScrubReport{Group: cur.Group, Start: cur.Next, End: cur.Next}

	st := stores[cur.Group]
	bad, next, err := st.ScrubRange(cur.Next, batch)
	if err != nil {
		return cur, rep, err
	}
	rep.End = next
	rep.Bad = bad
	for _, stripe := range bad {
		healed, err := st.HealStripe(stripe)
		if err != nil {
			return cur, rep, fmt.Errorf("repair: heal group %d stripe %d: %w", cur.Group, stripe, err)
		}
		rep.Healed += healed
	}

	cur.Next = next
	cur, rep.Wrapped = advance(stores, cur)
	return cur, rep, saveCursor(cur, path)
}

// advance moves a cursor at or past its group's sealed extent to the start
// of the next group holding stripes, wrapping to a new pass after the last
// (wrapped). With no stripes in any group it returns a Group past the last.
func advance(stores []*store.Store, cur Cursor) (_ Cursor, wrapped bool) {
	for cur.Group < len(stores) && cur.Next >= stores[cur.Group].Stripes() {
		cur.Group, cur.Next = cur.Group+1, 0
	}
	if cur.Group < len(stores) {
		return cur, false
	}
	for _, st := range stores {
		if st.Stripes() > 0 {
			return Cursor{Cycle: cur.Cycle + 1}, true
		}
	}
	return cur, false
}

// saveCursor persists cur to path unless path is empty.
func saveCursor(cur Cursor, path string) error {
	if path == "" {
		return nil
	}
	return cur.Save(path)
}
