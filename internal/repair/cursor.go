package repair

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/store"
)

// Cursor is the scrub's persisted position: which full pass we are on and
// the next stripe to verify. It is saved after each batch completes, so a
// crash resumes at the start of the in-flight batch. Re-verifying (and, if
// needed, re-healing) those few stripes is idempotent — healing rewrites a
// cell to the value it should already have — so the at-least-once semantics
// never skip a stripe and never corrupt one.
type Cursor struct {
	// Cycle counts completed full passes over the store.
	Cycle int `json:"cycle"`
	// Next is the first unverified stripe of the current pass.
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
	if c.Next < 0 || c.Cycle < 0 {
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
	// Start and End bound the stripes verified this batch: [Start, End).
	Start, End int
	// Bad lists stripes where a checksum or parity check failed.
	Bad []int
	// Healed counts cells rebuilt from redundancy and rewritten.
	Healed int
	// Wrapped is true when this batch finished a full pass.
	Wrapped bool
}

// ScrubStep verifies one batch of stripes starting at cur, heals any stripe
// that fails verification, and persists the advanced cursor to path (skipped
// when path is empty, for callers that keep the cursor in memory).
//
// The store lock is held per batch, not per pass: ScrubRange takes a shared
// read lock over at most batch stripes, and each heal is its own short
// exclusive section. Foreground reads interleave freely between them.
//
// Persisting after the work (not before) gives crash-safe at-least-once
// coverage: a crash between verify and save re-runs the batch on restart.
func ScrubStep(st *store.Store, cur Cursor, batch int, path string) (Cursor, ScrubReport, error) {
	if batch <= 0 {
		batch = store.DefaultScrubBatch
	}
	rep := ScrubReport{Start: cur.Next, End: cur.Next}

	stripes := st.Stripes()
	if stripes == 0 {
		// Nothing sealed yet; stay at the pass origin so the first
		// sealed stripe is covered.
		cur.Next = 0
		return cur, rep, nil
	}
	if cur.Next >= stripes {
		// The store shrank below the cursor (fresh data dir with a
		// stale cursor file) — wrap to a new pass.
		cur.Cycle++
		cur.Next = 0
		rep.Start, rep.End, rep.Wrapped = 0, 0, true
		if path != "" {
			if err := cur.Save(path); err != nil {
				return cur, rep, err
			}
		}
		return cur, rep, nil
	}

	bad, next, err := st.ScrubRange(cur.Next, batch)
	if err != nil {
		return cur, rep, err
	}
	rep.End = next
	rep.Bad = bad
	for _, stripe := range bad {
		healed, err := st.HealStripe(stripe)
		if err != nil {
			return cur, rep, fmt.Errorf("repair: heal stripe %d: %w", stripe, err)
		}
		rep.Healed += healed
	}

	cur.Next = next
	if cur.Next >= st.Stripes() {
		cur.Cycle++
		cur.Next = 0
		rep.Wrapped = true
	}
	if path != "" {
		if err := cur.Save(path); err != nil {
			return cur, rep, err
		}
	}
	return cur, rep, nil
}
