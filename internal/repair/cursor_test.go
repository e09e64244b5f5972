package repair

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/store"
)

func testStore(t testing.TB) *store.Store {
	t.Helper()
	return store.MustNew(core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM), 64)
}

func fillStripes(t testing.TB, s *store.Store, stripes int, seed int64) []byte {
	t.Helper()
	data := make([]byte, stripes*s.Scheme().DataPerStripe()*s.ElementSize())
	rand.New(rand.NewSource(seed)).Read(data)
	if err := s.Append(data); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCursorRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scrub.cursor")
	// Missing file is a fresh start.
	c, err := LoadCursor(path)
	if err != nil || c != (Cursor{}) {
		t.Fatalf("LoadCursor(missing) = %+v, %v", c, err)
	}
	want := Cursor{Cycle: 3, Group: 2, Next: 17}
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCursor(path)
	if err != nil || got != want {
		t.Fatalf("LoadCursor = %+v, %v; want %+v", got, err, want)
	}
	// A cursor saved before groups existed has no group field: group 0.
	if err := os.WriteFile(path, []byte(`{"cycle":3,"next":17}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCursor(path); err != nil || got != (Cursor{Cycle: 3, Next: 17}) {
		t.Fatalf("LoadCursor(no group) = %+v, %v; want group 0", got, err)
	}
	// Corrupt file is an error, not a silent restart.
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCursor(path); err == nil {
		t.Fatal("corrupt cursor loaded without error")
	}
}

func TestScrubStepWalksAndWraps(t *testing.T) {
	s := testStore(t)
	fillStripes(t, s, 7, 5)
	path := filepath.Join(t.TempDir(), "scrub.cursor")

	cur := Cursor{}
	var reps []ScrubReport
	for i := 0; i < 3; i++ {
		var rep ScrubReport
		var err error
		cur, rep, err = ScrubStep([]*store.Store{s}, cur, 3, path)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	// 7 stripes in batches of 3: [0,3) [3,6) [6,7)+wrap.
	if reps[0].Start != 0 || reps[0].End != 3 || reps[1].End != 6 || reps[2].End != 7 {
		t.Fatalf("batch bounds wrong: %+v", reps)
	}
	if !reps[2].Wrapped || cur.Cycle != 1 || cur.Next != 0 {
		t.Fatalf("wrap not recorded: rep=%+v cur=%+v", reps[2], cur)
	}
	// The wrap was persisted.
	if got, err := LoadCursor(path); err != nil || got != cur {
		t.Fatalf("persisted cursor = %+v, %v; want %+v", got, err, cur)
	}

	// Over groups a pass walks each in turn, skipping an empty one, and
	// wraps after the last: [0,3) [3,6) [6,7) of group 0, then [0,2) of
	// group 2.
	g2 := testStore(t)
	fillStripes(t, g2, 2, 6)
	groups := []*store.Store{s, testStore(t), g2}
	var walk []ScrubReport
	for cur = (Cursor{}); cur.Cycle == 0; {
		var rep ScrubReport
		var err error
		if cur, rep, err = ScrubStep(groups, cur, 3, path); err != nil {
			t.Fatal(err)
		}
		walk = append(walk, rep)
	}
	if got := fmt.Sprint(walk); got != "[{0 0 3 [] 0 false} {0 3 6 [] 0 false} {0 6 7 [] 0 false} {2 0 2 [] 0 true}]" {
		t.Fatalf("scrub over groups walked %s", got)
	}
	if got, err := LoadCursor(path); err != nil || got != (Cursor{Cycle: 1}) {
		t.Fatalf("persisted cursor = %+v, %v; want a new pass at group 0", got, err)
	}
}

func TestScrubStepHealsCorruption(t *testing.T) {
	s := testStore(t)
	fillStripes(t, s, 6, 9)
	if err := s.CorruptCell(2, layout.Pos{Row: 0, Col: 1}); err != nil {
		t.Fatal(err)
	}
	cur, rep, err := ScrubStep([]*store.Store{s}, Cursor{}, 6, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bad) != 1 || rep.Bad[0] != 2 || rep.Healed != 1 {
		t.Fatalf("rep = %+v, want bad=[2] healed=1", rep)
	}
	if !rep.Wrapped || cur.Cycle != 1 {
		t.Fatalf("full-store batch did not wrap: %+v", cur)
	}
	if bad, err := s.Scrub(); err != nil || len(bad) != 0 {
		t.Fatalf("store still dirty after ScrubStep heal: bad=%v err=%v", bad, err)
	}
}

func TestScrubStepEmptyAndStaleCursor(t *testing.T) {
	s := testStore(t)
	// Empty store: no-op, cursor pinned at origin, from any stale cursor.
	for _, stale := range []Cursor{{Next: 5}, {Group: 3, Next: 5}} {
		cur, rep, err := ScrubStep([]*store.Store{s}, stale, 4, "")
		if err != nil || cur != (Cursor{}) || rep.End != rep.Start {
			t.Fatalf("empty store from %+v: cur=%+v rep=%+v err=%v", stale, cur, rep, err)
		}
	}
	// Stale cursor beyond a shrunken extent, or past the last group, wraps
	// to a fresh pass.
	fillStripes(t, s, 2, 3)
	for _, stale := range []Cursor{{Cycle: 4, Next: 99}, {Cycle: 4, Group: 3}} {
		cur, rep, err := ScrubStep([]*store.Store{s}, stale, 4, "")
		if err != nil {
			t.Fatal(err)
		}
		if cur != (Cursor{Cycle: 5}) || !rep.Wrapped {
			t.Fatalf("stale cursor %+v: cur=%+v rep=%+v", stale, cur, rep)
		}
	}
}
