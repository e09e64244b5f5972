package vertical

import "testing"

func TestNewXCodeValidation(t *testing.T) {
	for _, p := range []int{0, 3, 4, 6, 9} {
		if _, err := NewXCode(p); err == nil {
			t.Errorf("NewXCode(%d) succeeded", p)
		}
	}
	c, err := NewXCode(5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "X-Code(5)" || c.rows != 5 || c.Disks() != 5 {
		t.Fatalf("shape wrong: %s %d×%d", c.Name(), c.rows, c.Disks())
	}
	if len(c.DataRefs()) != 15 { // (p-2)·p
		t.Fatalf("data cells = %d", len(c.DataRefs()))
	}
	// Storage overhead p/(p-2).
	if got := c.StorageOverhead(); got < 1.66 || got > 1.67 {
		t.Fatalf("overhead = %v, want 5/3", got)
	}
}

func TestNewWeaverValidation(t *testing.T) {
	for _, n := range []int{0, 3} {
		if _, err := NewWeaver(n); err == nil {
			t.Errorf("NewWeaver(%d) succeeded", n)
		}
	}
	c, err := NewWeaver(8)
	if err != nil {
		t.Fatal(err)
	}
	if c.StorageOverhead() != 2.0 {
		t.Fatalf("WEAVER overhead = %v, want 2.0 (50%% efficiency)", c.StorageOverhead())
	}
}

func TestDataRefsRowMajorAndComplete(t *testing.T) {
	c, _ := NewXCode(5)
	refs := c.DataRefs()
	if len(refs) != 3*5 {
		t.Fatalf("%d refs, want %d", len(refs), 3*5)
	}
	for i := 1; i < len(refs); i++ {
		a, b := refs[i-1], refs[i]
		if a.Row > b.Row || (a.Row == b.Row && a.Disk >= b.Disk) {
			t.Fatal("DataRefs not row-major")
		}
	}
}

// TestVerticalNormalReadSpread confirms the §III-A motivation: sequential
// data on a vertical code spreads across all disks like EC-FRM (that's the
// behaviour the framework borrows) — the cost is overhead/tolerance, not
// read balance.
func TestVerticalNormalReadSpread(t *testing.T) {
	c, _ := NewXCode(7)
	refs := c.DataRefs()
	loads := make([]int, c.Disks())
	for _, ref := range refs[:7] { // 7-element sequential read
		loads[ref.Disk]++
	}
	for d, l := range loads {
		if l != 1 {
			t.Fatalf("disk %d load %d; X-Code sequential read must spread evenly", d, l)
		}
	}
}
