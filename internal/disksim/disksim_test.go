package disksim

import (
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Positioning: -time.Millisecond, BandwidthMBps: 100},
		{BandwidthMBps: 0},
		{BandwidthMBps: 100, PositioningJitter: 1.5},
		{BandwidthMBps: 100, BandwidthJitter: -0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestNewArrayValidation(t *testing.T) {
	if _, err := NewArray(0, DefaultConfig(), 1); err == nil {
		t.Fatal("zero disks must fail")
	}
	if _, err := NewArray(4, Config{BandwidthMBps: -1}, 1); err == nil {
		t.Fatal("bad config must fail")
	}
	a := MustArray(16, DefaultConfig(), 1)
	if len(a.rngs) != 16 {
		t.Fatalf("disks = %d", len(a.rngs))
	}
}

func TestMustArrayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustArray(0) did not panic")
		}
	}()
	MustArray(0, DefaultConfig(), 1)
}

func TestDiskTimeZeroLoad(t *testing.T) {
	a := MustArray(4, DefaultConfig(), 2)
	if got := a.DiskTime(0, 0, 1<<20); got != 0 {
		t.Fatalf("zero load took %v", got)
	}
}

func TestDiskTimeScalesWithLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PositioningJitter = 0
	cfg.BandwidthJitter = 0
	a := MustArray(1, cfg, 3)
	t1 := a.DiskTime(0, 1, 1e6)
	t4 := a.DiskTime(0, 4, 1e6)
	if t4 != 4*t1 {
		t.Fatalf("jitterless time not linear: %v vs 4×%v", t4, t1)
	}
	// 1 MB at 50 MB/s = 20 ms transfer + 15 ms positioning = 35 ms.
	want := 35 * time.Millisecond
	if t1 != want {
		t.Fatalf("t1 = %v, want %v", t1, want)
	}
}

func TestDiskTimePanics(t *testing.T) {
	a := MustArray(2, DefaultConfig(), 4)
	for name, fn := range map[string]func(){
		"badDisk": func() { a.DiskTime(2, 1, 1) },
		"negLoad": func() { a.DiskTime(0, -1, 1) },
		"negSize": func() { a.DiskTime(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestServeReadMaxOverDisks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PositioningJitter = 0
	cfg.BandwidthJitter = 0
	a := MustArray(4, cfg, 5)
	// Loads {1,2,0,1}: bottleneck is the disk with 2 accesses.
	got := a.ServeRead([]int{1, 2, 0, 1}, 1e6)
	want := a.DiskTime(1, 2, 1e6)
	if got != want {
		t.Fatalf("ServeRead = %v, want %v (slowest disk)", got, want)
	}
	// All zero loads: zero time.
	if a.ServeRead([]int{0, 0, 0, 0}, 1e6) != 0 {
		t.Fatal("empty request must take zero time")
	}
}

func TestServeReadLoadsMismatchPanics(t *testing.T) {
	a := MustArray(4, DefaultConfig(), 6)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched loads did not panic")
		}
	}()
	a.ServeRead([]int{1, 2}, 1e6)
}

func TestJitterBounded(t *testing.T) {
	cfg := DefaultConfig()
	a := MustArray(1, cfg, 7)
	// Min possible: positioning×(1-0.4) + transfer at bw×1.1.
	minPos := float64(cfg.Positioning) * (1 - cfg.PositioningJitter)
	maxPos := float64(cfg.Positioning) * (1 + cfg.PositioningJitter)
	minXfer := 1e6 / (cfg.BandwidthMBps * 1e6 * (1 + cfg.BandwidthJitter)) * float64(time.Second)
	maxXfer := 1e6 / (cfg.BandwidthMBps * 1e6 * (1 - cfg.BandwidthJitter)) * float64(time.Second)
	for i := 0; i < 2000; i++ {
		got := float64(a.DiskTime(0, 1, 1e6))
		if got < minPos+minXfer-1 || got > maxPos+maxXfer+1 {
			t.Fatalf("sample %v outside [%v,%v]", time.Duration(got),
				time.Duration(minPos+minXfer), time.Duration(maxPos+maxXfer))
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		a := MustArray(3, DefaultConfig(), 99)
		var out []time.Duration
		for i := 0; i < 50; i++ {
			out = append(out, a.ServeRead([]int{1, 2, 1}, 1e6))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// A different seed must (overwhelmingly) differ somewhere.
	c := MustArray(3, DefaultConfig(), 100)
	same := true
	for i := 0; i < 50; i++ {
		if c.ServeRead([]int{1, 2, 1}, 1e6) != a[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical timings")
	}
}

func TestSpeedMBps(t *testing.T) {
	if got := SpeedMBps(8e6, 80*time.Millisecond); got != 100 {
		t.Fatalf("SpeedMBps = %v, want 100", got)
	}
	if SpeedMBps(1, 0) != 0 {
		t.Fatal("zero duration must give zero speed")
	}
}

func TestLowerMaxLoadIsFaster(t *testing.T) {
	// The paper's core claim at the simulator level: a request spread
	// 1-element-per-disk beats one with a 2-element hot disk, on average.
	a := MustArray(10, DefaultConfig(), 8)
	var spread, hot time.Duration
	for i := 0; i < 500; i++ {
		spread += a.ServeRead([]int{1, 1, 1, 1, 1, 1, 1, 1, 0, 0}, 1e6)
		hot += a.ServeRead([]int{2, 2, 1, 1, 1, 1, 0, 0, 0, 0}, 1e6)
	}
	if spread >= hot {
		t.Fatalf("spread load %v not faster than hot load %v", spread, hot)
	}
}

func BenchmarkServeRead(b *testing.B) {
	a := MustArray(16, DefaultConfig(), 9)
	loads := []int{1, 1, 1, 2, 0, 1, 1, 1, 0, 1, 2, 1, 0, 1, 1, 1}
	for i := 0; i < b.N; i++ {
		a.ServeRead(loads, 1<<20)
	}
}

func TestHeterogeneousArray(t *testing.T) {
	if _, err := NewHeterogeneousArray(4, DefaultConfig(), 1, 1.5); err == nil {
		t.Fatal("spread ≥ 1 must fail")
	}
	if _, err := NewHeterogeneousArray(4, DefaultConfig(), 1, -0.1); err == nil {
		t.Fatal("negative spread must fail")
	}
	cfg := noJitter()
	a, err := NewHeterogeneousArray(8, cfg, 7, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// Per-disk times must differ (factors fixed per disk) and be stable.
	t0 := a.DiskTime(0, 1, 1e6)
	t1 := a.DiskTime(1, 1, 1e6)
	if t0 == t1 {
		// Two disks could coincide by chance, but across 8 disks at least
		// one pair must differ.
		same := true
		for d := 1; d < 8; d++ {
			if a.DiskTime(d, 1, 1e6) != t0 {
				same = false
				break
			}
		}
		if same {
			t.Fatal("heterogeneous array produced identical disks")
		}
	}
	if a.DiskTime(0, 1, 1e6) != t0 {
		t.Fatal("per-disk factor not stable across calls (jitterless)")
	}
	// Spread 0 equals the homogeneous array.
	h, _ := NewHeterogeneousArray(3, cfg, 9, 0)
	plain := MustArray(3, cfg, 9)
	for d := 0; d < 3; d++ {
		if h.DiskTime(d, 2, 1e6) != plain.DiskTime(d, 2, 1e6) {
			t.Fatal("spread-0 heterogeneous differs from homogeneous")
		}
	}
	// Transfer time bounds: factor in [0.6, 1.4] of nominal.
	nominal := float64(1e6) / (cfg.BandwidthMBps * 1e6) * float64(time.Second)
	posT := float64(cfg.Positioning)
	for d := 0; d < 8; d++ {
		x := float64(a.DiskTime(d, 1, 1e6)) - posT
		if x < nominal/1.4-1 || x > nominal/0.6+1 {
			t.Fatalf("disk %d transfer %v outside heterogeneity bounds", d, time.Duration(x))
		}
	}
}
