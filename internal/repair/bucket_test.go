package repair

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for bucket tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestTokenBucketTable(t *testing.T) {
	type op struct {
		advance  time.Duration // clock motion before the op
		take     int           // Take(n) when > 0
		wantTake bool
		wait     int // Wait(n) when > 0
		wantWait time.Duration
		rate     float64 // SetRate when != 0 (use -1 to pause)
	}
	cases := []struct {
		name        string
		rate, burst float64
		ops         []op
	}{
		{
			name: "starts full and burst caps the balance",
			rate: 100, burst: 50,
			ops: []op{
				{take: 50, wantTake: true},
				{take: 1, wantTake: false},
				// 10s at 100/s would be 1000 tokens; cap is 50.
				{advance: 10 * time.Second, take: 50, wantTake: true},
				{take: 1, wantTake: false},
			},
		},
		{
			name: "refills at rate",
			rate: 100, burst: 100,
			ops: []op{
				{take: 100, wantTake: true},
				{advance: 250 * time.Millisecond, take: 26, wantTake: false},
				{take: 25, wantTake: true},
			},
		},
		{
			name: "request larger than burst clamps instead of deadlocking",
			rate: 100, burst: 10,
			ops: []op{
				{take: 1000, wantTake: true}, // costs the full bucket
				{take: 1, wantTake: false},
				{advance: time.Second, wait: 1000, wantWait: 0},
			},
		},
		{
			name: "zero rate is paused",
			rate: 0, burst: 100,
			ops: []op{
				{take: 1, wantTake: false},
				{advance: time.Hour, take: 1, wantTake: false},
				{wait: 1, wantWait: -1},
			},
		},
		{
			name: "rate change applies after settling",
			rate: 100, burst: 100,
			ops: []op{
				{take: 100, wantTake: true},
				// 1s at 100/s settles 100 tokens before the pause lands,
				// but a paused bucket refuses takes regardless of balance.
				{advance: time.Second, rate: -1},
				{take: 100, wantTake: false},
				{advance: time.Hour, take: 1, wantTake: false},
				// Unpausing releases the settled balance without waiting.
				{rate: 200},
				{take: 100, wantTake: true},
				{take: 1, wantTake: false},
				// And the new rate governs accrual: 500ms at 200/s = 100.
				{advance: 500 * time.Millisecond, take: 100, wantTake: true},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(1000, 0)}
			b := newTokenBucket(tc.rate, tc.burst, clk.now)
			for i, o := range tc.ops {
				clk.advance(o.advance)
				if o.rate != 0 {
					r := o.rate
					if r == -1 {
						r = 0
					}
					b.SetRate(r)
				}
				if o.take > 0 {
					if got := b.Take(o.take); got != o.wantTake {
						t.Fatalf("op %d: Take(%d) = %v, want %v (tokens %.1f)",
							i, o.take, got, o.wantTake, b.Tokens())
					}
				}
				if o.wait > 0 {
					got := b.Wait(o.wait)
					if o.wantWait < 0 {
						if got >= 0 {
							t.Fatalf("op %d: Wait(%d) = %v, want negative (paused)", i, o.wait, got)
						}
					} else if diff := got - o.wantWait; diff < -time.Millisecond || diff > time.Millisecond {
						t.Fatalf("op %d: Wait(%d) = %v, want %v", i, o.wait, got, o.wantWait)
					}
				}
			}
		})
	}
}

func TestTokenBucketBurstFloor(t *testing.T) {
	b := newTokenBucket(10, 0, (&fakeClock{t: time.Unix(0, 0)}).now)
	// Burst clamps to 1 so a positive rate can always make progress.
	if !b.Take(1) {
		t.Fatal("burst floor of 1 did not allow a take")
	}
}
