// Package repair hosts the background maintenance scheduler over a server's
// group stores: failure detection from device health signals, rate-limited
// disk rebuild driven through the store's incremental DiskRebuild machinery,
// and a continuous incremental checksum scrub with a crash-safe persisted
// cursor.
//
// The scheduler's contract is the paper's repair-bandwidth trade-off: rebuild
// as fast as the configured budget allows, but never so fast that foreground
// reads starve. Repair traffic flows through a token bucket whose effective
// refill rate shrinks when foreground pressure (in-flight fan-out runs on
// the data disks) rises, so a busy store automatically yields bandwidth to
// clients and an idle store rebuilds at full speed.
package repair

import (
	"sync"
	"time"
)

// TokenBucket is a byte-granularity rate limiter for repair traffic.
//
// Tokens accrue at rate bytes/second up to a burst cap. Take consumes
// tokens if available; Wait reports how long until enough accrue. The
// effective refill rate is rate/(1+pressure): pressure is a dimensionless
// foreground-load signal (the scheduler feeds it the maximum per-disk
// in-flight run count), so refill halves when one request is in flight per
// busy disk, thirds at two, and so on. A zero rate pauses repair entirely.
type TokenBucket struct {
	mu       sync.Mutex
	rate     float64 // tokens (bytes) per second at zero pressure
	burst    float64 // token cap; also the largest single Take
	tokens   float64
	pressure float64
	last     time.Time
	now      func() time.Time
}

// NewTokenBucket creates a bucket refilling at rate bytes/second with the
// given burst. The bucket starts full so the first batch is never delayed.
// rate <= 0 means paused: Take always fails and Wait reports no deadline.
// burst is clamped to at least 1 so a positive rate can always make progress.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return newTokenBucket(rate, burst, time.Now)
}

// newTokenBucket injects the clock for tests.
func newTokenBucket(rate, burst float64, now func() time.Time) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{
		rate:   rate,
		burst:  burst,
		tokens: burst,
		last:   now(),
		now:    now,
	}
}

// refillLocked accrues tokens for the time elapsed since the last refill at
// the pressure-scaled rate. Callers hold b.mu.
func (b *TokenBucket) refillLocked() {
	t := b.now()
	dt := t.Sub(b.last).Seconds()
	b.last = t
	if dt <= 0 || b.rate <= 0 {
		return
	}
	b.tokens += b.rate / (1 + b.pressure) * dt
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Take consumes n tokens if available and reports whether it did. Requests
// larger than the burst are clamped to it — a single huge batch costs the
// full bucket rather than deadlocking forever.
func (b *TokenBucket) Take(n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate <= 0 {
		return false
	}
	b.refillLocked()
	need := float64(n)
	if need > b.burst {
		need = b.burst
	}
	if b.tokens < need {
		return false
	}
	b.tokens -= need
	return true
}

// Wait reports how long until n tokens (clamped to burst) will have accrued
// at the current effective rate, or a negative duration when the bucket is
// paused (rate <= 0) and no amount of waiting will help.
func (b *TokenBucket) Wait(n int) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate <= 0 {
		return -1
	}
	b.refillLocked()
	need := float64(n)
	if need > b.burst {
		need = b.burst
	}
	if b.tokens >= need {
		return 0
	}
	eff := b.rate / (1 + b.pressure)
	return time.Duration((need - b.tokens) / eff * float64(time.Second))
}

// SetRate changes the zero-pressure refill rate. Accrued tokens are settled
// at the old rate first, so a mid-flight change never rewrites history.
func (b *TokenBucket) SetRate(rate float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	b.rate = rate
}

// SetPressure updates the foreground-load signal. Negative values clamp to
// zero. As with SetRate, elapsed time is settled at the old pressure first.
func (b *TokenBucket) SetPressure(p float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if p < 0 {
		p = 0
	}
	b.pressure = p
}

// Tokens returns the current token balance after settling elapsed time.
func (b *TokenBucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	return b.tokens
}

// Rate returns the configured zero-pressure rate.
func (b *TokenBucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}

// EffectiveRate returns the pressure-scaled refill rate in bytes/second.
func (b *TokenBucket) EffectiveRate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rate <= 0 {
		return 0
	}
	return b.rate / (1 + b.pressure)
}
