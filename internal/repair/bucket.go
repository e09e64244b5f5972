// Package repair hosts the background maintenance scheduler over a server's
// group stores: failure detection from each device's hard-error count and
// the scrub's cell census, rate-limited disk rebuild driven through the
// store's incremental DiskRebuild machinery, and a continuous incremental
// checksum scrub with a crash-safe persisted cursor.
//
// Repair is priced by the bytes it moves: rebuild traffic flows through a
// token bucket that caps replacement-device writes at the configured budget
// (Config.Rate, retunable at runtime), and that cap is what leaves device
// bandwidth to foreground reads.
package repair

import (
	"sync"
	"time"
)

// TokenBucket is a byte-granularity rate limiter for repair traffic.
//
// Tokens accrue at rate bytes/second up to a burst cap. Take consumes
// tokens if available; Wait reports how long until enough accrue. A zero
// rate pauses repair entirely.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64 // token cap; also the largest single Take
	tokens float64
	last   time.Time
	now    func() time.Time
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

// refillLocked accrues tokens for the time elapsed since the last refill.
// Callers hold b.mu.
func (b *TokenBucket) refillLocked() {
	t := b.now()
	dt := t.Sub(b.last).Seconds()
	b.last = t
	if dt <= 0 || b.rate <= 0 {
		return
	}
	b.tokens += b.rate * dt
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
// at the current rate, or a negative duration when the bucket is paused
// (rate <= 0) and no amount of waiting will help.
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
	return time.Duration((need - b.tokens) / b.rate * float64(time.Second))
}

// SetRate changes the refill rate. Accrued tokens are settled at the old
// rate first, so a mid-flight change never rewrites history.
func (b *TokenBucket) SetRate(rate float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	b.rate = rate
}

// Tokens returns the current token balance after settling elapsed time.
func (b *TokenBucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	return b.tokens
}

// Rate returns the configured rate.
func (b *TokenBucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}
