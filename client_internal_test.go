package hyperbal

// Regression tests for the client retry backoff. Pre-fix the delay was a
// deterministic doubling: every client rejected by the same 429/503 burst
// retried on the same schedule and re-collided each round. The fix is full
// jitter — uniform in [0, min(base<<attempt, max)) — which keeps the cap
// while decorrelating the herd.

import (
	"testing"
	"time"
)

func TestBackoffDelayFullJitter(t *testing.T) {
	const base, max = 50 * time.Millisecond, 2 * time.Second

	// Different uniform samples must yield different delays at the same
	// attempt: the pre-fix deterministic schedule collapses this spread.
	samples := []float64{0.01, 0.2, 0.4, 0.6, 0.8, 0.99}
	for attempt := 0; attempt < 4; attempt++ {
		seen := map[time.Duration]bool{}
		ceil := base << attempt
		if ceil > max {
			ceil = max
		}
		for _, u := range samples {
			d := backoffDelay(attempt, base, max, u)
			if d >= ceil {
				t.Fatalf("attempt %d u=%.2f: delay %s >= ceiling %s", attempt, u, d, ceil)
			}
			if d < time.Millisecond {
				t.Fatalf("attempt %d u=%.2f: delay %s under the 1ms floor", attempt, u, d)
			}
			seen[d] = true
		}
		if len(seen) < len(samples)-1 {
			t.Fatalf("attempt %d: only %d distinct delays across %d samples — backoff is not jittered", attempt, len(seen), len(samples))
		}
	}
}

func TestBackoffDelayCap(t *testing.T) {
	const base, max = 50 * time.Millisecond, 2 * time.Second
	// Deep attempts: the doubling must saturate at MaxBackoff, not overflow.
	for _, attempt := range []int{6, 10, 30, 63, 100} {
		if d := backoffDelay(attempt, base, max, 0.999); d >= max {
			t.Fatalf("attempt %d: delay %s reached/exceeded cap %s", attempt, d, max)
		}
		// u near 1 must still be able to approach the cap (the jitter range
		// is the full window, not a shrunken one).
		if d := backoffDelay(attempt, base, max, 0.999); d < max/2 {
			t.Fatalf("attempt %d: delay %s for u=0.999 — jitter window collapsed", attempt, d)
		}
	}
}

func TestBackoffDelayFloor(t *testing.T) {
	// A zero sample must never busy-spin the retry loop.
	if d := backoffDelay(0, 50*time.Millisecond, 2*time.Second, 0); d != time.Millisecond {
		t.Fatalf("u=0 delay = %s, want the 1ms floor", d)
	}
}
