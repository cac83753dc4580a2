package server

import (
	"fmt"
	"testing"
)

func testURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return urls
}

// owner returns the first candidate URL for key.
func owner(r *ring, key string) string { return r.urls[r.candidates(key)[0]] }

// TestRingDeterminism: every node given the same replica list must compute
// the same candidate order for every key — this is what lets the gateway
// and the drain handoff agree without coordination.
func TestRingDeterminism(t *testing.T) {
	a, b := newRing(testURLs(5)), newRing(testURLs(5))
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("s-%032x", i)
		ca, cb := a.candidates(key), b.candidates(key)
		if len(ca) != 5 || len(cb) != 5 {
			t.Fatalf("key %s: candidate count %d/%d, want 5", key, len(ca), len(cb))
		}
		seen := map[int]bool{}
		for j := range ca {
			if ca[j] != cb[j] {
				t.Fatalf("key %s: candidate order diverges between identical rings", key)
			}
			if seen[ca[j]] {
				t.Fatalf("key %s: duplicate candidate %d", key, ca[j])
			}
			seen[ca[j]] = true
		}
		if owner(a, key) != owner(b, key) {
			t.Fatalf("key %s: owner diverges", key)
		}
	}
}

// TestRingOwnershipSpread: vnodes must spread key ownership across
// replicas — no replica may own a wildly disproportionate share.
func TestRingOwnershipSpread(t *testing.T) {
	r := newRing(testURLs(4))
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[owner(r, fmt.Sprintf("s-%032x", i))]++
	}
	for u, c := range counts {
		if c < keys/4/3 || c > keys/4*3 {
			t.Errorf("replica %s owns %d/%d keys — vnode spread is broken", u, c, keys)
		}
	}
}

// TestRingStability: removing one replica must only move the keys it
// owned; every other key keeps its owner. This is the property that makes
// gateway failover and drain handoff converge on the same replica.
func TestRingStability(t *testing.T) {
	urls := testURLs(4)
	full := newRing(urls)
	reduced := newRing(urls[:3]) // drop replica 3
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("s-%032x", i)
		was, now := owner(full, key), owner(reduced, key)
		if was != urls[3] {
			if was != now {
				t.Fatalf("key %s: owner moved from %s to %s though its replica survived", key, was, now)
			}
			continue
		}
		moved++
		// Keys of the removed replica must land on their next candidate in
		// the full ring's order.
		cands := full.candidates(key)
		next := ""
		for _, c := range cands {
			if urls[c] != urls[3] {
				next = urls[c]
				break
			}
		}
		if now != next {
			t.Fatalf("key %s: moved to %s, want next candidate %s", key, now, next)
		}
	}
	if moved == 0 {
		t.Fatal("removed replica owned no keys — spread test should have caught this")
	}
}

// TestRingPickBounded: bounded-load placement must respect liveness and
// keep the max load within the cap factor of the mean.
func TestRingPickBounded(t *testing.T) {
	r := newRing(testURLs(4))
	loads := make([]int, 4)
	alive := []bool{true, true, false, true} // replica 2 is down
	const sessions = 900
	for i := 0; i < sessions; i++ {
		idx := r.pickBounded(fmt.Sprintf("s-%032x", i),
			func(j int) int { return loads[j] },
			func(j int) bool { return alive[j] },
			1.25)
		if idx < 0 {
			t.Fatal("pickBounded found no replica with three alive")
		}
		if !alive[idx] {
			t.Fatalf("pickBounded placed a session on dead replica %d", idx)
		}
		loads[idx]++
	}
	if loads[2] != 0 {
		t.Fatalf("dead replica received %d sessions", loads[2])
	}
	mean := sessions / 3
	for i, l := range loads {
		if alive[i] && l > mean*14/10 {
			t.Errorf("replica %d load %d exceeds 1.4x mean %d — bounded-load cap not enforced", i, l, mean)
		}
	}

	// All dead: no placement.
	none := r.pickBounded("s-x", func(int) int { return 0 }, func(int) bool { return false }, 1.25)
	if none != -1 {
		t.Fatalf("pickBounded returned %d with every replica dead, want -1", none)
	}
}
