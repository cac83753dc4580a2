package server

import (
	"fmt"
	"math/rand"
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

// seededIDs is a deterministic stand-in for newSessionID.
func seededIDs(seed int64) func() string {
	rng := rand.New(rand.NewSource(seed))
	return func() string { return fmt.Sprintf("s-%016x%016x", rng.Uint64(), rng.Uint64()) }
}

// TestRingMint: every minted id must route, on its first alive candidate,
// to the replica it was minted for; that replica must be accepting; and
// the accepting replicas' session counts must stay within 2 of each other.
// A dead or draining replica gets no session, an id past a draining
// first candidate is taken only when no draw did better, and with no
// replica accepting, mint answers no replica.
func TestRingMint(t *testing.T) {
	const dead, draining = "dead", "draining"
	type row struct {
		replicas, creates int
		down              string // replica 1's state: "", dead or draining
	}
	var rows []row
	for _, n := range []int{3, 8} {
		for _, creates := range []int{18, 100, 1000} {
			for _, down := range []string{"", dead, draining} {
				rows = append(rows, row{n, creates, down})
			}
		}
	}
	for _, tc := range rows {
		t.Run(fmt.Sprintf("%dx%d%s", tc.replicas, tc.creates, tc.down), func(t *testing.T) {
			r := newRing(testURLs(tc.replicas))
			reps := make([]replicaView, tc.replicas)
			for i := range reps {
				reps[i] = replicaView{alive: true, accepting: true}
			}
			switch tc.down {
			case dead:
				reps[1].alive = false
			case draining:
				reps[1].accepting = false
			}
			draws := 0
			ids := seededIDs(int64(tc.replicas*10000 + tc.creates))
			counted := func() string { draws++; return ids() }
			for i := 0; i < tc.creates; i++ {
				id, idx := r.mint(reps, counted)
				if idx < 0 {
					t.Fatalf("create %d: no replica", i)
				}
				if !reps[idx].alive || !reps[idx].accepting {
					t.Fatalf("create %d: minted for replica %d (%+v)", i, idx, reps[idx])
				}
				first := -1
				for _, c := range r.candidates(id) {
					if reps[c].alive {
						first = c
						break
					}
				}
				if first != idx {
					t.Fatalf("create %d: id %s minted for replica %d, its first alive candidate is %d", i, id, idx, first)
				}
				reps[idx].sessions++
			}
			lo, hi, total := tc.creates, 0, 0
			for i, v := range reps {
				if !v.alive || !v.accepting {
					if v.sessions != 0 {
						t.Fatalf("%s replica %d got %d sessions", tc.down, i, v.sessions)
					}
					continue
				}
				lo, hi, total = min(lo, v.sessions), max(hi, v.sessions), total+v.sessions
			}
			if hi-lo > 2 {
				t.Errorf("accepting replicas hold %d to %d sessions, want a spread of at most 2", lo, hi)
			}
			t.Logf("max %d, min %d, %.2f draws per create", hi, lo, float64(draws)/float64(tc.creates))
		})
	}

	// Every draw's first alive candidate is draining: after mintDraws
	// draws, mint takes the id's first accepting candidate, which the
	// route reaches after one 404 hop.
	r := newRing(testURLs(3))
	id := seededIDs(7)()
	cands := r.candidates(id)
	reps := []replicaView{{alive: true, accepting: true}, {alive: true, accepting: true}, {alive: true, accepting: true}}
	reps[cands[0]].accepting = false
	draws := 0
	got, idx := r.mint(reps, func() string { draws++; return id })
	if got != id || idx != cands[1] || draws != mintDraws {
		t.Fatalf("mint past a draining first candidate = (%q, %d) after %d draws, want (%q, %d) after %d", got, idx, draws, id, cands[1], mintDraws)
	}

	// No accepting replica: no id.
	for _, v := range []replicaView{{alive: false, accepting: true}, {alive: true, accepting: false}} {
		reps := []replicaView{v, v, v}
		if id, idx := newRing(testURLs(3)).mint(reps, seededIDs(1)); idx != -1 || id != "" {
			t.Fatalf("mint over %+v replicas = (%q, %d), want no replica", v, id, idx)
		}
	}
}
