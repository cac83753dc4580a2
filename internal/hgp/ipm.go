package hgp

import (
	"math/rand"

	"hyperbal/internal/hypergraph"
)

// ipmMatch computes an inner-product matching of h, honoring the
// fixed-vertex compatibility filter of Section 4.1: two vertices fixed to
// different parts never match. The returned match vector has
// match[v] == u (and match[u] == v) for matched pairs and match[v] == v
// for singletons. It aliases workspace storage and is valid until the next
// ipmMatch call on the same workspace.
//
// The kernel runs synchronous propose–resolve rounds (the Mt-KaHyPar /
// PMondriaan structure): in the propose phase every still-unmatched vertex
// scores its unmatched neighbors against the round-start snapshot and
// picks the best partner, and the resolve phase then grants proposals in
// vertex-index order, so a vertex whose partner was claimed earlier in the
// scan loses the round (a conflict) and re-proposes in the next. Proposals
// are pure functions of the snapshot and tie-breaks are keyed on (seed,
// round, vertex indices). A vertex with no unmatched compatible neighbor
// retires as a singleton — the unmatched set only shrinks, so no later
// round could do better.
//
// The similarity (inner product / heavy connectivity) between u and v is
// sum over shared nets n of cost(n)/(|n|-1); nets larger than maxNetSize
// are skipped for speed.
func ipmMatch(h *hypergraph.Hypergraph, rng *rand.Rand, maxNetSize int, filterFixed bool, ws *workspace) []int32 {
	n := h.NumVertices()
	ws.match = growI32(ws.match, n)
	match := ws.match
	for v := range match {
		match[v] = -1
	}
	ws.proposal = growI32(ws.proposal, n)
	proposal := ws.proposal

	// One draw keeps the caller's stream deterministic; every per-vertex
	// "random" decision derives from it by index-keyed hashing.
	base := uint64(rng.Int63())

	unmatched := n
	rounds, conflicts := 0, 0
	for unmatched > 0 {
		rounds++
		proposeMatches(h, match, proposal, maxNetSize, filterFixed, base, rounds, ws)
		// Resolve in index order: first proposer wins its partner.
		matched := 0
		for u := 0; u < n; u++ {
			if match[u] != -1 {
				continue
			}
			p := proposal[u]
			if p < 0 {
				// No unmatched compatible neighbor; matches never unmake,
				// so this cannot improve later — retire as a singleton.
				match[u] = int32(u)
				unmatched--
				continue
			}
			if match[p] != -1 {
				conflicts++ // partner claimed earlier this scan; retry next round
				continue
			}
			match[u] = p
			match[p] = int32(u)
			matched++
			unmatched -= 2
		}
		if matched == 0 && unmatched > 0 {
			// Defensive: cannot happen (a zero-match round retires every
			// remaining vertex), but never loop forever on a logic bug.
			for u := 0; u < n; u++ {
				if match[u] == -1 {
					match[u] = int32(u)
				}
			}
			unmatched = 0
		}
	}
	obsKernelRounds.Add(int64(rounds))
	obsKernelConflicts.Add(int64(conflicts))
	return match
}

// proposeMatches fills proposal[u] for every unmatched vertex u: its
// best-scoring unmatched neighbor (-1 if none), read from the round-start
// match snapshot. Ties are broken by an index-seeded hash, so the choice is
// pseudo-random but independent of scan order.
func proposeMatches(h *hypergraph.Hypergraph, match, proposal []int32, maxNetSize int, filterFixed bool, base uint64, round int, ws *workspace) {
	n := h.NumVertices()
	// Score scratch keeps the all-zero invariant: the selection loop
	// restores every touched entry, so only fresh allocations need zeroing.
	ws.score = growF64Zero(ws.score, n)
	score := ws.score
	touched := ws.touched[:0]

	for u := 0; u < n; u++ {
		if match[u] != -1 {
			continue
		}
		fu := h.Fixed(u)
		touched = touched[:0]
		for _, netID := range h.Nets(u) {
			pins := h.Pins(int(netID))
			if len(pins) < 2 || len(pins) > maxNetSize {
				continue
			}
			contrib := float64(h.Cost(int(netID))) / float64(len(pins)-1)
			if contrib <= 0 {
				contrib = 1e-9
			}
			for _, w := range pins {
				v := int(w)
				if v == u || match[v] != -1 {
					continue
				}
				if score[v] == 0 {
					touched = append(touched, w)
				}
				score[v] += contrib
			}
		}
		// Pick the best feasible candidate. Infeasible scores are computed
		// anyway (as in Zoltan) but filtered at selection time.
		best := int32(-1)
		bestScore := 0.0
		var bestKey uint64
		for _, w := range touched {
			v := int(w)
			s := score[v]
			score[v] = 0
			if filterFixed {
				fv := h.Fixed(v)
				if fu != hypergraph.Free && fv != hypergraph.Free && fu != fv {
					continue // match filter: incompatible fixed parts
				}
			}
			key := mix64(base ^ uint64(round)*0x9E3779B97F4A7C15 ^ uint64(u)*0xBF58476D1CE4E5B9 ^ uint64(v))
			if best < 0 || s > bestScore || (s == bestScore && key < bestKey) {
				best, bestScore, bestKey = w, s, key
			}
		}
		proposal[u] = best
	}
	ws.touched = touched
}
