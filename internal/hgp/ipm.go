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
// The kernel is one in-order pass over live state: each vertex u still
// unmatched when the scan reaches it scores its unmatched neighbors
// against the current match array and takes the best compatible one, or
// becomes a singleton when it has none. Ties are broken by a hash keyed on
// (seed, u, v), so the choice is pseudo-random but reproducible. The
// result is maximal: two singletons share no scored net unless the filter
// keeps them apart.
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
	// Score scratch keeps the all-zero invariant: the selection loop
	// restores every touched entry, so only fresh allocations need zeroing.
	ws.score = growF64Zero(ws.score, n)
	score := ws.score
	touched := ws.touched[:0]

	// One draw keeps the caller's stream deterministic; every per-vertex
	// "random" decision derives from it by index-keyed hashing.
	base := uint64(rng.Int63())

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
			key := mix64(base ^ uint64(u)*0xBF58476D1CE4E5B9 ^ uint64(v))
			if best < 0 || s > bestScore || (s == bestScore && key < bestKey) {
				best, bestScore, bestKey = w, s, key
			}
		}
		if best < 0 {
			match[u] = int32(u)
			continue
		}
		match[u] = best
		match[best] = int32(u)
	}
	ws.touched = touched
	return match
}
