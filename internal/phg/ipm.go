package phg

import (
	"math/rand"
	"slices"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
)

// matchBid is one rank's best local match offer for a candidate vertex.
type matchBid struct {
	Cand  int32
	Match int32 // proposed partner (local to the bidding rank's block)
	Score float64
}

// matchPair is one block-local match decision, allgathered after the
// LocalIPM phase (package-level so it can cross a network transport).
type matchPair struct{ A, B int32 }

// parallelIPM runs the candidate-round inner-product matching of §4.1 on
// one level, through nets of 2..maxNetSize pins. All ranks return the
// identical match vector. Each round, a rank nominates up to half its
// block, at least 8, of its unmatched vertices. With local set, most
// matching happens inside each rank's block without communication (the
// optimization proposed in the paper's conclusion); the block-local
// matches are then exchanged once, and a single global round mops up
// cross-block pairs.
func parallelIPM(c *mpi.Comm, h *hypergraph.Hypergraph, rng *rand.Rand, maxNetSize int, local bool) []int32 {
	lo, hi := blockRange(h.NumVertices(), c.Size(), c.Rank())
	return ipmRounds(c, h, rng, maxNetSize, local, max((hi-lo)/2, 8))
}

// ipmRounds is parallelIPM with the per-rank nomination cap given (the
// oracle test also drives a cap small enough that whole rounds nominate no
// viable vertex). A level's rounds end at the matching fixpoint, when no
// vertex is viable any more, so matchRounds is an upper bound that rarely
// binds.
func ipmRounds(c *mpi.Comm, h *hypergraph.Hypergraph, rng *rand.Rand, maxNetSize int, local bool, candCap int) []int32 {
	n := h.NumVertices()
	match := make([]int32, n)
	for v := range match {
		match[v] = -1
	}
	lo, hi := blockRange(n, c.Size(), c.Rank())
	rounds := matchRounds
	if local {
		localIPM(c, h, match, lo, hi, rng, maxNetSize)
		rounds = 1 // one global candidate round for the leftovers
	}

	score := make([]float64, n)
	touched := make([]int32, 0, 64)

	// Every vertex below next is known not viable; match only grows, so
	// it stays that way and the scan never moves back.
	next := 0
	for round := 0; round < rounds; round++ {
		perm := rng.Perm(hi - lo)
		// 0. Fixpoint check on the replicated match vector and hypergraph:
		// every rank gets the same answer without a message. Once no vertex
		// is viable no round can match anything, so the level ends. While
		// unmatched vertices remain, the rounds it skips still take their
		// rng.Perm draws: that keeps the per-rank rng stream, and with it
		// every later level and the final partition, exactly what running
		// all rounds gives. A level with no vertex unmatched at all ends
		// without further draws.
		for next < n && !viable(h, match, next, maxNetSize) {
			next++
		}
		if next == n {
			if slices.Contains(match, -1) {
				for r := round + 1; r < rounds; r++ {
					rng.Perm(hi - lo)
				}
			}
			break
		}

		// 1. Nominate unmatched local candidates, the cap counted over
		// unmatched vertices, but send only the viable ones: any other can
		// only draw Match = -1 bids. Every rank must observe the same
		// candidate list order, so candidates are gathered in rank order
		// (AllgatherSlice preserves it).
		var local []int32
		nominated := 0
		for _, v := range perm {
			gv := lo + v
			if match[gv] != -1 {
				continue
			}
			if gv >= next && viable(h, match, gv, maxNetSize) {
				local = append(local, int32(gv))
			}
			if nominated++; nominated >= candCap {
				break
			}
		}
		cands, _ := mpi.AllgatherSlice(c, local)
		if len(cands) == 0 {
			continue // no viable nominee this round; a later draw may find one
		}

		// 2. Compute this rank's best bid for each candidate, restricted to
		// unmatched vertices in the local block and honoring the fixed
		// compatibility filter. (All scores are computed; infeasible pairs
		// are filtered at selection, as in Zoltan.)
		bids := make([]matchBid, len(cands))
		for i, cand := range cands {
			bids[i] = bestLocalBid(h, match, int(cand), lo, hi, maxNetSize, score, &touched)
		}

		// 3. Global best bid per candidate.
		best := mpi.AllreduceSlice(c, bids, func(a, b matchBid) matchBid {
			if b.Score > a.Score || (b.Score == a.Score && b.Score > 0 && b.Match < a.Match) {
				return b
			}
			return a
		})

		// 4. Finalize matches deterministically: process candidates in
		// order, skipping ones whose endpoint got matched earlier in this
		// round (every rank executes the same loop on the same data).
		for i, cand := range cands {
			b := best[i]
			if b.Score <= 0 || b.Match < 0 {
				continue
			}
			if match[cand] != -1 || match[b.Match] != -1 || cand == b.Match {
				continue
			}
			match[cand] = b.Match
			match[b.Match] = cand
		}
	}
	// Self-match leftovers.
	for v := range match {
		if match[v] == -1 {
			match[v] = int32(v)
		}
	}
	return match
}

// scoredNet reports whether IPM scores through a net with the given pin
// count: a single pin pairs nothing, and nets above maxNetSize are skipped.
func scoredNet(pins, maxNetSize int) bool { return pins >= 2 && pins <= maxNetSize }

// fixedCompatible is the §4.1 match filter: vertices fixed to different
// parts never match.
func fixedCompatible(fu, fv int32) bool {
	return fu == hypergraph.Free || fv == hypergraph.Free || fu == fv
}

// viable reports whether v is unmatched and has an unmatched,
// fixed-compatible partner through a scored net. That is exactly when
// bestLocalBid, on the rank whose block holds such a partner, returns a
// feasible bid for v.
func viable(h *hypergraph.Hypergraph, match []int32, v, maxNetSize int) bool {
	if match[v] != -1 {
		return false
	}
	fv := h.Fixed(v)
	for _, netID := range h.Nets(v) {
		pins := h.Pins(int(netID))
		if !scoredNet(len(pins), maxNetSize) {
			continue
		}
		for _, w := range pins {
			u := int(w)
			if u != v && match[u] == -1 && fixedCompatible(fv, h.Fixed(u)) {
				return true
			}
		}
	}
	return false
}

// bestLocalBid scores candidate cand against the unmatched vertices of the
// local block via shared nets and returns the best feasible offer.
func bestLocalBid(h *hypergraph.Hypergraph, match []int32, cand, lo, hi, maxNetSize int, score []float64, touched *[]int32) matchBid {
	bid := matchBid{Cand: int32(cand), Match: -1}
	fc := h.Fixed(cand)
	tt := (*touched)[:0]
	for _, netID := range h.Nets(cand) {
		pins := h.Pins(int(netID))
		if !scoredNet(len(pins), maxNetSize) {
			continue
		}
		contrib := float64(h.Cost(int(netID))) / float64(len(pins)-1)
		if contrib <= 0 {
			contrib = 1e-9
		}
		for _, w := range pins {
			v := int(w)
			if v == cand || v < lo || v >= hi || match[v] != -1 {
				continue
			}
			if score[v] == 0 {
				tt = append(tt, w)
			}
			score[v] += contrib
		}
	}
	for _, w := range tt {
		v := int(w)
		s := score[v]
		score[v] = 0
		if s <= bid.Score || !fixedCompatible(fc, h.Fixed(v)) {
			continue
		}
		bid.Score = s
		bid.Match = int32(v)
	}
	*touched = tt[:0]
	return bid
}

// localIPM greedily matches unmatched vertices strictly within this
// rank's own block (no communication during scoring), then allgathers the
// per-block match decisions so every rank holds the identical vector.
// Scoring is the same inner-product similarity with the §4.1 fixed
// compatibility filter.
func localIPM(c *mpi.Comm, h *hypergraph.Hypergraph, match []int32, lo, hi int, rng *rand.Rand, maxNetSize int) {
	var local []matchPair
	score := make([]float64, h.NumVertices())
	var touched []int32
	for _, off := range rng.Perm(hi - lo) {
		u := lo + off
		if match[u] != -1 {
			continue
		}
		fu := h.Fixed(u)
		touched = touched[:0]
		for _, netID := range h.Nets(u) {
			pins := h.Pins(int(netID))
			if !scoredNet(len(pins), maxNetSize) {
				continue
			}
			contrib := float64(h.Cost(int(netID))) / float64(len(pins)-1)
			if contrib <= 0 {
				contrib = 1e-9
			}
			for _, w := range pins {
				v := int(w)
				if v == u || v < lo || v >= hi || match[v] != -1 {
					continue
				}
				if score[v] == 0 {
					touched = append(touched, w)
				}
				score[v] += contrib
			}
		}
		best := -1
		bestScore := 0.0
		for _, w := range touched {
			v := int(w)
			s := score[v]
			score[v] = 0
			if s <= bestScore || !fixedCompatible(fu, h.Fixed(v)) {
				continue
			}
			best = v
			bestScore = s
		}
		if best >= 0 {
			match[u] = int32(best)
			match[best] = int32(u)
			local = append(local, matchPair{int32(u), int32(best)})
		}
	}
	// Exchange decisions; blocks are disjoint, so no conflicts.
	all, _ := mpi.AllgatherSlice(c, local)
	for _, p := range all {
		match[p.A] = p.B
		match[p.B] = p.A
	}
}
