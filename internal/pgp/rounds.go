package pgp

import (
	"math/rand"
	"slices"

	"hyperbal/internal/gp"
	"hyperbal/internal/graph"
	"hyperbal/internal/mpi"
)

// matchBid is one rank's best heavy-edge offer for a candidate vertex.
type matchBid struct {
	Cand  int32
	Match int32
	Score int64 // edge weight
}

// parallelHEM runs candidate-round heavy-edge matching: each rank
// nominates unmatched vertices from its block; all ranks bid their best
// local unmatched neighbor with an equal samePart label; an elementwise reduction picks the heaviest edge; matches
// finalize deterministically on every rank. As in phg's IPM, a level's
// rounds end at the matching fixpoint and only viable nominees are sent;
// both leave the match vector and the rng stream exactly as running all
// matchRounds rounds would.
func parallelHEM(c *mpi.Comm, g *graph.Graph, samePart []int32, rng *rand.Rand) []int32 {
	n := g.NumVertices()
	match := make([]int32, n)
	for v := range match {
		match[v] = -1
	}
	lo, hi := blockRange(n, c.Size(), c.Rank())
	candPerRound := (hi - lo) / 2
	if candPerRound < 8 {
		candPerRound = 8
	}

	next := 0 // every vertex below next is known not viable, for good
	for round := 0; round < matchRounds; round++ {
		perm := rng.Perm(hi - lo)
		// Fixpoint: no viable vertex, no match possible in any later round.
		// Skipped rounds still draw their permutations (rng stream intact)
		// unless no vertex is unmatched, which ends the level outright.
		for next < n && !viable(g, match, samePart, next) {
			next++
		}
		if next == n {
			if slices.Contains(match, -1) {
				for r := round + 1; r < matchRounds; r++ {
					rng.Perm(hi - lo)
				}
			}
			break
		}
		// The cap counts unmatched nominees; only the viable ones are sent.
		var local []int32
		nominated := 0
		for _, v := range perm {
			gv := lo + v
			if match[gv] != -1 {
				continue
			}
			if gv >= next && viable(g, match, samePart, gv) {
				local = append(local, int32(gv))
			}
			if nominated++; nominated >= candPerRound {
				break
			}
		}
		obsCandidates.Add(int64(len(local)))
		cands, _ := mpi.AllgatherSlice(c, local)
		if len(cands) == 0 {
			continue // no viable nominee this round
		}
		if c.Rank() == 0 {
			obsHEMRounds.Inc()
		}
		bids := make([]matchBid, len(cands))
		for i, cand := range cands {
			bids[i] = bestLocalBid(g, match, samePart, int(cand), lo, hi)
		}
		best := mpi.AllreduceSlice(c, bids, func(a, b matchBid) matchBid {
			if b.Score > a.Score || (b.Score == a.Score && b.Score > 0 && b.Match < a.Match) {
				return b
			}
			return a
		})
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
	for v := range match {
		if match[v] == -1 {
			match[v] = int32(v)
		}
	}
	return match
}

// eligible reports whether v is a possible partner for cand: unmatched and
// carrying cand's samePart label.
func eligible(match, samePart []int32, cand, v int) bool {
	return match[v] == -1 && samePart[cand] == samePart[v]
}

// viable reports whether v is unmatched and has an eligible neighbour
// other than itself across an edge of positive weight: what bestLocalBid
// needs to offer v a positive bid and the finalize step needs to take it.
func viable(g *graph.Graph, match, samePart []int32, v int) bool {
	if match[v] != -1 {
		return false
	}
	wts := g.AdjWeights(v)
	for i, u := range g.Adj(v) {
		if int(u) != v && wts[i] > 0 && eligible(match, samePart, v, int(u)) {
			return true
		}
	}
	return false
}

func bestLocalBid(g *graph.Graph, match, samePart []int32, cand, lo, hi int) matchBid {
	bid := matchBid{Cand: int32(cand), Match: -1}
	adj, wts := g.Adj(cand), g.AdjWeights(cand)
	for i, u := range adj {
		v := int(u)
		if v < lo || v >= hi || !eligible(match, samePart, cand, v) {
			continue
		}
		if wts[i] > bid.Score || (wts[i] == bid.Score && bid.Match >= 0 && u < bid.Match) {
			bid.Score = wts[i]
			bid.Match = u
		}
	}
	return bid
}

// moveProposal is one suggested relocation with its combined gain.
type moveProposal struct {
	V    int32
	To   int32
	Gain int64
}

// parallelRefine improves parts in place with propose/exchange/apply
// rounds under the combined objective itr*edgecut + migration.
func parallelRefine(c *mpi.Comm, g *graph.Graph, k int, parts []int32, oldPart []int32, itr int64, caps []int64) {
	if itr < 1 {
		itr = 1
	}
	n := g.NumVertices()
	lo, hi := blockRange(n, c.Size(), c.Rank())
	w := make([]int64, k)
	for v := 0; v < n; v++ {
		w[parts[v]] += g.Weight(v)
	}
	conn := make([]int64, k)
	touched := make([]int32, 0, k)

	gainOf := func(v int, to int32) int64 {
		from := parts[v]
		adj, wts := g.Adj(v), g.AdjWeights(v)
		var connFrom, connTo int64
		for i, u := range adj {
			switch parts[u] {
			case from:
				connFrom += wts[i]
			case to:
				connTo += wts[i]
			}
		}
		gain := itr * (connTo - connFrom)
		if from == oldPart[v] {
			gain -= g.Size(v)
		}
		if to == oldPart[v] {
			gain += g.Size(v)
		}
		return gain
	}

	for round := 0; round < refineRounds; round++ {
		var proposals []moveProposal
		for v := lo; v < hi && len(proposals) < movesPerRound; v++ {
			from := parts[v]
			adj, wts := g.Adj(v), g.AdjWeights(v)
			touched = touched[:0]
			for i, u := range adj {
				q := parts[u]
				if conn[q] == 0 {
					touched = append(touched, q)
				}
				conn[q] += wts[i]
			}
			var bestTo int32 = -1
			var bestGain int64
			overFrom := w[from] > caps[from]
			for _, q := range touched {
				if q == from || w[q]+g.Weight(v) > caps[q] {
					continue
				}
				gain := itr * (conn[q] - conn[from])
				if from == oldPart[v] {
					gain -= g.Size(v)
				}
				if q == oldPart[v] {
					gain += g.Size(v)
				}
				if gain > bestGain || (overFrom && bestTo == -1) {
					bestGain = gain
					bestTo = q
				}
			}
			for _, q := range touched {
				conn[q] = 0
			}
			if bestTo >= 0 && (bestGain > 0 || overFrom) {
				proposals = append(proposals, moveProposal{V: int32(v), To: bestTo, Gain: bestGain})
			}
		}
		obsProposals.Add(int64(len(proposals)))
		all, _ := mpi.AllgatherSlice(c, proposals)
		if len(all) == 0 {
			break
		}
		applied := 0
		for _, m := range all {
			v := int(m.V)
			from := parts[v]
			if from == m.To || w[m.To]+g.Weight(v) > caps[m.To] {
				continue
			}
			overFrom := w[from] > caps[from]
			if gn := gainOf(v, m.To); gn <= 0 && !overFrom {
				continue
			}
			w[from] -= g.Weight(v)
			w[m.To] += g.Weight(v)
			parts[v] = m.To
			applied++
		}
		if applied == 0 {
			break
		}
	}
	// Final identical-everywhere polish.
	gp.RefineKway(g, k, parts, oldPart, itr, caps, 2)
}
