package pgp

// Exactness of the matching fixpoint: parallelHEM ends a level's rounds
// once no vertex is viable and sends only viable nominees. Both must leave
// the match vector, and the per-rank rng stream every later level draws
// from, exactly what running every one of matchRounds rounds produces. The oracle
// below is that round loop, kept as it was before the fixpoint stop (the
// obs counters aside).

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"hyperbal/internal/datasets"
	"hyperbal/internal/gp"
	"hyperbal/internal/graph"
	"hyperbal/internal/mpi"
)

// oracleHEM is parallelHEM running all matchRounds rounds and nominating
// every unmatched vertex up to the cap.
func oracleHEM(c *mpi.Comm, g *graph.Graph, samePart []int32, rng *rand.Rand) []int32 {
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

	for round := 0; round < matchRounds; round++ {
		var local []int32
		for _, v := range rng.Perm(hi - lo) {
			gv := int32(lo + v)
			if match[gv] == -1 {
				local = append(local, gv)
				if len(local) >= candPerRound {
					break
				}
			}
		}
		cands, _ := mpi.AllgatherSlice(c, local)
		if len(cands) == 0 {
			break
		}
		bids := make([]matchBid, len(cands))
		for i, cand := range cands {
			bids[i] = oracleBestLocalBid(g, match, samePart, int(cand), lo, hi)
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

func oracleBestLocalBid(g *graph.Graph, match, samePart []int32, cand, lo, hi int) matchBid {
	bid := matchBid{Cand: int32(cand), Match: -1}
	adj, wts := g.Adj(cand), g.AdjWeights(cand)
	for i, u := range adj {
		v := int(u)
		if v < lo || v >= hi || match[v] != -1 {
			continue
		}
		if samePart[cand] != samePart[v] {
			continue
		}
		if wts[i] > bid.Score || (wts[i] == bid.Score && bid.Match >= 0 && u < bid.Match) {
			bid.Score = wts[i]
			bid.Match = u
		}
	}
	return bid
}

// checkHEMAgainstOracle runs the whole coarsening chain of g on np ranks,
// calling parallelHEM and oracleHEM on each level with twin rngs, the
// samePart labels contracted alongside as run does. Every level must give
// the same match vector on every rank, and the two rngs must still agree
// afterwards. It returns the number of levels that contracted.
func checkHEMAgainstOracle(t *testing.T, np int, g *graph.Graph, samePart []int32, seed int64, k int) int {
	t.Helper()
	var mu sync.Mutex
	ref := map[int][]int32{}
	var levels int
	_, err := mpi.RunWith(np, mpi.Options{Watchdog: 60 * time.Second}, func(c *mpi.Comm) error {
		rngGot := rand.New(rand.NewSource(seed*999983 + int64(c.Rank())))
		rngWant := rand.New(rand.NewSource(seed*999983 + int64(c.Rank())))
		cur, curOld, level := g, samePart, 0
		for ; cur.NumVertices() > 2*k; level++ {
			got := parallelHEM(c, cur, curOld, rngGot)
			want := oracleHEM(c, cur, curOld, rngWant)
			if !slices.Equal(got, want) {
				return fmt.Errorf("rank %d level %d: match vector differs from the all-rounds loop", c.Rank(), level)
			}
			if gotN, wantN := rngGot.Int63(), rngWant.Int63(); gotN != wantN {
				return fmt.Errorf("rank %d level %d: rng stream diverged (%d, want %d)", c.Rank(), level, gotN, wantN)
			}
			mu.Lock()
			if r0, ok := ref[level]; ok && !slices.Equal(r0, got) {
				mu.Unlock()
				return fmt.Errorf("rank %d level %d: match vector differs from another rank's", c.Rank(), level)
			}
			ref[level] = got
			mu.Unlock()
			coarse, _, coarseOld := gp.Contract(cur, got, curOld)
			if coarse.NumVertices() == cur.NumVertices() {
				break
			}
			cur, curOld = coarse, coarseOld
		}
		if c.Rank() == 0 {
			levels = level
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return levels
}

// TestParallelHEMMatchesOracle covers every dataset analogue at
// p ∈ {1, 2, 3, 4} × three seeds, with labels from a previous partition
// (adaptive=true, so the label filter takes part) and with one label for
// every vertex (adaptive=false: an old partition with everything in one
// part, so the filter never rejects a partner).
func TestParallelHEMMatchesOracle(t *testing.T) {
	const k = 4
	for _, name := range datasets.Names() {
		g, err := datasets.Generate(name, 120, 3)
		if err != nil {
			t.Fatal(err)
		}
		old, err := gp.Partition(g, gp.Options{K: k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		oneLabel := make([]int32, g.NumVertices())
		for _, np := range []int{1, 2, 3, 4} {
			for _, seed := range []int64{1, 2, 3} {
				for _, adaptive := range []bool{false, true} {
					samePart := oneLabel
					if adaptive {
						samePart = old.Parts
					}
					t.Run(fmt.Sprintf("%s/p%d/seed%d/adaptive=%v", name, np, seed, adaptive), func(t *testing.T) {
						if levels := checkHEMAgainstOracle(t, np, g, samePart, seed, k); levels < 2 {
							t.Fatalf("only %d coarsening levels compared", levels)
						}
					})
				}
			}
		}
	}
}
