package phg

// Exactness of the matching fixpoint: parallelIPM ends a level's rounds
// once no vertex is viable and sends only viable nominees. Both must leave
// the match vector, and the per-rank rng stream every later level draws
// from, exactly what running every MatchRounds round produces. The oracle
// below is that round loop, kept as it was before the fixpoint stop (the
// obs counters aside).

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
)

// oracleIPM is parallelIPM running all MatchRounds rounds and nominating
// every unmatched vertex up to the cap.
func oracleIPM(c *mpi.Comm, h *hypergraph.Hypergraph, rng *rand.Rand, opt Options) []int32 {
	n := h.NumVertices()
	match := make([]int32, n)
	for v := range match {
		match[v] = -1
	}
	lo, hi := blockRange(n, c.Size(), c.Rank())
	if opt.LocalIPM {
		oracleLocalIPM(c, h, match, lo, hi, rng, opt)
		// one global candidate round for the leftovers
		opt.MatchRounds = 1
	}
	maxNetSize := opt.Serial.MaxNetSize
	if maxNetSize <= 0 {
		maxNetSize = 500
	}
	candPerRound := opt.CandidatesPerRound
	if candPerRound <= 0 {
		candPerRound = (hi - lo) / 2
		if candPerRound < 8 {
			candPerRound = 8
		}
	}

	score := make([]float64, n)
	touched := make([]int32, 0, 64)

	for round := 0; round < opt.MatchRounds; round++ {
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
			bids[i] = oracleBestLocalBid(h, match, int(cand), lo, hi, maxNetSize, score, &touched)
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

func oracleBestLocalBid(h *hypergraph.Hypergraph, match []int32, cand, lo, hi, maxNetSize int, score []float64, touched *[]int32) matchBid {
	bid := matchBid{Cand: int32(cand), Match: -1}
	fc := h.Fixed(cand)
	tt := (*touched)[:0]
	for _, netID := range h.Nets(cand) {
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
		if s <= bid.Score {
			continue
		}
		fv := h.Fixed(v)
		if fc != hypergraph.Free && fv != hypergraph.Free && fc != fv {
			continue
		}
		bid.Score = s
		bid.Match = int32(v)
	}
	*touched = tt[:0]
	return bid
}

func oracleLocalIPM(c *mpi.Comm, h *hypergraph.Hypergraph, match []int32, lo, hi int, rng *rand.Rand, opt Options) {
	maxNetSize := opt.Serial.MaxNetSize
	if maxNetSize <= 0 {
		maxNetSize = 500
	}
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
			if len(pins) < 2 || len(pins) > maxNetSize {
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
			if s <= bestScore {
				continue
			}
			fv := h.Fixed(v)
			if fu != hypergraph.Free && fv != hypergraph.Free && fu != fv {
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
	all, _ := mpi.AllgatherSlice(c, local)
	for _, p := range all {
		match[p.A] = p.B
		match[p.B] = p.A
	}
}

// checkIPMAgainstOracle runs the whole coarsening chain of h on np ranks,
// calling parallelIPM and oracleIPM on each level with twin rngs. Every
// level must give the same match vector on every rank, and the two rngs
// must still agree afterwards (the next Int63 of each). It returns the
// number of levels that contracted.
func checkIPMAgainstOracle(t *testing.T, np int, h *hypergraph.Hypergraph, seed int64, opt Options) int {
	t.Helper()
	var mu sync.Mutex
	ref := map[int][]int32{} // level -> the first reporting rank's match vector
	var levels int
	_, err := mpi.RunWith(np, mpi.Options{Watchdog: testWatchdog}, func(c *mpi.Comm) error {
		rngGot := rand.New(rand.NewSource(seed*1000003 + int64(c.Rank())))
		rngWant := rand.New(rand.NewSource(seed*1000003 + int64(c.Rank())))
		cur, level := h, 0
		for ; cur.NumVertices() > 2*opt.Serial.K; level++ {
			got := parallelIPM(c, cur, rngGot, opt)
			want := oracleIPM(c, cur, rngWant, opt)
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
			coarse, _ := hgp.Contract(cur, got)
			if coarse.NumVertices() == cur.NumVertices() {
				break
			}
			cur = coarse
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

// columnNet is the column-net model of g: net j = {j} ∪ adj(j), cost 1.
// Unlike graph.ToHypergraph's 2-pin nets, its nets vary in size, so the
// MaxNetSize bound takes part.
func columnNet(g *graph.Graph) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		b.SetWeight(v, g.Weight(v))
		b.AddNetInt32(1, append([]int32{int32(v)}, g.Adj(v)...))
	}
	return b.Build()
}

// TestParallelIPMMatchesOracle covers every dataset analogue, in the edge
// and the column-net model, as an augmented repartitioning hypergraph, so
// the fixed partition vertices and the §4.1 filter take part. It runs
// p ∈ {1, 2, 3, 4} × three seeds × global and local IPM, plus a candidate
// cap small enough that whole rounds nominate no viable vertex and a
// MaxNetSize that skips the larger column nets.
func TestParallelIPMMatchesOracle(t *testing.T) {
	const k = 4
	for _, name := range datasets.Names() {
		g, err := datasets.Generate(name, 120, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []struct {
			name string
			h    *hypergraph.Hypergraph
		}{{"edge", graph.ToHypergraph(g)}, {"column", columnNet(g)}} {
			old, err := hgp.Partition(model.h, hgp.Options{K: k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			aug, err := core.BuildRepartition(model.h, old, k, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, np := range []int{1, 2, 3, 4} {
				for _, seed := range []int64{1, 2, 3} {
					for _, variant := range []struct {
						name string
						opt  Options
					}{
						{"global", Options{}},
						{"local", Options{LocalIPM: true}},
						{"cap3", Options{CandidatesPerRound: 3}},
						{"maxnet4", Options{Serial: hgp.Options{MaxNetSize: 4}}},
					} {
						t.Run(fmt.Sprintf("%s/%s/p%d/seed%d/%s", name, model.name, np, seed, variant.name), func(t *testing.T) {
							opt := variant.opt
							opt.Serial.K = k
							if levels := checkIPMAgainstOracle(t, np, aug.H, seed, opt.withDefaults()); levels < 2 {
								t.Fatalf("only %d coarsening levels compared", levels)
							}
						})
					}
				}
			}
		}
	}
}

// TestParallelIPMFullMatchEndsLevel: when a round leaves no vertex
// unmatched, the level ends without drawing the remaining rounds' rngs.
func TestParallelIPMFullMatchEndsLevel(t *testing.T) {
	b := hypergraph.NewBuilder(16)
	for v := 0; v < 16; v += 2 {
		b.AddNet(1, v, v+1)
	}
	h := b.Build()
	for _, np := range []int{1, 2, 4} {
		for _, local := range []bool{false, true} {
			checkIPMAgainstOracle(t, np, h, 5, Options{Serial: hgp.Options{K: 2}, LocalIPM: local}.withDefaults())
		}
	}
}
