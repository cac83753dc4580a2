// Package pgp is the parallel counterpart of internal/gp: a ParMETIS-like
// parallel multilevel graph partitioner and adaptive repartitioner running
// SPMD over the internal/mpi substrate. It completes the Figures 7-8
// comparison so the hypergraph (phg) and graph (pgp) pipelines are timed
// under the same execution model: candidate-round matching, replicated
// coarse solve with a MinLoc reduction, propose/exchange refinement.
//
// The graph pipeline stays deliberately lighter-weight than phg —
// adjacency-array scoring rather than net traversal — preserving the
// paper's run-time relationship ("graph-based approaches 10 to 15 times
// faster" on medium-dense problems, at a quality cost).
package pgp

import (
	"fmt"
	"math/rand"
	"time"

	"hyperbal/internal/gp"
	"hyperbal/internal/graph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/partition"
)

// Options extend the serial gp options with parallel knobs.
type Options struct {
	Serial gp.Options
	// MatchRounds bounds candidate-matching rounds per level (default 10),
	// an upper bound that rarely binds: a level's rounds end at the
	// matching fixpoint.
	MatchRounds int
	// MovesPerRound bounds refinement proposals per rank per exchange
	// (default 128).
	MovesPerRound int
	// RefineRounds bounds proposal exchanges per level (default 12).
	RefineRounds int
}

func (o Options) withDefaults() Options {
	if o.MatchRounds <= 0 {
		o.MatchRounds = 10
	}
	if o.MovesPerRound <= 0 {
		o.MovesPerRound = 128
	}
	if o.RefineRounds <= 0 {
		o.RefineRounds = 12
	}
	return o
}

// Partition computes a k-way partition from scratch in parallel. Every
// rank calls with identical arguments and receives the identical result.
func Partition(c *mpi.Comm, g *graph.Graph, opt Options) (partition.Partition, error) {
	return run(c, g, nil, 1, opt)
}

// AdaptiveRepart runs the unified adaptive repartitioning scheme in
// parallel: partition-respecting coarsening, inherited coarse solution,
// combined-objective (itr) refinement.
func AdaptiveRepart(c *mpi.Comm, g *graph.Graph, old partition.Partition, itr int64, opt Options) (partition.Partition, error) {
	if len(old.Parts) != g.NumVertices() {
		return partition.Partition{}, fmt.Errorf("pgp: old partition covers %d vertices, graph has %d",
			len(old.Parts), g.NumVertices())
	}
	oldParts := append([]int32(nil), old.Parts...)
	return run(c, g, oldParts, itr, opt)
}

func run(c *mpi.Comm, g *graph.Graph, oldPart []int32, itr int64, opt Options) (partition.Partition, error) {
	opt = opt.withDefaults()
	serial := opt.Serial
	k := serial.K
	if k < 1 {
		return partition.Partition{}, fmt.Errorf("pgp: K must be >= 1")
	}
	p := partition.Partition{Parts: make([]int32, g.NumVertices()), K: k}
	if k == 1 || g.NumVertices() == 0 {
		return p, nil
	}
	rng := rand.New(rand.NewSource(serial.Seed*999983 + int64(c.Rank())))

	coarsenTo := serial.CoarsenTo
	if coarsenTo <= 0 {
		coarsenTo = 100
	}
	if coarsenTo < 2*k {
		coarsenTo = 2 * k
	}
	minShrink := serial.MinShrink
	if minShrink <= 0 {
		minShrink = 0.10
	}

	type level struct {
		g       *graph.Graph
		cmap    []int32
		oldPart []int32
	}
	levels := []level{{g: g, oldPart: oldPart}}
	cur, curOld := g, oldPart
	for cur.NumVertices() > coarsenTo {
		start := time.Now()
		match := parallelHEM(c, cur, curOld, rng, opt)
		coarse, cmap, coarseOld := gp.Contract(cur, match, curOld)
		obsCoarsenNs.At(len(levels) - 1).ObserveSince(start)
		if 1-float64(coarse.NumVertices())/float64(cur.NumVertices()) < minShrink {
			break
		}
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, level{g: coarse, oldPart: coarseOld})
		cur, curOld = coarse, coarseOld
	}

	// Coarse solve.
	coarsest := levels[len(levels)-1]
	var parts []int32
	if oldPart != nil {
		// Adaptive: inherit the coarse old partition (identical on every
		// rank — no election needed).
		parts = append([]int32(nil), coarsest.oldPart...)
	} else {
		// Scratch: replicated multi-start via per-rank serial solves.
		solveStart := time.Now()
		so := serial
		so.Seed = serial.Seed*6361 + int64(c.Rank()+1)
		cp, err := gp.Partition(coarsest.g, so)
		if err != nil {
			return partition.Partition{}, err
		}
		myCut := partition.EdgeCut(coarsest.g, cp)
		winner := mpi.AllreduceMinLoc(c, myCut)
		parts = mpi.BcastSlice(c, winner.Rank, cp.Parts)
		obsCoarseSolveNs.ObserveSince(solveStart)
	}

	eps := serial.Imbalance
	if eps <= 0 {
		eps = 0.05
	}
	caps := capsFor(g, k, eps)
	for i := len(levels) - 1; i >= 0; i-- {
		refineStart := time.Now()
		if i < len(levels)-1 {
			parts = gp.Project(levels[i].cmap, parts)
		}
		parallelRefine(c, levels[i].g, k, parts, levels[i].oldPart, itr, caps, opt)
		obsRefineNs.At(i).ObserveSince(refineStart)
	}
	copy(p.Parts, parts)
	return p, nil
}

func capsFor(g *graph.Graph, k int, eps float64) []int64 {
	total := g.TotalWeight()
	capv := int64(float64(total) / float64(k) * (1 + eps))
	if capv < 1 {
		capv = 1
	}
	caps := make([]int64, k)
	for i := range caps {
		caps[i] = capv
	}
	return caps
}

func blockRange(n, size, r int) (int, int) {
	per := n / size
	rem := n % size
	lo := r*per + minInt(r, rem)
	hi := lo + per
	if r < rem {
		hi++
	}
	return lo, hi
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
