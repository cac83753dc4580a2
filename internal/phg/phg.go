// Package phg implements the parallel multilevel hypergraph partitioner
// with fixed vertices of Section 4, running SPMD over the internal/mpi
// substrate. The paper's description maps onto this implementation as
// follows:
//
//   - Coarsening (§4.1): parallel inner-product matching in rounds. Each
//     round, every rank selects candidate vertices from its block of the
//     (1D block-distributed) vertex set; candidates are sent to all ranks;
//     all ranks concurrently compute their best local match for each
//     candidate; a global reduction finalizes the best match per
//     candidate, subject to the fixed-vertex compatibility filter. Only
//     viable candidates are sent (an unmatched, compatible partner through
//     a scored net), and a level's rounds end at the matching fixpoint,
//     when no vertex is viable: MatchRounds is an upper bound that rarely
//     binds, and the skipped rounds change neither the matching nor any
//     rank's random stream. (Zoltan
//     uses a 2D data distribution; the paper notes those inner workings
//     are "not needed to explain the extension for handling fixed
//     vertices" — this package substitutes a 1D distribution, keeping the
//     candidate-round protocol and all fixed-vertex mechanics.)
//
//   - Coarse partitioning (§4.2): the coarsest hypergraph is replicated on
//     every rank and "each processor runs a randomized greedy hypergraph
//     growing algorithm to compute a different partitioning"; a MinLoc
//     reduction selects the globally best, and fixed coarse vertices keep
//     their parts.
//
//   - Refinement (§4.3): pass-pairs of a localized move-based scheme: each
//     rank proposes moves for the boundary vertices of its block; the
//     proposals are exchanged; all ranks apply the surviving moves in the
//     same deterministic order, so the replicated partition state stays
//     identical everywhere. Fixed vertices are never moved.
//
// Every rank calls Partition with identical inputs and receives the
// identical result; the communication (candidates, bids, move proposals,
// reductions) flows through the mpi substrate and is accounted in its
// Stats.
package phg

import (
	"fmt"
	"math/rand"
	"time"

	"hyperbal/internal/hgp"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/partition"
)

// Options extends the serial options with parallel knobs.
type Options struct {
	// Serial carries K, Imbalance, Seed, CoarsenTo, etc. The coarsest-level
	// solve uses these options verbatim (with per-rank seeds).
	Serial hgp.Options
	// CandidatesPerRound bounds how many unmatched vertices each rank
	// nominates per IPM round (default: block size / 2, at least 8); of
	// those, only the viable ones are sent.
	CandidatesPerRound int
	// MatchRounds bounds IPM rounds per coarsening level (default 10). It
	// is an upper bound that rarely binds: a level's rounds end at the
	// matching fixpoint, usually after two or three.
	MatchRounds int
	// MovesPerRound bounds how many refinement moves each rank proposes per
	// exchange (default 128).
	MovesPerRound int
	// RefineRounds bounds proposal exchanges per level (default 12).
	RefineRounds int
	// LocalIPM restricts inner-product matching to each rank's own vertex
	// block, eliminating the candidate broadcast and global best-match
	// reduction — the speed/quality trade the paper's conclusion proposes
	// ("using local IPM instead of global IPM" to reduce global
	// communication). One final global round still runs per level so
	// cross-block structure is not permanently invisible.
	LocalIPM bool
}

func (o Options) withDefaults() Options {
	// o.Serial is passed through verbatim: the coarse solve owns its
	// defaults (hgp.Options.withDefaults), and rebuilding the struct here
	// field-by-field silently dropped every knob this list forgot
	// (DirectKway, KwayFM, DisableMatchFilter, Parallelism). See
	// TestOptionsPreserveSerial.
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

// blockRange returns rank r's vertex block [lo, hi) of n vertices.
func blockRange(n, size, r int) (int, int) {
	per := n / size
	rem := n % size
	lo := r*per + min(r, rem)
	hi := lo + per
	if r < rem {
		hi++
	}
	return lo, hi
}

// Partition computes a k-way partition with fixed vertices in parallel.
// Every rank of c must call it with the same hypergraph and options.
func Partition(c *mpi.Comm, h *hypergraph.Hypergraph, opt Options) (partition.Partition, error) {
	opt = opt.withDefaults()
	k := opt.Serial.K
	if k < 1 {
		return partition.Partition{}, fmt.Errorf("phg: K must be >= 1")
	}
	p := partition.Partition{Parts: make([]int32, h.NumVertices()), K: k}
	if k == 1 || h.NumVertices() == 0 {
		return p, nil
	}
	// Per-rank deterministic randomness; shared decisions use reductions.
	rng := rand.New(rand.NewSource(opt.Serial.Seed*1000003 + int64(c.Rank())))

	// ---- Parallel coarsening ----
	coarsenTo := opt.Serial.CoarsenTo
	if coarsenTo <= 0 {
		coarsenTo = 100
	}
	if coarsenTo < 2*k {
		coarsenTo = 2 * k
	}
	minShrink := opt.Serial.MinShrink
	if minShrink <= 0 {
		minShrink = 0.10
	}
	type level struct {
		h    *hypergraph.Hypergraph
		cmap []int32
	}
	levels := []level{{h: h}}
	cur := h
	for cur.NumVertices() > coarsenTo {
		start := time.Now()
		match := parallelIPM(c, cur, rng, opt)
		coarse, cmap := hgp.Contract(cur, match)
		obsCoarsenNs.At(len(levels) - 1).ObserveSince(start)
		if 1-float64(coarse.NumVertices())/float64(cur.NumVertices()) < minShrink {
			break
		}
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, level{h: coarse})
		cur = coarse
	}

	// ---- Coarse partitioning: replicated multi-start, best by cut ----
	coarsest := levels[len(levels)-1].h
	serialOpt := opt.Serial
	serialOpt.Seed = opt.Serial.Seed*7907 + int64(c.Rank()+1)
	if serialOpt.Parallelism <= 0 {
		// Every SPMD rank runs a coarse solve concurrently; letting each
		// default to GOMAXPROCS workers oversubscribes the machine by a
		// factor of c.Size(). Solve serially per rank unless the caller
		// explicitly asked for intra-rank parallelism.
		serialOpt.Parallelism = 1
		obsOversubGuarded.Inc()
	}
	solveStart := time.Now()
	cp, err := hgp.Partition(coarsest, serialOpt)
	if err != nil {
		return partition.Partition{}, err
	}
	myCut := partition.CutSize(coarsest, cp)
	winner := mpi.AllreduceMinLoc(c, myCut)
	parts := mpi.BcastSlice(c, winner.Rank, cp.Parts)
	obsCoarseSolveNs.ObserveSince(solveStart)

	// ---- Uncoarsening with parallel refinement ----
	caps := capsFor(h, k, opt.Serial.Imbalance)
	for i := len(levels) - 1; i >= 0; i-- {
		refineStart := time.Now()
		if i < len(levels)-1 {
			parts = projectParts(levels[i].cmap, parts)
		}
		parallelRefine(c, levels[i].h, k, parts, caps, opt)
		obsRefineNs.At(i).ObserveSince(refineStart)
	}
	copy(p.Parts, parts)
	return p, nil
}

func projectParts(cmap []int32, coarse []int32) []int32 {
	fine := make([]int32, len(cmap))
	for v, cv := range cmap {
		fine[v] = coarse[cv]
	}
	return fine
}

func capsFor(h *hypergraph.Hypergraph, k int, eps float64) []int64 {
	if eps <= 0 {
		eps = 0.05
	}
	total := h.TotalWeight()
	capv := int64(float64(total) / float64(k) * (1 + eps))
	if capv < 1 {
		capv = 1
	}
	caps := make([]int64, k)
	for p := range caps {
		caps[p] = capv
	}
	return caps
}
