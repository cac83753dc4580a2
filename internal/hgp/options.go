// Package hgp implements serial multilevel hypergraph partitioning with
// fixed vertices, following Section 4 of the paper: inner-product-matching
// (IPM) coarsening with a fixed-compatibility match filter, randomized
// greedy hypergraph growing for the coarse solution, Fiduccia–Mattheyses
// refinement with pass-pairs, and k-way partitioning via recursive
// bisection with fixed-label folding (Zoltan's approach) or a direct
// k-way driver.
package hgp

import (
	"math"
	"runtime"
)

// Options control the multilevel partitioner.
type Options struct {
	// K is the number of parts. Required, >= 1.
	K int
	// Imbalance is the allowed imbalance epsilon of Eq. 1 (e.g. 0.05).
	Imbalance float64
	// Seed makes runs deterministic.
	Seed int64
	// CoarsenTo stops coarsening when the hypergraph has at most this many
	// vertices (before the 2K floor). Default 100.
	CoarsenTo int
	// MinShrink aborts coarsening when a level shrinks the vertex count by
	// less than this fraction (paper: typically 10%). Default 0.10.
	MinShrink float64
	// InitialStarts is the number of randomized greedy-growing starts at the
	// coarsest level. Default 8.
	InitialStarts int
	// RefinePasses bounds FM pass-pairs per level. Default 4.
	RefinePasses int
	// MaxNetSize: nets larger than this are skipped during IPM scoring and
	// FM gain updates (they rarely influence local decisions and dominate
	// run time). Default 500. The cut metric always counts them.
	MaxNetSize int
	// DirectKway selects the direct k-way driver instead of recursive
	// bisection. Recursive bisection is the default (as in Zoltan).
	DirectKway bool
	// KwayFM selects the gain-ordered boundary FM for the k-way polish
	// passes instead of the greedy sweep (slower, sometimes better; the
	// A5 ablation).
	KwayFM bool
	// DisableMatchFilter turns off the fixed-vertex compatibility filter in
	// coarsening (for the A1 ablation only; produces invalid partitions if
	// fixed vertices exist and the filter is off at coarse-solution time,
	// so fixed assignment is still enforced there).
	DisableMatchFilter bool
	// Parallelism bounds the worker goroutines of one Partition call: one
	// token pool runs its RB sides and coarse multi-starts, so the call
	// never runs more than Parallelism goroutines no matter how they nest.
	// The kernels within a level run serially. Results are bit-identical
	// for every value; 1 forces fully serial execution.
	//
	// Two regimes resolve the default for <= 0:
	//   - Top-level calls (this package's exported entry points):
	//     withDefaults resolves <= 0 to runtime.GOMAXPROCS(0) — use the
	//     machine.
	//   - Rank-local calls inside an SPMD coarse solve (internal/phg):
	//     the driver pins unset Parallelism to 1 before calling down,
	//     because its ranks already occupy the machine — a GOMAXPROCS
	//     default per rank would oversubscribe it multiplicatively.
	//     phg's hgp_coarse_solve_serialized_total counts the pins and
	//     hgp_kernel_worker_items_total staying flat proves no worker
	//     escapes one. An explicit Parallelism > 1 is honored in both
	//     regimes.
	Parallelism int
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 1
	}
	if o.Imbalance <= 0 {
		o.Imbalance = 0.05
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 100
	}
	if o.MinShrink <= 0 {
		o.MinShrink = 0.10
	}
	if o.InitialStarts <= 0 {
		o.InitialStarts = 8
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 4
	}
	if o.MaxNetSize <= 0 {
		o.MaxNetSize = 500
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// bisectionEps spreads the global imbalance budget over the levels of
// recursive bisection so the final k-way partition meets Eq. 1.
func bisectionEps(globalEps float64, k int) float64 {
	if k <= 2 {
		return globalEps
	}
	levels := math.Ceil(math.Log2(float64(k)))
	e := globalEps / levels
	if e < 0.01 {
		e = 0.01
	}
	return e
}
