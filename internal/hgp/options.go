// Package hgp implements serial multilevel hypergraph partitioning with
// fixed vertices, following Section 4 of the paper: inner-product-matching
// (IPM) coarsening with the fixed-compatibility match filter always on,
// randomized greedy hypergraph growing for the coarse solution,
// Fiduccia–Mattheyses refinement with pass-pairs, and k-way partitioning
// via recursive bisection with fixed-label folding (Zoltan's approach).
// Every k-way refinement, cold polish and warm path alike, is the greedy
// boundary sweep of refineKway.
package hgp

import (
	"math"
	"runtime"
)

// MinShrink aborts coarsening when a level shrinks the vertex count by
// less than this fraction (paper: typically 10%).
const MinShrink = 0.10

// MaxNetSize: nets larger than this are skipped during IPM scoring and FM
// gain updates (they rarely influence local decisions and dominate run
// time). The cut metric always counts them.
const MaxNetSize = 500

// CoarsenTo stops coarsening when the hypergraph has at most this many
// vertices (2K when that is more, in phg).
const CoarsenTo = 100

// InitialStarts is the number of randomized greedy-growing starts at the
// coarsest level of each bisection.
const InitialStarts = 8

// RefinePasses bounds FM pass-pairs per level.
const RefinePasses = 4

// Options control the multilevel partitioner.
type Options struct {
	// K is the number of parts. Required, >= 1.
	K int
	// Imbalance is the allowed imbalance epsilon of Eq. 1 (e.g. 0.05).
	Imbalance float64
	// Seed makes runs deterministic.
	Seed int64
	// Parallelism bounds the worker goroutines of one Partition call: one
	// token pool runs its RB sides and coarse multi-starts, so the call
	// never runs more than Parallelism goroutines no matter how they nest.
	// The kernels within a level run serially. Results are bit-identical
	// for every value; 1 forces fully serial execution.
	//
	// Two regimes resolve the default for <= 0:
	//   - Top-level calls (this package's exported entry points):
	//     WithDefaults resolves <= 0 to runtime.GOMAXPROCS(0) — use the
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

// WithDefaults returns o with every unset field at its default. It is
// the one place the defaults live: phg reads its Eq. 1 setting from it
// too.
func (o Options) WithDefaults() Options {
	if o.K <= 0 {
		o.K = 1
	}
	if o.Imbalance <= 0 {
		o.Imbalance = 0.05
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
