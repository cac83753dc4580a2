package phg

import "hyperbal/internal/obs"

// Registry handles for the SPMD partitioner. Stage timers are observed per
// rank (each observation is a real per-rank wall time); the serialized
// counter counts coarse solves pinned to one worker per rank.
var (
	// Stage timers (nanoseconds), per hierarchy level where applicable.
	obsCoarsenNs     = obs.Default().HistogramVec("phg_coarsen_ns", "level")
	obsCoarseSolveNs = obs.Default().Histogram("phg_coarse_solve_ns")
	obsRefineNs      = obs.Default().HistogramVec("phg_refine_ns", "level")

	obsOversubGuarded = obs.Default().Counter("phg_coarse_solve_serialized_total")
)
