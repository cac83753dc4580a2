package hgp

import "hyperbal/internal/obs"

// Registry handles for the serial multilevel pipeline. All handles are
// registered once at init; the hot paths only touch atomics. Per-pass
// counters are accumulated locally inside the refinement loops and added
// once per pass, so the FM inner loops stay allocation- and contention-
// free (the measured overhead budget for the whole layer is <2% of a
// Figure-7 repartition).
var (
	obsLevels = obs.Default().Counter("hgp_coarsen_levels_total")

	// Stage timers (nanoseconds): coarsening per level, the multi-start
	// coarse solve, refinement per level, and the final k-way polish.
	obsCoarsenNs     = obs.Default().HistogramVec("hgp_coarsen_ns", "level")
	obsCoarseSolveNs = obs.Default().Histogram("hgp_coarse_solve_ns")
	obsRefineNs      = obs.Default().HistogramVec("hgp_refine_ns", "level")
	obsPolishNs      = obs.Default().Histogram("hgp_kway_polish_ns")

	// FM activity: applied moves, and k-way passes and moves.
	obsFM2Moves   = obs.Default().Counter("hgp_fm2_moves_total")
	obsKwayPasses = obs.Default().Counter("hgp_kway_passes_total")
	obsKwayMoves  = obs.Default().Counter("hgp_kway_moves_total")

	// Worker items are the RB sides and multi-starts that actually ran on
	// a spawned worker goroutine (stays 0 under the rank-local SPMD pin).
	obsKernelWorkerItems = obs.Default().Counter("hgp_kernel_worker_items_total")

	// Warm-start path: calls by mode (localized / cold / trivial) and
	// the wall time of the whole warm partition (the cold analogue is the
	// sum of the stage timers above).
	obsWarmPartitions = obs.Default().CounterVec("hgp_warm_partitions_total", "mode")
	obsWarmNs         = obs.Default().Histogram("hgp_warm_partition_ns")
)
