package phg

import "hyperbal/internal/obs"

// Registry handles for the SPMD partitioner. Counters are summed across
// ranks except where noted: every rank executes the same apply loop in
// parallelRefine, so applied/rejected moves are counted on rank 0 only to
// avoid multiplying the logical count by the communicator size. Stage
// timers are observed per rank (each observation is a real per-rank wall
// time).
var (
	obsPartitions = obs.Default().Counter("phg_partitions_total")

	// Stage timers (nanoseconds), per hierarchy level where applicable.
	obsCoarsenNs     = obs.Default().HistogramVec("phg_coarsen_ns", "level", obs.DurationBounds)
	obsCoarseSolveNs = obs.Default().Histogram("phg_coarse_solve_ns", obs.DurationBounds)
	obsRefineNs      = obs.Default().HistogramVec("phg_refine_ns", "level", obs.DurationBounds)

	// IPM candidate-round protocol volume (§4.1): viable candidates sent
	// by each rank, feasible bids computed against them, and rounds that
	// exchanged bids (rounds past the matching fixpoint do not run).
	obsIPMRounds     = obs.Default().Counter("phg_ipm_rounds_total")
	obsCandidates    = obs.Default().Counter("phg_candidates_total")
	obsBids          = obs.Default().Counter("phg_bids_total")
	obsLocalMatches  = obs.Default().Counter("phg_local_matches_total")
	obsGlobalMatches = obs.Default().Counter("phg_global_matches_total")

	// Refinement proposal protocol (§4.3): proposals nominated per rank,
	// and (rank 0 only) the outcome of the replicated apply loop.
	obsRefineRounds   = obs.Default().Counter("phg_refine_rounds_total")
	obsProposals      = obs.Default().Counter("phg_refine_proposals_total")
	obsMovesApplied   = obs.Default().Counter("phg_refine_applied_total")
	obsMovesRejected  = obs.Default().Counter("phg_refine_rejected_total")
	obsOversubGuarded = obs.Default().Counter("phg_coarse_solve_serialized_total")
)
