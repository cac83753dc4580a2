package phg

import "hyperbal/internal/obs"

// Registry handles for the SPMD partitioner. Counters are summed across
// ranks except IPM rounds, which every rank replicates and rank 0 alone
// counts. Stage timers are observed per rank (each observation is a real
// per-rank wall time).
var (
	// Stage timers (nanoseconds), per hierarchy level where applicable.
	obsCoarsenNs     = obs.Default().HistogramVec("phg_coarsen_ns", "level", obs.DurationBounds)
	obsCoarseSolveNs = obs.Default().Histogram("phg_coarse_solve_ns", obs.DurationBounds)
	obsRefineNs      = obs.Default().HistogramVec("phg_refine_ns", "level", obs.DurationBounds)

	// IPM candidate-round protocol volume (§4.1): viable candidates sent
	// by each rank, feasible bids computed against them, and rounds that
	// exchanged bids (rounds past the matching fixpoint do not run).
	obsIPMRounds  = obs.Default().Counter("phg_ipm_rounds_total")
	obsCandidates = obs.Default().Counter("phg_candidates_total")
	obsBids       = obs.Default().Counter("phg_bids_total")

	// Refinement proposal protocol (§4.3): proposals nominated per rank.
	obsProposals      = obs.Default().Counter("phg_refine_proposals_total")
	obsOversubGuarded = obs.Default().Counter("phg_coarse_solve_serialized_total")
)
