package pgp

import "hyperbal/internal/obs"

// Registry handles for the parallel graph partitioner, mirroring the phg_*
// family so the Figure 7/8 pipelines can be compared metric-for-metric.
// HEM rounds, which every rank replicates, are counted on rank 0 only;
// per-rank work (candidates, proposals) is summed across ranks. The
// coarse-solve timer records zero observations on the adaptive path, which
// inherits the coarse partition instead of solving (count stays 0 by
// design).
var (
	obsCoarsenNs     = obs.Default().HistogramVec("pgp_coarsen_ns", "level", obs.DurationBounds)
	obsCoarseSolveNs = obs.Default().Histogram("pgp_coarse_solve_ns", obs.DurationBounds)
	obsRefineNs      = obs.Default().HistogramVec("pgp_refine_ns", "level", obs.DurationBounds)

	obsHEMRounds  = obs.Default().Counter("pgp_hem_rounds_total")
	obsCandidates = obs.Default().Counter("pgp_candidates_total")
	obsProposals  = obs.Default().Counter("pgp_refine_proposals_total")
)
