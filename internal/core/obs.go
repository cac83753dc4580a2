package core

import "hyperbal/internal/obs"

// obsRepartNs is repartition wall time per method (Zoltan-repart,
// Zoltan-scratch, ...), the time axis of Figures 7-8; the comm and
// migration volumes of the normalized-cost bars come from Result.
var obsRepartNs = obs.Default().HistogramVec("core_repart_ns", "method")
