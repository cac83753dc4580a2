package harness

import "hyperbal/internal/obs"

// obsRepartNs records per-epoch repartition time under the method label,
// so a sweep's metrics dump breaks down exactly like the figure bars it
// produces.
var obsRepartNs = obs.Default().HistogramVec("harness_repart_ns", "method", obs.DurationBounds)
