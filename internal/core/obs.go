package core

import "hyperbal/internal/obs"

// Registry handles for the balancing API layer, labeled by method name
// (Zoltan-repart, Zoltan-scratch, ...) so a run can be broken down the way
// Figures 7-8 present it: repartition wall time per method, and the comm /
// migration volumes that form the normalized-cost bars.
var (
	obsRepartNs   = obs.Default().HistogramVec("core_repart_ns", "method", obs.DurationBounds)
	obsCommVolume = obs.Default().CounterVec("core_comm_volume_total", "method")
	obsMigVolume  = obs.Default().CounterVec("core_migration_volume_total", "method")
)
