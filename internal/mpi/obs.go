package mpi

import "hyperbal/internal/obs"

// Registry handles bridging the substrate's per-world Stats into the
// process-wide metrics registry. Traffic totals are folded in once per
// world when RunWith returns; the per-world atomics stay the hot-path
// accounting.
var (
	obsMessages    = obs.Default().Counter("mpi_messages_total")
	obsBytes       = obs.Default().Counter("mpi_bytes_total")
	obsCollectives = obs.Default().Counter("mpi_collectives_total")
)

// bridgeStats folds one finished world's traffic into the registry.
func bridgeStats(s *Stats) {
	obsMessages.Add(s.Messages.Load())
	obsBytes.Add(s.Bytes.Load())
	obsCollectives.Add(s.Collectives.Load())
}
