package server

import "hyperbal/internal/obs"

// Registry handles for the serving tier. Queue/in-flight gauges track the
// admission controller, the cache counters feed the hit-rate panel, and
// server_request_ns{route=...} is the per-route latency the benchmark's
// server.request_ms reads.
var (
	obsRequestNs = obs.Default().HistogramVec("server_request_ns", "route")

	obsInFlight     = obs.Default().Gauge("server_inflight_epochs")
	obsQueueDepth   = obs.Default().Gauge("server_queue_depth")
	obsRejectedBusy = obs.Default().Counter("server_rejected_busy_total")

	obsCacheHits    = obs.Default().Counter("server_cache_hits_total")
	obsCacheMisses  = obs.Default().Counter("server_cache_misses_total")
	obsCacheEntries = obs.Default().Gauge("server_cache_entries")

	// Delta epochs: accepted PATCH submissions, and partitioning wall time
	// split warm vs cold.
	obsDeltaEpochs = obs.Default().Counter("server_delta_epochs_total")
	obsEpochWarmNs = obs.Default().Histogram("server_epoch_warm_ns")
	obsEpochColdNs = obs.Default().Histogram("server_epoch_cold_ns")

	// Wire codec accounting: payload bytes in (always binary) and out per
	// negotiated codec (json|binary; error bodies excluded), time spent
	// encoding/decoding per operation, and singleflight coalescing — one
	// leader per distinct in-flight cold solve, one shared increment per
	// concurrent request that adopted a leader's result instead of solving.
	obsWireRxBytes         = obs.Default().CounterVec("server_wire_rx_bytes_total", "codec")
	obsWireTxBytes         = obs.Default().CounterVec("server_wire_tx_bytes_total", "codec")
	obsCodecNs             = obs.Default().HistogramVec("server_codec_ns", "op")
	obsSingleflightLeaders = obs.Default().Counter("server_singleflight_leaders_total")
	obsSingleflightShared  = obs.Default().Counter("server_singleflight_shared_total")

	// Drain-time session-state handoff (the distributed serving tier):
	// sessions serialized to a successor replica.
	obsHandoffSent = obs.Default().Counter("server_handoff_sessions_total")
)

// obsGwRetargets counts gateway proxy attempts that moved past their
// first-choice replica: candidates skipped as down, transport errors
// (replica marked down) and 404s along the ring walk. The routing tier
// shares the registry; a process is either a gateway or a replica.
var obsGwRetargets = obs.Default().Counter("gateway_retargets_total")
