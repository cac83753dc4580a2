package server

import "hyperbal/internal/obs"

// Registry handles for the serving tier. Queue/in-flight gauges track the
// admission controller, the cache counters feed the hit-rate panel, and
// server_request_ns{route=...} is the per-route latency the benchmark's
// server.request_ms reads.
var (
	obsRequests  = obs.Default().CounterVec("server_requests_total", "route")
	obsRequestNs = obs.Default().HistogramVec("server_request_ns", "route", obs.DurationBounds)
	obsResponses = obs.Default().CounterVec("server_responses_total", "status")

	obsInFlight         = obs.Default().Gauge("server_inflight_epochs")
	obsQueueDepth       = obs.Default().Gauge("server_queue_depth")
	obsRejectedBusy     = obs.Default().Counter("server_rejected_busy_total")
	obsRejectedDraining = obs.Default().Counter("server_rejected_draining_total")

	obsCacheHits    = obs.Default().Counter("server_cache_hits_total")
	obsCacheMisses  = obs.Default().Counter("server_cache_misses_total")
	obsCacheEntries = obs.Default().Gauge("server_cache_entries")

	obsSessionsActive  = obs.Default().Gauge("server_sessions_active")
	obsSessionsCreated = obs.Default().Counter("server_sessions_created_total")
	obsSessionsEvicted = obs.Default().Counter("server_sessions_evicted_total")
	obsSessionsClosed  = obs.Default().Counter("server_sessions_closed_total")

	obsEpochs       = obs.Default().Counter("server_epochs_total")
	obsEpochSkipped = obs.Default().Counter("server_epochs_skipped_total")
	obsFaultDelayNs = obs.Default().Histogram("server_fault_delay_ns", obs.DurationBounds)

	// Delta epochs: accepted PATCH submissions, 409 fingerprint mismatches
	// (client falls back to a full epoch), wire bytes actually received vs
	// the estimated full-epoch body those bytes replaced, the dirty-region
	// fraction per delta, and partitioning wall time split warm vs cold.
	obsDeltaEpochs        = obs.Default().Counter("server_delta_epochs_total")
	obsDeltaMismatches    = obs.Default().Counter("server_delta_fingerprint_mismatches_total")
	obsDeltaBytes         = obs.Default().Counter("server_delta_bytes_total")
	obsDeltaFullBytesEst  = obs.Default().Counter("server_delta_full_bytes_estimated_total")
	obsDeltaDirtyPermille = obs.Default().Histogram("server_delta_dirty_permille", obs.LinBounds(50, 50, 20))
	obsEpochWarmNs        = obs.Default().Histogram("server_epoch_warm_ns", obs.DurationBounds)
	obsEpochColdNs        = obs.Default().Histogram("server_epoch_cold_ns", obs.DurationBounds)

	// Wire codec accounting: payload bytes in (always binary) and out per
	// negotiated codec (json|binary; error bodies excluded), time spent
	// encoding/decoding per operation, and singleflight coalescing — one
	// leader per distinct in-flight cold solve, one shared increment per
	// concurrent request that adopted a leader's result instead of solving.
	obsWireRxBytes         = obs.Default().CounterVec("server_wire_rx_bytes_total", "codec")
	obsWireTxBytes         = obs.Default().CounterVec("server_wire_tx_bytes_total", "codec")
	obsCodecNs             = obs.Default().HistogramVec("server_codec_ns", "op", obs.DurationBounds)
	obsSingleflightLeaders = obs.Default().Counter("server_singleflight_leaders_total")
	obsSingleflightShared  = obs.Default().Counter("server_singleflight_shared_total")
	// Followers that re-raced the flight map after a leader error (one of
	// them retries the solve instead of fanning the error out as a 5xx
	// volley).
	obsSingleflightRetries = obs.Default().Counter("server_singleflight_retries_total")

	// Cache peering and drain handoff (the distributed serving tier).
	// peer_hits: partition-cache misses answered by the key's owner replica
	// (byte-identical by parallelism invariance, adopted without a solve).
	// peer_misses: owner asked but had no entry; peer_timeouts: owner did
	// not answer within PeerTimeout (degraded to a local solve);
	// peer_errors: transport/decode failures, same degradation.
	// peer_served: lookups this replica answered for its peers.
	obsPeerHits     = obs.Default().Counter("server_peer_hits_total")
	obsPeerMisses   = obs.Default().Counter("server_peer_misses_total")
	obsPeerTimeouts = obs.Default().Counter("server_peer_timeouts_total")
	obsPeerErrors   = obs.Default().Counter("server_peer_errors_total")
	obsPeerServed   = obs.Default().Counter("server_peer_served_total")
	// Drain-time session-state handoff: sessions serialized to a successor
	// replica, sessions adopted from a draining peer, and sessions that
	// could not be placed anywhere (kept locally, at risk of loss).
	obsHandoffSent     = obs.Default().Counter("server_handoff_sessions_total")
	obsHandoffReceived = obs.Default().Counter("server_handoff_received_total")
	obsHandoffFailed   = obs.Default().Counter("server_handoff_failed_total")
	// 307 answers pointing a caller at a session's post-handoff owner.
	obsOwnerRedirects = obs.Default().Counter("server_owner_redirects_total")
)

// Gateway-side handles (the routing tier shares the registry; a process is
// either a gateway or a replica, so the families never mix in one dump).
var (
	obsGwRequests  = obs.Default().CounterVec("gateway_requests_total", "route")
	obsGwRequestNs = obs.Default().HistogramVec("gateway_request_ns", "route", obs.DurationBounds)
	// Proxy attempts that moved past their first-choice replica: transport
	// errors (replica marked down), 404 probes across ring candidates, and
	// 307 owner redirects followed.
	obsGwRetargets    = obs.Default().Counter("gateway_retargets_total")
	obsGwReplicaDown  = obs.Default().Counter("gateway_replica_down_total")
	obsGwPlaced       = obs.Default().Gauge("gateway_placed_sessions")
	obsGwReplicaAlive = obs.Default().Gauge("gateway_replicas_alive")
)
