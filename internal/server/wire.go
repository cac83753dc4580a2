package server

import (
	"encoding/json"
	"fmt"

	"hyperbal/internal/core"
	"hyperbal/internal/hypergraph"
)

// Wire types of the balancerd JSON API. The request/response bodies are
// plain JSON renderings of the core types: a hypergraph is its net list
// plus per-vertex weights/sizes, a configuration is core.Config with the
// method spelled by its paper name, a result is the partition plus the
// volumes of core.Result. The Go client in the root package and the
// server handlers share these so the two sides cannot drift.

// WireNet is one net: its communication cost and pin list (0-based vertex
// ids, no duplicates).
type WireNet struct {
	Cost int64   `json:"cost"`
	Pins []int32 `json:"pins"`
}

// WireHypergraph is the JSON form of a hypergraph. Weights, Sizes and
// Fixed may be omitted: absent weights/sizes default to 1 per vertex,
// absent fixed means all vertices free.
type WireHypergraph struct {
	NumVertices int       `json:"num_vertices"`
	Nets        []WireNet `json:"nets"`
	Weights     []int64   `json:"weights,omitempty"`
	Sizes       []int64   `json:"sizes,omitempty"`
	Fixed       []int32   `json:"fixed,omitempty"`
}

// EncodeHypergraph renders h in wire form. Every slice is a copy — pin
// lists included, backed by one shared allocation — so a caller mutating
// the result cannot corrupt a live session's base hypergraph (the pins
// used to alias h's CSR storage; see TestEncodeHypergraphDoesNotAlias).
func EncodeHypergraph(h *hypergraph.Hypergraph) WireHypergraph {
	w := WireHypergraph{
		NumVertices: h.NumVertices(),
		Nets:        make([]WireNet, h.NumNets()),
		Weights:     make([]int64, h.NumVertices()),
		Sizes:       make([]int64, h.NumVertices()),
	}
	backing := make([]int32, 0, h.NumPins())
	for n := 0; n < h.NumNets(); n++ {
		start := len(backing)
		backing = append(backing, h.Pins(n)...)
		w.Nets[n] = WireNet{Cost: h.Cost(n), Pins: backing[start:len(backing):len(backing)]}
	}
	for v := 0; v < h.NumVertices(); v++ {
		w.Weights[v] = h.Weight(v)
		w.Sizes[v] = h.Size(v)
	}
	if h.HasFixed() {
		w.Fixed = make([]int32, h.NumVertices())
		for v := range w.Fixed {
			w.Fixed[v] = h.Fixed(v)
		}
	}
	return w
}

// Decode validates the wire hypergraph and builds the in-memory form.
func (w WireHypergraph) Decode() (*hypergraph.Hypergraph, error) {
	h, _, err := w.DecodeFingerprint()
	return h, err
}

// DecodeFingerprint is Decode returning the content fingerprint alongside
// — computed once while building, so handlers never re-hash a hypergraph
// they just decoded. Validation and construction are shared with the
// binary codec (hypergraph.BuildFromWire), so the two codecs accept and
// reject exactly the same hypergraphs.
func (w WireHypergraph) DecodeFingerprint() (*hypergraph.Hypergraph, string, error) {
	total := 0
	for _, net := range w.Nets {
		total += len(net.Pins)
	}
	costs := make([]int64, len(w.Nets))
	netSizes := make([]int32, len(w.Nets))
	pins := make([]int32, 0, total)
	for n, net := range w.Nets {
		costs[n] = net.Cost
		netSizes[n] = int32(len(net.Pins))
		pins = append(pins, net.Pins...)
	}
	var weights, sizes []int64
	var fixed []int32
	if len(w.Weights) != 0 {
		weights = append([]int64(nil), w.Weights...)
	}
	if len(w.Sizes) != 0 {
		sizes = append([]int64(nil), w.Sizes...)
	}
	if len(w.Fixed) != 0 {
		fixed = append([]int32(nil), w.Fixed...)
	}
	return hypergraph.BuildFromWire(w.NumVertices, costs, netSizes, pins, weights, sizes, fixed)
}

// WireConfig is the JSON form of core.Config; Method uses the paper name
// ("Zoltan-repart" by default).
type WireConfig struct {
	K             int     `json:"k"`
	Alpha         int64   `json:"alpha,omitempty"`
	Imbalance     float64 `json:"imbalance,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Method        string  `json:"method,omitempty"`
	MaxClique     int     `json:"max_clique,omitempty"`
	CoarsenTo     int     `json:"coarsen_to,omitempty"`
	InitialStarts int     `json:"initial_starts,omitempty"`
	RefinePasses  int     `json:"refine_passes,omitempty"`
	Parallelism   int     `json:"parallelism,omitempty"`
}

// ToCore resolves the wire configuration into a core.Config.
func (w WireConfig) ToCore() (core.Config, error) {
	cfg := core.Config{
		K:             w.K,
		Alpha:         w.Alpha,
		Imbalance:     w.Imbalance,
		Seed:          w.Seed,
		MaxClique:     w.MaxClique,
		CoarsenTo:     w.CoarsenTo,
		InitialStarts: w.InitialStarts,
		RefinePasses:  w.RefinePasses,
		Parallelism:   w.Parallelism,
	}
	if w.Method != "" {
		m, err := core.ParseMethod(w.Method)
		if err != nil {
			return cfg, err
		}
		cfg.Method = m
	}
	return cfg, nil
}

// WireConfigFrom renders a core.Config in wire form.
func WireConfigFrom(cfg core.Config) WireConfig {
	return WireConfig{
		K:             cfg.K,
		Alpha:         cfg.Alpha,
		Imbalance:     cfg.Imbalance,
		Seed:          cfg.Seed,
		Method:        cfg.Method.String(),
		MaxClique:     cfg.MaxClique,
		CoarsenTo:     cfg.CoarsenTo,
		InitialStarts: cfg.InitialStarts,
		RefinePasses:  cfg.RefinePasses,
		Parallelism:   cfg.Parallelism,
	}
}

// CreateSessionRequest is the body of POST /v1/sessions.
type CreateSessionRequest struct {
	Config     WireConfig     `json:"config"`
	Hypergraph WireHypergraph `json:"hypergraph"`
}

func decodeCreateRequestJSON(data []byte) (createRequest, error) {
	var req CreateSessionRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return createRequest{}, fmt.Errorf("invalid request body: %w", err)
	}
	h, fp, err := req.Hypergraph.DecodeFingerprint()
	if err != nil {
		return createRequest{}, fmt.Errorf("hypergraph: %w", err)
	}
	return createRequest{Config: req.Config, H: h, FP: fp}, nil
}

// EpochRequest is the body of POST /v1/sessions/{id}/epochs: the epoch's
// drifted hypergraph, plus the inherited assignment when the vertex set
// changed. Epoch, when positive, is the expected epoch number of this
// submission (current+1); a mismatch is rejected with 409 so a retried
// submission cannot advance a session twice. OnlyIfUnbalanced asks the
// server to first evaluate the session's rebalance trigger and return the
// unchanged distribution (rebalanced=false) if the drift is still within
// threshold.
type EpochRequest struct {
	Hypergraph       WireHypergraph `json:"hypergraph"`
	Inherited        []int32        `json:"inherited,omitempty"`
	Epoch            int64          `json:"epoch,omitempty"`
	OnlyIfUnbalanced bool           `json:"only_if_unbalanced,omitempty"`
}

func decodeEpochRequestJSON(data []byte) (*submission, error) {
	var req EpochRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("invalid request body: %w", err)
	}
	h, fp, err := req.Hypergraph.DecodeFingerprint()
	if err != nil {
		return nil, fmt.Errorf("hypergraph: %w", err)
	}
	return &submission{
		H: h, FP: fp,
		Inherited:        req.Inherited,
		Epoch:            req.Epoch,
		OnlyIfUnbalanced: req.OnlyIfUnbalanced,
	}, nil
}

// DeltaEpochRequest is the body of PATCH /v1/sessions/{id}/epochs: the
// epoch's hypergraph expressed as a delta against the session's last
// accepted hypergraph (Delta.Base must equal that fingerprint — a
// mismatch is rejected with 409 code "fingerprint_mismatch" carrying the
// server's base fingerprint, the client's signal to resubmit as a full
// epoch). Inherited is optional for structural deltas: when absent the
// server derives it from the delta's vertex map (mapped vertices keep
// their parts, new vertices go to the lightest part). Warm asks for a
// warm-started repartition restricted to the delta's dirty region.
type DeltaEpochRequest struct {
	Delta     hypergraph.Delta `json:"delta"`
	Inherited []int32          `json:"inherited,omitempty"`
	Epoch     int64            `json:"epoch,omitempty"`
	Warm      bool             `json:"warm,omitempty"`
}

func decodeDeltaRequestJSON(data []byte) (*submission, error) {
	var req DeltaEpochRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("invalid request body: %w", err)
	}
	return &submission{
		Delta:     &req.Delta,
		Inherited: req.Inherited,
		Epoch:     req.Epoch,
		Warm:      req.Warm,
	}, nil
}

// WireResult is one load-balance operation in wire form.
type WireResult struct {
	Epoch           int64   `json:"epoch"`
	K               int     `json:"k"`
	Parts           []int32 `json:"parts"`
	CommVolume      int64   `json:"comm_volume"`
	MigrationVolume int64   `json:"migration_volume"`
	Moved           int     `json:"moved"`
	RepartMs        float64 `json:"repart_ms"`
	// Cached reports that the partition was served from the
	// fingerprint-keyed result cache without running the partitioner.
	Cached bool `json:"cached,omitempty"`
	// Rebalanced is false only for only_if_unbalanced submissions whose
	// drift was still within threshold (the epoch did not advance).
	Rebalanced bool `json:"rebalanced"`
	// Warm reports that the partitioner was warm-started from the previous
	// distribution (delta epochs with warm=true).
	Warm bool `json:"warm,omitempty"`
}

// SessionResponse is the body of POST /v1/sessions and of
// POST /v1/sessions/{id}/epochs.
type SessionResponse struct {
	SessionID string     `json:"session_id"`
	Result    WireResult `json:"result"`
}

// MigrationSummary condenses a migrate.Plan for the wire.
type MigrationSummary struct {
	Moves       int       `json:"moves"`
	TotalVolume int64     `json:"total_volume"`
	MaxOutbound int64     `json:"max_outbound"`
	MaxInbound  int64     `json:"max_inbound"`
	Volume      [][]int64 `json:"volume,omitempty"`
}

// PartitionResponse is the body of GET /v1/sessions/{id}/partition: the
// current distribution plus the migration plan of the latest epoch (nil
// before the first rebalance).
type PartitionResponse struct {
	SessionID string            `json:"session_id"`
	Epoch     int64             `json:"epoch"`
	K         int               `json:"k"`
	Parts     []int32           `json:"parts"`
	Migration *MigrationSummary `json:"migration,omitempty"`
}

// SessionInfo is the body of GET /v1/sessions/{id}.
type SessionInfo struct {
	SessionID  string     `json:"session_id"`
	Config     WireConfig `json:"config"`
	Epoch      int64      `json:"epoch"`
	HistoryLen int        `json:"history_len"`
	TotalCost  int64      `json:"total_cost"`
	Last       WireResult `json:"last"`
}

// ErrorResponse is the body of every non-2xx response. Code is a stable
// machine-readable discriminator: bad_request, not_found, epoch_conflict,
// fingerprint_mismatch, busy, draining, internal.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// Epoch carries the session's current epoch on epoch_conflict so the
	// client can reconcile a retried submission.
	Epoch int64 `json:"epoch,omitempty"`
	// Base carries the session's current base fingerprint on
	// fingerprint_mismatch so the client can resubmit a full epoch (or a
	// delta against the right base).
	Base string `json:"base,omitempty"`
}
