package server

import (
	"errors"
	"fmt"

	"hyperbal/internal/core"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/wire"
)

// Wire types of the balancerd API. Request bodies are binary frames only
// (wirebin.go); these are the configuration and the response messages: a
// configuration is core.Config with the method spelled by its paper name,
// a result is the partition plus the volumes of core.Result. Responses
// are rendered in the codec the client's Accept asks for — binary (the
// struct itself, laid out by internal/wire; field order is wire order),
// or JSON for curl and debugging — and error bodies are always JSON. The
// Go client in the root package and the server handlers share these so
// the two sides cannot drift.

// WireConfig is the wire form of core.Config; Method uses the paper name
// ("Zoltan-repart" by default).
type WireConfig struct {
	K           int     `json:"k"`
	Alpha       int64   `json:"alpha,omitempty"`
	Imbalance   float64 `json:"imbalance,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Method      string  `json:"method,omitempty"`
	Parallelism int     `json:"parallelism,omitempty"`
}

// ToCore resolves the wire configuration into a core.Config.
func (w WireConfig) ToCore() (core.Config, error) {
	cfg := core.Config{
		K:           w.K,
		Alpha:       w.Alpha,
		Imbalance:   w.Imbalance,
		Seed:        w.Seed,
		Parallelism: w.Parallelism,
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
		K:           cfg.K,
		Alpha:       cfg.Alpha,
		Imbalance:   cfg.Imbalance,
		Seed:        cfg.Seed,
		Method:      cfg.Method.String(),
		Parallelism: cfg.Parallelism,
	}
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
	// Cached reports that this request did not run the partitioner: the
	// result was kept by the fingerprint-keyed result memo, or shared from
	// a concurrent request's solve of the same key.
	Cached bool `json:"cached,omitempty"`
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
// TotalCost is α·comm + mig summed over every load-balance operation of
// the session, the initial partition included; it survives drain handoff.
type SessionInfo struct {
	SessionID string     `json:"session_id"`
	Config    WireConfig `json:"config"`
	Epoch     int64      `json:"epoch"`
	TotalCost int64      `json:"total_cost"`
	Last      WireResult `json:"last"`
}

// ErrorResponse is the body of every non-2xx response. Code is a stable
// machine-readable discriminator: bad_request, unsupported_media_type,
// not_found, epoch_conflict, fingerprint_mismatch, busy, draining,
// internal.
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

// Bounds of the binary forms (wirebin.go) that the codec cannot express:
// string caps, the int32 range of config fields, partition and
// migration-table sizes. Each decoded message runs its validate.

func (m SessionResponse) validate() error {
	return errors.Join(check("session id", len(m.SessionID), 256), check("partition", len(m.Result.Parts), maxParts))
}

func (m PartitionResponse) validate() error {
	return errors.Join(check("session id", len(m.SessionID), 256), check("partition", len(m.Parts), maxParts),
		m.Migration.validate())
}

func (m SessionInfo) validate() error {
	return errors.Join(check("session id", len(m.SessionID), 256), m.Config.validate(),
		check("partition", len(m.Last.Parts), maxParts))
}

func (c WireConfig) validate() error {
	for _, v := range []int{c.K, c.Parallelism} {
		if v != int(int32(v)) {
			return fmt.Errorf("%w: config field %d out of range", wire.ErrMalformed, v)
		}
	}
	return check("method", len(c.Method), 128)
}

func (m *MigrationSummary) validate() error {
	side := 0
	if m != nil {
		side = len(m.Volume)
		for _, row := range m.Volume {
			side = max(side, len(row))
		}
	}
	return check("migration table side", side, 1<<16)
}

const maxParts = hypergraph.MaxWireVertices

func check(what string, n, limit int) error {
	if n > limit {
		return fmt.Errorf("%w: %s of %d exceeds %d", wire.ErrMalformed, what, n, limit)
	}
	return nil
}
