package server

import (
	"fmt"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/wire"
)

// Binary wire protocol of the balancerd API. A message is the header
// `"HBW" version type` followed by one declared struct below, laid out by
// the internal/wire codec with Varint integers: zigzag/uvarint integers,
// 8-byte floats, count-prefixed strings and slices, a presence byte before
// an optional struct, and hypergraphs and deltas as their own HBW frames
// (hypergraph.Frame and hypergraph.Delta fields). Each message's validate
// holds the bounds the codec cannot express. It is the only request codec:
// create, epoch and delta bodies must carry Content-Type
// application/x-hyperbal (anything else is 415). Responses are binary when
// Accept lists that media type, JSON otherwise. Error responses are always
// JSON (they are tiny, and a client that negotiated binary still needs
// errors it can decode before trusting the frame layer). See DESIGN.md §12
// for the layouts.

// ContentTypeBinary is the media type of the binary wire protocol.
const ContentTypeBinary = "application/x-hyperbal"

// wireVersion is the fourth header byte. Version 5 lays the hypergraph
// and delta frames out with the codec, like every other field; version 4
// brought the six-field configuration, epoch submissions without the
// only-if-unbalanced flag, results without the rebalanced flag, and a
// handoff that carries the session's running cost. A frame of any earlier
// version is refused like any malformed one.
const wireVersion = 5

// Message types (fifth header byte).
const (
	msgCreate byte = iota + 1
	msgEpoch
	msgDelta
	msgSessionResponse
	msgPartitionResponse
	msgSessionInfo
	// Type 7 is retired; a frame carrying it is refused like any unknown
	// type.

	// msgHandoff is the replica-to-replica drain-time session-state
	// handoff (POST /internal/handoff). It keeps type 8, so replicas of
	// one wire version hand sessions to each other across builds; a frame
	// of another version is refused, and the draining replica keeps the
	// session.
	msgHandoff byte = 8
)

// message is one declared message: its header type and the checks its
// decoder runs after the codec.
type message interface {
	wireType() byte
	validate() error
}

// appendMsg appends m, a message value, with its header.
func appendMsg(buf []byte, m message) []byte {
	buf = append(buf, 'H', 'B', 'W', wireVersion, m.wireType())
	buf, err := wire.Varint.Append(buf, m)
	if err != nil {
		panic(err) // every message is a declared struct, which always has a layout
	}
	return buf
}

// decodeMsg decodes one whole frame into m, a pointer to a message.
func decodeMsg(data []byte, m message) error {
	switch {
	case len(data) < 5:
		return fmt.Errorf("%w: missing message header", wire.ErrTruncated)
	case string(data[:3]) != "HBW":
		return fmt.Errorf("%w: bad magic %q", wire.ErrMalformed, data[:3])
	case data[3] != wireVersion:
		return fmt.Errorf("%w: protocol version %d (want %d)", wire.ErrMalformed, data[3], wireVersion)
	case data[4] != m.wireType():
		return fmt.Errorf("%w: message type %d (want %d)", wire.ErrMalformed, data[4], m.wireType())
	}
	if err := wire.Varint.Decode(data[5:], m); err != nil {
		return err
	}
	return m.validate()
}

// createRequest is the body of POST /v1/sessions. The hypergraph comes
// last, so the frame ends on it.
type createRequest struct {
	Config WireConfig
	Graph  hypergraph.Frame
}

// AppendCreateRequestBinary renders POST /v1/sessions, encoding the
// hypergraph straight from its CSR storage.
func AppendCreateRequestBinary(buf []byte, cfg WireConfig, h *hypergraph.Hypergraph) []byte {
	return appendMsg(buf, createRequest{cfg, hypergraph.Frame{H: h}})
}

// epochRequest is the body of POST /v1/sessions/{id}/epochs.
type epochRequest struct {
	Graph     hypergraph.Frame
	Inherited []int32
	Epoch     int64
}

// AppendEpochRequestBinary renders POST /v1/sessions/{id}/epochs: the
// epoch's drifted hypergraph, plus the inherited assignment when the
// vertex set changed. epoch, when positive, is the expected epoch number
// of this submission (current+1); a mismatch is rejected with 409 so a
// retried submission cannot advance a session twice.
func AppendEpochRequestBinary(buf []byte, h *hypergraph.Hypergraph, inherited []int32, epoch int64) []byte {
	return appendMsg(buf, epochRequest{hypergraph.Frame{H: h}, inherited, epoch})
}

// deltaRequest is the body of PATCH /v1/sessions/{id}/epochs.
type deltaRequest struct {
	Delta     hypergraph.Delta
	Inherited []int32
	Epoch     int64
	Warm      bool
}

// AppendDeltaRequestBinary renders PATCH /v1/sessions/{id}/epochs: the
// epoch's hypergraph as a delta against the session's last accepted
// hypergraph (d.Base must equal that fingerprint — a mismatch is rejected
// with 409 code "fingerprint_mismatch" carrying the server's base
// fingerprint, the client's signal to resubmit as a full epoch).
// inherited is optional for structural deltas: when absent the server
// derives it from the delta's vertex map. warm asks for a warm-started
// repartition restricted to the delta's dirty region.
func AppendDeltaRequestBinary(buf []byte, d *hypergraph.Delta, inherited []int32, epoch int64, warm bool) []byte {
	return appendMsg(buf, deltaRequest{*d, inherited, epoch, warm})
}

// submitter is a decoded epoch or delta request, which gives serveEpoch
// its route-neutral submission.
type submitter interface {
	message
	submission() *submission
}

func (m *epochRequest) submission() *submission {
	return &submission{Graph: m.Graph, Inherited: m.Inherited, Epoch: m.Epoch}
}

func (m *deltaRequest) submission() *submission {
	return &submission{Delta: &m.Delta, Inherited: m.Inherited, Epoch: m.Epoch, Warm: m.Warm}
}

// DecodeResponseBinary parses a binary success body into resp, a
// *SessionResponse, *PartitionResponse or *SessionInfo.
func DecodeResponseBinary(data []byte, resp any) error {
	m, ok := resp.(message)
	if !ok {
		return fmt.Errorf("no binary form for %T", resp)
	}
	return decodeMsg(data, m)
}

func (createRequest) wireType() byte     { return msgCreate }
func (epochRequest) wireType() byte      { return msgEpoch }
func (deltaRequest) wireType() byte      { return msgDelta }
func (SessionResponse) wireType() byte   { return msgSessionResponse }
func (PartitionResponse) wireType() byte { return msgPartitionResponse }
func (SessionInfo) wireType() byte       { return msgSessionInfo }
func (handoffState) wireType() byte      { return msgHandoff }

func (m createRequest) validate() error { return m.Config.validate() }
func (m epochRequest) validate() error  { return check("inherited", len(m.Inherited), maxParts) }
func (m deltaRequest) validate() error  { return check("inherited", len(m.Inherited), maxParts) }
