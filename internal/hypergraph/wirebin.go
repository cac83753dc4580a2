package hypergraph

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperbal/internal/wire"
)

// Binary wire codec for hypergraphs and deltas (HBW frames). Both frames
// are declared structs laid out by the repo's one message codec
// (internal/wire, Varint integers). A hypergraph frame carries the CSR
// arrays as they are (net offsets, flat pin stream, costs, then the
// per-vertex sections), so encoding copies no array and decoding builds
// the CSR in place. A per-vertex section that is all 1s (weights, sizes)
// or all free (fixed labels) — the common case for the paper's dynamics —
// is sent as an empty slice.
//
// As a field of a message, a hypergraph travels as its length-prefixed
// frame (Frame), which the receiver keeps as bytes and hashes: the content
// id is the SHA-256 of the frame (fingerprint.go), so a receiver knows
// what it holds before it builds anything, and builds only when it needs
// the hypergraph. The codec bounds every count by the bytes present
// before it allocates; the checks in readHypergraph are the ones it cannot
// express (the MaxWire* caps, and a vertex count no larger than the frame
// can pay for). Every build then funnels into buildFromWire, the single
// validation + build path.

const (
	// MaxWireVertices / MaxWireNets / MaxWirePins cap the dimensions a
	// wire decoder will accept.
	MaxWireVertices = 1 << 24
	MaxWireNets     = 1 << 24
	MaxWirePins     = 1 << 26
)

// NewBinReader wraps one frame for DecodeBinary. Only the benchmark's
// decode probe (bench/run.go) calls it; everything else calls
// wire.NewReader.
func NewBinReader(data []byte) *wire.Reader { return wire.NewReader(data) }

// Frame is a hypergraph as one field of a codec-declared message
// (internal/wire). On the wire it is its HBW frame, length-prefixed.
// Decoding keeps the frame's bytes and their content id as FP and builds
// nothing; Build validates and builds H from the bytes on demand, once.
//
// FP identifies the bytes as they came. For a canonical frame (every frame
// AppendBinary writes) it equals H.Fingerprint(). A peer that spells one
// hypergraph another way (explicit all-1 weights, duplicate pins, ...)
// gets another FP, so a cache keyed on FP only misses for it; it never
// hits another hypergraph's entry. A Frame made in process sets H, and FP
// when it knows it, and encodes H.
type Frame struct {
	H   *Hypergraph
	FP  string
	raw []byte // the decoded frame; nil for a Frame made from H
}

// frameWire is the hypergraph frame's layout. Weights and Sizes are empty
// when every entry is 1, Fixed when no vertex is fixed.
type frameWire struct {
	NumVertices int
	NetStart    []int32
	Pins        []int32
	Costs       []int64
	Weights     []int64
	Sizes       []int64
	Fixed       []int32
}

// AppendWire appends the frame, length-prefixed: the decoded bytes as they
// came, or H's encoding.
func (f *Frame) AppendWire(buf []byte) []byte {
	if f.raw != nil {
		return append(binary.AppendUvarint(buf, uint64(len(f.raw))), f.raw...)
	}
	s := getScratch() // the length is known once H is encoded
	s.buf = f.H.appendFrame(s.buf[:0], &s.frame)
	buf = append(binary.AppendUvarint(buf, uint64(len(s.buf))), s.buf...)
	s.put()
	return buf
}

// DecodeWire reads one length-prefixed hypergraph frame, keeping a copy of
// its bytes and their content id as FP. It builds nothing, so a frame
// whose content is invalid decodes here and is refused by Build.
func (f *Frame) DecodeWire(r *wire.Reader) error {
	n, err := r.Uvarint()
	if err != nil {
		return err
	}
	if n > uint64(r.Rem()) {
		return fmt.Errorf("%w: hypergraph frame of %d bytes, %d left", wire.ErrTruncated, n, r.Rem())
	}
	b, _ := r.Bytes(int(n))
	*f = Frame{FP: contentID(fingerprintPrefix, b), raw: append(make([]byte, 0, n), b...)}
	return nil
}

// Build returns the frame's hypergraph. The first call on a decoded frame
// validates and builds it from the bytes (a malformed one is a
// wire.ErrMalformed error) and keeps it in H, so later calls on this Frame
// build nothing.
func (f *Frame) Build() (*Hypergraph, error) {
	switch {
	case f.H != nil:
		return f.H, nil
	case f.raw == nil:
		return nil, fmt.Errorf("%w: no hypergraph frame", wire.ErrMalformed)
	}
	r := wire.NewReader(f.raw)
	h, err := readHypergraph(r)
	switch {
	case errors.Is(err, wire.ErrTruncated): // the length prefix promised a whole frame
		return nil, fmt.Errorf("%w: %v", wire.ErrMalformed, err)
	case err != nil:
		return nil, err
	case r.Rem() != 0:
		return nil, fmt.Errorf("%w: %d trailing bytes after the hypergraph frame", wire.ErrMalformed, r.Rem())
	}
	f.H = h
	return h, nil
}

// readHypergraph reads one unprefixed hypergraph frame from r and builds it
// through buildFromWire.
func readHypergraph(r *wire.Reader) (*Hypergraph, error) {
	start := r.Rem()
	var w frameWire
	if err := wire.Varint.Read(r, &w); err != nil {
		return nil, err
	}
	switch {
	case w.NumVertices > MaxWireVertices:
		return nil, fmt.Errorf("%w: num_vertices %d exceeds limit %d", wire.ErrMalformed, w.NumVertices, MaxWireVertices)
	case len(w.NetStart) > MaxWireNets+1:
		return nil, fmt.Errorf("%w: %d nets exceed limit %d", wire.ErrMalformed, len(w.NetStart)-1, MaxWireNets)
	case len(w.Pins) > MaxWirePins:
		return nil, fmt.Errorf("%w: %d pins exceed limit %d", wire.ErrMalformed, len(w.Pins), MaxWirePins)
	// The per-vertex sections may be empty, so bound |V| by the frame
	// size: a frame describing v vertices with any content at all spends
	// bytes proportional to them, and a tiny hostile frame cannot make
	// buildFromWire allocate 2^24 bare vertices.
	case w.NumVertices > 64+16*(start-r.Rem()):
		return nil, fmt.Errorf("%w: num_vertices %d exceeds frame budget", wire.ErrMalformed, w.NumVertices)
	}
	h, err := buildFromWire(w)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", wire.ErrMalformed, err)
	}
	return h, nil
}

// AppendBinary appends h's binary frame to buf and returns the extended
// slice. The frame is canonical: equal hypergraphs (same fingerprint)
// encode to identical bytes.
func (h *Hypergraph) AppendBinary(buf []byte) []byte {
	s := getScratch()
	buf = h.appendFrame(buf, &s.frame)
	s.put()
	return buf
}

// appendFrame lays h out in w, which holds no other value, and appends
// the frame.
func (h *Hypergraph) appendFrame(buf []byte, w *frameWire) []byte {
	*w = frameWire{
		NumVertices: h.NumVertices(),
		NetStart:    h.netStart,
		Pins:        h.netPins,
		Costs:       h.costs,
	}
	for _, x := range h.fixed {
		if x != Free {
			w.Fixed = h.fixed
			break
		}
	}
	for _, x := range h.weights {
		if x != 1 {
			w.Weights = h.weights
			break
		}
	}
	for _, x := range h.sizes {
		if x != 1 {
			w.Sizes = h.sizes
			break
		}
	}
	buf, _ = wire.Varint.AppendPointee(buf, w) // a declared struct always has a layout
	return buf
}

// DecodeBinary reads one unprefixed hypergraph frame (AppendBinary's
// bytes) from r, validating through buildFromWire, and returns the
// hypergraph together with the content id of the bytes it read — h's
// fingerprint when the frame is canonical — hashed, not computed from h.
// Trailing message fields stay unread in r.
func DecodeBinary(r *wire.Reader) (*Hypergraph, string, error) {
	frame := r.Rest()
	h, err := readHypergraph(r)
	if err != nil {
		return nil, "", err
	}
	return h, contentID(fingerprintPrefix, frame[:len(frame)-r.Rem()]), nil
}

// buildFromWire validates a decoded hypergraph frame and builds the CSR
// form. It takes ownership of w's slices.
//
// Empty weights and sizes mean all 1s; a fixed vector with no non-Free
// entry is normalized away, exactly as the Builder does, so the decoded
// hypergraph fingerprints like a built one. Pins is the concatenation of
// each net's pin list in net order and NetStart[n] the offset of net n's
// list (NetStart[0] = 0, the last entry the pin count), as in the CSR;
// duplicate pins within a net are dropped preserving first-occurrence
// order (matching Builder.AddNet). The validation errors use the wire
// field names (num_vertices, weights, ...) since they surface verbatim in
// 400 responses.
func buildFromWire(w frameWire) (*Hypergraph, error) {
	numVertices, netStart, pins, costs := w.NumVertices, w.NetStart, w.Pins, w.Costs
	weights, sizes, fixed := w.Weights, w.Sizes, w.Fixed
	if numVertices < 0 {
		return nil, fmt.Errorf("num_vertices is negative")
	}
	if len(netStart) == 0 || netStart[0] != 0 {
		return nil, fmt.Errorf("net_start does not begin at 0")
	}
	if len(costs) != len(netStart)-1 {
		return nil, fmt.Errorf("nets have %d costs for %d pin lists", len(costs), len(netStart)-1)
	}
	if weights != nil && len(weights) != numVertices {
		return nil, fmt.Errorf("weights has %d entries, want 0 or %d", len(weights), numVertices)
	}
	if sizes != nil && len(sizes) != numVertices {
		return nil, fmt.Errorf("sizes has %d entries, want 0 or %d", len(sizes), numVertices)
	}
	if fixed != nil && len(fixed) != numVertices {
		return nil, fmt.Errorf("fixed has %d entries, want 0 or %d", len(fixed), numVertices)
	}
	if weights == nil {
		weights = make([]int64, numVertices)
		for i := range weights {
			weights[i] = 1
		}
	} else {
		for i, v := range weights {
			if v < 0 {
				return nil, fmt.Errorf("vertex %d has negative weight %d", i, v)
			}
		}
	}
	if sizes == nil {
		sizes = make([]int64, numVertices)
		for i := range sizes {
			sizes[i] = 1
		}
	} else {
		for i, v := range sizes {
			if v < 0 {
				return nil, fmt.Errorf("vertex %d has negative size %d", i, v)
			}
		}
	}
	if fixed != nil {
		hasFixed := false
		for i, p := range fixed {
			if p == Free {
				continue
			}
			if p < 0 {
				return nil, fmt.Errorf("vertex %d has invalid fixed label %d", i, p)
			}
			hasFixed = true
		}
		if !hasFixed {
			fixed = nil
		}
	}

	// One pass over the flat pin stream: range-check, dedup within each net
	// via a stamp array (no per-net map), compact in place.
	stamp := make([]int32, numVertices)
	for i := range stamp {
		stamp[i] = -1
	}
	read, write := 0, 0
	for n := range costs {
		if costs[n] < 0 {
			return nil, fmt.Errorf("net %d has negative cost %d", n, costs[n])
		}
		sz := int(netStart[n+1]) - read // netStart[n+1] is still as decoded
		if sz <= 0 {
			return nil, fmt.Errorf("net %d is empty", n)
		}
		if read+sz > len(pins) {
			return nil, fmt.Errorf("nets declare %d pins, only %d provided", read+sz, len(pins))
		}
		for k := 0; k < sz; k++ {
			p := pins[read+k]
			if p < 0 || int(p) >= numVertices {
				return nil, fmt.Errorf("net %d: pin %d out of range [0,%d)", n, p, numVertices)
			}
			if stamp[p] == int32(n) {
				continue // duplicate pin within the net
			}
			stamp[p] = int32(n)
			pins[write] = p
			write++
		}
		read += sz
		netStart[n+1] = int32(write)
	}
	if read != len(pins) {
		return nil, fmt.Errorf("nets declare %d pins, %d provided", read, len(pins))
	}
	return FromCSR(netStart, pins[:write], costs, weights, sizes, fixed), nil
}

// deltaWire is the delta frame's layout: Delta's fields in order. Only
// for the two maps does nil (identity) differ from empty (no vertices,
// every net removed), so only they sit behind a presence byte; every
// other section decodes empty as nil.
type deltaWire struct {
	Version     int
	Base        string
	VertexMap   *[]int32
	NewWeights  []int64
	NewSizes    []int64
	NewFixed    []int32
	NetMap      *[]int32
	NewNetCosts []int64
	NewNetPins  [][]int32
	WeightIDs   []int32
	WeightVals  []int64
	SizeIDs     []int32
	SizeVals    []int64
	CostIDs     []int32
	CostVals    []int64
}

// AppendBinary appends d's binary frame to buf.
func (d *Delta) AppendBinary(buf []byte) []byte {
	s := getScratch()
	buf = d.appendFrame(buf, &s.delta)
	s.put()
	return buf
}

// appendFrame lays d out in w, which holds no other value, and appends
// the frame.
func (d *Delta) appendFrame(buf []byte, w *deltaWire) []byte {
	*w = deltaWire{
		d.Version, d.Base, nil, d.NewWeights, d.NewSizes, d.NewFixed, nil, d.NewNetCosts, d.NewNetPins,
		d.WeightIDs, d.WeightVals, d.SizeIDs, d.SizeVals, d.CostIDs, d.CostVals,
	}
	if d.VertexMap != nil {
		w.VertexMap = &d.VertexMap
	}
	if d.NetMap != nil {
		w.NetMap = &d.NetMap
	}
	buf, _ = wire.Varint.AppendPointee(buf, w) // a declared struct always has a layout
	return buf
}

// AppendWire appends d's binary frame, so a Delta can be a field of a
// codec-declared message.
func (d *Delta) AppendWire(buf []byte) []byte { return d.AppendBinary(buf) }

// DecodeWire reads one delta frame into d. Semantic validation (map
// ranges, parallel lengths, ...) stays in Delta.Apply, so a hostile frame
// that decodes structurally still fails there (FuzzDeltaApply).
func (d *Delta) DecodeWire(r *wire.Reader) error {
	var w deltaWire
	if err := wire.Varint.Read(r, &w); err != nil {
		return err
	}
	*d = Delta{ // field for field
		w.Version, w.Base, present(w.VertexMap), w.NewWeights, w.NewSizes, w.NewFixed, present(w.NetMap),
		w.NewNetCosts, w.NewNetPins, w.WeightIDs, w.WeightVals, w.SizeIDs, w.SizeVals, w.CostIDs, w.CostVals,
	}
	if len(d.Base) > 256 {
		return fmt.Errorf("%w: delta base of %d bytes exceeds 256", wire.ErrMalformed, len(d.Base))
	}
	for _, n := range [...]int{len(d.VertexMap), len(d.NewWeights), len(d.NewSizes), len(d.NewFixed),
		len(d.WeightIDs), len(d.WeightVals), len(d.SizeIDs), len(d.SizeVals)} {
		if n > MaxWireVertices {
			return fmt.Errorf("%w: delta section of %d vertices exceeds %d", wire.ErrMalformed, n, MaxWireVertices)
		}
	}
	for _, n := range [...]int{len(d.NetMap), len(d.NewNetCosts), len(d.NewNetPins), len(d.CostIDs), len(d.CostVals)} {
		if n > MaxWireNets {
			return fmt.Errorf("%w: delta section of %d nets exceeds %d", wire.ErrMalformed, n, MaxWireNets)
		}
	}
	for _, pins := range d.NewNetPins {
		if len(pins) > MaxWirePins {
			return fmt.Errorf("%w: new net of %d pins exceeds %d", wire.ErrMalformed, len(pins), MaxWirePins)
		}
	}
	return nil
}

// present is a decoded map: nil when absent, non-nil (if empty) when
// present.
func present(m *[]int32) []int32 {
	switch {
	case m == nil:
		return nil
	case *m == nil:
		return []int32{}
	}
	return *m
}
