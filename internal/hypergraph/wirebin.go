package hypergraph

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"hyperbal/internal/wire"
)

// Binary wire codec for hypergraphs and deltas (HBW frames): the two bulk
// formats that keep a hand-tuned layout inside the repo's one message
// codec (internal/wire). A message declares a Frame or Delta field and
// the codec hands these frames its reader. A hypergraph frame
// carries the CSR form directly (net sizes, flat pin stream, costs, then
// optional per-vertex sections), so encoding is a single pass over the CSR
// arrays with no intermediate per-net structures, and decoding rebuilds
// the CSR with one allocation per section. Uniform all-1 weight/size
// vectors — the common case for the paper's dynamics — are elided behind a
// flags byte, which on top of varint packing keeps a typical epoch body
// small.
//
// The decoder funnels into BuildFromWire, the single validation + build +
// fingerprint path.
//
// Every length prefix a decoder reads is checked against both an absolute
// cap and the bytes remaining in the frame (each counted element occupies
// at least one encoded byte), so a hostile frame cannot make the decoder
// allocate more than O(frame size) before failing.

const (
	// BinaryFrameVersion tags hypergraph binary frames.
	BinaryFrameVersion = 1
	// DeltaFrameVersion tags delta binary frames.
	DeltaFrameVersion = 1

	// MaxWireVertices / MaxWireNets / MaxWirePins cap the dimensions a
	// wire decoder will accept.
	MaxWireVertices = 1 << 24
	MaxWireNets     = 1 << 24
	MaxWirePins     = 1 << 26
)

// Hypergraph frame flags: which optional per-vertex sections are present.
const (
	binFlagWeights byte = 1 << iota
	binFlagSizes
	binFlagFixed
)

// Delta frame flags: which optional Delta fields are present (distinguishing
// nil from empty, which Digest and Identity care about).
const (
	deltaFlagVertexMap byte = 1 << iota
	deltaFlagNewWeights
	deltaFlagNewSizes
	deltaFlagNewFixed
	deltaFlagNetMap
	deltaFlagNewNetCosts
	deltaFlagNewNetPins
)

// NewBinReader wraps one frame for DecodeBinary / DecodeDeltaBinary; the
// benchmark's decode probe (bench/run.go) calls it.
func NewBinReader(data []byte) *wire.Reader { return wire.NewReader(data) }

// Frame is a hypergraph as one field of a codec-declared message
// (internal/wire): its HBW frame on the wire, and after decoding the
// fingerprint BuildFromWire computed, carried next to H so a decoded
// hypergraph is fingerprinted exactly once. FP is not encoded.
type Frame struct {
	H  *Hypergraph
	FP string
}

// AppendWire appends H's binary frame.
func (f *Frame) AppendWire(buf []byte) []byte { return f.H.AppendBinary(buf) }

// DecodeWire reads one hypergraph frame into H and its fingerprint into FP.
func (f *Frame) DecodeWire(r *wire.Reader) (err error) {
	f.H, f.FP, err = DecodeBinary(r)
	return err
}

// AppendWire appends d's binary frame, so a Delta can be a field of a
// codec-declared message.
func (d *Delta) AppendWire(buf []byte) []byte { return d.AppendBinary(buf) }

// DecodeWire reads one delta frame into d.
func (d *Delta) DecodeWire(r *wire.Reader) error {
	got, err := DecodeDeltaBinary(r)
	if err == nil {
		*d = *got
	}
	return err
}

// AppendBinary appends h's binary frame to buf and returns the extended
// slice. The frame is canonical: equal hypergraphs (same fingerprint)
// encode to identical bytes. All-unit weight/size vectors and absent fixed
// labels are elided.
func (h *Hypergraph) AppendBinary(buf []byte) []byte {
	nv, nn := h.NumVertices(), h.NumNets()
	var flags byte
	for _, w := range h.weights {
		if w != 1 {
			flags |= binFlagWeights
			break
		}
	}
	for _, s := range h.sizes {
		if s != 1 {
			flags |= binFlagSizes
			break
		}
	}
	if h.fixed != nil {
		flags |= binFlagFixed
	}
	buf = append(buf, BinaryFrameVersion)
	buf = binary.AppendUvarint(buf, uint64(nv))
	buf = binary.AppendUvarint(buf, uint64(nn))
	buf = binary.AppendUvarint(buf, uint64(h.NumPins()))
	buf = append(buf, flags)
	for n := 0; n < nn; n++ {
		buf = binary.AppendUvarint(buf, uint64(h.netStart[n+1]-h.netStart[n]))
	}
	for _, p := range h.netPins {
		buf = binary.AppendUvarint(buf, uint64(uint32(p)))
	}
	for _, c := range h.costs {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	if flags&binFlagWeights != 0 {
		for _, w := range h.weights {
			buf = binary.AppendUvarint(buf, uint64(w))
		}
	}
	if flags&binFlagSizes != 0 {
		for _, s := range h.sizes {
			buf = binary.AppendUvarint(buf, uint64(s))
		}
	}
	if flags&binFlagFixed != 0 {
		for _, f := range h.fixed {
			buf = binary.AppendUvarint(buf, uint64(f-Free)) // Free maps to 0
		}
	}
	return buf
}

// DecodeBinary reads one hypergraph frame from r, validating through
// BuildFromWire, and returns the hypergraph together with its content
// fingerprint (computed once, during decode). Trailing message fields stay
// unread in r.
func DecodeBinary(r *wire.Reader) (*Hypergraph, string, error) {
	ver, err := r.Byte()
	if err != nil {
		return nil, "", err
	}
	if ver != BinaryFrameVersion {
		return nil, "", fmt.Errorf("%w: hypergraph frame version %d (want %d)", wire.ErrMalformed, ver, BinaryFrameVersion)
	}
	nvU, err := r.Uvarint()
	if err != nil {
		return nil, "", err
	}
	if nvU > MaxWireVertices {
		return nil, "", fmt.Errorf("%w: num_vertices %d exceeds limit %d", wire.ErrMalformed, nvU, MaxWireVertices)
	}
	nv := int(nvU)
	nn, err := r.Count(MaxWireNets)
	if err != nil {
		return nil, "", err
	}
	np, err := r.Count(MaxWirePins)
	if err != nil {
		return nil, "", err
	}
	flags, err := r.Byte()
	if err != nil {
		return nil, "", err
	}
	if flags&^(binFlagWeights|binFlagSizes|binFlagFixed) != 0 {
		return nil, "", fmt.Errorf("%w: unknown hypergraph flags %#x", wire.ErrMalformed, flags)
	}
	// Per-vertex allocations are not count-checked field by field (the
	// sections may legitimately be elided), so bound |V| by the frame size:
	// a frame describing v vertices with any content at all spends bytes
	// proportional to them, and a tiny hostile frame cannot declare 2^24
	// bare vertices.
	if nv > 64+16*r.Rem() {
		return nil, "", fmt.Errorf("%w: num_vertices %d exceeds frame budget", wire.ErrMalformed, nv)
	}
	netSizes := make([]int32, nn)
	for i := range netSizes {
		v, err := r.Uvarint()
		if err != nil {
			return nil, "", err
		}
		if v > uint64(np) {
			return nil, "", fmt.Errorf("%w: net %d size %d exceeds pin count %d", wire.ErrMalformed, i, v, np)
		}
		netSizes[i] = int32(v)
	}
	pins := make([]int32, np)
	for i := range pins {
		v, err := r.Uvarint()
		if err != nil {
			return nil, "", err
		}
		if v > math.MaxInt32 {
			return nil, "", fmt.Errorf("%w: pin %d overflows int32", wire.ErrMalformed, v)
		}
		pins[i] = int32(v)
	}
	costs := make([]int64, nn)
	for i := range costs {
		v, err := r.Uvarint()
		if err != nil {
			return nil, "", err
		}
		if v > math.MaxInt64 {
			return nil, "", fmt.Errorf("%w: net %d cost overflows int64", wire.ErrMalformed, i)
		}
		costs[i] = int64(v)
	}
	var weights, sizes []int64
	var fixed []int32
	if flags&binFlagWeights != 0 {
		weights = make([]int64, nv)
		for i := range weights {
			v, err := r.Uvarint()
			if err != nil {
				return nil, "", err
			}
			if v > math.MaxInt64 {
				return nil, "", fmt.Errorf("%w: vertex %d weight overflows int64", wire.ErrMalformed, i)
			}
			weights[i] = int64(v)
		}
	}
	if flags&binFlagSizes != 0 {
		sizes = make([]int64, nv)
		for i := range sizes {
			v, err := r.Uvarint()
			if err != nil {
				return nil, "", err
			}
			if v > math.MaxInt64 {
				return nil, "", fmt.Errorf("%w: vertex %d size overflows int64", wire.ErrMalformed, i)
			}
			sizes[i] = int64(v)
		}
	}
	if flags&binFlagFixed != 0 {
		fixed = make([]int32, nv)
		for i := range fixed {
			v, err := r.Uvarint()
			if err != nil {
				return nil, "", err
			}
			if v > math.MaxInt32 {
				return nil, "", fmt.Errorf("%w: vertex %d fixed label overflows int32", wire.ErrMalformed, i)
			}
			fixed[i] = int32(v) + Free // 0 maps back to Free
		}
	}
	return BuildFromWire(nv, costs, netSizes, pins, weights, sizes, fixed)
}

// BuildFromWire validates wire-shaped hypergraph data, builds the CSR form
// and returns the content fingerprint computed from the freshly built
// hypergraph — the one validation path behind DecodeBinary. It takes
// ownership of every slice argument.
//
// weights, sizes and fixed may be nil (unit weights/sizes, all vertices
// free); a fixed vector with no non-Free entry is normalized away, exactly
// as the Builder does, so the decoded hypergraph fingerprints like a built
// one. pins is
// the concatenation of each net's pin list in net order, netSizes the
// per-net lengths; duplicate pins within a net are dropped preserving
// first-occurrence order (matching Builder.AddNet). The validation errors
// use the wire field names (num_vertices, weights, ...) since they surface
// verbatim in 400 responses.
func BuildFromWire(numVertices int, costs []int64, netSizes []int32, pins []int32, weights, sizes []int64, fixed []int32) (*Hypergraph, string, error) {
	if numVertices < 0 {
		return nil, "", fmt.Errorf("num_vertices is negative")
	}
	if numVertices > MaxWireVertices {
		return nil, "", fmt.Errorf("num_vertices %d exceeds limit %d", numVertices, MaxWireVertices)
	}
	if len(netSizes) > MaxWireNets {
		return nil, "", fmt.Errorf("%d nets exceed limit %d", len(netSizes), MaxWireNets)
	}
	if len(pins) > MaxWirePins {
		return nil, "", fmt.Errorf("%d pins exceed limit %d", len(pins), MaxWirePins)
	}
	if len(costs) != len(netSizes) {
		return nil, "", fmt.Errorf("nets have %d costs for %d pin lists", len(costs), len(netSizes))
	}
	if weights != nil && len(weights) != numVertices {
		return nil, "", fmt.Errorf("weights has %d entries, want 0 or %d", len(weights), numVertices)
	}
	if sizes != nil && len(sizes) != numVertices {
		return nil, "", fmt.Errorf("sizes has %d entries, want 0 or %d", len(sizes), numVertices)
	}
	if fixed != nil && len(fixed) != numVertices {
		return nil, "", fmt.Errorf("fixed has %d entries, want 0 or %d", len(fixed), numVertices)
	}
	if weights == nil {
		weights = make([]int64, numVertices)
		for i := range weights {
			weights[i] = 1
		}
	} else {
		for i, v := range weights {
			if v < 0 {
				return nil, "", fmt.Errorf("vertex %d has negative weight %d", i, v)
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
				return nil, "", fmt.Errorf("vertex %d has negative size %d", i, v)
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
				return nil, "", fmt.Errorf("vertex %d has invalid fixed label %d", i, p)
			}
			hasFixed = true
		}
		if !hasFixed {
			fixed = nil
		}
	}

	// One pass over the flat pin stream: range-check, dedup within each net
	// via a stamp array (no per-net map), compact in place.
	netStart := make([]int32, len(netSizes)+1)
	stamp := make([]int32, numVertices)
	for i := range stamp {
		stamp[i] = -1
	}
	read, write := 0, 0
	for n, sz32 := range netSizes {
		if costs[n] < 0 {
			return nil, "", fmt.Errorf("net %d has negative cost %d", n, costs[n])
		}
		sz := int(sz32)
		if sz <= 0 {
			return nil, "", fmt.Errorf("net %d is empty", n)
		}
		if read+sz > len(pins) {
			return nil, "", fmt.Errorf("nets declare %d pins, only %d provided", read+sz, len(pins))
		}
		for k := 0; k < sz; k++ {
			p := pins[read+k]
			if p < 0 || int(p) >= numVertices {
				return nil, "", fmt.Errorf("net %d: pin %d out of range [0,%d)", n, p, numVertices)
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
		return nil, "", fmt.Errorf("nets declare %d pins, %d provided", read, len(pins))
	}
	h := FromCSR(netStart, pins[:write], costs, weights, sizes, fixed)
	return h, h.Fingerprint(), nil
}

// deltaSection is one Delta slice of a delta frame: its presence flag (0
// for the sparse override streams, which are always written and decode
// empty as nil), the field (*[]int32, *[]int64 or *[][]int32) and its cap.
type deltaSection struct {
	flag  byte
	field any
	limit int
}

// sections lists d's slices in frame order.
func (d *Delta) sections() []deltaSection {
	return []deltaSection{
		{deltaFlagVertexMap, &d.VertexMap, MaxWireVertices},
		{deltaFlagNewWeights, &d.NewWeights, MaxWireVertices},
		{deltaFlagNewSizes, &d.NewSizes, MaxWireVertices},
		{deltaFlagNewFixed, &d.NewFixed, MaxWireVertices},
		{deltaFlagNetMap, &d.NetMap, MaxWireNets},
		{deltaFlagNewNetCosts, &d.NewNetCosts, MaxWireNets},
		{deltaFlagNewNetPins, &d.NewNetPins, MaxWireNets},
		{0, &d.WeightIDs, MaxWireVertices},
		{0, &d.WeightVals, MaxWireVertices},
		{0, &d.SizeIDs, MaxWireVertices},
		{0, &d.SizeVals, MaxWireVertices},
		{0, &d.CostIDs, MaxWireNets},
		{0, &d.CostVals, MaxWireNets},
	}
}

// AppendBinary appends d's binary frame to buf: a header, then each
// section as the codec's Varint slice (count, zigzag values). Field
// presence is recorded in a flags byte so nil-ness — which Identity and
// Digest distinguish from empty — survives the round trip exactly; sparse
// override streams encode nil and empty identically (Digest already
// treats them as equal).
func (d *Delta) AppendBinary(buf []byte) []byte {
	buf = append(buf, DeltaFrameVersion)
	buf = binary.AppendUvarint(buf, uint64(d.Version))
	buf = binary.AppendUvarint(buf, uint64(len(d.Base)))
	buf = append(buf, d.Base...)
	sections := d.sections()
	var flags byte
	for _, s := range sections {
		if !reflect.ValueOf(s.field).Elem().IsNil() {
			flags |= s.flag
		}
	}
	buf = append(buf, flags)
	for _, s := range sections {
		if s.flag == 0 || flags&s.flag != 0 {
			buf, _ = wire.Varint.Append(buf, reflect.ValueOf(s.field).Elem().Interface()) // slices always have a layout
		}
	}
	return buf
}

// DecodeDeltaBinary reads one delta frame from r. Semantic validation
// (map ranges, parallel lengths, ...) stays in Delta.Apply, so a hostile
// frame that decodes structurally still fails there (FuzzDeltaApply).
func DecodeDeltaBinary(r *wire.Reader) (*Delta, error) {
	tag, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if tag != DeltaFrameVersion {
		return nil, fmt.Errorf("%w: delta frame version %d (want %d)", wire.ErrMalformed, tag, DeltaFrameVersion)
	}
	ver, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if ver > 255 {
		return nil, fmt.Errorf("%w: delta version %d out of range", wire.ErrMalformed, ver)
	}
	blen, err := r.Count(256)
	if err != nil {
		return nil, err
	}
	base, err := r.Bytes(blen)
	if err != nil {
		return nil, err
	}
	flags, err := r.Byte()
	if err != nil {
		return nil, err
	}
	const known = deltaFlagVertexMap | deltaFlagNewWeights | deltaFlagNewSizes |
		deltaFlagNewFixed | deltaFlagNetMap | deltaFlagNewNetCosts | deltaFlagNewNetPins
	if flags&^known != 0 {
		return nil, fmt.Errorf("%w: unknown delta flags %#x", wire.ErrMalformed, flags)
	}
	d := &Delta{Version: int(ver), Base: string(base)}
	for _, s := range d.sections() {
		if s.flag != 0 && flags&s.flag == 0 {
			continue
		}
		if err := wire.Varint.Read(r, s.field); err != nil {
			return nil, err
		}
		v := reflect.ValueOf(s.field).Elem()
		if v.Len() > s.limit {
			return nil, fmt.Errorf("%w: delta section of %d entries exceeds %d", wire.ErrMalformed, v.Len(), s.limit)
		}
		if s.flag != 0 && v.IsNil() {
			v.Set(reflect.MakeSlice(v.Type(), 0, 0)) // present, if empty
		}
	}
	for _, pins := range d.NewNetPins {
		if len(pins) > MaxWirePins {
			return nil, fmt.Errorf("%w: new net of %d pins exceeds %d", wire.ErrMalformed, len(pins), MaxWirePins)
		}
	}
	return d, nil
}
