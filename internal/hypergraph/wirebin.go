package hypergraph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary wire codec for hypergraphs and deltas: the varint-packed frames
// the balancerd binary protocol embeds in its messages. A hypergraph frame
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

// ErrTruncated reports a binary frame that ended mid-field.
var ErrTruncated = errors.New("hypergraph: truncated binary frame")

// ErrMalformed reports a binary frame with an invalid field (bad version,
// unknown flags, or a length prefix that cannot be satisfied).
var ErrMalformed = errors.New("hypergraph: malformed binary frame")

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

// BinReader is a bounds-checked cursor over one binary frame. The server
// message codec shares it across the header and the embedded hypergraph /
// delta frames of one message.
type BinReader struct {
	data []byte
	off  int
}

// NewBinReader wraps data; the reader does not copy it.
func NewBinReader(data []byte) *BinReader { return &BinReader{data: data} }

// Rem returns the number of unread bytes.
func (r *BinReader) Rem() int { return len(r.data) - r.off }

// Rest returns the unread tail without consuming it.
func (r *BinReader) Rest() []byte { return r.data[r.off:] }

// Byte reads one byte.
func (r *BinReader) Byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, ErrTruncated
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

// Bytes reads n raw bytes (aliasing the frame, not a copy).
func (r *BinReader) Bytes(n int) ([]byte, error) {
	if n < 0 || r.Rem() < n {
		return nil, ErrTruncated
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// Uvarint reads one unsigned varint.
func (r *BinReader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n == 0 {
		return 0, ErrTruncated
	}
	if n < 0 {
		return 0, fmt.Errorf("%w: uvarint overflow", ErrMalformed)
	}
	r.off += n
	return v, nil
}

// Varint reads one zigzag-encoded signed varint.
func (r *BinReader) Varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n == 0 {
		return 0, ErrTruncated
	}
	if n < 0 {
		return 0, fmt.Errorf("%w: varint overflow", ErrMalformed)
	}
	r.off += n
	return v, nil
}

// Count reads a length prefix, rejecting values past limit or past the
// bytes remaining in the frame — the alloc-bomb guard: a decoder may
// allocate Count elements knowing the frame paid at least one byte each.
func (r *BinReader) Count(limit int) (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("%w: length prefix %d exceeds limit %d", ErrMalformed, v, limit)
	}
	if v > uint64(r.Rem()) {
		return 0, fmt.Errorf("%w: length prefix %d exceeds %d remaining bytes", ErrMalformed, v, r.Rem())
	}
	return int(v), nil
}

// int32s reads a count-prefixed zigzag int32 slice (non-nil when the count
// is zero, so presence flags round-trip nil-ness exactly).
func (r *BinReader) int32s(limit int) ([]int32, error) {
	n, err := r.Count(limit)
	if err != nil {
		return nil, err
	}
	xs := make([]int32, n)
	for i := range xs {
		v, err := r.Varint()
		if err != nil {
			return nil, err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return nil, fmt.Errorf("%w: value %d overflows int32", ErrMalformed, v)
		}
		xs[i] = int32(v)
	}
	return xs, nil
}

// int64s reads a count-prefixed zigzag int64 slice.
func (r *BinReader) int64s(limit int) ([]int64, error) {
	n, err := r.Count(limit)
	if err != nil {
		return nil, err
	}
	xs := make([]int64, n)
	for i := range xs {
		v, err := r.Varint()
		if err != nil {
			return nil, err
		}
		xs[i] = v
	}
	return xs, nil
}

// AppendInt32s appends a count-prefixed zigzag int32 slice.
func AppendInt32s(buf []byte, xs []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendVarint(buf, int64(x))
	}
	return buf
}

// AppendInt64s appends a count-prefixed zigzag int64 slice.
func AppendInt64s(buf []byte, xs []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendVarint(buf, x)
	}
	return buf
}

// DecodeInt32s reads a count-prefixed zigzag int32 slice from r (the
// inverse of AppendInt32s), bounded by limit.
func DecodeInt32s(r *BinReader, limit int) ([]int32, error) { return r.int32s(limit) }

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
func DecodeBinary(r *BinReader) (*Hypergraph, string, error) {
	ver, err := r.Byte()
	if err != nil {
		return nil, "", err
	}
	if ver != BinaryFrameVersion {
		return nil, "", fmt.Errorf("%w: hypergraph frame version %d (want %d)", ErrMalformed, ver, BinaryFrameVersion)
	}
	nvU, err := r.Uvarint()
	if err != nil {
		return nil, "", err
	}
	if nvU > MaxWireVertices {
		return nil, "", fmt.Errorf("%w: num_vertices %d exceeds limit %d", ErrMalformed, nvU, MaxWireVertices)
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
		return nil, "", fmt.Errorf("%w: unknown hypergraph flags %#x", ErrMalformed, flags)
	}
	// Per-vertex allocations are not count-checked field by field (the
	// sections may legitimately be elided), so bound |V| by the frame size:
	// a frame describing v vertices with any content at all spends bytes
	// proportional to them, and a tiny hostile frame cannot declare 2^24
	// bare vertices.
	if nv > 64+16*r.Rem() {
		return nil, "", fmt.Errorf("%w: num_vertices %d exceeds frame budget", ErrMalformed, nv)
	}
	netSizes := make([]int32, nn)
	for i := range netSizes {
		v, err := r.Uvarint()
		if err != nil {
			return nil, "", err
		}
		if v > uint64(np) {
			return nil, "", fmt.Errorf("%w: net %d size %d exceeds pin count %d", ErrMalformed, i, v, np)
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
			return nil, "", fmt.Errorf("%w: pin %d overflows int32", ErrMalformed, v)
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
			return nil, "", fmt.Errorf("%w: net %d cost overflows int64", ErrMalformed, i)
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
				return nil, "", fmt.Errorf("%w: vertex %d weight overflows int64", ErrMalformed, i)
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
				return nil, "", fmt.Errorf("%w: vertex %d size overflows int64", ErrMalformed, i)
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
				return nil, "", fmt.Errorf("%w: vertex %d fixed label overflows int32", ErrMalformed, i)
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

// AppendBinary appends d's binary frame to buf. Field presence is recorded
// in a flags byte so nil-ness — which Identity and Digest distinguish from
// empty — survives the round trip exactly; sparse override streams encode
// nil and empty identically (Digest already treats them as equal).
func (d *Delta) AppendBinary(buf []byte) []byte {
	buf = append(buf, DeltaFrameVersion)
	buf = binary.AppendUvarint(buf, uint64(d.Version))
	buf = binary.AppendUvarint(buf, uint64(len(d.Base)))
	buf = append(buf, d.Base...)
	var flags byte
	if d.VertexMap != nil {
		flags |= deltaFlagVertexMap
	}
	if d.NewWeights != nil {
		flags |= deltaFlagNewWeights
	}
	if d.NewSizes != nil {
		flags |= deltaFlagNewSizes
	}
	if d.NewFixed != nil {
		flags |= deltaFlagNewFixed
	}
	if d.NetMap != nil {
		flags |= deltaFlagNetMap
	}
	if d.NewNetCosts != nil {
		flags |= deltaFlagNewNetCosts
	}
	if d.NewNetPins != nil {
		flags |= deltaFlagNewNetPins
	}
	buf = append(buf, flags)
	if d.VertexMap != nil {
		buf = AppendInt32s(buf, d.VertexMap)
	}
	if d.NewWeights != nil {
		buf = AppendInt64s(buf, d.NewWeights)
	}
	if d.NewSizes != nil {
		buf = AppendInt64s(buf, d.NewSizes)
	}
	if d.NewFixed != nil {
		buf = AppendInt32s(buf, d.NewFixed)
	}
	if d.NetMap != nil {
		buf = AppendInt32s(buf, d.NetMap)
	}
	if d.NewNetCosts != nil {
		buf = AppendInt64s(buf, d.NewNetCosts)
	}
	if d.NewNetPins != nil {
		buf = binary.AppendUvarint(buf, uint64(len(d.NewNetPins)))
		for _, pins := range d.NewNetPins {
			buf = AppendInt32s(buf, pins)
		}
	}
	buf = AppendInt32s(buf, d.WeightIDs)
	buf = AppendInt64s(buf, d.WeightVals)
	buf = AppendInt32s(buf, d.SizeIDs)
	buf = AppendInt64s(buf, d.SizeVals)
	buf = AppendInt32s(buf, d.CostIDs)
	buf = AppendInt64s(buf, d.CostVals)
	return buf
}

// DecodeDeltaBinary reads one delta frame from r. Semantic validation
// (map ranges, parallel lengths, ...) stays in Delta.Apply, so a hostile
// frame that decodes structurally still fails there (FuzzDeltaApply).
func DecodeDeltaBinary(r *BinReader) (*Delta, error) {
	tag, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if tag != DeltaFrameVersion {
		return nil, fmt.Errorf("%w: delta frame version %d (want %d)", ErrMalformed, tag, DeltaFrameVersion)
	}
	ver, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if ver > 255 {
		return nil, fmt.Errorf("%w: delta version %d out of range", ErrMalformed, ver)
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
		return nil, fmt.Errorf("%w: unknown delta flags %#x", ErrMalformed, flags)
	}
	d := &Delta{Version: int(ver), Base: string(base)}
	if flags&deltaFlagVertexMap != 0 {
		if d.VertexMap, err = r.int32s(MaxWireVertices); err != nil {
			return nil, err
		}
	}
	if flags&deltaFlagNewWeights != 0 {
		if d.NewWeights, err = r.int64s(MaxWireVertices); err != nil {
			return nil, err
		}
	}
	if flags&deltaFlagNewSizes != 0 {
		if d.NewSizes, err = r.int64s(MaxWireVertices); err != nil {
			return nil, err
		}
	}
	if flags&deltaFlagNewFixed != 0 {
		if d.NewFixed, err = r.int32s(MaxWireVertices); err != nil {
			return nil, err
		}
	}
	if flags&deltaFlagNetMap != 0 {
		if d.NetMap, err = r.int32s(MaxWireNets); err != nil {
			return nil, err
		}
	}
	if flags&deltaFlagNewNetCosts != 0 {
		if d.NewNetCosts, err = r.int64s(MaxWireNets); err != nil {
			return nil, err
		}
	}
	if flags&deltaFlagNewNetPins != 0 {
		nn, err := r.Count(MaxWireNets)
		if err != nil {
			return nil, err
		}
		d.NewNetPins = make([][]int32, nn)
		for i := range d.NewNetPins {
			if d.NewNetPins[i], err = r.int32s(MaxWirePins); err != nil {
				return nil, err
			}
		}
	}
	sparse32 := func(dst *[]int32, limit int) error {
		xs, err := r.int32s(limit)
		if err != nil {
			return err
		}
		if len(xs) > 0 {
			*dst = xs
		}
		return nil
	}
	sparse64 := func(dst *[]int64, limit int) error {
		xs, err := r.int64s(limit)
		if err != nil {
			return err
		}
		if len(xs) > 0 {
			*dst = xs
		}
		return nil
	}
	if err := sparse32(&d.WeightIDs, MaxWireVertices); err != nil {
		return nil, err
	}
	if err := sparse64(&d.WeightVals, MaxWireVertices); err != nil {
		return nil, err
	}
	if err := sparse32(&d.SizeIDs, MaxWireVertices); err != nil {
		return nil, err
	}
	if err := sparse64(&d.SizeVals, MaxWireVertices); err != nil {
		return nil, err
	}
	if err := sparse32(&d.CostIDs, MaxWireNets); err != nil {
		return nil, err
	}
	if err := sparse64(&d.CostVals, MaxWireNets); err != nil {
		return nil, err
	}
	return d, nil
}
