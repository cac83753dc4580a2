package hypergraph

import (
	"errors"
	"fmt"
	"strconv"
)

// The delta epoch format: instead of shipping a full hypergraph every
// epoch, a client ships the difference against the previous epoch's
// hypergraph, identified by its content fingerprint. A Delta is exact: for
// a well-formed delta, Apply(base) produces a hypergraph byte-identical
// (fingerprint-equal) to the epoch hypergraph the delta was computed from,
// so delta-applied and full submissions are interchangeable everywhere a
// fingerprint is a key (the balancerd partition cache in particular).
//
// The format expresses every transition the paper's dynamics produce:
//
//   - pure weight/size drift (simulated AMR): sparse per-vertex updates,
//     nil maps — the wire cost is proportional to the drift, not |H|;
//   - net cost drift: sparse per-net updates;
//   - structural churn (vertex deletion/reappearance, net add/remove):
//     explicit vertex/net maps from the new index space to the base,
//     with full definitions only for genuinely new vertices and nets.
//
// Mapped nets inherit the base net's pins translated through the vertex
// map, dropping pins whose vertex left the problem — the common "net
// shrinks because a member vertex disappeared" case costs four bytes, not
// a pin list. A mapped net that would lose all pins is invalid; such nets
// must simply be left unmapped (removed).
//
// Deltas carry the base fingerprint and Apply enforces it: a mismatch
// returns ErrBaseMismatch, the signal for the caller to fall back to a
// full resync (ship the whole hypergraph). The wire form is the binary
// delta frame (AppendBinary / DecodeWire); Version guards format
// evolution.

// DeltaVersion is the current delta wire format version.
const DeltaVersion = 1

// ErrBaseMismatch reports that a delta was applied against a hypergraph
// whose fingerprint differs from the delta's base — the caller must fall
// back to a full resync.
var ErrBaseMismatch = errors.New("hypergraph: delta base fingerprint mismatch")

// Delta describes the transition from a base hypergraph to a successor.
// The zero value (plus Version and Base) is the empty delta: applying it
// reproduces the base exactly.
type Delta struct {
	// Version is the wire format version (DeltaVersion).
	Version int
	// Base is the fingerprint of the hypergraph the delta applies to.
	Base string

	// VertexMap, when non-nil, defines the successor's vertex set: entry i
	// is the base vertex that becomes vertex i, or -1 for a brand-new
	// vertex. Base vertices may appear at most once; omitted base vertices
	// are removed. Nil means the identity map (vertex set unchanged).
	VertexMap []int32
	// NewWeights / NewSizes / NewFixed give the weight, size and fixed
	// label of each -1 entry of VertexMap, in order of appearance. Empty
	// NewWeights/NewSizes default to 1; empty NewFixed means all free.
	NewWeights []int64
	NewSizes   []int64
	NewFixed   []int32

	// NetMap, when non-nil, defines the successor's net list: entry i is
	// the base net that becomes net i, or -1 for a new net. A mapped net
	// keeps the base net's cost and its pins translated through VertexMap
	// (pins of removed vertices are dropped; at least one must survive).
	// Nil means the identity map (every base net kept, in order).
	NetMap []int32
	// NewNetCosts / NewNetPins define each -1 entry of NetMap, in order.
	// Pins are successor vertex ids, duplicate-free.
	NewNetCosts []int64
	NewNetPins  [][]int32

	// Sparse overrides, applied after the maps, in successor ids with
	// strictly increasing ids (the canonical order; Apply enforces it so
	// a delta has exactly one wire form).
	WeightIDs  []int32
	WeightVals []int64
	SizeIDs    []int32
	SizeVals   []int64
	CostIDs    []int32
	CostVals   []int64
}

// NumNew returns the number of brand-new vertices and nets the delta
// introduces.
func (d *Delta) NumNew() (vertices, nets int) {
	for _, b := range d.VertexMap {
		if b < 0 {
			vertices++
		}
	}
	for _, b := range d.NetMap {
		if b < 0 {
			nets++
		}
	}
	return
}

// validate checks the delta's internal consistency against the base shape
// (it does not touch base pins; Apply does that while translating).
func (d *Delta) validate(baseV, baseN int) error {
	if d.Version != DeltaVersion {
		return fmt.Errorf("hypergraph: unsupported delta version %d (want %d)", d.Version, DeltaVersion)
	}
	newV, newN := d.NumNew()
	if d.VertexMap == nil && (len(d.NewWeights) > 0 || len(d.NewSizes) > 0 || len(d.NewFixed) > 0) {
		return fmt.Errorf("hypergraph: delta has new-vertex attributes but no vertex map")
	}
	if d.VertexMap != nil {
		seen := make([]bool, baseV)
		for i, b := range d.VertexMap {
			if b < -1 || int(b) >= baseV {
				return fmt.Errorf("hypergraph: vertex_map[%d] = %d out of range [-1,%d)", i, b, baseV)
			}
			if b >= 0 {
				if seen[b] {
					return fmt.Errorf("hypergraph: vertex_map lists base vertex %d twice", b)
				}
				seen[b] = true
			}
		}
		if len(d.NewWeights) != 0 && len(d.NewWeights) != newV {
			return fmt.Errorf("hypergraph: %d new_weights for %d new vertices", len(d.NewWeights), newV)
		}
		if len(d.NewSizes) != 0 && len(d.NewSizes) != newV {
			return fmt.Errorf("hypergraph: %d new_sizes for %d new vertices", len(d.NewSizes), newV)
		}
		if len(d.NewFixed) != 0 && len(d.NewFixed) != newV {
			return fmt.Errorf("hypergraph: %d new_fixed for %d new vertices", len(d.NewFixed), newV)
		}
	}
	if d.NetMap == nil && (len(d.NewNetCosts) > 0 || len(d.NewNetPins) > 0) {
		return fmt.Errorf("hypergraph: delta has new-net definitions but no net map")
	}
	if d.NetMap != nil {
		seen := make([]bool, baseN)
		for i, b := range d.NetMap {
			if b < -1 || int(b) >= baseN {
				return fmt.Errorf("hypergraph: net_map[%d] = %d out of range [-1,%d)", i, b, baseN)
			}
			if b >= 0 {
				if seen[b] {
					return fmt.Errorf("hypergraph: net_map lists base net %d twice", b)
				}
				seen[b] = true
			}
		}
		if len(d.NewNetCosts) != newN {
			return fmt.Errorf("hypergraph: %d new_net_costs for %d new nets", len(d.NewNetCosts), newN)
		}
		if len(d.NewNetPins) != newN {
			return fmt.Errorf("hypergraph: %d new_net_pins for %d new nets", len(d.NewNetPins), newN)
		}
	}
	resV := baseV
	if d.VertexMap != nil {
		resV = len(d.VertexMap)
	}
	resN := baseN
	if d.NetMap != nil {
		resN = len(d.NetMap)
	}
	if err := checkSparse("weight", d.WeightIDs, d.WeightVals, resV); err != nil {
		return err
	}
	if err := checkSparse("size", d.SizeIDs, d.SizeVals, resV); err != nil {
		return err
	}
	if err := checkSparse("cost", d.CostIDs, d.CostVals, resN); err != nil {
		return err
	}
	return nil
}

// checkSparse validates one sparse update stream: parallel lengths,
// strictly increasing in-range ids, non-negative values.
func checkSparse(kind string, ids []int32, vals []int64, n int) error {
	if len(ids) != len(vals) {
		return fmt.Errorf("hypergraph: %d %s_ids for %d %s_vals", len(ids), kind, len(vals), kind)
	}
	prev := int32(-1)
	for i, id := range ids {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("hypergraph: %s_ids[%d] = %d out of range [0,%d)", kind, i, id, n)
		}
		if id <= prev {
			return fmt.Errorf("hypergraph: %s_ids not strictly increasing at index %d", kind, i)
		}
		prev = id
		if vals[i] < 0 {
			return fmt.Errorf("hypergraph: %s_vals[%d] = %d is negative", kind, i, vals[i])
		}
	}
	return nil
}

// Apply materializes the successor hypergraph. It verifies the base
// fingerprint first (ErrBaseMismatch on disagreement — the full-resync
// signal) and builds the result CSR directly, so the cost is O(|result|)
// with no per-net map allocations. The result's fingerprint equals the
// fingerprint of the hypergraph the delta was computed from.
func (d *Delta) Apply(base *Hypergraph) (*Hypergraph, error) {
	return d.ApplyFrame(Frame{H: base, FP: base.Fingerprint()})
}

// ApplyFrame is Apply against a base whose fingerprint the caller already
// holds (base.FP must be base.H.Fingerprint()), so the base is not hashed
// again: a server applying a delta to its session's last hypergraph
// checks d.Base against the fingerprint it kept.
func (d *Delta) ApplyFrame(base Frame) (*Hypergraph, error) {
	if base.FP != d.Base {
		return nil, fmt.Errorf("%w: delta base %s, hypergraph is %s", ErrBaseMismatch, d.Base, base.FP)
	}
	return d.apply(base.H)
}

// apply builds the successor of a base whose fingerprint ApplyFrame has
// checked.
func (d *Delta) apply(base *Hypergraph) (*Hypergraph, error) {
	baseV, baseN := base.NumVertices(), base.NumNets()
	if err := d.validate(baseV, baseN); err != nil {
		return nil, err
	}

	// Vertex space: forward map base -> successor.
	resV := baseV
	var fwd []int32
	if d.VertexMap != nil {
		resV = len(d.VertexMap)
		fwd = make([]int32, baseV)
		for i := range fwd {
			fwd[i] = -1
		}
		for i, b := range d.VertexMap {
			if b >= 0 {
				fwd[b] = int32(i)
			}
		}
	}

	weights := make([]int64, resV)
	sizes := make([]int64, resV)
	fixed := make([]int32, resV)
	hasFixed := false
	newIdx := 0
	for v := 0; v < resV; v++ {
		b := int32(v)
		if d.VertexMap != nil {
			b = d.VertexMap[v]
		}
		if b >= 0 {
			weights[v] = base.Weight(int(b))
			sizes[v] = base.Size(int(b))
			fixed[v] = base.Fixed(int(b))
		} else {
			weights[v], sizes[v] = 1, 1
			if len(d.NewWeights) > 0 {
				weights[v] = d.NewWeights[newIdx]
			}
			if len(d.NewSizes) > 0 {
				sizes[v] = d.NewSizes[newIdx]
			}
			fixed[v] = Free
			if len(d.NewFixed) > 0 {
				fixed[v] = d.NewFixed[newIdx]
			}
			newIdx++
		}
		if fixed[v] < Free {
			return nil, fmt.Errorf("hypergraph: vertex %d has invalid fixed label %d", v, fixed[v])
		}
		if fixed[v] != Free {
			hasFixed = true
		}
		if weights[v] < 0 || sizes[v] < 0 {
			return nil, fmt.Errorf("hypergraph: vertex %d has negative weight or size", v)
		}
	}

	// Net space: translate mapped nets, splice in new ones.
	resN := baseN
	if d.NetMap != nil {
		resN = len(d.NetMap)
	}
	netStart := make([]int32, 1, resN+1)
	netPins := make([]int32, 0, base.NumPins())
	costs := make([]int64, resN)
	newNet := 0
	var seen []int32 // seen[p] == n+1: pin p already listed in new net n
	if d.NetMap != nil {
		seen = make([]int32, resV)
	}
	for n := 0; n < resN; n++ {
		b := int32(n)
		if d.NetMap != nil {
			b = d.NetMap[n]
		}
		if b >= 0 {
			costs[n] = base.Cost(int(b))
			before := len(netPins)
			for _, p := range base.Pins(int(b)) {
				np := p
				if fwd != nil {
					np = fwd[p]
				}
				if np >= 0 {
					netPins = append(netPins, np)
				}
			}
			if len(netPins) == before {
				return nil, fmt.Errorf("hypergraph: mapped net %d (base %d) loses all pins; remove it instead", n, b)
			}
		} else {
			costs[n] = d.NewNetCosts[newNet]
			pins := d.NewNetPins[newNet]
			newNet++
			if costs[n] < 0 {
				return nil, fmt.Errorf("hypergraph: new net %d has negative cost %d", n, costs[n])
			}
			if len(pins) == 0 {
				return nil, fmt.Errorf("hypergraph: new net %d is empty", n)
			}
			for _, p := range pins {
				if p < 0 || int(p) >= resV {
					return nil, fmt.Errorf("hypergraph: new net %d: pin %d out of range [0,%d)", n, p, resV)
				}
				if seen[p] == int32(n)+1 {
					return nil, fmt.Errorf("hypergraph: new net %d has duplicate pin %d", n, p)
				}
				seen[p] = int32(n) + 1
				netPins = append(netPins, p)
			}
		}
		netStart = append(netStart, int32(len(netPins)))
	}

	// Sparse overrides (validated in-range and ordered above).
	for i, id := range d.WeightIDs {
		weights[id] = d.WeightVals[i]
	}
	for i, id := range d.SizeIDs {
		sizes[id] = d.SizeVals[i]
	}
	for i, id := range d.CostIDs {
		costs[id] = d.CostVals[i]
	}

	var fx []int32
	if hasFixed {
		fx = fixed
	}
	return FromCSR(netStart, netPins, costs, weights, sizes, fx), nil
}

// Digest returns a stable content hash of the delta — combined with the
// base fingerprint it keys delta-epoch caches without materializing the
// applied hypergraph. The encoding is section-tagged and length-prefixed
// like Fingerprint's.
func (d *Delta) Digest() string {
	e := getEncoder()
	defer putEncoder(e)
	e.str("hyperbal-delta-v")
	e.str(strconv.Itoa(d.Version))
	e.str(";base=")
	e.str(d.Base)
	e.str(";")
	if d.VertexMap != nil {
		e.put32('V', d.VertexMap)
		e.put64('w', d.NewWeights)
		e.put64('s', d.NewSizes)
		e.put32('f', d.NewFixed)
	}
	if d.NetMap != nil {
		e.put32('N', d.NetMap)
		e.put64('c', d.NewNetCosts)
		e.byte('P')
		e.u64(uint64(len(d.NewNetPins)))
		for _, pins := range d.NewNetPins {
			e.put32('p', pins)
		}
	}
	e.put32('W', d.WeightIDs)
	e.put64('X', d.WeightVals)
	e.put32('S', d.SizeIDs)
	e.put64('Y', d.SizeVals)
	e.put32('C', d.CostIDs)
	e.put64('Z', d.CostVals)
	return e.sum("hbdd1:")
}

// DirtyVertices marks the successor vertices whose local neighborhood the
// delta touched: brand-new vertices, vertices with weight or size
// overrides, and every pin of a changed net (new, cost-updated, or mapped
// with fewer pins than its base net — a neighbor vanished). The warm-start
// partitioner confines re-refinement to this set plus a one-hop halo.
func (d *Delta) DirtyVertices(base, result *Hypergraph) []bool {
	dirty := make([]bool, result.NumVertices())
	for v, b := range d.VertexMap {
		if b < 0 {
			dirty[v] = true
		}
	}
	for _, id := range d.WeightIDs {
		dirty[id] = true
	}
	for _, id := range d.SizeIDs {
		dirty[id] = true
	}
	markNet := func(n int) {
		for _, p := range result.Pins(n) {
			dirty[p] = true
		}
	}
	for _, id := range d.CostIDs {
		markNet(int(id))
	}
	for n := 0; n < result.NumNets(); n++ {
		b := int32(n)
		if d.NetMap != nil {
			b = d.NetMap[n]
		}
		if b < 0 {
			markNet(n)
		} else if result.NetSize(n) != base.NetSize(int(b)) {
			markNet(n)
		}
	}
	// Removed nets dirty their surviving pins too: a vertex that lost a
	// net changed its connectivity even though the net has no successor to
	// mark it through.
	if d.NetMap != nil {
		fwd := make([]int32, base.NumVertices())
		if d.VertexMap == nil {
			for v := range fwd {
				fwd[v] = int32(v)
			}
		} else {
			for v := range fwd {
				fwd[v] = -1
			}
			for v, b := range d.VertexMap {
				if b >= 0 {
					fwd[b] = int32(v)
				}
			}
		}
		mapped := make([]bool, base.NumNets())
		for _, b := range d.NetMap {
			if b >= 0 {
				mapped[b] = true
			}
		}
		for bn := 0; bn < base.NumNets(); bn++ {
			if mapped[bn] {
				continue
			}
			for _, p := range base.Pins(bn) {
				if f := fwd[p]; f >= 0 {
					dirty[f] = true
				}
			}
		}
	}
	return dirty
}

// ComputeDelta diffs two hypergraphs under the identity vertex
// correspondence: successor vertex i is base vertex i. It covers the pure
// drift cases (weights, sizes, costs) and net add/remove over an unchanged
// vertex set. It returns ok=false when the vertex counts differ — use
// ComputeDeltaMapped with an explicit correspondence for structural churn.
func ComputeDelta(base, next *Hypergraph) (*Delta, bool) {
	if base.NumVertices() != next.NumVertices() {
		return nil, false
	}
	vmap := make([]int32, next.NumVertices())
	for i := range vmap {
		vmap[i] = int32(i)
	}
	return ComputeDeltaMapped(base, next, vmap)
}

// ComputeDeltaMapped diffs two hypergraphs given the vertex
// correspondence vmap: vmap[i] is the base vertex that became successor
// vertex i, or -1 for a new vertex. It returns ok=false when the
// transition is not expressible as a delta (non-injective map, or fixed
// labels of surviving vertices changed). Nets are matched by translated
// pin sequence, so any net whose pin list equals a base net's surviving
// pins (in order) rides the map for free; everything else ships as a new
// net. The produced delta is canonical: applying it to base yields a
// hypergraph fingerprint-identical to next.
func ComputeDeltaMapped(base, next *Hypergraph, vmap []int32) (*Delta, bool) {
	if len(vmap) != next.NumVertices() {
		return nil, false
	}
	baseV := base.NumVertices()
	fwd := make([]int32, baseV)
	for i := range fwd {
		fwd[i] = -1
	}
	identityV := len(vmap) == baseV
	newV, weightIDs, sizeIDs := 0, 0, 0
	for i, b := range vmap {
		if b < -1 {
			return nil, false
		}
		if b < 0 {
			if next.Fixed(i) != Free {
				return nil, false // new fixed vertices: ship a full epoch
			}
			identityV = false
			newV++
			continue
		}
		if int(b) >= baseV || fwd[b] >= 0 {
			return nil, false // out of range or non-injective
		}
		fwd[b] = int32(i)
		if int(b) != i {
			identityV = false
		}
		if base.Fixed(int(b)) != next.Fixed(i) {
			return nil, false // fixed-label changes are not expressible
		}
		if base.Weight(int(b)) != next.Weight(i) {
			weightIDs++
		}
		if base.Size(int(b)) != next.Size(i) {
			sizeIDs++
		}
	}

	d := &Delta{Version: DeltaVersion, Base: base.Fingerprint()}
	if !identityV {
		// Non-nil even when empty: a nil map would mean "keep the base's
		// vertices", not "no vertices".
		d.VertexMap = append(make([]int32, 0, len(vmap)), vmap...)
	}

	// New-vertex attributes and sparse overrides for survivors, each slice
	// sized by the counts above (nil when empty).
	if newV > 0 {
		d.NewWeights = make([]int64, 0, newV)
		d.NewSizes = make([]int64, 0, newV)
	}
	if weightIDs > 0 {
		d.WeightIDs = make([]int32, 0, weightIDs)
		d.WeightVals = make([]int64, 0, weightIDs)
	}
	if sizeIDs > 0 {
		d.SizeIDs = make([]int32, 0, sizeIDs)
		d.SizeVals = make([]int64, 0, sizeIDs)
	}
	for i, b := range vmap {
		if b < 0 {
			d.NewWeights = append(d.NewWeights, next.Weight(i))
			d.NewSizes = append(d.NewSizes, next.Size(i))
			continue
		}
		if base.Weight(int(b)) != next.Weight(i) {
			d.WeightIDs = append(d.WeightIDs, int32(i))
			d.WeightVals = append(d.WeightVals, next.Weight(i))
		}
		if base.Size(int(b)) != next.Size(i) {
			d.SizeIDs = append(d.SizeIDs, int32(i))
			d.SizeVals = append(d.SizeVals, next.Size(i))
		}
	}

	// Net matching. The base nets' pins, translated through fwd, form one
	// CSR arena (the base's own under the identity map); nets that lose
	// every pin are never matchable. Each remaining base net sits in a
	// chained hash table keyed by pinSig, its chain in base-net order, and
	// a successor net takes the first base net of its chain with equal
	// translated pins, which is unlinked so each base net is used at most
	// once. Equal sequences therefore pair up first-come, deterministically.
	baseN, nextN := base.NumNets(), next.NumNets()
	tStart, tPins := base.netStart, base.netPins
	if !identityV {
		tStart = make([]int32, baseN+1)
		tPins = make([]int32, 0, base.NumPins())
		for n := 0; n < baseN; n++ {
			for _, p := range base.Pins(n) {
				if np := fwd[p]; np >= 0 {
					tPins = append(tPins, np)
				}
			}
			tStart[n+1] = int32(len(tPins))
		}
	}
	bits := 0 // the table has 1<<bits >= baseN buckets
	for 1<<bits < baseN {
		bits++
	}
	shift := 64 - bits
	head := make([]int32, 1<<bits) // bucket -> first base net, or -1
	for i := range head {
		head[i] = -1
	}
	chain := make([]int32, baseN) // base net -> next base net in its bucket
	sig := make([]uint64, baseN)
	for n := baseN - 1; n >= 0; n-- { // pushing in reverse leaves chains in base order
		pins := tPins[tStart[n]:tStart[n+1]]
		if len(pins) == 0 {
			continue
		}
		sig[n] = pinSig(pins)
		bucket := sig[n] >> shift
		chain[n], head[bucket] = head[bucket], int32(n)
	}

	netMap := make([]int32, nextN)
	identityN := nextN == baseN
	costIDs, newN, newPins := 0, 0, 0
	for n := 0; n < nextN; n++ {
		pins := next.Pins(n)
		s := pinSig(pins)
		match, prev := int32(-1), int32(-1)
		for c := head[s>>shift]; c >= 0; prev, c = c, chain[c] {
			if sig[c] == s && pinsEqual(tPins[tStart[c]:tStart[c+1]], pins) {
				match = c
				if prev < 0 {
					head[s>>shift] = chain[c]
				} else {
					chain[prev] = chain[c]
				}
				break
			}
		}
		netMap[n] = match
		if match < 0 {
			newN++
			newPins += len(pins)
		} else if base.Cost(int(match)) != next.Cost(n) {
			costIDs++
		}
		if int(match) != n {
			identityN = false
		}
	}

	if costIDs > 0 {
		d.CostIDs = make([]int32, 0, costIDs)
		d.CostVals = make([]int64, 0, costIDs)
	}
	var arena []int32 // backs every NewNetPins entry
	if newN > 0 {
		d.NewNetCosts = make([]int64, 0, newN)
		d.NewNetPins = make([][]int32, 0, newN)
		arena = make([]int32, 0, newPins)
	}
	for n, match := range netMap {
		if match >= 0 {
			if base.Cost(int(match)) != next.Cost(n) {
				d.CostIDs = append(d.CostIDs, int32(n))
				d.CostVals = append(d.CostVals, next.Cost(n))
			}
			continue
		}
		d.NewNetCosts = append(d.NewNetCosts, next.Cost(n))
		var pins []int32 // an empty net stays nil
		if src := next.Pins(n); len(src) > 0 {
			start := len(arena)
			arena = append(arena, src...)
			pins = arena[start:len(arena):len(arena)]
		}
		d.NewNetPins = append(d.NewNetPins, pins)
	}
	if !identityN {
		d.NetMap = netMap
	}
	return d, true
}

// pinSig hashes a pin sequence (FNV-1a over the raw ids); collisions are
// resolved by exact comparison in ComputeDeltaMapped, which buckets on the
// high bits (FNV's low bits depend only on the ids' low bits).
func pinSig(pins []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range pins {
		h ^= uint64(uint32(p))
		h *= 1099511628211
	}
	return h
}

func pinsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
