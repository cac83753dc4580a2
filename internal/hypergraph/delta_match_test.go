package hypergraph

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestComputeDeltaMappedMatchesMapReference compares ComputeDeltaMapped
// field by field, ok included, with the map-based matcher it replaced
// (computeDeltaMappedRef below) on random base/successor pairs: duplicate
// nets, empty nets, nets whose pins all vanish, permuted and partial
// vertex maps with new vertices, and the refusals (non-injective or
// out-of-range map, changed or new fixed label).
func TestComputeDeltaMappedMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20070326))
	var refused, structural int
	for iter := 0; iter < 1500; iter++ {
		base, next, vmap := randomDeltaPair(rng)
		want, wantOK := computeDeltaMappedRef(base, next, vmap)
		got, gotOK := ComputeDeltaMapped(base, next, vmap)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: ComputeDeltaMapped = %+v, %v\nreference          = %+v, %v", iter, got, gotOK, want, wantOK)
		}
		if !gotOK {
			refused++
			continue
		}
		if got.NetMap != nil {
			structural++
		}
		h, err := got.Apply(base)
		if err != nil {
			// The format cannot carry an empty new net; the reference
			// produces the same delta, so only the rejection is checked.
			if !hasEmptyNet(next) {
				t.Fatalf("iter %d: apply: %v", iter, err)
			}
			continue
		}
		if h.Fingerprint() != next.Fingerprint() {
			t.Fatalf("iter %d: applied fingerprint differs from the successor's", iter)
		}
	}
	if refused < 100 || structural < 500 {
		t.Fatalf("generator coverage too thin: %d refused, %d with a net map", refused, structural)
	}
}

func hasEmptyNet(h *Hypergraph) bool {
	for n := 0; n < h.NumNets(); n++ {
		if h.NetSize(n) == 0 {
			return true
		}
	}
	return false
}

// randomDeltaPair draws a base hypergraph, a vertex map and a successor
// that reuses, reorders, duplicates, drops and adds nets. About one pair
// in seven is built to be refused.
func randomDeltaPair(rng *rand.Rand) (base, next *Hypergraph, vmap []int32) {
	nv := rng.Intn(24)
	b := NewBuilder(nv)
	for v := 0; v < nv; v++ {
		b.SetWeight(v, 1+rng.Int63n(4))
		b.SetSize(v, 1+rng.Int63n(3))
		if rng.Intn(8) == 0 {
			b.Fix(v, rng.Intn(3))
		}
	}
	addRandomNets(rng, b, nv, rng.Intn(30))
	base = b.Build()
	// Duplicates in the base: copy some nets verbatim.
	if base.NumNets() > 0 && rng.Intn(2) == 0 {
		b = builderFrom(base)
		for i := rng.Intn(6); i > 0; i-- {
			n := rng.Intn(base.NumNets())
			b.AddNetInt32(base.Cost(n), base.Pins(n))
		}
		base = b.Build()
	}

	// Vertex map: a random subset of the base in random order (or kept
	// in order, or the identity), with new vertices interleaved.
	perm := rng.Perm(nv)
	switch rng.Intn(3) {
	case 0:
		perm = perm[:rng.Intn(nv+1)]
	case 1:
		for i := range perm {
			perm[i] = i
		}
		if nv > 0 && rng.Intn(2) == 0 {
			drop := rng.Intn(nv)
			perm = append(perm[:drop], perm[drop+1:]...)
		}
	}
	for _, p := range perm {
		for rng.Intn(6) == 0 {
			vmap = append(vmap, -1)
		}
		vmap = append(vmap, int32(p))
	}
	fwd := make([]int32, nv)
	for i := range fwd {
		fwd[i] = -1
	}
	for i, b := range vmap {
		if b >= 0 {
			fwd[b] = int32(i)
		}
	}

	nb := NewBuilder(len(vmap))
	for i, ov := range vmap {
		if ov < 0 {
			nb.SetWeight(i, 1+rng.Int63n(4))
			continue
		}
		w, s := base.Weight(int(ov)), base.Size(int(ov))
		if rng.Intn(4) == 0 {
			w = 1 + rng.Int63n(4)
		}
		if rng.Intn(5) == 0 {
			s = 1 + rng.Int63n(3)
		}
		nb.SetWeight(i, w)
		nb.SetSize(i, s)
		if f := base.Fixed(int(ov)); f != Free {
			nb.Fix(i, int(f))
		}
	}
	// Successor nets: translated base nets in a shuffled order, some
	// dropped, some repeated (more copies than the base holds become new
	// nets), some with a changed cost; then fresh random nets.
	type net struct {
		cost int64
		pins []int
	}
	var translated []net
	for n := 0; n < base.NumNets(); n++ {
		var pins []int
		for _, p := range base.Pins(n) {
			if f := fwd[p]; f >= 0 {
				pins = append(pins, int(f))
			}
		}
		if len(pins) > 0 || rng.Intn(10) == 0 {
			translated = append(translated, net{base.Cost(n), pins})
		}
	}
	order := rng.Perm(len(translated))
	if rng.Intn(3) == 0 {
		for i := range order {
			order[i] = i
		}
	}
	for _, i := range order {
		if rng.Intn(8) == 0 {
			continue
		}
		cost := translated[i].cost
		if rng.Intn(5) == 0 {
			cost = 1 + rng.Int63n(4)
		}
		copies := 1
		if rng.Intn(6) == 0 {
			copies = 2
		}
		for ; copies > 0; copies-- {
			nb.AddNet(cost, translated[i].pins...)
		}
	}
	addRandomNets(rng, nb, len(vmap), rng.Intn(4))

	// Refusals.
	switch rng.Intn(14) {
	case 0: // non-injective map
		if len(vmap) >= 2 && vmap[0] >= 0 {
			vmap = append([]int32(nil), vmap...)
			vmap[len(vmap)-1] = vmap[0]
		}
	case 1: // a surviving vertex changes its fixed label
		for i, ov := range vmap {
			if ov >= 0 {
				nb.Fix(i, int(base.Fixed(int(ov))+1))
				break
			}
		}
	case 2: // a new vertex is fixed
		for i, ov := range vmap {
			if ov < 0 {
				nb.Fix(i, 0)
				break
			}
		}
	}
	next = nb.Build()
	if rng.Intn(40) == 0 && len(vmap) > 0 { // out-of-range entries
		vmap = append([]int32(nil), vmap...)
		vmap[rng.Intn(len(vmap))] = []int32{-2, int32(nv)}[rng.Intn(2)]
	}
	return base, next, vmap
}

// addRandomNets adds count nets over nv vertices, including the odd empty
// one; costs stay small so equal pin lists often carry equal costs.
func addRandomNets(rng *rand.Rand, b *Builder, nv, count int) {
	for ; count > 0; count-- {
		sz := 0
		if nv > 0 {
			sz = min(rng.Intn(5), nv)
		}
		b.AddNet(1+rng.Int63n(3), rng.Perm(nv)[:sz]...)
	}
}

func builderFrom(h *Hypergraph) *Builder {
	b := NewBuilder(h.NumVertices())
	for v := 0; v < h.NumVertices(); v++ {
		b.SetWeight(v, h.Weight(v))
		b.SetSize(v, h.Size(v))
		if f := h.Fixed(v); f != Free {
			b.Fix(v, int(f))
		}
	}
	for n := 0; n < h.NumNets(); n++ {
		b.AddNetInt32(h.Cost(n), h.Pins(n))
	}
	return b
}

// computeDeltaMappedRef is ComputeDeltaMapped as it was with per-signature
// Go maps and per-net pin clones (plus the empty-successor fix marked
// below): the reference the flat matcher must reproduce exactly.
func computeDeltaMappedRef(base, next *Hypergraph, vmap []int32) (*Delta, bool) {
	if len(vmap) != next.NumVertices() {
		return nil, false
	}
	baseV := base.NumVertices()
	fwd := make([]int32, baseV)
	for i := range fwd {
		fwd[i] = -1
	}
	identityV := len(vmap) == baseV
	for i, b := range vmap {
		if b < -1 {
			return nil, false
		}
		if b < 0 {
			identityV = false
			continue
		}
		if int(b) >= baseV || fwd[b] >= 0 {
			return nil, false
		}
		fwd[b] = int32(i)
		if int(b) != i {
			identityV = false
		}
		if base.Fixed(int(b)) != next.Fixed(i) {
			return nil, false
		}
	}

	d := &Delta{Version: DeltaVersion, Base: base.Fingerprint()}
	if !identityV {
		// The one departure from the original: it cloned vmap with
		// append([]int32(nil), vmap...), which is nil for an empty
		// successor, so the delta kept the base's vertices instead.
		d.VertexMap = append(make([]int32, 0, len(vmap)), vmap...)
	}
	for i := 0; i < next.NumVertices(); i++ {
		b := vmap[i]
		if b < 0 {
			d.NewWeights = append(d.NewWeights, next.Weight(i))
			d.NewSizes = append(d.NewSizes, next.Size(i))
			if next.Fixed(i) != Free {
				return nil, false
			}
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
	if nv, _ := d.NumNew(); nv == 0 {
		d.NewWeights, d.NewSizes = nil, nil
	}

	type candidate struct {
		id   int32
		pins []int32
	}
	sigs := make(map[uint64][]candidate, base.NumNets())
	var tbuf []int32
	for n := 0; n < base.NumNets(); n++ {
		tbuf = tbuf[:0]
		for _, p := range base.Pins(n) {
			if np := fwd[p]; np >= 0 {
				tbuf = append(tbuf, np)
			}
		}
		if len(tbuf) == 0 {
			continue
		}
		sig := pinSig(tbuf)
		sigs[sig] = append(sigs[sig], candidate{id: int32(n), pins: append([]int32(nil), tbuf...)})
	}
	used := make(map[uint64]int, len(sigs))

	netMap := make([]int32, next.NumNets())
	identityN := next.NumNets() == base.NumNets()
	for n := 0; n < next.NumNets(); n++ {
		pins := next.Pins(n)
		sig := pinSig(pins)
		match := int32(-1)
		cands := sigs[sig]
		for i := used[sig]; i < len(cands); i++ {
			if pinsEqual(cands[i].pins, pins) {
				match = cands[i].id
				if i == used[sig] {
					used[sig] = i + 1
				} else {
					copy(cands[i:], cands[i+1:])
					sigs[sig] = cands[:len(cands)-1]
				}
				break
			}
		}
		netMap[n] = match
		if match >= 0 {
			if int(match) != n {
				identityN = false
			}
			if base.Cost(int(match)) != next.Cost(n) {
				d.CostIDs = append(d.CostIDs, int32(n))
				d.CostVals = append(d.CostVals, next.Cost(n))
			}
		} else {
			identityN = false
			d.NewNetCosts = append(d.NewNetCosts, next.Cost(n))
			d.NewNetPins = append(d.NewNetPins, append([]int32(nil), pins...))
		}
	}
	if !identityN {
		d.NetMap = netMap
	}
	return d, true
}
