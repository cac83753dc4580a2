package hypergraph

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// deltaBase builds a small hypergraph with varied weights/sizes/costs.
func deltaBase() *Hypergraph {
	b := NewBuilder(6)
	for v := 0; v < 6; v++ {
		b.SetWeight(v, int64(v+1))
		b.SetSize(v, int64(2*v+1))
	}
	b.AddNet(3, 0, 1, 2)
	b.AddNet(1, 2, 3)
	b.AddNet(5, 3, 4, 5)
	b.AddNet(2, 0, 5)
	return b.Build()
}

// assertSame asserts fingerprint and byte-level (WriteText) identity.
func assertSame(t *testing.T, want, got *Hypergraph) {
	t.Helper()
	if want.Fingerprint() != got.Fingerprint() {
		t.Fatalf("fingerprints differ:\nwant %s\ngot  %s", want.Fingerprint(), got.Fingerprint())
	}
	var wb, gb bytes.Buffer
	if err := WriteText(&wb, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&gb, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("serialized forms differ:\nwant:\n%s\ngot:\n%s", wb.String(), gb.String())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("applied hypergraph invalid: %v", err)
	}
}

func TestDeltaEmptyRoundTrip(t *testing.T) {
	h := deltaBase()
	d := &Delta{Version: DeltaVersion, Base: h.Fingerprint()}
	got, err := d.Apply(h)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, h, got)
}

func TestDeltaBaseMismatch(t *testing.T) {
	h := deltaBase()
	d := &Delta{Version: DeltaVersion, Base: "hbfp2:deadbeef"}
	if _, err := d.Apply(h); err == nil {
		t.Fatal("want base mismatch error")
	} else if !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("want ErrBaseMismatch, got %v", err)
	}
}

// TestDeltaApplyFrame: ApplyFrame gates on the fingerprint the frame
// carries, exactly as Apply gates on the one it computes.
func TestDeltaApplyFrame(t *testing.T) {
	h := deltaBase()
	fp := h.Fingerprint()
	d, ok := ComputeDelta(h, h.ScaleCosts(2))
	if !ok {
		t.Fatal("cost drift should be delta-able")
	}
	if _, err := d.ApplyFrame(Frame{H: h, FP: "hbfp2:deadbeef"}); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("stale frame: want ErrBaseMismatch, got %v", err)
	}
	got, err := d.ApplyFrame(Frame{H: h, FP: fp})
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, h.ScaleCosts(2), got)
}

// TestDeltaEmptySuccessor: a successor with no vertices is a present,
// empty vertex map, not the nil "keep every base vertex" map.
func TestDeltaEmptySuccessor(t *testing.T) {
	base := deltaBase()
	next := NewBuilder(0).Build()
	d, ok := ComputeDeltaMapped(base, next, nil)
	if !ok {
		t.Fatal("an empty successor should be delta-able")
	}
	dw, err := decodeDelta(d.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dw.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, next, got)
}

// TestDeltaNewVertexEmptyAttributes: a new vertex whose NewWeights,
// NewSizes or NewFixed section is present but empty gets the defaults (1,
// 1, free), as with a nil section, instead of an index into the empty
// slice. The codec decodes an empty section as nil, so the delta is built
// directly to reach apply.
func TestDeltaNewVertexEmptyAttributes(t *testing.T) {
	base := deltaBase()
	grow := Delta{Version: DeltaVersion, Base: base.Fingerprint(), VertexMap: []int32{0, 1, 2, 3, 4, 5, -1}}
	want, err := grow.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		set  func(*Delta)
	}{
		{"weights", func(d *Delta) { d.NewWeights = []int64{} }},
		{"sizes", func(d *Delta) { d.NewSizes = []int64{} }},
		{"fixed", func(d *Delta) { d.NewFixed = []int32{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := grow
			tc.set(&d)
			got, err := d.Apply(base)
			if err != nil {
				t.Fatal(err)
			}
			assertSame(t, want, got)
		})
	}
}

func TestDeltaBadVersion(t *testing.T) {
	h := deltaBase()
	d := &Delta{Version: 99, Base: h.Fingerprint()}
	if _, err := d.Apply(h); err == nil {
		t.Fatal("want version error")
	}
}

func TestDeltaWeightDrift(t *testing.T) {
	base := deltaBase()
	b := NewBuilder(6)
	for v := 0; v < 6; v++ {
		b.SetWeight(v, base.Weight(v))
		b.SetSize(v, base.Size(v))
	}
	b.SetWeight(2, 40)
	b.SetWeight(5, 41)
	b.SetSize(0, 99)
	for n := 0; n < base.NumNets(); n++ {
		pins := make([]int, 0, base.NetSize(n))
		for _, p := range base.Pins(n) {
			pins = append(pins, int(p))
		}
		b.AddNet(base.Cost(n), pins...)
	}
	next := b.Build()

	d, ok := ComputeDelta(base, next)
	if !ok {
		t.Fatal("weight drift should be delta-able")
	}
	if d.VertexMap != nil || d.NetMap != nil {
		t.Fatalf("weight drift should keep identity maps: %+v", d)
	}
	if len(d.WeightIDs) != 2 || len(d.SizeIDs) != 1 {
		t.Fatalf("want 2 weight + 1 size update, got %d + %d", len(d.WeightIDs), len(d.SizeIDs))
	}
	got, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, next, got)
}

func TestDeltaCostDrift(t *testing.T) {
	base := deltaBase()
	next := base.ScaleCosts(3)
	d, ok := ComputeDelta(base, next)
	if !ok {
		t.Fatal("cost drift should be delta-able")
	}
	if len(d.CostIDs) != base.NumNets() {
		t.Fatalf("want %d cost updates, got %d", base.NumNets(), len(d.CostIDs))
	}
	got, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, next, got)
}

func TestDeltaNetAddRemove(t *testing.T) {
	base := deltaBase()
	// Drop net 1, add a new net {1, 4}.
	b := NewBuilder(6)
	for v := 0; v < 6; v++ {
		b.SetWeight(v, base.Weight(v))
		b.SetSize(v, base.Size(v))
	}
	b.AddNet(3, 0, 1, 2)
	b.AddNet(5, 3, 4, 5)
	b.AddNet(2, 0, 5)
	b.AddNet(7, 1, 4)
	next := b.Build()

	d, ok := ComputeDelta(base, next)
	if !ok {
		t.Fatal("net add/remove should be delta-able")
	}
	if d.VertexMap != nil {
		t.Fatal("vertex map should stay identity")
	}
	if d.NetMap == nil || len(d.NewNetPins) != 1 {
		t.Fatalf("want net map + 1 new net, got %+v", d)
	}
	got, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, next, got)
}

func TestDeltaVertexChurn(t *testing.T) {
	base := deltaBase()
	// Remove vertex 3, add a new vertex (old ids 0,1,2,4,5 -> 0,1,2,3,4;
	// new vertex 5). Nets touching vertex 3 shrink; net {2,3} becomes {2}.
	vmap := []int32{0, 1, 2, 4, 5, -1}
	b := NewBuilder(6)
	for i, ov := range vmap[:5] {
		b.SetWeight(i, base.Weight(int(ov)))
		b.SetSize(i, base.Size(int(ov)))
	}
	b.SetWeight(5, 10)
	b.SetSize(5, 20)
	b.AddNet(3, 0, 1, 2) // unchanged
	b.AddNet(1, 2)       // {2,3} lost vertex 3
	b.AddNet(5, 3, 4)    // {3,4,5} -> {4,5} renumbered
	b.AddNet(2, 0, 4)    // {0,5} renumbered
	b.AddNet(9, 3, 5)    // brand-new net with the new vertex
	next := b.Build()

	d, ok := ComputeDeltaMapped(base, next, vmap)
	if !ok {
		t.Fatal("vertex churn should be delta-able with a map")
	}
	nv, nn := d.NumNew()
	if nv != 1 || nn != 1 {
		t.Fatalf("want 1 new vertex and 1 new net, got %d, %d", nv, nn)
	}
	got, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, next, got)

	// Dirty set: the new vertex, pins of shrunk nets, pins of the new net.
	dirty := d.DirtyVertices(base, got)
	if !dirty[5] {
		t.Fatal("new vertex must be dirty")
	}
	if !dirty[2] { // pin of the shrunk net {2}
		t.Fatal("pin of shrunk net must be dirty")
	}
	if dirty[1] && dirty[0] && dirty[2] && dirty[3] && dirty[4] && dirty[5] {
		t.Fatal("dirty set should not cover everything for a local change")
	}
}

func TestDeltaDigestStable(t *testing.T) {
	base := deltaBase()
	next := base.ScaleCosts(2)
	d1, _ := ComputeDelta(base, next)
	d2, _ := ComputeDelta(base, next)
	if d1.Digest() != d2.Digest() {
		t.Fatal("equal deltas must share a digest")
	}
	d3, _ := ComputeDelta(base, base.ScaleCosts(4))
	if d1.Digest() == d3.Digest() {
		t.Fatal("different deltas must not share a digest")
	}
}

func TestDeltaRejectsMalformed(t *testing.T) {
	base := deltaBase()
	fp := base.Fingerprint()
	cases := []struct {
		name string
		d    Delta
	}{
		{"vmap out of range", Delta{Version: DeltaVersion, Base: fp, VertexMap: []int32{0, 1, 2, 3, 4, 99}}},
		{"vmap duplicate", Delta{Version: DeltaVersion, Base: fp, VertexMap: []int32{0, 0, 2, 3, 4, 5}}},
		{"netmap out of range", Delta{Version: DeltaVersion, Base: fp, NetMap: []int32{0, 1, 2, 9}}},
		{"netmap duplicate", Delta{Version: DeltaVersion, Base: fp, NetMap: []int32{0, 0, 2, 3}}},
		{"sparse ids unsorted", Delta{Version: DeltaVersion, Base: fp, WeightIDs: []int32{3, 1}, WeightVals: []int64{1, 1}}},
		{"sparse length mismatch", Delta{Version: DeltaVersion, Base: fp, WeightIDs: []int32{1}, WeightVals: []int64{1, 2}}},
		{"negative value", Delta{Version: DeltaVersion, Base: fp, WeightIDs: []int32{1}, WeightVals: []int64{-4}}},
		{"new net attrs without map", Delta{Version: DeltaVersion, Base: fp, NewNetCosts: []int64{1}}},
		{"mapped net loses all pins", Delta{Version: DeltaVersion, Base: fp,
			VertexMap: []int32{0, 1, 4, 5}, NetMap: []int32{0, 1, 2, 3}}},
		{"new net repeats a pin", Delta{Version: DeltaVersion, Base: fp, NetMap: []int32{0, -1, 1, -1},
			NewNetCosts: []int64{1, 1}, NewNetPins: [][]int32{{0, 1}, {2, 3, 2}}}},
	}
	for _, tc := range cases {
		if _, err := tc.d.Apply(base); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

// TestDeltaChainRandom applies a chain of random weight/structure deltas
// and cross-checks each hop against a from-scratch rebuild.
func TestDeltaChainRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cur := randomHypergraph(rng, 40, 60)
	for step := 0; step < 10; step++ {
		next := mutateHypergraph(rng, cur)
		vmap := lastVmap
		d, ok := ComputeDeltaMapped(cur, next, vmap)
		if !ok {
			t.Fatalf("step %d: not delta-able", step)
		}
		got, err := d.Apply(cur)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		assertSame(t, next, got)
		cur = next
	}
}

// lastVmap records the vertex correspondence of the latest
// mutateHypergraph call (test helper state).
var lastVmap []int32

// randomHypergraph builds a random valid hypergraph.
func randomHypergraph(rng *rand.Rand, nv, nn int) *Hypergraph {
	b := NewBuilder(nv)
	for v := 0; v < nv; v++ {
		b.SetWeight(v, 1+rng.Int63n(9))
		b.SetSize(v, 1+rng.Int63n(9))
	}
	for n := 0; n < nn; n++ {
		sz := min(2+rng.Intn(4), nv)
		pins := rng.Perm(nv)[:sz]
		b.AddNet(1+rng.Int63n(5), pins...)
	}
	return b.Build()
}

// mutateHypergraph derives a successor with mixed drift: some weights
// change, some vertices are dropped, a couple are added, and nets follow.
func mutateHypergraph(rng *rand.Rand, h *Hypergraph) *Hypergraph {
	nv := h.NumVertices()
	drop := make(map[int]bool)
	for i := 0; i < nv/10; i++ {
		drop[rng.Intn(nv)] = true
	}
	add := 1 + rng.Intn(3)

	var vmap []int32
	newID := make([]int32, nv)
	for v := 0; v < nv; v++ {
		if drop[v] {
			newID[v] = -1
			continue
		}
		newID[v] = int32(len(vmap))
		vmap = append(vmap, int32(v))
	}
	for i := 0; i < add; i++ {
		vmap = append(vmap, -1)
	}
	lastVmap = vmap

	b := NewBuilder(len(vmap))
	for i, ov := range vmap {
		if ov < 0 {
			b.SetWeight(i, 1+rng.Int63n(9))
			b.SetSize(i, 1+rng.Int63n(9))
			continue
		}
		w, s := h.Weight(int(ov)), h.Size(int(ov))
		if rng.Intn(4) == 0 {
			w = 1 + rng.Int63n(20)
		}
		if rng.Intn(6) == 0 {
			s = 1 + rng.Int63n(20)
		}
		b.SetWeight(i, w)
		b.SetSize(i, s)
	}
	for n := 0; n < h.NumNets(); n++ {
		if rng.Intn(12) == 0 {
			continue // drop net
		}
		var pins []int
		for _, p := range h.Pins(n) {
			if id := newID[p]; id >= 0 {
				pins = append(pins, int(id))
			}
		}
		if len(pins) == 0 {
			continue
		}
		cost := h.Cost(n)
		if rng.Intn(8) == 0 {
			cost = 1 + rng.Int63n(9)
		}
		b.AddNet(cost, pins...)
	}
	// A couple of new nets, possibly touching new vertices.
	for i := 0; i < 1+rng.Intn(2); i++ {
		sz := min(2+rng.Intn(3), len(vmap))
		pins := rng.Perm(len(vmap))[:sz]
		b.AddNet(1+rng.Int63n(5), pins...)
	}
	return b.Build()
}
