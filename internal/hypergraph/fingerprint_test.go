package hypergraph_test

// Property tests for the content fingerprint (external test package so we
// can drive it with the Table-1 dataset analogues from internal/datasets).

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
)

// TestFingerprintRoundTripStable: WriteText -> ReadText must preserve the
// fingerprint for every dataset analogue. This is the property the server's
// partition cache depends on: a hypergraph that round-trips through any
// serialization must hash to the same cache key. (The analogues carry no
// fixed labels; WriteText deliberately does not serialize fixed labels,
// which are runtime state, so fixed hypergraphs are out of scope here.)
func TestFingerprintRoundTripStable(t *testing.T) {
	for _, name := range datasets.Names() {
		t.Run(name, func(t *testing.T) {
			g, err := datasets.Generate(name, 400, 7)
			if err != nil {
				t.Fatal(err)
			}
			h := graph.ToHypergraph(g)
			fp := h.Fingerprint()
			if !strings.HasPrefix(fp, "hbfp2:") {
				t.Fatalf("fingerprint missing version prefix: %q", fp)
			}

			var buf bytes.Buffer
			if err := hypergraph.WriteText(&buf, h); err != nil {
				t.Fatal(err)
			}
			h2, err := hypergraph.ReadText(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if fp2 := h2.Fingerprint(); fp2 != fp {
				t.Errorf("fingerprint changed across WriteText/ReadText: %s -> %s", fp, fp2)
			}
			// Clone must also be identity-stable.
			if fp3 := h.Clone().Fingerprint(); fp3 != fp {
				t.Errorf("fingerprint changed across Clone: %s -> %s", fp, fp3)
			}
			// And deterministic across calls.
			if fp4 := h.Fingerprint(); fp4 != fp {
				t.Errorf("fingerprint not deterministic: %s -> %s", fp, fp4)
			}
		})
	}
}

// TestFingerprintSensitivity: perturbing any content channel — a vertex
// weight, a vertex size, a net cost, the pin structure, or fixed labels —
// must change the fingerprint. A collision here would make the server's
// cache serve a stale partition for a drifted hypergraph.
func TestFingerprintSensitivity(t *testing.T) {
	build := func(mutate func(*hypergraph.Builder)) *hypergraph.Hypergraph {
		b := hypergraph.NewBuilder(6)
		b.AddNet(1, 0, 1, 2)
		b.AddNet(2, 2, 3)
		b.AddNet(1, 3, 4, 5)
		for v := 0; v < 6; v++ {
			b.SetWeight(v, int64(10+v))
			b.SetSize(v, int64(100+v))
		}
		if mutate != nil {
			mutate(b)
		}
		return b.Build()
	}

	base := build(nil).Fingerprint()
	perturbations := map[string]*hypergraph.Hypergraph{
		"weight":    build(func(b *hypergraph.Builder) { b.SetWeight(3, 999) }),
		"size":      build(func(b *hypergraph.Builder) { b.SetSize(3, 999) }),
		"extra net": build(func(b *hypergraph.Builder) { b.AddNet(1, 0, 1, 2) }),
		"fixed":     build(func(b *hypergraph.Builder) { b.Fix(0, 1) }),
		"structure": build(func(b *hypergraph.Builder) { b.AddNet(5, 0, 5) }),
	}
	for name, h := range perturbations {
		if fp := h.Fingerprint(); fp == base {
			t.Errorf("%s perturbation did not change the fingerprint", name)
		}
	}
	if build(nil).ScaleCosts(3).Fingerprint() == base {
		t.Error("net-cost perturbation (ScaleCosts) did not change the fingerprint")
	}

	// WithFixed / WithoutFixed views must hash the labels in and out.
	h := build(nil)
	fixed := make([]int32, 6)
	for i := range fixed {
		fixed[i] = -1
	}
	fixed[2] = 1
	hf := h.WithFixed(fixed)
	if hf.Fingerprint() == base {
		t.Error("WithFixed did not change the fingerprint")
	}
	if got := hf.WithoutFixed().Fingerprint(); got != base {
		t.Errorf("WithoutFixed fingerprint = %s, want base %s", got, base)
	}

	// Different fixed assignments must differ from each other.
	fixed2 := append([]int32(nil), fixed...)
	fixed2[2] = 0
	if h.WithFixed(fixed).Fingerprint() == h.WithFixed(fixed2).Fingerprint() {
		t.Error("different fixed labels collide")
	}
}

// TestFingerprintCanonicalFrame: the fingerprint hashes the canonical
// frame, so it names the hypergraph, not the way it was spelled. Over
// random Builder outputs, each second spelling of the same hypergraph —
// explicit all-1 weights or sizes against the default, duplicate pins
// within a net, an all-Free fixed vector against none — fingerprints
// equal, and so does a received frame that spells it so once it is built
// and re-hashed; changing one cost, pin, weight, size or fixed label, or
// adding one isolated vertex, changes the fingerprint.
func TestFingerprintCanonicalFrame(t *testing.T) {
	type vertex struct {
		weight, size int64
		fixed        int32
	}
	type net struct {
		cost int64
		pins []int
	}
	build := func(vs []vertex, ns []net, spell func(b *hypergraph.Builder)) *hypergraph.Hypergraph {
		b := hypergraph.NewBuilder(len(vs))
		for v, x := range vs {
			if x.weight != 1 {
				b.SetWeight(v, x.weight)
			}
			if x.size != 1 {
				b.SetSize(v, x.size)
			}
			if x.fixed != hypergraph.Free {
				b.Fix(v, int(x.fixed))
			}
		}
		for _, n := range ns {
			b.AddNet(n.cost, n.pins...)
		}
		if spell != nil {
			spell(b)
		}
		return b.Build()
	}
	rng := rand.New(rand.NewSource(20070326))
	for iter := 0; iter < 200; iter++ {
		nv := 2 + rng.Intn(30)
		vs := make([]vertex, nv)
		for v := range vs {
			vs[v] = vertex{1, 1, hypergraph.Free}
			if rng.Intn(3) == 0 {
				vs[v].weight = 1 + rng.Int63n(5)
			}
			if rng.Intn(3) == 0 {
				vs[v].size = 1 + rng.Int63n(5)
			}
			if rng.Intn(6) == 0 {
				vs[v].fixed = int32(rng.Intn(3))
			}
		}
		ns := make([]net, 1+rng.Intn(20))
		for i := range ns {
			ns[i].cost = 1 + rng.Int63n(4)
			for _, p := range rng.Perm(nv)[:1+rng.Intn(min(nv, 5))] {
				ns[i].pins = append(ns[i].pins, p)
			}
		}
		h := build(vs, ns, nil)
		fp := h.Fingerprint()

		same := map[string]*hypergraph.Hypergraph{
			"explicit unit weights": build(vs, ns, func(b *hypergraph.Builder) {
				for v, x := range vs {
					if x.weight == 1 {
						b.SetWeight(v, 1)
					}
				}
			}),
			"explicit unit sizes": build(vs, ns, func(b *hypergraph.Builder) {
				for v, x := range vs {
					if x.size == 1 {
						b.SetSize(v, 1)
					}
				}
			}),
			"all-Free fixed vector": h.WithoutFixed().WithFixed(fixedOf(h)),
		}
		dup := append([]net(nil), ns...)
		k := rng.Intn(len(dup))
		dup[k].pins = append(append([]int(nil), dup[k].pins...), dup[k].pins[0])
		same["duplicate pin"] = build(vs, dup, nil)
		for name, g := range same {
			if g.Fingerprint() != fp {
				t.Fatalf("iter %d: %s fingerprints %s, want %s", iter, name, g.Fingerprint(), fp)
			}
		}

		changed := map[string]*hypergraph.Hypergraph{
			"isolated vertex": build(append(append([]vertex(nil), vs...), vertex{1, 1, hypergraph.Free}), ns, nil),
		}
		v := rng.Intn(nv)
		for name, edit := range map[string]func(*vertex){
			"weight": func(x *vertex) { x.weight++ },
			"size":   func(x *vertex) { x.size++ },
			"fixed":  func(x *vertex) { x.fixed = (x.fixed + 2) % 4 }, // Free -> 1, p -> another label or Free
		} {
			ws := append([]vertex(nil), vs...)
			edit(&ws[v])
			changed[name] = build(ws, ns, nil)
		}
		cs := append([]net(nil), ns...)
		cs[k].cost++
		changed["cost"] = build(vs, cs, nil)
		ps := append([]net(nil), ns...)
		ps[k].pins = append([]int(nil), ps[k].pins...)
		if u := pickOther(ps[k].pins, nv, rng); u >= 0 {
			ps[k].pins[0] = u
		} else {
			ps[k].pins = ps[k].pins[1:] // the net holds every vertex, and at least two
		}
		changed["pin"] = build(vs, ps, nil)
		for name, g := range changed {
			if g.Fingerprint() == fp {
				t.Fatalf("iter %d: changing one %s left the fingerprint %s", iter, name, fp)
			}
		}
	}
}

// fixedOf returns h's fixed labels, all Free when it has none.
func fixedOf(h *hypergraph.Hypergraph) []int32 {
	fixed := make([]int32, h.NumVertices())
	for v := range fixed {
		fixed[v] = int32(h.Fixed(v))
	}
	return fixed
}

// pickOther returns a vertex below nv that is not among pins, or -1 when
// every vertex is a pin.
func pickOther(pins []int, nv int, rng *rand.Rand) int {
	in := make(map[int]bool, len(pins))
	for _, p := range pins {
		in[p] = true
	}
	for _, v := range rng.Perm(nv) {
		if !in[v] {
			return v
		}
	}
	return -1
}

// goldenHypergraphs are fixed inputs whose fingerprints are pinned as
// literals in TestGoldenDigests. "long net" has one 3 000-pin net and
// weights, sizes and costs that need all 64 bits.
func goldenHypergraphs() map[string]*hypergraph.Hypergraph {
	small := func(fix bool) *hypergraph.Hypergraph {
		b := hypergraph.NewBuilder(7)
		b.AddNet(3, 0, 1, 2)
		b.AddNet(1, 2, 3)
		b.AddNet(5, 6, 4, 5, 3)
		b.AddNet(2, 0, 6)
		for v := 0; v < 7; v++ {
			b.SetWeight(v, int64(v+1))
			b.SetSize(v, int64(2*v+1))
		}
		if fix {
			b.Fix(1, 0)
			b.Fix(5, 2)
		}
		return b.Build()
	}
	long := func() *hypergraph.Hypergraph {
		const n = 3000
		b := hypergraph.NewBuilder(n)
		pins := make([]int, n)
		for i := range pins {
			pins[i] = (i * 7) % n // a permutation: 7 and 3 000 are coprime
		}
		b.AddNet(1<<40+3, pins...)
		for v := 0; v+1 < n; v += 3 {
			b.AddNet(int64(v), v, v+1)
		}
		for v := 0; v < n; v++ {
			b.SetWeight(v, int64(v)<<33|int64(v))
			b.SetSize(v, int64(n-v))
		}
		return b.Build()
	}
	return map[string]*hypergraph.Hypergraph{
		"empty":    hypergraph.NewBuilder(0).Build(),
		"free":     small(false),
		"fixed":    small(true),
		"long net": long(),
	}
}

// goldenDeltas are fixed deltas whose digests TestGoldenDigests pins. The
// base is a literal string: Digest hashes it as given.
func goldenDeltas() map[string]*hypergraph.Delta {
	const base = "hbfp2:00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
	return map[string]*hypergraph.Delta{
		"identity": {Version: hypergraph.DeltaVersion, Base: base},
		"structural": {
			Version:     hypergraph.DeltaVersion,
			Base:        base,
			VertexMap:   []int32{0, 2, -1, 3, -1},
			NewWeights:  []int64{7, 1 << 50},
			NewSizes:    []int64{1, 9},
			NewFixed:    []int32{-1, 1},
			NetMap:      []int32{1, -1, 0, -1},
			NewNetCosts: []int64{4, 6},
			NewNetPins:  [][]int32{{0, 2, 4}, {1}},
			WeightIDs:   []int32{1},
			WeightVals:  []int64{11},
			CostIDs:     []int32{0, 2},
			CostVals:    []int64{8, 1 << 33},
		},
		"warm weight-only": {
			Version:    hypergraph.DeltaVersion,
			Base:       base,
			WeightIDs:  []int32{0, 3, 700},
			WeightVals: []int64{5, 1 << 40, 2},
			SizeIDs:    []int32{2},
			SizeVals:   []int64{3},
		},
	}
}

// TestGoldenDigests pins Fingerprint and Delta.Digest, the SHA-256 of the
// canonical hypergraph and delta frames: both key caches, and a
// fingerprint is what a delta names its base by, so a change here is a
// cache-key and wire change (a new prefix and wire version), not a
// refactor.
func TestGoldenDigests(t *testing.T) {
	wantFP := map[string]string{
		"empty":    "hbfp2:2e22fd435060cd5d3cf5e3ef39f79e198b35bd2c4af31974db36601b3a2f4c91",
		"free":     "hbfp2:97a76e409f22f62ea85c30d1b04f83c134221dfe6cd185d804e4590e5a7becb9",
		"fixed":    "hbfp2:fe01f49ebcdc3fdb6aa0b76ea03f4ab8cafe8d9746475e78fc86a52ebb155543",
		"long net": "hbfp2:6d86fcbfa254b5a25a8f270d288f606a2235b1877df5d20830cf94bc27b539d7",
	}
	for name, h := range goldenHypergraphs() {
		if got := h.Fingerprint(); got != wantFP[name] {
			t.Errorf("%s: Fingerprint = %s, want %s", name, got, wantFP[name])
		}
	}
	wantDigest := map[string]string{
		"identity":         "hbdd2:3381ddc1cb04e9b35cd2ce1b10deda3ad408d9242f7f3de2a0b75fa6496a9d17",
		"structural":       "hbdd2:a25a1b6cb45c09a8a4cd834a31726c753e3d9bcc8753df4fc79619f15c83a4cf",
		"warm weight-only": "hbdd2:1df8ceb4c9c1b500eebe1eae60cabbde4862d562040ac527c01c602e6d2c55ac",
	}
	for name, d := range goldenDeltas() {
		if got := d.Digest(); got != wantDigest[name] {
			t.Errorf("%s: Digest = %s, want %s", name, got, wantDigest[name])
		}
	}
}
