package hypergraph_test

// Property tests for the content fingerprint (external test package so we
// can drive it with the Table-1 dataset analogues from internal/datasets).

import (
	"bytes"
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
			if !strings.HasPrefix(fp, "hbfp1:") {
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

// goldenHypergraphs are fixed inputs whose fingerprints are pinned as
// literals in TestGoldenDigests. "long net" has one 3 000-pin net (12 000
// bytes of pins), longer than any encoder chunk, and weights, sizes and
// costs that need all 64 bits.
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
	const base = "hbfp1:00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
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

// TestGoldenDigests pins Fingerprint and Delta.Digest to the bytes of the
// original per-value encoder, recorded before the buffered encoder
// replaced it: both hashes key caches that must survive the rewrite, so a
// change here is a cache-key change, not a refactor.
func TestGoldenDigests(t *testing.T) {
	wantFP := map[string]string{
		"empty":    "hbfp1:1c01e48c12a733442df52d89b0d86c022248a561f6e255316e00e09d2e855d49",
		"free":     "hbfp1:c9de3fefd03345f64b8c5277ebee26040c50549506019b7bb942e7decd2fcb56",
		"fixed":    "hbfp1:02e23b1059a6f258160bc4a2a89243d3c4fe7c9992a7dece9cc0331aa5d73c3e",
		"long net": "hbfp1:810a7d8d60058df0dd9a4134e1b1d0f7dabebcf5a80a6108bb4a75b2dc134b44",
	}
	for name, h := range goldenHypergraphs() {
		if got := h.Fingerprint(); got != wantFP[name] {
			t.Errorf("%s: Fingerprint = %s, want %s", name, got, wantFP[name])
		}
	}
	wantDigest := map[string]string{
		"identity":         "hbdd1:2a1ace2498d7fe4ac9a695f20d337d52c1d9e2b2b3a235d91567044e7104b567",
		"structural":       "hbdd1:e7c6aa6a851face807f43618d9c36d6119940528da8388fb2fa96cb08d94a3d5",
		"warm weight-only": "hbdd1:5d8d1b2cb385ac56568c9f180a79ee5501911dd342d894a9ad95fc4805fba32f",
	}
	for name, d := range goldenDeltas() {
		if got := d.Digest(); got != wantDigest[name] {
			t.Errorf("%s: Digest = %s, want %s", name, got, wantDigest[name])
		}
	}
}
