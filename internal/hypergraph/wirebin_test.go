package hypergraph

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hyperbal/internal/wire"
)

// binTestGraphs builds a spread of hypergraphs covering every optional
// section combination: uniform/non-uniform weights and sizes, fixed
// vertices present/absent, single-pin nets, and an empty-net-list graph.
func binTestGraphs() map[string]*Hypergraph {
	plain := NewBuilder(5)
	plain.AddNet(1, 0, 1, 2)
	plain.AddNet(1, 2, 3)
	plain.AddNet(1, 4)

	weighted := NewBuilder(4)
	weighted.SetWeight(0, 7)
	weighted.SetSize(2, 3)
	weighted.AddNet(5, 0, 1)
	weighted.AddNet(2, 1, 2, 3)

	fixed := NewBuilder(6)
	fixed.Fix(0, 0)
	fixed.Fix(5, 2)
	fixed.AddNet(1, 0, 5)
	fixed.AddNet(3, 1, 2, 3, 4)

	noNets := NewBuilder(3)

	return map[string]*Hypergraph{
		"plain":    plain.Build(),
		"weighted": weighted.Build(),
		"fixed":    fixed.Build(),
		"no-nets":  noNets.Build(),
		// randomHypergraph is the delta_test.go helper.
		"random": randomHypergraph(rand.New(rand.NewSource(42)), 200, 300),
	}
}

func sameHypergraph(t *testing.T, want, got *Hypergraph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumNets() != want.NumNets() || got.NumPins() != want.NumPins() {
		t.Fatalf("shape mismatch: got %d/%d/%d vertices/nets/pins, want %d/%d/%d",
			got.NumVertices(), got.NumNets(), got.NumPins(),
			want.NumVertices(), want.NumNets(), want.NumPins())
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint mismatch: got %s want %s", got.Fingerprint(), want.Fingerprint())
	}
	for n := 0; n < want.NumNets(); n++ {
		if !bytes.Equal(int32Bytes(got.Pins(n)), int32Bytes(want.Pins(n))) {
			t.Fatalf("net %d pins differ: got %v want %v", n, got.Pins(n), want.Pins(n))
		}
		if got.Cost(n) != want.Cost(n) {
			t.Fatalf("net %d cost differs", n)
		}
	}
	for v := 0; v < want.NumVertices(); v++ {
		if got.Weight(v) != want.Weight(v) || got.Size(v) != want.Size(v) || got.Fixed(v) != want.Fixed(v) {
			t.Fatalf("vertex %d attrs differ", v)
		}
	}
	if got.HasFixed() != want.HasFixed() {
		t.Fatalf("HasFixed: got %v want %v", got.HasFixed(), want.HasFixed())
	}
}

func int32Bytes(xs []int32) []byte {
	out := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, h := range binTestGraphs() {
		t.Run(name, func(t *testing.T) {
			enc := h.AppendBinary(nil)
			got, fp, err := DecodeBinary(NewBinReader(enc))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if fp != h.Fingerprint() {
				t.Fatalf("decode-time fingerprint %s != %s", fp, h.Fingerprint())
			}
			sameHypergraph(t, h, got)
			// The encoding is canonical: re-encoding the decoded graph
			// reproduces the bytes.
			if !bytes.Equal(got.AppendBinary(nil), enc) {
				t.Fatal("re-encoding differs from original encoding")
			}
		})
	}
}

// TestBinaryUniformElision checks the wire-byte win the codec is built
// around: all-1 weight/size sections are elided behind the flags byte.
func TestBinaryUniformElision(t *testing.T) {
	uniform := NewBuilder(100)
	weighted := NewBuilder(100)
	for v := 0; v < 100; v++ {
		weighted.SetWeight(v, 2)
	}
	for n := 0; n < 50; n++ {
		uniform.AddNet(1, n, n+1)
		weighted.AddNet(1, n, n+1)
	}
	u, w := uniform.Build().AppendBinary(nil), weighted.Build().AppendBinary(nil)
	if len(u) >= len(w) {
		t.Fatalf("uniform graph (%d B) should encode smaller than weighted (%d B)", len(u), len(w))
	}
}

// TestBuildFromWire checks the shared validation path both codecs funnel
// through: Builder-equivalent pin dedup (first occurrence wins), all-Free
// fixed arrays normalized to nil, and nil weight/size defaulting.
func TestBuildFromWire(t *testing.T) {
	// Duplicate pins collapse exactly like Builder.AddNet.
	b := NewBuilder(4)
	b.AddNet(2, 1, 3, 1, 0, 3)
	want := b.Build()
	got, fp, err := BuildFromWire(4, []int64{2}, []int32{5}, []int32{1, 3, 1, 0, 3}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fp != want.Fingerprint() {
		t.Fatalf("fingerprint %s != %s", fp, want.Fingerprint())
	}
	sameHypergraph(t, want, got)

	// An all-Free fixed array means "no fixed vertices".
	got, _, err = BuildFromWire(3, []int64{1}, []int32{2}, []int32{0, 1}, nil, nil, []int32{Free, Free, Free})
	if err != nil {
		t.Fatal(err)
	}
	if got.HasFixed() {
		t.Fatal("all-Free fixed array should normalize to no fixed vertices")
	}
}

func TestBuildFromWireErrors(t *testing.T) {
	cases := []struct {
		name string
		nv   int
		cost []int64
		size []int32
		pins []int32
		want string
	}{
		{"negative-nv", -1, nil, nil, nil, "num_vertices is negative"},
		{"empty-net", 2, []int64{1}, []int32{0}, nil, "net 0 is empty"},
		{"pin-range", 2, []int64{1}, []int32{1}, []int32{5}, "pin 5 out of range"},
		{"pin-deficit", 2, []int64{1}, []int32{3}, []int32{0, 1}, "nets declare 3 pins, only 2 provided"},
		{"pin-surplus", 2, []int64{1}, []int32{1}, []int32{0, 1}, "nets declare 1 pins, 2 provided"},
		{"negative-cost", 2, []int64{-1}, []int32{1}, []int32{0}, "net 0 has negative cost"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := BuildFromWire(tc.nv, tc.cost, tc.size, tc.pins, nil, nil, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestDecodeBinaryMalformed feeds the decoder adversarial frames: every
// truncation point of a valid frame, a wrong version byte, unknown flag
// bits, and a length prefix claiming far more elements than the frame
// carries (the alloc-bomb shape) — all must error, never panic, and the
// bomb must be rejected by the length-vs-remaining-bytes check rather
// than by attempting the allocation.
func TestDecodeBinaryMalformed(t *testing.T) {
	h := binTestGraphs()["weighted"]
	enc := h.AppendBinary(nil)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeBinary(NewBinReader(enc[:i])); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", i, len(enc))
		}
	}

	bad := append([]byte(nil), enc...)
	bad[0] = 99 // version
	if _, _, err := DecodeBinary(NewBinReader(bad)); err == nil {
		t.Fatal("wrong version byte accepted")
	}

	// nv claims 2^24 vertices in a 3-byte frame: must fail fast on the
	// frame-budget check, not allocate gigabytes.
	bomb := []byte{BinaryFrameVersion, 0x80, 0x80, 0x80, 0x08, 0, 0, 0}
	if _, _, err := DecodeBinary(NewBinReader(bomb)); err == nil {
		t.Fatal("vertex-count bomb accepted")
	}

	// Pin-count prefix larger than the remaining bytes.
	var pinBomb []byte
	pinBomb = append(pinBomb, BinaryFrameVersion, 2, 1)     // nv=2, nn=1
	pinBomb = append(pinBomb, 0xFF, 0xFF, 0xFF, 0xFF, 0x07) // np bomb
	if _, _, err := DecodeBinary(NewBinReader(pinBomb)); err == nil {
		t.Fatal("pin-count bomb accepted")
	}
}

func TestDeltaBinaryRoundTrip(t *testing.T) {
	deltas := map[string]*Delta{
		"identity": {Version: DeltaVersion, Base: "hbfp1:abc"},
		"sparse": {
			Version: DeltaVersion, Base: "hbfp1:abc",
			WeightIDs: []int32{0, 3}, WeightVals: []int64{5, 9},
			CostIDs: []int32{1}, CostVals: []int64{7},
		},
		"structural": {
			Version: DeltaVersion, Base: "hbfp1:def",
			VertexMap:  []int32{0, 2, -1},
			NewWeights: []int64{4}, NewSizes: []int64{2}, NewFixed: []int32{Free},
			NetMap:      []int32{0, -1},
			NewNetCosts: []int64{3}, NewNetPins: [][]int32{{0, 2}},
		},
	}
	for name, d := range deltas {
		t.Run(name, func(t *testing.T) {
			enc := d.AppendBinary(nil)
			got, err := DecodeDeltaBinary(NewBinReader(enc))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(d, got) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d)
			}
			if d.Digest() != got.Digest() {
				t.Fatal("digest changed across round trip")
			}
			// Nil-ness is load-bearing (Identity(), Digest()): it must
			// survive the wire exactly.
			if (d.VertexMap == nil) != (got.VertexMap == nil) || (d.NetMap == nil) != (got.NetMap == nil) {
				t.Fatal("map nil-ness not preserved")
			}
			for i := 0; i < len(enc); i++ {
				if _, err := DecodeDeltaBinary(NewBinReader(enc[:i])); err == nil {
					t.Fatalf("truncation at %d/%d bytes decoded successfully", i, len(enc))
				}
			}
		})
	}
}

// TestDeltaBinaryMatchesApply encodes a computed delta, decodes it, and
// applies both to the base: results must be fingerprint-identical.
func TestDeltaBinaryMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomHypergraph(rng, 60, 90)
	drift := base.Clone()
	d, ok := ComputeDelta(base, drift)
	if !ok {
		t.Fatal("identity delta not computable")
	}
	got, err := DecodeDeltaBinary(NewBinReader(d.AppendBinary(nil)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("wire round trip changed the delta's effect")
	}
}

func TestBinReaderTruncationErrors(t *testing.T) {
	r := NewBinReader(nil)
	if _, err := r.Byte(); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("Byte on empty reader: %v", err)
	}
	if _, err := NewBinReader([]byte{0x80}).Uvarint(); err == nil {
		t.Fatal("dangling varint continuation accepted")
	}
}

// TestFrameCarriesDecodeFingerprint: as a field of a codec-declared
// message, a Frame writes exactly the hypergraph's HBW frame (FP is not
// encoded) and decodes with the fingerprint BuildFromWire computed, so the
// receiver never fingerprints the hypergraph again; a Delta field writes
// its delta frame.
func TestFrameCarriesDecodeFingerprint(t *testing.T) {
	type msg struct {
		Epoch int64
		G     Frame
		D     Delta
	}
	h := binTestGraphs()["weighted"]
	d := Delta{Version: DeltaVersion, Base: h.Fingerprint(), WeightIDs: []int32{1}, WeightVals: []int64{3}}
	enc, err := wire.Varint.Append(nil, msg{Epoch: 7, G: Frame{H: h, FP: "not encoded"}, D: d})
	if err != nil {
		t.Fatal(err)
	}
	want := d.AppendBinary(h.AppendBinary([]byte{14}))
	if !bytes.Equal(enc, want) {
		t.Fatalf("message encodes to % x, want the epoch then the two HBW frames % x", enc, want)
	}
	var got msg
	if err := wire.Varint.Decode(enc, &got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 || got.G.FP != h.Fingerprint() || got.G.H.Fingerprint() != got.G.FP || got.D.Digest() != d.Digest() {
		t.Fatalf("decoded epoch %d, fingerprint %q (want %q), delta digest %s (want %s)",
			got.Epoch, got.G.FP, h.Fingerprint(), got.D.Digest(), d.Digest())
	}
	for i := range enc {
		if err := wire.Varint.Decode(enc[:i], new(msg)); err == nil {
			t.Fatalf("accepted the message truncated to %d of %d bytes", i, len(enc))
		}
	}
}

// FuzzBinaryCodec exercises both frame decoders on arbitrary input. The
// parsers must never panic, and any frame that decodes successfully must
// re-encode canonically: encode(decode(data)) decodes to the same
// fingerprint and re-encodes to identical bytes.
func FuzzBinaryCodec(f *testing.F) {
	for _, h := range binTestGraphs() {
		f.Add(h.AppendBinary(nil))
	}
	d := Delta{Version: DeltaVersion, Base: "hbfp1:seed", WeightIDs: []int32{1}, WeightVals: []int64{3}}
	f.Add(d.AppendBinary(nil))
	f.Add([]byte{BinaryFrameVersion, 0x80, 0x80, 0x80, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, fp, err := DecodeBinary(NewBinReader(data)); err == nil {
			enc := h.AppendBinary(nil)
			h2, fp2, err := DecodeBinary(NewBinReader(enc))
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if fp2 != fp {
				t.Fatalf("fingerprint drifted across round trip: %s != %s", fp2, fp)
			}
			if !bytes.Equal(h2.AppendBinary(nil), enc) {
				t.Fatal("encoding not canonical")
			}
		}
		if d, err := DecodeDeltaBinary(NewBinReader(data)); err == nil {
			enc := d.AppendBinary(nil)
			d2, err := DecodeDeltaBinary(NewBinReader(enc))
			if err != nil {
				t.Fatalf("delta re-decode failed: %v", err)
			}
			if d.Digest() != d2.Digest() {
				t.Fatal("delta digest drifted across round trip")
			}
		}
	})
}
