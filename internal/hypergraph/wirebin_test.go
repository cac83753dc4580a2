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
			got, fp, err := DecodeBinary(wire.NewReader(enc))
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

// TestBinaryUniformElision checks the wire-byte win the frame is built
// around: all-1 weight/size sections are sent empty.
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
	if len(w)-len(u) < 100 {
		t.Fatalf("uniform graph (%d B) should encode at least a byte per vertex smaller than weighted (%d B)", len(u), len(w))
	}
}

// TestBuildFromWire checks the validation path every decoded frame funnels
// through: Builder-equivalent pin dedup (first occurrence wins), all-Free
// fixed arrays normalized to nil, and empty weight/size defaulting.
func TestBuildFromWire(t *testing.T) {
	// Duplicate pins collapse exactly like Builder.AddNet.
	b := NewBuilder(4)
	b.AddNet(2, 1, 3, 1, 0, 3)
	want := b.Build()
	got, err := buildFromWire(frameWire{NumVertices: 4, NetStart: []int32{0, 5}, Pins: []int32{1, 3, 1, 0, 3}, Costs: []int64{2}})
	if err != nil {
		t.Fatal(err)
	}
	sameHypergraph(t, want, got)

	// An all-Free fixed array means "no fixed vertices".
	got, err = buildFromWire(frameWire{NumVertices: 3, NetStart: []int32{0, 2}, Pins: []int32{0, 1}, Costs: []int64{1}, Fixed: []int32{Free, Free, Free}})
	if err != nil {
		t.Fatal(err)
	}
	if got.HasFixed() {
		t.Fatal("all-Free fixed array should normalize to no fixed vertices")
	}
}

func TestBuildFromWireErrors(t *testing.T) {
	cases := []struct {
		name  string
		nv    int
		cost  []int64
		start []int32
		pins  []int32
		want  string
	}{
		{"negative-nv", -1, nil, []int32{0}, nil, "num_vertices is negative"},
		{"no-net-start", 2, nil, nil, nil, "net_start does not begin at 0"},
		{"net-start-offset", 2, []int64{1}, []int32{1, 2}, []int32{0, 1}, "net_start does not begin at 0"},
		{"empty-net", 2, []int64{1}, []int32{0, 0}, nil, "net 0 is empty"},
		{"pin-range", 2, []int64{1}, []int32{0, 1}, []int32{5}, "pin 5 out of range"},
		{"pin-deficit", 2, []int64{1}, []int32{0, 3}, []int32{0, 1}, "nets declare 3 pins, only 2 provided"},
		{"pin-surplus", 2, []int64{1}, []int32{0, 1}, []int32{0, 1}, "nets declare 1 pins, 2 provided"},
		{"negative-cost", 2, []int64{-1}, []int32{0, 1}, []int32{0}, "net 0 has negative cost"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildFromWire(frameWire{NumVertices: tc.nv, NetStart: tc.start, Pins: tc.pins, Costs: tc.cost})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestDecodeBinaryMalformed feeds the decoder adversarial frames: every
// truncation point of a valid frame, bytes after a frame that is a whole
// message, a vertex count no frame of that size can pay for, and a
// length prefix claiming far more elements than the frame carries (the
// alloc-bomb shape). All must error, never panic, and the bombs must be
// refused by the caps and the length-vs-remaining-bytes check, before
// anything of their size is allocated.
func TestDecodeBinaryMalformed(t *testing.T) {
	h := binTestGraphs()["weighted"]
	enc := h.AppendBinary(nil)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeBinary(wire.NewReader(enc[:i])); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", i, len(enc))
		}
	}
	prefixed := (&Frame{H: h}).AppendWire(nil)
	if err := wire.Varint.Decode(append(prefixed, 0), new(Frame)); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("a frame with a trailing byte: %v, want a trailing-bytes error", err)
	}

	refused := func(name string, frame []byte, want string) {
		t.Helper()
		_, _, err := DecodeBinary(wire.NewReader(frame))
		if !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s (% x): %v, want a malformed-frame error containing %q", name, frame, err, want)
		}
	}
	// nv claims 2^24 vertices in a 10-byte frame: refused on the
	// frame-budget check, before buildFromWire allocates per vertex.
	bomb, _ := wire.Varint.Append(nil, frameWire{NumVertices: MaxWireVertices})
	refused("vertex-count bomb", bomb, "frame budget")
	over, _ := wire.Varint.Append(nil, frameWire{NumVertices: MaxWireVertices + 1})
	refused("vertex count over the cap", over, "exceeds limit")

	// Pin-count prefix larger than the remaining bytes.
	pinBomb, _ := wire.Varint.Append(nil, struct {
		NumVertices int
		NetStart    []int32
	}{2, []int32{0, 2}})
	pinBomb = append(pinBomb, 0xFF, 0xFF, 0xFF, 0xFF, 0x07)
	refused("pin-count bomb", pinBomb, "length prefix")
}

// decodeDelta reads one delta frame from the start of b.
func decodeDelta(b []byte) (*Delta, error) {
	var d Delta
	if err := d.DecodeWire(wire.NewReader(b)); err != nil {
		return nil, err
	}
	return &d, nil
}

func TestDeltaBinaryRoundTrip(t *testing.T) {
	deltas := map[string]*Delta{
		"identity": {Version: DeltaVersion, Base: "hbfp2:abc"},
		"sparse": {
			Version: DeltaVersion, Base: "hbfp2:abc",
			WeightIDs: []int32{0, 3}, WeightVals: []int64{5, 9},
			CostIDs: []int32{1}, CostVals: []int64{7},
		},
		// Present but empty maps: a successor with no vertices and no
		// nets, not the identity.
		"empty-maps": {Version: DeltaVersion, Base: "hbfp2:abc", VertexMap: []int32{}, NetMap: []int32{}},
		"structural": {
			Version: DeltaVersion, Base: "hbfp2:def",
			VertexMap:  []int32{0, 2, -1},
			NewWeights: []int64{4}, NewSizes: []int64{2}, NewFixed: []int32{Free},
			NetMap:      []int32{0, -1},
			NewNetCosts: []int64{3}, NewNetPins: [][]int32{{0, 2}},
		},
	}
	for name, d := range deltas {
		t.Run(name, func(t *testing.T) {
			enc := d.AppendBinary(nil)
			got, err := decodeDelta(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(d, got) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d)
			}
			if d.Digest() != got.Digest() {
				t.Fatal("digest changed across round trip")
			}
			// Nil-ness is load-bearing (Apply, Digest()): it must
			// survive the wire exactly.
			if (d.VertexMap == nil) != (got.VertexMap == nil) || (d.NetMap == nil) != (got.NetMap == nil) {
				t.Fatalf("map nil-ness not preserved: vertex map %v -> %v, net map %v -> %v",
					d.VertexMap == nil, got.VertexMap == nil, d.NetMap == nil, got.NetMap == nil)
			}
			for i := 0; i < len(enc); i++ {
				if _, err := decodeDelta(enc[:i]); err == nil {
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
	got, err := decodeDelta(d.AppendBinary(nil))
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
	r := wire.NewReader(nil)
	if _, err := r.Byte(); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("Byte on empty reader: %v", err)
	}
	if _, err := wire.NewReader([]byte{0x80}).Uvarint(); err == nil {
		t.Fatal("dangling varint continuation accepted")
	}
}

// TestFrameCarriesDecodeFingerprint: as a field of a codec-declared
// message, a Frame writes the hypergraph's HBW frame behind its length
// (FP is not encoded) and decodes to those bytes and their hash, building
// nothing; Build then builds the hypergraph once. A Delta field writes its
// delta frame.
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
	frame := h.AppendBinary(nil)
	want := d.AppendBinary(append([]byte{14, byte(len(frame))}, frame...))
	if !bytes.Equal(enc, want) {
		t.Fatalf("message encodes to % x, want the epoch, the prefixed hypergraph frame and the delta frame % x", enc, want)
	}
	var got msg
	if err := wire.Varint.Decode(enc, &got); err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 || got.G.FP != h.Fingerprint() || got.G.H != nil || got.D.Digest() != d.Digest() {
		t.Fatalf("decoded epoch %d, fingerprint %q (want %q), built %v (want nothing built), delta digest %s (want %s)",
			got.Epoch, got.G.FP, h.Fingerprint(), got.G.H != nil, got.D.Digest(), d.Digest())
	}
	built, err := got.G.Build()
	if err != nil {
		t.Fatal(err)
	}
	sameHypergraph(t, h, built)
	if again, _ := got.G.Build(); again != built {
		t.Fatal("a second Build built the hypergraph again")
	}
	// The decoded bytes re-encode as they came.
	if re, _ := wire.Varint.Append(nil, got); !bytes.Equal(re, enc) {
		t.Fatalf("decoded message re-encodes to % x, want % x", re, enc)
	}
	for i := range enc {
		if err := wire.Varint.Decode(enc[:i], new(msg)); err == nil {
			t.Fatalf("accepted the message truncated to %d of %d bytes", i, len(enc))
		}
	}
}

// TestFrameBuildRefusesMalformed: a frame whose length prefix holds is
// decoded without a look at its content, so Build is where a malformed
// hypergraph is refused — invalid content, a frame cut short inside its
// prefix, or bytes after the frame — always as wire.ErrMalformed, and a
// refused Frame stays unbuilt.
func TestFrameBuildRefusesMalformed(t *testing.T) {
	valid := binTestGraphs()["weighted"].AppendBinary(nil)
	badPin, _ := wire.Varint.Append(nil, frameWire{NumVertices: 2, NetStart: []int32{0, 1}, Pins: []int32{5}, Costs: []int64{1}})
	for name, body := range map[string][]byte{
		"pin out of range": badPin,
		"cut short":        valid[:len(valid)-1],
		"trailing byte":    append(append([]byte(nil), valid...), 0),
		"empty":            {},
	} {
		var f Frame
		prefixed := append([]byte{byte(len(body))}, body...)
		if err := wire.Varint.Decode(prefixed, &f); err != nil {
			t.Fatalf("%s: the prefixed frame does not decode: %v", name, err)
		}
		if f.FP == "" {
			t.Fatalf("%s: decoded without a content id", name)
		}
		if h, err := f.Build(); !errors.Is(err, wire.ErrMalformed) || h != nil || f.H != nil {
			t.Fatalf("%s: Build = %v, %v; want a malformed-frame error and nothing built", name, h != nil, err)
		}
	}
	if _, err := new(Frame).Build(); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("the zero Frame built: %v", err)
	}
}

// FuzzBinaryCodec exercises both frame decoders on arbitrary input. The
// parsers must never panic, and any frame that decodes successfully must
// re-encode canonically: encode(decode(data)) decodes to a fingerprint
// that is the hypergraph's own, re-encodes to identical bytes, and equals
// the id of the input exactly when the input was the canonical frame.
func FuzzBinaryCodec(f *testing.F) {
	for _, h := range binTestGraphs() {
		f.Add(h.AppendBinary(nil))
	}
	d := Delta{Version: DeltaVersion, Base: "hbfp2:seed", WeightIDs: []int32{1}, WeightVals: []int64{3}}
	f.Add(d.AppendBinary(nil))
	bomb, _ := wire.Varint.Append(nil, frameWire{NumVertices: MaxWireVertices})
	f.Add(bomb)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		if h, fp, err := DecodeBinary(r); err == nil {
			enc := h.AppendBinary(nil)
			h2, fp2, err := DecodeBinary(wire.NewReader(enc))
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if fp2 != h.Fingerprint() || fp2 != h2.Fingerprint() {
				t.Fatalf("fingerprint drifted across round trip: %s, %s, %s", fp2, h.Fingerprint(), h2.Fingerprint())
			}
			if canonical := bytes.Equal(data[:len(data)-r.Rem()], enc); canonical != (fp == fp2) {
				t.Fatalf("canonical input %v, but decode id %s vs re-encoded id %s", canonical, fp, fp2)
			}
			if !bytes.Equal(h2.AppendBinary(nil), enc) {
				t.Fatal("encoding not canonical")
			}
		}
		if d, err := decodeDelta(data); err == nil {
			enc := d.AppendBinary(nil)
			d2, err := decodeDelta(enc)
			if err != nil {
				t.Fatalf("delta re-decode failed: %v", err)
			}
			if d.Digest() != d2.Digest() {
				t.Fatal("delta digest drifted across round trip")
			}
		}
	})
}
