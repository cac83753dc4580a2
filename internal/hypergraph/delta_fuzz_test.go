package hypergraph

import (
	"math/rand"
	"testing"
)

// FuzzDeltaApply drives the delta pipeline two ways from one input:
//
//  1. Trusted path: derive a random base and a chain of random successor
//     hypergraphs from (seed, steps), compute the delta for each hop with
//     ComputeDeltaMapped, apply it, and assert the applied result is
//     fingerprint-identical to the from-scratch rebuild with all CSR
//     invariants intact (Validate). Each delta crosses its binary frame
//     (AppendBinary / DecodeWire), the form PATCH epochs carry.
//  2. Hostile path: decode `raw` as a binary delta frame and apply it
//     against the chain's final hypergraph — it must either fail cleanly
//     or yield a hypergraph that passes Validate; it must never panic or
//     produce a structurally broken CSR.
func FuzzDeltaApply(f *testing.F) {
	frame := func(d Delta) []byte { return d.AppendBinary(nil) }
	f.Add(int64(1), uint8(1), frame(Delta{}))
	f.Add(int64(7), uint8(4), frame(Delta{Version: 1, Base: "x"}))
	f.Add(int64(42), uint8(8), frame(Delta{Version: 1, WeightIDs: []int32{0}, WeightVals: []int64{5}}))
	f.Add(int64(3), uint8(2), frame(Delta{Version: 1, VertexMap: []int32{1, 0, -1}, NetMap: []int32{-1},
		NewNetPins: [][]int32{{0, 2}}, NewNetCosts: []int64{2}}))
	// A new vertex with a present but empty weight section.
	f.Add(int64(5), uint8(1), frame(Delta{Version: 1, VertexMap: []int32{0, 1, 2, 3, -1}, NewWeights: []int64{}}))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		nv := 4 + rng.Intn(30)
		nn := 2 + rng.Intn(40)
		cur := randomHypergraph(rng, nv, nn)
		if err := cur.Validate(); err != nil {
			t.Fatalf("random base invalid: %v", err)
		}
		for i := 0; i < int(steps%8); i++ {
			next := mutateHypergraph(rng, cur)
			d, ok := ComputeDeltaMapped(cur, next, lastVmap)
			if !ok {
				t.Fatalf("step %d: ComputeDeltaMapped refused its own mutation", i)
			}
			// The delta must survive its wire form.
			dw, err := decodeDelta(d.AppendBinary(nil))
			if err != nil {
				t.Fatalf("step %d: decode: %v", i, err)
			}
			got, err := dw.Apply(cur)
			if err != nil {
				t.Fatalf("step %d: apply: %v", i, err)
			}
			if got.Fingerprint() != next.Fingerprint() {
				t.Fatalf("step %d: applied fingerprint != rebuilt fingerprint", i)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("step %d: applied hypergraph invalid: %v", i, err)
			}
			cur = got
		}

		// Hostile delta: an arbitrary frame against the current base.
		hostile, err := decodeDelta(raw)
		if err != nil {
			return
		}
		hostile.Base = cur.Fingerprint() // get past the fingerprint gate
		got, err := hostile.Apply(cur)
		if err != nil {
			return // clean rejection is fine
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("hostile delta produced invalid hypergraph: %v\ndelta: %+v", err, hostile)
		}
	})
}
