package server

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/wire"
)

// messages returns a fresh zero message of every type, by header type.
func messages() map[byte]message {
	return map[byte]message{
		msgCreate:            new(createRequest),
		msgEpoch:             new(epochRequest),
		msgDelta:             new(deltaRequest),
		msgSessionResponse:   new(SessionResponse),
		msgPartitionResponse: new(PartitionResponse),
		msgSessionInfo:       new(SessionInfo),
		msgHandoff:           new(handoffState),
	}
}

// seedMessages returns one valid value of every message type.
func seedMessages() []message {
	b := hypergraph.NewBuilder(4)
	b.SetWeight(2, 3)
	b.AddNet(2, 0, 1, 2)
	b.AddNet(1, 1, 3)
	h := b.Build()
	d := &hypergraph.Delta{Version: hypergraph.DeltaVersion, Base: h.Fingerprint(), WeightIDs: []int32{1}, WeightVals: []int64{5}}
	cfg := WireConfig{K: 2, Alpha: 10, Imbalance: 0.05, Seed: -3, Method: "Zoltan-repart", Parallelism: 2}
	res := WireResult{Epoch: 3, K: 2, Parts: []int32{0, 1, 1, 0}, CommVolume: 4, MigrationVolume: 2, Moved: 1, RepartMs: 1.5, Cached: true, Warm: true}
	mig := &MigrationSummary{Moves: 1, TotalVolume: 2, MaxOutbound: 2, MaxInbound: 2, Volume: [][]int64{{0, 2}, {0, 0}}}
	return []message{
		createRequest{cfg, hypergraph.Frame{H: h}},
		epochRequest{hypergraph.Frame{H: h}, []int32{0, 1, 0, 1}, 4},
		deltaRequest{*d, nil, 5, true},
		SessionResponse{SessionID: "s-0123456789abcdef0123456789abcdef", Result: res},
		PartitionResponse{SessionID: "s-1", Epoch: 3, K: 2, Parts: res.Parts, Migration: mig},
		SessionInfo{SessionID: "s-1", Config: cfg, Epoch: 3, TotalCost: 40, Last: res},
		handoffState{ID: "s-1", Config: cfg, Epoch: 3, Total: 40, Last: res, Mig: mig, Base: hypergraph.Frame{H: h}},
	}
}

// TestMessageRoundTrip: every message type survives the codec field for
// field, and a decoded hypergraph arrives with the fingerprint computed
// while decoding.
func TestMessageRoundTrip(t *testing.T) {
	for _, m := range seedMessages() {
		got := messages()[m.wireType()]
		if err := decodeMsg(appendMsg(nil, m), got); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		want := reflect.ValueOf(m)
		gotv := reflect.ValueOf(got).Elem()
		for i := 0; i < want.NumField(); i++ {
			if f, ok := want.Field(i).Interface().(hypergraph.Frame); ok {
				g := gotv.Field(i).Interface().(hypergraph.Frame)
				if g.FP != f.H.Fingerprint() || g.H.Fingerprint() != g.FP {
					t.Errorf("%T: hypergraph arrived with fingerprint %q, want %q", m, g.FP, f.H.Fingerprint())
				}
				continue
			}
			if d, ok := want.Field(i).Interface().(hypergraph.Delta); ok {
				if g := gotv.Field(i).Interface().(hypergraph.Delta); g.Digest() != d.Digest() {
					t.Errorf("%T: delta changed in transit", m)
				}
				continue
			}
			if !reflect.DeepEqual(gotv.Field(i).Interface(), want.Field(i).Interface()) {
				t.Errorf("%T.%s: got %#v, want %#v", m, want.Type().Field(i).Name, gotv.Field(i).Interface(), want.Field(i).Interface())
			}
		}
	}
}

// TestMessageTypeBytes pins every message's header type byte. Replicas of
// different builds meet during a rolling restart, so a renumbered handoff
// type would strand the sessions of a draining replica. Type 7, the
// retired peer-cache answer, is refused like any unknown type.
func TestMessageTypeBytes(t *testing.T) {
	want := map[string]byte{
		"createRequest": 1, "epochRequest": 2, "deltaRequest": 3,
		"SessionResponse": 4, "PartitionResponse": 5, "SessionInfo": 6,
		"handoffState": 8,
	}
	seeds := seedMessages()
	if len(seeds) != len(want) {
		t.Fatalf("%d message types, %d pinned", len(seeds), len(want))
	}
	for _, m := range seeds {
		name := reflect.TypeOf(m).Name()
		if got := appendMsg(nil, m)[4]; got != want[name] {
			t.Errorf("%s: type byte %d, want %d", name, got, want[name])
		}
	}

	if _, ok := messages()[7]; ok {
		t.Fatal("type 7 is retired but still has a decoder")
	}
	frame := appendMsg(nil, seeds[len(seeds)-1])
	frame[4] = 7
	for typ, m := range messages() {
		if err := decodeMsg(frame, m); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("type 7 frame decoded as type %d: err = %v, want a malformed-frame error", typ, err)
		}
	}
}

// FuzzMessageDecode drives every message decoder (picked by the header's
// type byte) with hostile frames: any input yields a clean error, or a
// message whose encoding decodes and re-encodes to the same bytes.
func FuzzMessageDecode(f *testing.F) {
	for _, m := range seedMessages() {
		f.Add(appendMsg(nil, m))
	}
	// A partition response whose parts count claims 2^35 elements.
	f.Add([]byte{'H', 'B', 'W', wireVersion, msgPartitionResponse, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f})
	create := appendMsg(nil, seedMessages()[0])
	f.Add(create[:len(create)/2])
	// A handoff frame relabelled with the retired type 7.
	retired := appendMsg(nil, seedMessages()[len(seedMessages())-1])
	retired[4] = 7
	f.Add(retired)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		m, ok := messages()[data[4]]
		if !ok || decodeMsg(data, m) != nil {
			return
		}
		enc := appendMsg(nil, reflect.ValueOf(m).Elem().Interface().(message))
		again := messages()[data[4]]
		if err := decodeMsg(enc, again); err != nil {
			t.Fatalf("%T re-decode: %v", m, err)
		}
		if enc2 := appendMsg(nil, reflect.ValueOf(again).Elem().Interface().(message)); !bytes.Equal(enc, enc2) {
			t.Fatalf("%T did not survive a second round trip", m)
		}
	})
}
