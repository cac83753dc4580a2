package server

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
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
	acct := core.Account{Epoch: 3, Total: 40, Last: core.Result{
		Partition: partition.Partition{Parts: res.Parts, K: 2}, CommVolume: 4, MigrationVolume: 2, Moved: 1,
		RepartTime: 1001 * time.Microsecond, Warm: true,
	}}
	return []message{
		createRequest{cfg, hypergraph.Frame{H: h}},
		epochRequest{hypergraph.Frame{H: h}, []int32{0, 1, 0, 1}, 4},
		deltaRequest{*d, nil, 5, true},
		SessionResponse{SessionID: "s-0123456789abcdef0123456789abcdef", Result: res},
		PartitionResponse{SessionID: "s-1", Epoch: 3, K: 2, Parts: res.Parts, Migration: mig},
		SessionInfo{SessionID: "s-1", Config: cfg, Epoch: 3, TotalCost: 40, Last: res},
		handoffState{ID: "s-1", Config: cfg, Account: acct, Mig: mig, Base: hypergraph.Frame{H: h}},
	}
}

// TestMessageRoundTrip: every message type survives the codec field for
// field, and a decoded hypergraph arrives as its bytes' id, unbuilt, and
// builds to a hypergraph of that fingerprint.
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
				if g.FP != f.H.Fingerprint() || g.H != nil {
					t.Errorf("%T: hypergraph arrived with id %q (built %v), want %q and nothing built", m, g.FP, g.H != nil, f.H.Fingerprint())
				}
				if gh, err := g.Build(); err != nil || gh.Fingerprint() != g.FP {
					t.Errorf("%T: the arrived hypergraph does not build to its id (%v)", m, err)
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

// TestMessageTypeBytes pins every message's header type byte and the
// SHA-256 of its whole seed frame. Replicas of different builds meet
// during a rolling restart, so a renumbered handoff type would strand the
// sessions of a draining replica, and a layout change under an unchanged
// version (a field added to core.Result reaches the handoff frame) would
// be mis-decoded instead of refused. Type 7, the retired peer-cache
// answer, is refused like any unknown type.
func TestMessageTypeBytes(t *testing.T) {
	want := map[string]struct {
		typ    byte
		sha256 string
	}{
		"createRequest":     {1, "cc90713ba0b480b5dca11a5d12b060b6917b7a24d43e2a745785a4f8168cc9e0"},
		"epochRequest":      {2, "1304aa31e745c0240c21a67d959517e935079c2948080c496c87579881872bf7"},
		"deltaRequest":      {3, "c574346fc0d2d9b590d5f992330be66492db90ec82e2aa11931a8b2c8c25f389"},
		"SessionResponse":   {4, "a25e313dda05f3529ef8d07b99261b57c0dad149afa978e4a545a5bb15bd34eb"},
		"PartitionResponse": {5, "f898efc36b426c614076161a873e33670f803f1c4a1f1c03659fce30abf6d1a0"},
		"SessionInfo":       {6, "a5a1a70e1c404538cb5ef27bdebe3c5eab255db9cf6a0a71b297ad195bb84afc"},
		"handoffState":      {8, "b3e8d41d5596dbec45b9453269c9c41a7e2c6f287e5ec374f514448fad14eaf9"},
	}
	seeds := seedMessages()
	if len(seeds) != len(want) {
		t.Fatalf("%d message types, %d pinned", len(seeds), len(want))
	}
	for _, m := range seeds {
		name := reflect.TypeOf(m).Name()
		frame := appendMsg(nil, m)
		if got := frame[4]; got != want[name].typ {
			t.Errorf("%s: type byte %d, want %d", name, got, want[name].typ)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(frame)); got != want[name].sha256 {
			t.Errorf("%s: frame SHA-256 %s, want %s (wire version %d); a layout change bumps wireVersion, then re-pin every digest",
				name, got, want[name].sha256, wireVersion)
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
