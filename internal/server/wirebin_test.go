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
		"createRequest":     {1, "b7f977e8da435430ef52f101d8791828fabf84ecce2c0d74fb5bf32de68552d1"},
		"epochRequest":      {2, "a1d686e663ea3282eef56b74290a98219d1a74a6aa8554f8ef0ba7cf488968dd"},
		"deltaRequest":      {3, "6c5d40bc5b31f392acea44e555d65c50198033569dce49e7563bc4baab946bef"},
		"SessionResponse":   {4, "68fbb1d24cfae1035046b485f2db1ccc78a2a92cf33d15f98efedd18d817b79d"},
		"PartitionResponse": {5, "dfb09d34af9ef5644051984392396c3dc52889b16fb01dfef5ad190ab930cd53"},
		"SessionInfo":       {6, "88963be76069be2bdde33d3677435646c1d493e7fea98218ed4244f03ea29ac8"},
		"handoffState":      {8, "11c13f8a02bfab83598aaa4f727bc400c0412e2a9de8d76045224df0acce5c16"},
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
