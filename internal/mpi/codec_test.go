package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperbal/internal/wire"
)

type wireBid struct {
	Cand, Match int32
	Score       float64
}

type wireMixed struct {
	B   bool
	I8  int8
	U16 uint16 // padding before and after: cells are addressed, not memcpy'd
	F32 float32
	u   uint   // unexported fields travel too
	In  MinLoc // a nested flat struct is still flat
}

// roundTrip encodes v, checks the announced size, and decodes into a fresh T.
func roundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	p, err := newPayload(v)
	if err != nil {
		t.Fatalf("newPayload(%#v): %v", v, err)
	}
	enc := p.AppendTo(nil)
	if len(enc) != p.Size() {
		t.Fatalf("%#v: Size() = %d, encoded %d bytes", v, p.Size(), len(enc))
	}
	var out T
	if err := decodePayload(enc, &out); err != nil {
		t.Fatalf("decode %#v: %v", v, err)
	}
	return out
}

func checkRoundTrip[T any](t *testing.T, v, want T) {
	t.Helper()
	if got := roundTrip(t, v); !reflect.DeepEqual(got, want) {
		t.Errorf("%T %#v round-tripped to %#v, want %#v", v, v, got, want)
	}
}

// same is the common case: the value comes back exactly.
func same[T any](t *testing.T, v T) { t.Helper(); checkRoundTrip(t, v, v) }

// TestPayloadCodecRoundTrip covers the whole closed payload set.
func TestPayloadCodecRoundTrip(t *testing.T) {
	same(t, true)
	same(t, false)
	same(t, int(-7))
	same(t, int(math.MinInt64))
	same(t, int8(-128))
	same(t, int16(-300))
	same(t, int32(math.MinInt32))
	same(t, int64(1<<40))
	same(t, uint(math.MaxUint64))
	same(t, uint8(255))
	same(t, uint16(65535))
	same(t, uint32(math.MaxUint32))
	same(t, uint64(1<<63))
	same(t, float32(-1.5))
	same(t, float64(0.1))
	same(t, math.Inf(-1))
	same(t, "")
	same(t, "hello, wörld")
	same(t, strings.Repeat("x", 300)) // two-byte count

	same(t, []bool{true, false, true})
	same(t, []int{5, -6})
	same(t, []int8{-1, 2})
	same(t, []int16{-1, 2})
	same(t, []int32{1, -2, 3})
	same(t, []int64{9, -9})
	same(t, []uint{1, 2})
	same(t, []byte{1, 2, 3})
	same(t, []uint16{1, 2})
	same(t, []uint32{1, 2})
	same(t, []uint64{1, 2})
	same(t, []float32{0.5})
	same(t, []float64{0.25, -1})
	same(t, []string{"a", "", "ccc"})
	same(t, make([]int32, 200)) // two-byte count

	same(t, [][]int{{1}, {2, 3}})
	same(t, [][]int64{{-1}})
	same(t, [][]float64{{0.5}, {1, 2}})
	same(t, [][][]int32{{{1}, {2}}, {{3}}})

	same(t, MinLoc{Key: -3, Rank: 2})
	same(t, []MinLoc{{Key: 1, Rank: 0}, {Key: 2, Rank: 1}})
	same(t, splitEntry{Color: -1, Key: 4, Rank: 2})
	same(t, []splitEntry{{0, 1, 2}, {1, 0, 3}})
	same(t, wireBid{Cand: 7, Match: -1, Score: 2.5})
	same(t, []wireBid{{Cand: 1}, {Score: -0.5}})
	same(t, [][]wireBid{{{Cand: 1}}, {{Match: 2}, {Score: 3}}})
	same(t, wireMixed{B: true, I8: -3, U16: 9, F32: 1.25, u: 77, In: MinLoc{Key: 5, Rank: 1}})

	// nil and empty slices are one value on the wire, at any depth: both
	// arrive as nil. (payloadBytes accounts both as zero bytes, and no
	// collective tells them apart.)
	checkRoundTrip(t, []int32{}, nil)
	checkRoundTrip(t, []int32(nil), nil)
	checkRoundTrip(t, []wireBid{}, nil)
	checkRoundTrip(t, [][]int32{{1}, {}, nil}, [][]int32{{1}, nil, nil})
	checkRoundTrip(t, []string{}, nil)
}

// TestPayloadWireLayout pins the byte layout: fixed-width little-endian
// scalars, uvarint counts, struct fields packed in order.
func TestPayloadWireLayout(t *testing.T) {
	cases := []struct {
		v    any
		want []byte
	}{
		{nil, nil},
		{true, []byte{1}},
		{int32(-2), []byte{0xfe, 0xff, 0xff, 0xff}},
		{int(1), []byte{1, 0, 0, 0, 0, 0, 0, 0}},
		{uint16(0x0102), []byte{2, 1}},
		{"hi", []byte{2, 'h', 'i'}},
		{[]int32{1, 2}, []byte{2, 1, 0, 0, 0, 2, 0, 0, 0}},
		{[]int32(nil), []byte{0}},
		{[][]int8{{1}, nil}, []byte{2, 1, 1, 0}},
		{wireBid{Cand: 1, Match: 2, Score: 1}, []byte{1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}},
	}
	for _, tc := range cases {
		p, err := newPayload(tc.v)
		if err != nil {
			t.Fatalf("%#v: %v", tc.v, err)
		}
		if got := p.AppendTo(nil); !bytes.Equal(got, tc.want) || p.Size() != len(tc.want) {
			t.Errorf("%#v encodes to %v (Size %d), want %v", tc.v, got, p.Size(), tc.want)
		}
	}
	// The wire size of a flat payload is its accounted size plus the count.
	bids := make([]wireBid, 256)
	p, _ := newPayload(bids)
	if want := int(payloadBytes(bids)) + 2; p.Size() != want {
		t.Errorf("256 bids: wire size %d, want accounted size + 2-byte count = %d", p.Size(), want)
	}
}

// TestPayloadDecodeHostile: malformed bodies fail cleanly — and before
// allocating what a lying count asks for.
func TestPayloadDecodeHostile(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // count 2^63-1
	cases := []struct {
		name string
		body []byte
		into any
	}{
		{"empty scalar", nil, new(int32)},
		{"truncated scalar", []byte{1, 2, 3}, new(int32)},
		{"trailing scalar", []byte{1, 0, 0, 0, 9}, new(int32)},
		{"bool out of range", []byte{2}, new(bool)},
		{"empty slice body", nil, new([]int32)},
		{"truncated slice", []byte{2, 1, 0, 0, 0, 2, 0, 0}, new([]int32)},
		{"count past bytes present", []byte{3, 1, 0, 0, 0, 2, 0, 0, 0}, new([]int32)},
		{"oversized count", huge, new([]int32)},
		{"oversized struct count", huge, new([]wireBid)},
		{"oversized nested count", append([]byte{1}, huge...), new([][]int64)},
		{"count overflows uvarint", bytes.Repeat([]byte{0xff}, 11), new([]int64)},
		{"trailing slice", []byte{1, 1, 0, 0, 0, 0}, new([]int32)},
		{"truncated string", []byte{5, 'a', 'b'}, new(string)},
		{"oversized string", huge, new(string)},
		{"trailing string", []byte{1, 'a', 'b'}, new(string)},
		{"truncated struct", []byte{1, 0, 0, 0, 2, 0, 0, 0}, new(wireBid)},
		{"trailing struct", make([]byte, 17), new(wireBid)},
		{"truncated inner slice", []byte{2, 1, 7, 1}, new([][]int8)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := decodePayload(tc.body, tc.into)
			if err == nil {
				t.Fatalf("accepted % x as %T: %#v", tc.body, tc.into, reflect.ValueOf(tc.into).Elem())
			}
			if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("err = %v, want a truncated/malformed frame error", err)
			}
		})
	}
}

// TestPayloadClosedSet: types outside the set are refused when the plan is
// built, on both sides, with an error rather than a panic.
func TestPayloadClosedSet(t *testing.T) {
	type hidden struct {
		n  int32
		Xs []int32 // a struct that is not flat must export every field
	}
	for _, v := range []any{
		map[int]int{}, make(chan int), func() {}, [2]int32{}, complex64(1), any(nil),
		hidden{}, struct{}{}, []hidden{}, [][]hidden{},
	} {
		var typ reflect.Type
		if v == nil {
			typ = reflect.TypeOf((*any)(nil)).Elem()
		} else {
			typ = reflect.TypeOf(v)
			if _, err := newPayload(v); err == nil {
				t.Errorf("newPayload accepted %v", typ)
			}
		}
		if err := decodePayload([]byte{0}, reflect.New(typ).Interface()); err == nil {
			t.Errorf("decodePayload accepted %v", typ)
		}
	}
}

// FuzzPayloadDecode drives the decoder with hostile bodies at one type of
// every shape in the closed set: any input yields a clean error or a value
// that re-encodes to exactly the announced size and decodes back to
// itself.
func FuzzPayloadDecode(f *testing.F) {
	shapes := []func() any{
		func() any { return new(bool) },
		func() any { return new(int16) },
		func() any { return new(float64) },
		func() any { return new(string) },
		func() any { return new([]int32) },
		func() any { return new([]wireBid) },
		func() any { return new([][]int64) },
		func() any { return new([]string) },
		func() any { return new(wireMixed) },
	}
	for shape, v := range []any{
		true, int16(-2), 0.5, "seed", []int32{1, -2, 3}, []wireBid{{Cand: 1, Match: 2, Score: 3.5}},
		[][]int64{{1}, nil, {2, 3}}, []string{"a", ""}, wireMixed{B: true, F32: 1},
	} {
		p, err := newPayload(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(shape), p.AppendTo(nil))
	}
	f.Add(uint8(4), []byte{0xff, 0xff, 0xff, 0xff, 0x7f})    // count bomb
	f.Add(uint8(6), []byte{3, 0xff, 0xff, 0xff, 0xff, 0x7f}) // nested count bomb
	f.Add(uint8(4), []byte{1, 1, 0, 0, 0, 0})                // trailing byte
	f.Add(uint8(5), []byte{1, 1, 0, 0, 0})                   // truncated struct

	f.Fuzz(func(t *testing.T, shape uint8, body []byte) {
		into := shapes[int(shape)%len(shapes)]()
		if err := decodePayload(body, into); err != nil {
			return
		}
		v := reflect.ValueOf(into).Elem().Interface()
		p, err := newPayload(v)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", v, err)
		}
		enc := p.AppendTo(nil)
		if len(enc) != p.Size() || len(enc) > len(body) {
			t.Fatalf("%#v: Size %d, re-encoded %d bytes, decoded from %d", v, p.Size(), len(enc), len(body))
		}
		again := reflect.New(reflect.TypeOf(v))
		if err := decodePayload(enc, again.Interface()); err != nil {
			t.Fatalf("re-decode %#v: %v", v, err)
		}
		// Compare encodings, not values: NaN payloads differ from themselves.
		p2, _ := newPayload(again.Elem().Interface())
		if !bytes.Equal(p2.AppendTo(nil), enc) {
			t.Fatalf("%#v did not survive a second round trip", v)
		}
	})
}

// memTransport is an in-memory Transport shared by every rank of a world:
// one unbounded-enough channel per (comm, src, dst) stream, bodies encoded
// exactly as a network transport would carry them.
type memTransport struct {
	rank int
	net  *memNet
}

type memNet struct {
	mu      sync.Mutex
	streams map[[3]uint64]chan memMsg
}

type memMsg struct {
	tag  int
	body []byte
}

func (n *memNet) stream(comm uint64, src, dst int) chan memMsg {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := [3]uint64{comm, uint64(src), uint64(dst)}
	if n.streams[k] == nil {
		n.streams[k] = make(chan memMsg, DefaultChanCap)
	}
	return n.streams[k]
}

func (t memTransport) Send(comm uint64, dst, tag int, p wire.Sized) (time.Duration, error) {
	t.net.stream(comm, t.rank, dst) <- memMsg{tag, p.AppendTo(make([]byte, 0, p.Size()))}
	return 0, nil
}

func (t memTransport) Recv(comm uint64, src, tag int) ([]byte, time.Duration, error) {
	select {
	case m := <-t.net.stream(comm, src, t.rank):
		if m.tag != tag {
			return nil, 0, fmt.Errorf("expected tag %d from %d, got %d", tag, src, m.tag)
		}
		return m.body, 0, nil
	case <-time.After(30 * time.Second):
		return nil, 0, fmt.Errorf("recv from %d tag %d timed out", src, tag)
	}
}

// runOverTransport runs fn as an np-rank world whose ranks talk through a
// memTransport, returning each rank's error.
func runOverTransport(np int, opt Options, fn func(c *Comm) error) []error {
	net := &memNet{streams: map[[3]uint64]chan memMsg{}}
	errs := make([]error, np)
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = RunTransportRank(memTransport{r, net}, r, np, opt, fn)
		}(r)
	}
	wg.Wait()
	return errs
}

// TestCollectivesOverTransport: every collective's typed receive decodes
// what the matching send encoded — the same results the in-process
// substrate gives, Split included — with struct payloads from outside the
// substrate's own types.
func TestCollectivesOverTransport(t *testing.T) {
	const np = 3
	body := func(c *Comm) error {
		r := c.Rank()
		if got := Bcast(c, 1, wireBid{Cand: int32(r), Score: 0.5}); got != (wireBid{Cand: 1, Score: 0.5}) {
			return fmt.Errorf("Bcast = %+v", got)
		}
		src := []int32{7, 8, 9}
		got := BcastSlice(c, 0, src)
		if !reflect.DeepEqual(got, src) {
			return fmt.Errorf("BcastSlice = %v", got)
		}
		if r != 0 {
			got[0] = -1 // receivers own their copy
		}
		if all := Allgather(c, []wireBid{{Cand: int32(r)}}); len(all) != np || all[2][0].Cand != 2 {
			return fmt.Errorf("Allgather = %v", all)
		}
		concat, counts := AllgatherSlice(c, make([]int64, r))
		if len(concat) != 3 || !reflect.DeepEqual(counts, []int{0, 1, 2}) {
			return fmt.Errorf("AllgatherSlice = %v %v", concat, counts)
		}
		if got := Allreduce(c, int64(r), SumInt64); got != 3 {
			return fmt.Errorf("Allreduce = %d", got)
		}
		if got := AllreduceSlice(c, []float64{float64(r), 1}, func(a, b float64) float64 { return a + b }); !reflect.DeepEqual(got, []float64{3, 3}) {
			return fmt.Errorf("AllreduceSlice = %v", got)
		}
		send := make([]string, np)
		for q := range send {
			send[q] = fmt.Sprint(r, ">", q)
		}
		if got := Alltoall(c, send); got[(r+1)%np] != fmt.Sprint((r+1)%np, ">", r) {
			return fmt.Errorf("Alltoall = %v", got)
		}
		if got := AllreduceMinLoc(c, int64(10-r)); got != (MinLoc{Key: 8, Rank: 2}) {
			return fmt.Errorf("AllreduceMinLoc = %+v", got)
		}
		// A nil payload crosses as the empty body an untyped Recv accepts.
		if r == 0 {
			c.Send(1, 9, nil)
		} else if r == 1 {
			c.Recv(0, 9)
		}
		sub := c.Split(r%2, -r)
		if want := []int{2, 1}[r%2]; sub.Size() != want {
			return fmt.Errorf("Split size = %d, want %d", sub.Size(), want)
		}
		if got := Allreduce(sub, int64(r), SumInt64); got != []int64{2, 1}[r%2] {
			return fmt.Errorf("split Allreduce = %d", got)
		}
		return nil
	}
	// Tally send/recv payload bytes per substrate (minus the channel
	// matrix an in-process Split hands around, which a transport never sends).
	tally := func(sent, recvd *int64) Options {
		var mu sync.Mutex
		return Options{OnEvent: func(e Event) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case e.Tag == tagSplit:
			case e.Op == "send":
				*sent += e.Bytes
			case e.Op == "recv":
				*recvd += e.Bytes
			}
		}}
	}
	var wantSent, wantRecvd, sent, recvd int64
	if _, err := RunWith(np, tally(&wantSent, &wantRecvd), body); err != nil {
		t.Fatalf("in-process reference: %v", err)
	}
	for r, err := range runOverTransport(np, tally(&sent, &recvd), body) {
		if err != nil {
			t.Errorf("rank %d over a transport: %v", r, err)
		}
	}
	// Accounting is substrate-independent, on both ends of every message.
	if sent != wantSent || recvd != wantRecvd || sent != recvd {
		t.Errorf("over a transport: %d bytes sent, %d received; in-process: %d sent, %d received", sent, recvd, wantSent, wantRecvd)
	}
}

// TestTransportRejectsWhatItCannotCarry: an unsupported payload type, an
// untyped Recv of a non-empty body and a body of the wrong shape all fail
// the rank with an error instead of panicking the process.
func TestTransportRejectsWhatItCannotCarry(t *testing.T) {
	cases := []struct {
		name string
		fn   func(c *Comm) error
		want string
	}{
		{"unsupported type", func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 5, map[int]int{1: 2})
			}
			return nil
		}, "cannot cross a Transport"},
		{"untyped recv", func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 5, []int32{1})
			} else {
				c.Recv(0, 5)
			}
			return nil
		}, "untyped Recv"},
		{"type mismatch", func(c *Comm) error {
			// Ranks disagreeing on T is an SPMD bug; it must surface as a
			// decode error, not as a mis-typed value.
			if c.Rank() == 0 {
				Bcast(c, 0, []int32{1, 2, 3})
			} else {
				Bcast(c, 0, "")
			}
			return nil
		}, "decode string payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := runOverTransport(2, Options{}, tc.fn)
			var found bool
			for _, err := range errs {
				if err != nil && strings.Contains(err.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("errors %v, want one containing %q", errs, tc.want)
			}
		})
	}
}
