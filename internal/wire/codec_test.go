package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

type wireBid struct {
	Cand, Match int32
	Score       float64
}

type minLoc struct {
	Key  int64
	Rank int
}

type wireMixed struct {
	B   bool
	I8  int8
	U16 uint16 // padding before and after: cells are addressed, not memcpy'd
	F32 float32
	u   uint   // unexported fields travel too
	In  minLoc // a nested flat struct is still flat
}

// tagged lays itself out: a marker byte, then its value little-endian.
type tagged struct{ v uint16 }

func (t *tagged) AppendWire(b []byte) []byte {
	return binary.LittleEndian.AppendUint16(append(b, 0xAB), t.v)
}

func (t *tagged) DecodeWire(r *Reader) error {
	raw, err := r.Bytes(3)
	if err != nil {
		return err
	}
	if raw[0] != 0xAB {
		return ErrMalformed
	}
	t.v = binary.LittleEndian.Uint16(raw[1:])
	return nil
}

// message is a struct that is not flat: strings, slices, a pointer, a
// nested struct and a Framer, the shapes balancerd's messages are made of.
type message struct {
	ID    string
	Bid   wireBid
	Parts []int32
	Opt   *minLoc
	Rows  [][]int64
	Tag   tagged
	Flag  bool
}

var layouts = []Ints{Fixed, Varint}

// roundTrip encodes v, checks the Fixed size Prepare announces, and
// decodes into a fresh T.
func roundTrip[T any](t *testing.T, ints Ints, v T) T {
	t.Helper()
	enc, err := ints.Append(nil, v)
	if err != nil {
		t.Fatalf("Append(%#v): %v", v, err)
	}
	if in, err := ints.AppendPointee(nil, &v); err != nil || !bytes.Equal(in, enc) {
		t.Fatalf("AppendPointee(&%#v) = %v, %v; Append gave %v", v, in, err, enc)
	}
	if ints == Fixed {
		p, err := Prepare(v)
		if err != nil || len(enc) != p.Size() || !bytes.Equal(p.AppendTo(nil), enc) {
			t.Fatalf("%#v: Prepare gives Size %d, %v; Append gave %d bytes", v, p.Size(), err, len(enc))
		}
	}
	var out T
	if err := ints.Decode(enc, &out); err != nil {
		t.Fatalf("decode %#v: %v", v, err)
	}
	return out
}

func checkRoundTrip[T any](t *testing.T, v, want T) {
	t.Helper()
	for _, ints := range layouts {
		if got := roundTrip(t, ints, v); !reflect.DeepEqual(got, want) {
			t.Errorf("layout %d: %T %#v round-tripped to %#v, want %#v", ints, v, v, got, want)
		}
	}
}

// same is the common case: the value comes back exactly.
func same[T any](t *testing.T, v T) { t.Helper(); checkRoundTrip(t, v, v) }

// TestPayloadCodecRoundTrip covers the whole closed type set in both
// integer layouts.
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

	same(t, minLoc{Key: -3, Rank: 2})
	same(t, []minLoc{{Key: 1, Rank: 0}, {Key: 2, Rank: 1}})
	same(t, wireBid{Cand: 7, Match: -1, Score: 2.5})
	same(t, []wireBid{{Cand: 1}, {Score: -0.5}})
	same(t, [][]wireBid{{{Cand: 1}}, {{Match: 2}, {Score: 3}}})
	same(t, wireMixed{B: true, I8: -3, U16: 9, F32: 1.25, u: 77, In: minLoc{Key: 5, Rank: 1}})

	// Structs that are not flat, pointers and Framers.
	full := message{ID: "s-1", Bid: wireBid{Cand: 3, Score: 0.5}, Parts: []int32{0, 1, -1},
		Opt: &minLoc{Key: -9, Rank: 4}, Rows: [][]int64{{1}, {2, 3}}, Tag: tagged{v: 0x1234}, Flag: true}
	same(t, full)
	same(t, message{ID: "no pointer"})
	same(t, []message{full, {Tag: tagged{v: 7}}})
	same(t, &full)
	same(t, (*int32)(nil))
	same(t, tagged{v: 65535})

	// nil and empty slices are one value on the wire, at any depth: both
	// arrive as nil.
	checkRoundTrip(t, []int32{}, nil)
	checkRoundTrip(t, []int32(nil), nil)
	checkRoundTrip(t, []wireBid{}, nil)
	checkRoundTrip(t, [][]int32{{1}, {}, nil}, [][]int32{{1}, nil, nil})
	checkRoundTrip(t, []string{}, nil)
	checkRoundTrip(t, message{Parts: []int32{}}, message{})
}

// TestPayloadWireLayout pins both byte layouts: the Fixed one
// internal/mpi's frames and traffic accounting rely on, and the Varint
// one balancerd, the mpinet control bodies and the jobs payloads use.
func TestPayloadWireLayout(t *testing.T) {
	fixed := []struct {
		v    any
		want []byte
	}{
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
	for _, tc := range fixed {
		p, err := Prepare(tc.v)
		if err != nil {
			t.Fatalf("%#v: %v", tc.v, err)
		}
		if got := p.AppendTo(nil); !bytes.Equal(got, tc.want) || p.Size() != len(tc.want) {
			t.Errorf("Fixed: %#v encodes to %v (Size %d), want %v", tc.v, got, p.Size(), tc.want)
		}
	}
	if p, _ := Prepare(nil); p.Size() != 0 || len(p.AppendTo(nil)) != 0 {
		t.Error("Fixed: the nil body is not empty")
	}

	varint := []struct {
		v    any
		want []byte
	}{
		{true, []byte{1}},
		{int8(-2), []byte{0xfe}},
		{int32(-2), []byte{3}},                 // zigzag
		{int(1), []byte{2}},                    // zigzag
		{uint16(0x0102), []byte{0x82, 0x02}},   // uvarint
		{uint64(1 << 7), []byte{0x80, 0x01}},   // uvarint
		{float32(1), []byte{0, 0, 0x80, 0x3f}}, // floats stay fixed
		{float64(1), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}},
		{"hi", []byte{2, 'h', 'i'}},
		{[]int32{1, -1, 64}, []byte{3, 2, 1, 0x80, 0x01}},
		{[]int32(nil), []byte{0}},
		{wireBid{Cand: 1, Match: -2, Score: 1}, []byte{2, 3, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}},
		{(*int32)(nil), []byte{0}},                   // absent
		{&minLoc{Key: -1, Rank: 2}, []byte{1, 1, 4}}, // present, then the struct
		{tagged{v: 0x0102}, []byte{0xAB, 2, 1}},      // a Framer writes itself
		{message{ID: "a", Parts: []int32{5}, Tag: tagged{v: 1}, Flag: true},
			[]byte{1, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 10, 0, 0, 0xAB, 1, 0, 1}},
	}
	for _, tc := range varint {
		got, err := Varint.Append(nil, tc.v)
		if err != nil || !bytes.Equal(got, tc.want) {
			t.Errorf("Varint: %#v encodes to %v (%v), want %v", tc.v, got, err, tc.want)
		}
	}
}

// TestPayloadDecodeHostile: malformed bodies fail cleanly in either layout
// — and before allocating what a lying count asks for.
func TestPayloadDecodeHostile(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // count 2^63-1
	cases := []struct {
		name string
		ints Ints
		body []byte
		into any
	}{
		{"fixed truncated scalar", Fixed, []byte{1, 2, 3}, new(int32)},
		{"fixed trailing scalar", Fixed, []byte{1, 0, 0, 0, 9}, new(int32)},
		{"fixed count past bytes present", Fixed, []byte{3, 1, 0, 0, 0, 2, 0, 0, 0}, new([]int32)},
		{"fixed truncated struct", Fixed, []byte{1, 0, 0, 0, 2, 0, 0, 0}, new(wireBid)},
		{"varint empty scalar", Varint, nil, new(int32)},
		{"varint trailing scalar", Varint, []byte{2, 0}, new(int32)},
		{"varint dangling continuation", Varint, []byte{0x80}, new(int64)},
		{"varint overflows uvarint", Varint, bytes.Repeat([]byte{0xff}, 11), new(uint64)},
		{"varint overflows int16", Varint, binary.AppendVarint(nil, 1<<15), new(int16)},
		{"varint overflows uint32", Varint, binary.AppendUvarint(nil, 1<<32), new(uint32)},
		{"varint bool out of range", Varint, []byte{2}, new(bool)},
		{"varint oversized count", Varint, huge, new([]int32)},
		{"varint count past bytes present", Varint, []byte{3, 2, 4}, new([]int32)},
		{"varint float count past bytes", Varint, []byte{2, 0, 0, 0, 0, 0, 0, 0, 0}, new([]float64)},
		{"varint oversized struct count", Varint, huge, new([]message)},
		{"varint truncated string", Varint, []byte{5, 'a', 'b'}, new(string)},
		{"varint truncated struct", Varint, []byte{2, 3, 0, 0}, new(wireBid)},
		{"presence byte out of range", Varint, []byte{2, 1, 4}, new(*minLoc)},
		{"truncated pointee", Varint, []byte{1, 1}, new(*minLoc)},
		{"framer refuses", Varint, []byte{0xAC, 1, 0}, new(tagged)},
		{"truncated framer", Varint, []byte{0xAB, 1}, new(tagged)},
		{"trailing after framer", Varint, []byte{0xAB, 1, 0, 0}, new(tagged)},
		{"truncated message", Varint, []byte{1, 'a', 0, 0}, new(message)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.ints.Decode(tc.body, tc.into)
			if err == nil {
				t.Fatalf("accepted % x as %T: %#v", tc.body, tc.into, reflect.ValueOf(tc.into).Elem())
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMalformed) {
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
		hidden{}, struct{}{}, []hidden{}, &hidden{}, [][]hidden{},
	} {
		typ := reflect.TypeOf((*any)(nil)).Elem()
		if v != nil {
			typ = reflect.TypeOf(v)
			if _, err := Varint.Append(nil, v); err == nil {
				t.Errorf("Append accepted %v", typ)
			}
			if _, err := Prepare(v); err == nil {
				t.Errorf("Prepare accepted %v", typ)
			}
		}
		for _, ints := range layouts {
			if err := ints.Decode([]byte{0}, reflect.New(typ).Interface()); err == nil {
				t.Errorf("Decode accepted %v", typ)
			}
		}
	}
	for _, v := range []any{int32(1), (*int32)(nil), nil} {
		if _, err := Varint.AppendPointee(nil, v); err == nil {
			t.Errorf("AppendPointee accepted %#v, which is no non-nil pointer", v)
		}
	}
}

// FuzzPayloadDecode drives the decoder with hostile bodies at one type of
// every shape in the closed set, in both layouts (shape / len(shapes)
// picks the layout): any input yields a clean error or a value that
// re-encodes to a body no longer than the input and decodes back to
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
		func() any { return new(message) },
		func() any { return new([]*minLoc) },
	}
	seeds := []any{
		true, int16(-2), 0.5, "seed", []int32{1, -2, 3}, []wireBid{{Cand: 1, Match: 2, Score: 3.5}},
		[][]int64{{1}, nil, {2, 3}}, []string{"a", ""}, wireMixed{B: true, F32: 1},
		message{ID: "m", Parts: []int32{4}, Opt: &minLoc{Key: 1}, Tag: tagged{v: 9}}, []*minLoc{nil, {Rank: 3}},
	}
	for _, ints := range layouts {
		for shape, v := range seeds {
			enc, err := ints.Append(nil, v)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(int(ints)*len(shapes)+shape), enc)
		}
	}
	f.Add(uint8(4), []byte{0xff, 0xff, 0xff, 0xff, 0x7f})    // count bomb
	f.Add(uint8(6), []byte{3, 0xff, 0xff, 0xff, 0xff, 0x7f}) // nested count bomb
	f.Add(uint8(4), []byte{1, 1, 0, 0, 0, 0})                // trailing byte
	f.Add(uint8(5), []byte{1, 1, 0, 0, 0})                   // truncated struct

	f.Fuzz(func(t *testing.T, shape uint8, body []byte) {
		ints := layouts[int(shape)/len(shapes)%len(layouts)]
		into := shapes[int(shape)%len(shapes)]()
		if err := ints.Decode(body, into); err != nil {
			return
		}
		v := reflect.ValueOf(into).Elem().Interface()
		enc, err := ints.Append(nil, v)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", v, err)
		}
		if len(enc) > len(body) {
			t.Fatalf("%#v re-encoded to %d bytes, decoded from %d", v, len(enc), len(body))
		}
		again := reflect.New(reflect.TypeOf(v))
		if err := ints.Decode(enc, again.Interface()); err != nil {
			t.Fatalf("re-decode %#v: %v", v, err)
		}
		// Compare encodings, not values: NaN payloads differ from themselves.
		if enc2, _ := ints.Append(nil, again.Elem().Interface()); !bytes.Equal(enc2, enc) {
			t.Fatalf("%#v did not survive a second round trip", v)
		}
	})
}
