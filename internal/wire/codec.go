// Package wire is the repo's one message codec: a message is a declared Go
// struct, and its layout is derived from the type — planned once per type,
// checked and bounded on decode — so no message hand-writes its bytes.
// Both ends know the static type (same binary, or the same declared struct
// on either side of an HTTP hop), so the wire carries values only, never a
// type description:
//
//	                              Fixed            Varint
//	bool, int8, uint8             1 byte           1 byte
//	int16, uint16                 2 bytes LE       zigzag / uvarint
//	int32, uint32                 4 bytes LE       zigzag / uvarint
//	int, int64, uint, uint64      8 bytes LE       zigzag / uvarint
//	float32                       4 bytes LE       4 bytes LE
//	float64                       8 bytes LE       8 bytes LE
//	string                        uvarint(len) bytes
//	[]T                           uvarint(len) T T T ...
//	*T                            0, or 1 then T
//	struct                        its fields in declaration order
//	Framer                        what its AppendWire writes
//
// The integer layout is fixed per call site, never by an option. Fixed is
// internal/mpi's: its widths are the ones mpi's traffic statistics
// account, so a payload's size is known before a byte is written (the
// network transport allocates each frame once, exactly sized) and a
// decoder's bounds check is one multiplication. Varint is for messages
// that cross HTTP or a control connection — balancerd's frames, the
// mpinet control bodies, the mpinet/jobs payloads — where small integers
// should cost small bytes.
//
// The type set is closed: the kinds above, slices and pointers of them to
// any depth, and structs of them. A struct whose fields are all
// fixed-width scalars is flat and may have unexported fields; any other
// struct must export every field. Anything else is refused when its plan
// is built, once per type. nil and empty slices are one value on the
// wire; both decode as nil.
//
// Decoding follows one discipline: every count is checked against the
// bytes present (each element pays at least its smallest encoding) before
// anything is allocated, integers that overflow their Go type and bool
// bytes other than 0/1 are errors, and Decode refuses trailing bytes.
// Range checks a type cannot express (a string cap, a rank below a world
// size) are the caller's, in one check after decoding.
//
// Reflection describes a type once (planOf) and walks only the variable
// structure of a value (slices, strings, pointers, structs Varint must
// re-lay). The leaves — where the bytes are: a []matchBid, an []int32 —
// are moved between memory and wire without per-element reflection: in
// Fixed (and for bytes and floats in Varint) by appendCells/decodeCells,
// which address the scalars of a value at the offsets the plan recorded,
// and Varint integers by appendInts/decodeInts, one typed loop per kind.
// Those loops are the repo's only unsafe code; everything they touch is
// pointer-free memory whose bounds the caller has established.
package wire

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

// Ints is an integer layout. Each call site names the one it uses.
type Ints uint8

const (
	// Fixed writes integers little-endian at their Go width, int and uint
	// as 8 bytes.
	Fixed Ints = iota
	// Varint writes unsigned integers as uvarints and signed ones zigzag.
	Varint
)

// Framer is implemented, through pointer receivers, by types that lay
// themselves out: the codec writes what AppendWire appends and hands
// DecodeWire the reader positioned at the value. Give a Framer field a
// name: embedded, its methods are promoted and the outer struct becomes
// that Framer.
type Framer interface {
	AppendWire(b []byte) []byte
	DecodeWire(r *Reader) error
}

var framerType = reflect.TypeOf((*Framer)(nil)).Elem()

// plan is the codec of one type, built once by planOf and cached.
type plan struct {
	typ    reflect.Type
	cells  []cell  // flat types (scalars, structs of them): the scalars of one value, in wire order
	fixed  int     // flat types: the Fixed size of one value
	varint bool    // flat types holding a multi-byte integer, which Varint lays out differently
	run    *run    // multi-byte integers: their Varint codec
	min    int     // the fewest bytes one value takes in the Varint layout, at least 1
	elem   *plan   // slices and pointers: the element type
	fields []*plan // structs: field i's plan
	framer bool
}

// cell is one scalar inside a flat value.
type cell struct {
	off  uintptr // from the start of the value
	kind reflect.Kind
}

var plans sync.Map // reflect.Type -> *plan

func planOf(t reflect.Type) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	p := &plan{typ: t, min: 1}
	switch k := t.Kind(); {
	case k != reflect.Pointer && reflect.PointerTo(t).Implements(framerType):
		p.framer = true
	case width(k) > 0:
		p.cells, p.fixed = []cell{{0, k}}, width(k)
		if p.run = runOf(k); p.run != nil {
			p.varint = true
		} else {
			p.min = p.fixed
		}
	case k == reflect.String:
	case k == reflect.Slice, k == reflect.Pointer:
		elem, err := planOf(t.Elem())
		if err != nil {
			return nil, err
		}
		p.elem = elem
	case k == reflect.Struct:
		if err := p.planStruct(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wire: type %v has no layout", t)
	}
	plans.Store(t, p)
	return p, nil
}

func (p *plan) planStruct() error {
	t := p.typ
	if t.NumField() == 0 {
		return fmt.Errorf("wire: struct %v has no fields", t)
	}
	flat := true
	p.min = 0
	for i := 0; i < t.NumField(); i++ {
		fp, err := planOf(t.Field(i).Type)
		if err != nil {
			return err
		}
		p.fields = append(p.fields, fp)
		p.min += fp.min
		flat = flat && fp.cells != nil
	}
	for i, fp := range p.fields {
		switch f := t.Field(i); {
		case flat:
			for _, c := range fp.cells {
				p.cells = append(p.cells, cell{f.Offset + c.off, c.kind})
			}
			p.fixed += fp.fixed
			p.varint = p.varint || fp.varint
		case !f.IsExported():
			return fmt.Errorf("wire: struct %v: unexported field %s in a struct that is not flat", t, f.Name)
		}
	}
	return nil
}

// width is the Fixed size of a scalar kind, 0 for every other kind.
func width(k reflect.Kind) int {
	switch k {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Float64:
		return 8
	}
	return 0
}

// copies reports whether p's values are their memory's scalars copied
// out in the given layout — always in Fixed, and in Varint when they hold
// no multi-byte integer.
func (p *plan) copies(ints Ints) bool { return p.cells != nil && (ints == Fixed || !p.varint) }

// least is the fewest bytes one value takes in the given layout: what a
// decoder may assume each counted element pays.
func (p *plan) least(ints Ints) int {
	if p.copies(ints) {
		return p.fixed
	}
	return p.min
}

// appendCells encodes the n consecutive values of p's flat type that start
// at base in the Fixed layout.
func (p *plan) appendCells(b []byte, base unsafe.Pointer, n int) []byte {
	le, stride := binary.LittleEndian, p.typ.Size()
	for i := 0; i < n; i++ {
		val := unsafe.Add(base, uintptr(i)*stride)
		for _, c := range p.cells {
			at := unsafe.Add(val, c.off)
			switch c.kind {
			case reflect.Bool, reflect.Int8, reflect.Uint8:
				b = append(b, *(*byte)(at))
			case reflect.Int16, reflect.Uint16:
				b = le.AppendUint16(b, *(*uint16)(at))
			case reflect.Int32, reflect.Uint32, reflect.Float32:
				b = le.AppendUint32(b, *(*uint32)(at))
			case reflect.Int:
				b = le.AppendUint64(b, uint64(*(*int)(at)))
			case reflect.Uint:
				b = le.AppendUint64(b, uint64(*(*uint)(at)))
			default:
				b = le.AppendUint64(b, *(*uint64)(at))
			}
		}
	}
	return b
}

// decodeCells fills the n consecutive values of p's flat type that start
// at base from raw, which holds exactly n*p.fixed bytes in the Fixed
// layout.
func (p *plan) decodeCells(raw []byte, base unsafe.Pointer, n int) error {
	le, stride := binary.LittleEndian, p.typ.Size()
	for i := 0; i < n; i++ {
		val := unsafe.Add(base, uintptr(i)*stride)
		for _, c := range p.cells {
			at := unsafe.Add(val, c.off)
			switch c.kind {
			case reflect.Bool:
				if raw[0] > 1 {
					return fmt.Errorf("%w: bool byte %d", ErrMalformed, raw[0])
				}
				*(*bool)(at), raw = raw[0] == 1, raw[1:]
			case reflect.Int8, reflect.Uint8:
				*(*byte)(at), raw = raw[0], raw[1:]
			case reflect.Int16, reflect.Uint16:
				*(*uint16)(at), raw = le.Uint16(raw), raw[2:]
			case reflect.Int32, reflect.Uint32, reflect.Float32:
				*(*uint32)(at), raw = le.Uint32(raw), raw[4:]
			case reflect.Int:
				*(*int)(at), raw = int(le.Uint64(raw)), raw[8:]
			case reflect.Uint:
				*(*uint)(at), raw = uint(le.Uint64(raw)), raw[8:]
			default:
				*(*uint64)(at), raw = le.Uint64(raw), raw[8:]
			}
		}
	}
	return nil
}

// run is the Varint codec of n consecutive integers of one kind: zigzag
// for signed kinds, uvarint for unsigned ones. decode reads from the
// frame's unread bytes and reports how many it used.
type run struct {
	append func(b []byte, base unsafe.Pointer, n int, zig bool) []byte
	decode func(raw []byte, base unsafe.Pointer, n int, zig bool) (int, error)
	zig    bool
}

func runOf(k reflect.Kind) *run {
	switch k {
	case reflect.Int16:
		return &run{appendInts[int16], decodeInts[int16], true}
	case reflect.Int32:
		return &run{appendInts[int32], decodeInts[int32], true}
	case reflect.Int64:
		return &run{appendInts[int64], decodeInts[int64], true}
	case reflect.Int:
		return &run{appendInts[int], decodeInts[int], true}
	case reflect.Uint16:
		return &run{appendInts[uint16], decodeInts[uint16], false}
	case reflect.Uint32:
		return &run{appendInts[uint32], decodeInts[uint32], false}
	case reflect.Uint64:
		return &run{appendInts[uint64], decodeInts[uint64], false}
	case reflect.Uint:
		return &run{appendInts[uint], decodeInts[uint], false}
	}
	return nil
}

type integer interface {
	~int16 | ~int32 | ~int64 | ~int | ~uint16 | ~uint32 | ~uint64 | ~uint
}

func appendInts[T integer](b []byte, base unsafe.Pointer, n int, zig bool) []byte {
	for _, x := range unsafe.Slice((*T)(base), n) {
		if zig {
			b = binary.AppendVarint(b, int64(x))
		} else {
			b = binary.AppendUvarint(b, uint64(x))
		}
	}
	return b
}

func decodeInts[T integer](raw []byte, base unsafe.Pointer, n int, zig bool) (int, error) {
	xs, off := unsafe.Slice((*T)(base), n), 0
	for i := range xs {
		x, m := binary.Uvarint(raw[off:])
		switch {
		case m == 0:
			return 0, ErrTruncated
		case m < 0:
			return 0, fmt.Errorf("%w: varint overflow", ErrMalformed)
		}
		if zig {
			x = uint64(int64(x>>1) ^ -int64(x&1)) // binary.Varint's zigzag
		}
		// Converting back sign-extends a signed T, so only a value that
		// fits reads back as itself.
		if off, xs[i] = off+m, T(x); uint64(xs[i]) != x {
			return 0, fmt.Errorf("%w: %d overflows %T", ErrMalformed, x, xs[i])
		}
	}
	return off, nil
}

// readRun decodes n integers of p's kind from r in the Varint layout.
func (p *plan) readRun(r *Reader, base unsafe.Pointer, n int) error {
	used, err := p.run.decode(r.Rest(), base, n, p.run.zig)
	r.off += used
	return err
}

func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// size returns exactly the number of bytes append adds for v in the Fixed
// layout.
func (p *plan) size(v reflect.Value) int {
	switch {
	case p.cells != nil:
		return p.fixed
	case p.framer:
		return len(v.Addr().Interface().(Framer).AppendWire(nil))
	case p.fields != nil:
		sz := 0
		for i, f := range p.fields {
			sz += f.size(v.Field(i))
		}
		return sz
	case p.typ.Kind() == reflect.Pointer:
		if v.IsNil() {
			return 1
		}
		return 1 + p.elem.size(v.Elem())
	}
	n := v.Len() // string or slice
	sz := uvarintLen(n)
	switch {
	case p.elem == nil: // string
		sz += n
	case p.elem.cells != nil:
		sz += n * p.elem.fixed
	default:
		for i := 0; i < n; i++ {
			sz += p.elem.size(v.Index(i))
		}
	}
	return sz
}

// append encodes v, which must be addressable unless it is a string,
// slice or pointer.
func (p *plan) append(b []byte, v reflect.Value, ints Ints) []byte {
	switch {
	case p.copies(ints):
		return p.appendCells(b, v.Addr().UnsafePointer(), 1)
	case p.run != nil:
		return p.run.append(b, v.Addr().UnsafePointer(), 1, p.run.zig)
	case p.framer:
		return v.Addr().Interface().(Framer).AppendWire(b)
	case p.fields != nil:
		for i, f := range p.fields {
			b = f.append(b, v.Field(i), ints)
		}
		return b
	case p.typ.Kind() == reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return p.elem.append(append(b, 1), v.Elem(), ints)
	}
	n := v.Len()
	b = binary.AppendUvarint(b, uint64(n))
	switch {
	case p.elem == nil: // string
		b = append(b, v.String()...)
	case p.elem.typ.Kind() == reflect.Uint8: // bytes: one copy, not a loop
		b = append(b, v.Bytes()...)
	case p.elem.copies(ints):
		b = p.elem.appendCells(b, v.UnsafePointer(), n)
	case p.elem.run != nil:
		b = p.elem.run.append(b, v.UnsafePointer(), n, p.elem.run.zig)
	default:
		for i := 0; i < n; i++ {
			b = p.elem.append(b, v.Index(i), ints)
		}
	}
	return b
}

// decode fills the addressable zero value v from r.
func (p *plan) decode(r *Reader, v reflect.Value, ints Ints) error {
	switch {
	case p.copies(ints):
		raw, err := r.Bytes(p.fixed)
		if err != nil {
			return err
		}
		return p.decodeCells(raw, v.Addr().UnsafePointer(), 1)
	case p.run != nil:
		return p.readRun(r, v.Addr().UnsafePointer(), 1)
	case p.framer:
		// A copy of the cursor crosses the interface, so r itself stays
		// on the caller's stack.
		sub := *r
		err := v.Addr().Interface().(Framer).DecodeWire(&sub)
		r.off = sub.off
		return err
	case p.fields != nil:
		for i, f := range p.fields {
			if err := f.decode(r, v.Field(i), ints); err != nil {
				return err
			}
		}
		return nil
	case p.typ.Kind() == reflect.Pointer:
		present, err := r.Byte()
		if err != nil || present == 0 {
			return err
		}
		if present != 1 {
			return fmt.Errorf("%w: presence byte %d", ErrMalformed, present)
		}
		e := reflect.New(p.elem.typ)
		if err := p.elem.decode(r, e.Elem(), ints); err != nil {
			return err
		}
		v.Set(e)
		return nil
	}
	if p.elem == nil { // string
		n, err := r.Count(r.Rem())
		if err != nil {
			return err
		}
		s, _ := r.Bytes(n)
		v.SetString(string(s))
		return nil
	}
	// Every element pays at least its least encoding, so the frame has paid
	// for what MakeSlice allocates.
	n, err := r.Count(r.Rem() / p.elem.least(ints))
	if err != nil || n == 0 {
		return err
	}
	s := reflect.MakeSlice(p.typ, n, n)
	switch {
	case p.elem.copies(ints):
		var raw []byte
		if raw, err = r.Bytes(n * p.elem.fixed); err == nil && p.elem.typ.Kind() == reflect.Uint8 {
			copy(s.Bytes(), raw)
		} else if err == nil {
			err = p.elem.decodeCells(raw, s.UnsafePointer(), n)
		}
	case p.elem.run != nil:
		err = p.elem.readRun(r, s.UnsafePointer(), n)
	default:
		for i := 0; i < n && err == nil; i++ {
			err = p.elem.decode(r, s.Index(i), ints)
		}
	}
	if err != nil {
		return err
	}
	v.Set(s)
	return nil
}

// planned returns v's plan and v itself, copied into addressable memory
// when the plan needs an address.
func planned(v any) (*plan, reflect.Value, error) {
	val := reflect.ValueOf(v)
	if v == nil {
		return nil, val, fmt.Errorf("wire: a nil interface has no layout")
	}
	p, err := planOf(val.Type())
	if err != nil {
		return nil, val, err
	}
	if p.cells != nil || p.fields != nil || p.framer {
		pv := reflect.New(p.typ).Elem()
		pv.Set(val)
		val = pv
	}
	return p, val, nil
}

// Append appends v encoded in the given integer layout. A pointer is a
// *T value like any other: a presence byte, then what it points to.
func (ints Ints) Append(b []byte, v any) ([]byte, error) {
	p, val, err := planned(v)
	if err != nil {
		return b, err
	}
	return p.append(b, val, ints), nil
}

// AppendPointee appends *v, v a non-nil pointer, exactly as Append(b, *v)
// would, but encodes *v where it lies instead of through a copy: a caller
// that keeps the value in reused memory encodes it without allocating.
func (ints Ints) AppendPointee(b []byte, v any) ([]byte, error) {
	val := reflect.ValueOf(v)
	if val.Kind() != reflect.Pointer || val.IsNil() {
		return b, fmt.Errorf("wire: AppendPointee needs a non-nil pointer, not %T", v)
	}
	p, err := planOf(val.Type().Elem())
	if err != nil {
		return b, err
	}
	return p.append(b, val.Elem(), ints), nil
}

// Read decodes one value from r into the value into points to, leaving
// what follows it unread.
func (ints Ints) Read(r *Reader, into any) error {
	v := reflect.ValueOf(into).Elem()
	p, err := planOf(v.Type())
	if err != nil {
		return err
	}
	return p.decode(r, v, ints)
}

// Decode decodes one whole body into the value into points to; bytes left
// over are an error.
func (ints Ints) Decode(body []byte, into any) error {
	r := Reader{data: body}
	if err := ints.Read(&r, into); err != nil {
		return err
	}
	if r.Rem() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, r.Rem())
	}
	return nil
}

// Sized is one value on its way into a Fixed-layout message: planned and
// sized but not yet encoded, so a transport can lay its own header and
// the body into a single buffer of exactly the right length. The zero
// Sized is the empty body.
type Sized struct {
	p    *plan
	v    reflect.Value
	size int
}

// Prepare plans and sizes v for the Fixed layout. A nil v is the empty
// body.
func Prepare(v any) (Sized, error) {
	if v == nil {
		return Sized{}, nil
	}
	p, val, err := planned(v)
	if err != nil {
		return Sized{}, err
	}
	return Sized{p: p, v: val, size: p.size(val)}, nil
}

// Size is the exact number of bytes AppendTo appends.
func (s Sized) Size() int { return s.size }

// AppendTo appends the encoded value to b.
func (s Sized) AppendTo(b []byte) []byte {
	if s.p == nil {
		return b
	}
	return s.p.append(b, s.v, Fixed)
}
