// The payload codec: what a message body is on a Transport.
//
// In-process, payloads move as interface values. Behind a network both
// ends know the payload's static type — every send hands Comm.Send a
// concrete value and every receive is a generic collective instantiated
// at the same T on the far side (same binary, same SPMD program) — so the
// wire carries no type description at all, only the value:
//
//	bool, int8, uint8                    1 byte
//	int16, uint16                        2 bytes, little-endian
//	int32, uint32, float32               4 bytes
//	int, int64, uint, uint64, float64    8 bytes
//	string                               uvarint(len) bytes
//	[]T                                  uvarint(len) T T T ...
//	struct                               its fields in declaration order
//
// Fixed-width rather than varint: these are exactly the widths Stats
// accounts (fixedWireSize), so a payload's wire size is its accounted size
// plus one count per slice or string and is known before a byte is
// written (the transport allocates each frame once, exactly sized), and a
// decoder's bounds check is one multiplication. The price is wire bytes —
// about 1.0 × the accounted bytes where a varint layout would carry about
// half — which loopback and LAN links do not notice next to the
// per-message latency floor.
//
// The payload set is closed: the kinds above, slices of them to any depth,
// and flat structs (every field fixed-width). Anything else is rejected
// when its plan is built, once per type. nil and empty slices are one
// value on the wire; both decode as nil. Decoding follows the HBW
// discipline (hypergraph.BinReader): every count is checked against the
// bytes present before anything is allocated, and trailing bytes are an
// error.
//
// Reflection describes a type once (planOf) and walks only the variable
// structure of a value (slice nesting, strings). The fixed-width leaves —
// where the bytes are: a []matchBid, an []int32 — are copied between
// memory and wire by appendCells/decodeCells, which address the scalars of
// a value directly at the offsets the plan recorded. Those two functions
// are the only unsafe code; everything they touch is pointer-free memory
// whose bounds the caller has established.
package mpi

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"unsafe"

	"hyperbal/internal/hypergraph"
)

// plan is the codec of one type, built once by planOf and cached.
type plan struct {
	typ   reflect.Type
	fixed int    // wire size when every value of the type has the same one (scalars, flat structs), else 0
	cells []cell // fixed > 0: the scalars one value is made of, in wire order
	elem  *plan  // slices: the element type
}

// cell is one scalar inside a fixed-width value.
type cell struct {
	off  uintptr // from the start of the value
	kind reflect.Kind
}

var plans sync.Map // reflect.Type -> *plan

func planOf(t reflect.Type) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	p := &plan{typ: t}
	switch t.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8, reflect.Int16, reflect.Uint16,
		reflect.Int32, reflect.Uint32, reflect.Float32,
		reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Float64:
		sz, _ := fixedWireSize(t)
		p.fixed, p.cells = int(sz), []cell{{0, t.Kind()}}
	case reflect.String:
	case reflect.Slice:
		elem, err := planOf(t.Elem())
		if err != nil {
			return nil, err
		}
		p.elem = elem
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			fp, err := planOf(f.Type)
			if err != nil {
				return nil, err
			}
			if fp.fixed == 0 {
				return nil, fmt.Errorf("mpi: payload struct %v: field %s is not fixed-width; only flat structs cross a Transport", t, f.Name)
			}
			for _, c := range fp.cells {
				p.cells = append(p.cells, cell{f.Offset + c.off, c.kind})
			}
			p.fixed += fp.fixed
		}
		if p.fixed == 0 {
			return nil, fmt.Errorf("mpi: payload struct %v has no fields", t)
		}
	default:
		return nil, fmt.Errorf("mpi: payload type %v cannot cross a Transport", t)
	}
	plans.Store(t, p)
	return p, nil
}

// appendCells encodes the n consecutive values of p's fixed-width type
// that start at base.
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

// decodeCells fills the n consecutive values of p's fixed-width type that
// start at base from raw, which holds exactly n*p.fixed bytes.
func (p *plan) decodeCells(raw []byte, base unsafe.Pointer, n int) error {
	le, stride := binary.LittleEndian, p.typ.Size()
	for i := 0; i < n; i++ {
		val := unsafe.Add(base, uintptr(i)*stride)
		for _, c := range p.cells {
			at := unsafe.Add(val, c.off)
			switch c.kind {
			case reflect.Bool:
				if raw[0] > 1 {
					return fmt.Errorf("%w: bool byte %d", hypergraph.ErrMalformed, raw[0])
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

func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// size returns exactly the number of bytes append will add for v.
func (p *plan) size(v reflect.Value) int {
	if p.fixed > 0 {
		return p.fixed
	}
	n := v.Len() // string or slice
	sz := uvarintLen(n)
	switch {
	case p.elem == nil: // string
		sz += n
	case p.elem.fixed > 0:
		sz += n * p.elem.fixed
	default:
		for i := 0; i < n; i++ {
			sz += p.elem.size(v.Index(i))
		}
	}
	return sz
}

// append encodes v, which must be addressable if its type is fixed-width.
func (p *plan) append(b []byte, v reflect.Value) []byte {
	if p.fixed > 0 {
		return p.appendCells(b, v.Addr().UnsafePointer(), 1)
	}
	n := v.Len()
	b = binary.AppendUvarint(b, uint64(n))
	switch {
	case p.elem == nil: // string
		b = append(b, v.String()...)
	case p.elem.fixed > 0:
		b = p.elem.appendCells(b, v.UnsafePointer(), n)
	default:
		for i := 0; i < n; i++ {
			b = p.elem.append(b, v.Index(i))
		}
	}
	return b
}

// decode fills the addressable zero value v from r.
func (p *plan) decode(r *hypergraph.BinReader, v reflect.Value) error {
	if p.fixed > 0 {
		raw, err := r.Bytes(p.fixed)
		if err != nil {
			return err
		}
		return p.decodeCells(raw, v.Addr().UnsafePointer(), 1)
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
	// Every element pays at least one byte (a variable-size element its
	// own count), so the frame has paid for what MakeSlice allocates.
	n, err := r.Count(r.Rem() / max(p.elem.fixed, 1))
	if err != nil || n == 0 {
		return err
	}
	s := reflect.MakeSlice(p.typ, n, n)
	if p.elem.fixed > 0 {
		raw, err := r.Bytes(n * p.elem.fixed)
		if err == nil {
			err = p.elem.decodeCells(raw, s.UnsafePointer(), n)
		}
		if err != nil {
			return err
		}
	} else {
		for i := 0; i < n; i++ {
			if err := p.elem.decode(r, s.Index(i)); err != nil {
				return err
			}
		}
	}
	v.Set(s)
	return nil
}

// Payload is one message body on its way into a Transport: typed and
// sized but not yet encoded, so the transport can lay its own header and
// the body into a single buffer of exactly the right length. The zero
// Payload is the empty body of a nil message (Barrier's token).
type Payload struct {
	p    *plan
	v    reflect.Value
	size int
}

func newPayload(data any) (Payload, error) {
	if data == nil {
		return Payload{}, nil
	}
	v := reflect.ValueOf(data)
	p, err := planOf(v.Type())
	if err != nil {
		return Payload{}, err
	}
	if p.fixed > 0 { // appendCells needs an address
		pv := reflect.New(p.typ).Elem()
		pv.Set(v)
		v = pv
	}
	return Payload{p: p, v: v, size: p.size(v)}, nil
}

// Size is the exact number of bytes AppendTo appends.
func (p Payload) Size() int { return p.size }

// AppendTo appends the encoded body to b.
func (p Payload) AppendTo(b []byte) []byte {
	if p.p == nil {
		return b
	}
	return p.p.append(b, p.v)
}

// decodePayload decodes one whole message body into the value the pointer
// into points to.
func decodePayload(body []byte, into any) error {
	v := reflect.ValueOf(into).Elem()
	p, err := planOf(v.Type())
	if err != nil {
		return err
	}
	r := hypergraph.NewBinReader(body)
	if err := p.decode(r, v); err != nil {
		return fmt.Errorf("mpi: decode %v payload: %w", v.Type(), err)
	}
	if r.Rem() != 0 {
		return fmt.Errorf("mpi: decode %v payload: %w: %d trailing bytes", v.Type(), hypergraph.ErrMalformed, r.Rem())
	}
	return nil
}
