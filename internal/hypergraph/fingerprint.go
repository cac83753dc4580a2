package hypergraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
)

// Fingerprint returns a stable content hash of the hypergraph: two
// hypergraphs have the same fingerprint exactly when they have the same
// vertex count, the same nets in the same order (cost and pin sequence),
// the same vertex weights and sizes, and the same fixed-vertex labels.
//
// The hash covers everything that determines a partitioning result for a
// given configuration, so it is a sound cache key for repartition-result
// caches (the balancerd partition cache keys on it). It is stable across
// processes and across a WriteText -> ReadText round trip: the text codec
// preserves net order, pin order within a net, costs, weights and sizes
// (fixed labels are runtime state and not serialized, so a round-tripped
// hypergraph fingerprints equal only if it had no fixed labels — callers
// carrying fixed labels must re-apply them).
//
// The encoding is length-prefixed and section-tagged, so structurally
// different hypergraphs cannot collide by concatenation ambiguity.
func (h *Hypergraph) Fingerprint() string {
	e := getEncoder()
	defer putEncoder(e)
	e.str("hyperbal-hg-v1")
	e.u64(uint64(h.NumVertices()))
	e.put32('N', h.netStart)
	e.put32('P', h.netPins)
	e.put64('C', h.costs)
	e.put64('W', h.weights)
	e.put64('S', h.sizes)
	if h.fixed != nil {
		e.put32('F', h.fixed)
	}
	return e.sum("hbfp1:")
}

// encoder is the canonical little-endian encoding behind Fingerprint and
// Delta.Digest. Values are packed into buf and hashed a chunk at a time,
// so the hash sees one Write per chunk instead of one per value; the byte
// stream it hashes is the same. Encoders are pooled, so neither the chunk
// nor the digest state is allocated per call.
type encoder struct {
	hw  hash.Hash
	n   int // bytes of buf in use
	buf [1024]byte
}

var encoders = sync.Pool{New: func() any { return &encoder{hw: sha256.New()} }}

func getEncoder() *encoder { return encoders.Get().(*encoder) }

func putEncoder(e *encoder) {
	e.hw.Reset()
	e.n = 0
	encoders.Put(e)
}

// flush hashes the buffered bytes.
func (e *encoder) flush() {
	e.hw.Write(e.buf[:e.n])
	e.n = 0
}

// room returns the free tail of buf, flushing first when fewer than need
// bytes are free.
func (e *encoder) room(need int) []byte {
	if len(e.buf)-e.n < need {
		e.flush()
	}
	return e.buf[e.n:]
}

func (e *encoder) str(s string) {
	for len(s) > 0 {
		k := copy(e.room(1), s)
		e.n += k
		s = s[k:]
	}
}

func (e *encoder) byte(b byte) {
	e.room(1)[0] = b
	e.n++
}

func (e *encoder) u64(x uint64) {
	binary.LittleEndian.PutUint64(e.room(8), x)
	e.n += 8
}

// put32 writes a tagged, length-prefixed int32 section.
func (e *encoder) put32(tag byte, xs []int32) {
	e.byte(tag)
	e.u64(uint64(len(xs)))
	for len(xs) > 0 {
		b := e.room(4)
		k := min(len(b)/4, len(xs))
		for i, x := range xs[:k] {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
		}
		e.n += 4 * k
		xs = xs[k:]
	}
}

// put64 writes a tagged, length-prefixed int64 section.
func (e *encoder) put64(tag byte, xs []int64) {
	e.byte(tag)
	e.u64(uint64(len(xs)))
	for len(xs) > 0 {
		b := e.room(8)
		k := min(len(b)/8, len(xs))
		for i, x := range xs[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
		}
		e.n += 8 * k
		xs = xs[k:]
	}
}

// sum returns prefix followed by the hex SHA-256 of everything written.
func (e *encoder) sum(prefix string) string {
	e.flush()
	var out [80]byte // room for the short prefixes used here
	b := append(out[:0], prefix...)
	b = hex.AppendEncode(b, e.hw.Sum(e.buf[:0]))
	return string(b)
}
