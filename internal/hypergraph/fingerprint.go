package hypergraph

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// One hash rule: a content id is the SHA-256 of a canonical HBW frame
// (wirebin.go). A hypergraph's fingerprint hashes its hypergraph frame, a
// delta's digest its delta frame. A built value hashes its own encoding;
// a frame that arrived over the wire is identified by hashing the bytes as
// they came (Frame.DecodeWire), with nothing built or re-encoded. The
// prefixes name the rule, so an id of an older rule never equals one of
// this rule.
const (
	fingerprintPrefix = "hbfp2:"
	digestPrefix      = "hbdd2:"
)

// Fingerprint returns a stable content hash of the hypergraph: two
// hypergraphs have the same fingerprint exactly when they have the same
// vertex count, the same nets in the same order (cost and pin sequence),
// the same vertex weights and sizes, and the same fixed-vertex labels.
//
// The hash covers everything that determines a partitioning result for a
// given configuration, so it is a sound cache key for repartition results
// (balancerd's result memo keys on it). It is the SHA-256 of AppendBinary,
// which is canonical, so it is stable across processes and across any
// round trip that preserves the hypergraph — the binary frame, and
// WriteText -> ReadText (fixed labels are runtime state that the text
// codec does not carry, so a round-tripped hypergraph fingerprints equal
// only if it had none).
func (h *Hypergraph) Fingerprint() string {
	s := getScratch()
	s.buf = h.appendFrame(s.buf[:0], &s.frame)
	id := contentID(fingerprintPrefix, s.buf)
	s.put()
	return id
}

// contentID returns prefix followed by the hex SHA-256 of frame.
func contentID(prefix string, frame []byte) string {
	sum := sha256.Sum256(frame)
	var out [8 + 2*sha256.Size]byte // room for the short prefixes above
	return string(hex.AppendEncode(append(out[:0], prefix...), sum[:]))
}

// scratch is pooled per-call memory: the buffer Fingerprint and Digest
// encode into before hashing, and the wire structs the frames are laid
// out from, so neither the hashes nor AppendBinary allocate per call.
type scratch struct {
	buf   []byte
	frame frameWire
	delta deltaWire
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratches.Get().(*scratch) }

// maxPooledFrame bounds the buffers the pool keeps: one huge hypergraph
// must not pin its frame's worth of memory for the life of the process.
const maxPooledFrame = 1 << 20

// put returns s to the pool, first dropping what it refers to.
func (s *scratch) put() {
	s.frame, s.delta = frameWire{}, deltaWire{}
	if cap(s.buf) <= maxPooledFrame {
		scratches.Put(s)
	}
}
