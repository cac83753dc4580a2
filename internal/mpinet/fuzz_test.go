package mpinet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// encode is parseMsg's inverse for tests that start from raw payload
// bytes; the transport builds its frames around an mpi.Payload instead
// (appendMsgFrame).
func (m msgBody) encode() []byte {
	buf := binary.AppendUvarint(nil, m.Comm)
	buf = binary.AppendUvarint(buf, uint64(m.Src))
	buf = binary.AppendVarint(buf, int64(m.Tag))
	return append(buf, m.Payload...)
}

// seedFrames returns one well-formed frame of every kind, as produced by
// the real encoders (these are also the checked-in fuzz corpus seeds).
func seedFrames() map[string][]byte {
	return map[string][]byte{
		"hello": appendFrame(nil, frameHello, helloBody{WorldID: "w-deadbeef", Rank: 2}.encode()),
		"ack":   appendFrame(nil, frameHelloAck, nil),
		"launch": appendFrame(nil, frameLaunch, launchBody{
			WorldID: "w-deadbeef", Rank: 1, Size: 3, Job: "phg.partition",
			Addrs:      []string{"127.0.0.1:19091", "127.0.0.1:19092", "127.0.0.1:19093"},
			SendWindow: 1024, RecvTimeout: 2 * time.Minute, Jitter: time.Millisecond, JitterSeed: 7,
			Payload: []byte{1, 2, 3},
		}.encode()),
		"msg": appendFrame(nil, frameMsg, msgBody{
			Comm: 0x9e3779b9, Src: 2, Tag: -41, Payload: []byte{2, 9, 0, 0, 0, 8, 0, 0, 0}, // []int32{9, 8}
		}.encode()),
		"result": appendFrame(nil, frameResult, resultBody{
			Messages: 120, Bytes: 48000, Collectives: 40, BlockedSends: 3,
			MaxStallNs: int64(17 * time.Millisecond), Payload: []byte{0, 1},
		}.encode()),
		"error": appendFrame(nil, frameError, errorBody{
			Kind: errKindCrash, Rank: 2, Step: 0, Msg: "mpi: rank 2 crashed (connection lost)",
		}.encode()),
	}
}

// FuzzFrameDecode drives the frame decoder with hostile input: any byte
// string must yield either a clean error or a frame whose parsed body
// survives an encode/parse round trip unchanged. This is the same
// contract FuzzBinaryCodec enforces for the HBW hypergraph codec.
func FuzzFrameDecode(f *testing.F) {
	for _, s := range seedFrames() {
		f.Add(s)
	}
	f.Add([]byte("HBN"))                                             // truncated header
	f.Add([]byte("XXX\x02\x01\x00"))                                 // bad magic
	f.Add([]byte("HBN\x01\x01\x00"))                                 // retired version
	f.Add([]byte{'H', 'B', 'N', 2, 4, 0xff, 0xff, 0xff, 0xff, 0x7f}) // length bomb
	f.Add(append(seedFrames()["msg"], seedFrames()["hello"]...))     // two frames back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, rest, err := decodeFrame(data, 1<<20)
		if err != nil {
			return
		}
		if len(body)+len(rest) > len(data) {
			t.Fatalf("decoded %d body + %d rest bytes from %d input bytes", len(body), len(rest), len(data))
		}
		switch kind {
		case frameHello:
			h, err := parseHello(body)
			if err != nil {
				return
			}
			h2, err := parseHello(h.encode())
			if err != nil || h2 != h {
				t.Fatalf("hello round trip: %+v -> %+v (%v)", h, h2, err)
			}
		case frameLaunch:
			l, err := parseLaunch(body)
			if err != nil {
				return
			}
			l2, err := parseLaunch(l.encode())
			if err != nil {
				t.Fatalf("launch re-parse: %v", err)
			}
			if l2.WorldID != l.WorldID || l2.Rank != l.Rank || l2.Size != l.Size ||
				l2.Job != l.Job || len(l2.Addrs) != len(l.Addrs) ||
				l2.SendWindow != l.SendWindow || l2.RecvTimeout != l.RecvTimeout ||
				l2.Jitter != l.Jitter || l2.JitterSeed != l.JitterSeed ||
				!bytes.Equal(l2.Payload, l.Payload) {
				t.Fatalf("launch round trip: %+v -> %+v", l, l2)
			}
		case frameMsg:
			m, err := parseMsg(body)
			if err != nil {
				return
			}
			m2, err := parseMsg(m.encode())
			if err != nil || m2.Comm != m.Comm || m2.Src != m.Src || m2.Tag != m.Tag ||
				!bytes.Equal(m2.Payload, m.Payload) {
				t.Fatalf("msg round trip: %+v -> %+v (%v)", m, m2, err)
			}
		case frameResult:
			res, err := parseResult(body)
			if err != nil {
				return
			}
			res2, err := parseResult(res.encode())
			if err != nil || res2.Messages != res.Messages || res2.Bytes != res.Bytes ||
				res2.Collectives != res.Collectives || res2.BlockedSends != res.BlockedSends ||
				res2.MaxStallNs != res.MaxStallNs || !bytes.Equal(res2.Payload, res.Payload) {
				t.Fatalf("result round trip: %+v -> %+v (%v)", res, res2, err)
			}
		case frameError:
			e, err := parseError(body)
			if err != nil {
				return
			}
			e2, err := parseError(e.encode())
			if err != nil || e2 != e {
				t.Fatalf("error round trip: %+v -> %+v (%v)", e, e2, err)
			}
		}
	})
}
