package mpinet

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"
)

// encode is parseMsg's inverse for tests that start from raw payload
// bytes; the transport builds its frames around a wire.Sized instead
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
		"hello": appendControl(nil, frameHello, helloBody{WorldID: "w-deadbeef", Rank: 2}),
		"ack":   appendFrame(nil, frameHelloAck, nil),
		"launch": appendControl(nil, frameLaunch, launchBody{
			WorldID: "w-deadbeef", Rank: 1, Size: 3, Job: "phg.partition",
			Addrs:      []string{"127.0.0.1:19091", "127.0.0.1:19092", "127.0.0.1:19093"},
			SendWindow: 1024, RecvTimeout: 2 * time.Minute, Jitter: time.Millisecond, JitterSeed: 7,
			Payload: []byte{1, 2, 3},
		}),
		"msg": appendFrame(nil, frameMsg, msgBody{
			Comm: 0x9e3779b9, Src: 2, Tag: -41, Payload: []byte{2, 9, 0, 0, 0, 8, 0, 0, 0}, // []int32{9, 8}
		}.encode()),
		"result": appendControl(nil, frameResult, RankResult{
			Rank: 1, Messages: 120, Bytes: 48000, Collectives: 40, BlockedSends: 3,
			MaxStall: 17 * time.Millisecond, Payload: []byte{0, 1},
		}),
		"error": appendControl(nil, frameError, errorBody{
			Kind: errKindCrash, Rank: 2, Step: 0, Msg: "mpi: rank 2 crashed (connection lost)",
		}),
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
	f.Add([]byte("HBN"))                                                        // truncated header
	f.Add([]byte("XXX\x03\x01\x00"))                                            // bad magic
	f.Add([]byte("HBN\x02\x01\x00"))                                            // retired version
	f.Add([]byte{'H', 'B', 'N', frameVersion, 4, 0xff, 0xff, 0xff, 0xff, 0x7f}) // length bomb
	f.Add(append(seedFrames()["msg"], seedFrames()["hello"]...))                // two frames back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, rest, err := decodeFrame(data, 1<<20)
		if err != nil {
			return
		}
		if len(body)+len(rest) > len(data) {
			t.Fatalf("decoded %d body + %d rest bytes from %d input bytes", len(body), len(rest), len(data))
		}
		if kind == frameMsg {
			m, err := parseMsg(body)
			if err != nil {
				return
			}
			m2, err := parseMsg(m.encode())
			if err != nil || m2.Comm != m.Comm || m2.Src != m.Src || m2.Tag != m.Tag ||
				!bytes.Equal(m2.Payload, m.Payload) {
				t.Fatalf("msg round trip: %+v -> %+v (%v)", m, m2, err)
			}
			return
		}
		var c, again control
		switch kind {
		case frameHello:
			c, again = new(helloBody), new(helloBody)
		case frameLaunch:
			c, again = new(launchBody), new(launchBody)
		case frameResult:
			c, again = new(RankResult), new(RankResult)
		case frameError:
			c, again = new(errorBody), new(errorBody)
		default:
			return
		}
		if parseControl(body, c) != nil {
			return
		}
		enc := appendControl(nil, kind, reflect.ValueOf(c).Elem().Interface().(control))
		_, body2, _, err := decodeFrame(enc, 1<<20)
		if err == nil {
			err = parseControl(body2, again)
		}
		if err != nil || !reflect.DeepEqual(c, again) {
			t.Fatalf("kind %d round trip: %+v -> %+v (%v)", kind, c, again, err)
		}
	})
}
