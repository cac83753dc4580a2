package mpinet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hyperbal/internal/mpi"
	"hyperbal/internal/wire"
)

// TestFrameStreamRoundTrip: every frame kind must survive the streaming
// reader (readFrame) byte-for-byte, including several frames back to back
// on one stream, with io.EOF verbatim at a clean boundary.
func TestFrameStreamRoundTrip(t *testing.T) {
	frames := seedFrames()
	order := []string{"hello", "ack", "launch", "msg", "result", "error"}
	var stream []byte
	for _, name := range order {
		stream = append(stream, frames[name]...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	wantKinds := []byte{frameHello, frameHelloAck, frameLaunch, frameMsg, frameResult, frameError}
	for i, want := range wantKinds {
		kind, body, n, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d (%s): %v", i, order[i], err)
		}
		if n != len(frames[order[i]]) {
			t.Fatalf("frame %d (%s): readFrame consumed %d bytes of a %d-byte frame", i, order[i], n, len(frames[order[i]]))
		}
		if kind != want {
			t.Fatalf("frame %d: kind %d, want %d", i, kind, want)
		}
		if frame := frames[order[i]]; !bytes.Equal(body, frame[len(frame)-len(body):]) {
			t.Fatalf("frame %d: body differs from the bytes written", i)
		}
	}
	if _, _, _, err := readFrame(br); err != io.EOF {
		t.Fatalf("clean stream end: err = %v, want io.EOF", err)
	}
}

// TestFrameHostileInput: malformed frames must fail with structured
// errors — never a panic, never io.EOF masquerading as success, and never
// an allocation sized by an attacker-controlled length. An empty stream is
// a clean end (io.EOF); any other short header is malformed.
func TestFrameHostileInput(t *testing.T) {
	valid := seedFrames()["msg"]
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"bad magic", []byte{'X', 'X', 'X', frameVersion, 1, 0}, errBadMagic},
		{"truncated magic", []byte("HB"), errMalformed},
		{"bad version", []byte{'H', 'B', 'N', frameVersion + 1, 1, 0}, errMalformed},
		// A version-1 msg frame (type name + gob stream): refused at the
		// version byte, never handed to the payload codec.
		{"version 1", []byte("HBN\x01\x04\x12\xb9\xf3\xdd\xf1\t\x02Q\a[]int32\t\b\a"), errMalformed},
		// A version-2 hello (its rank a plain uvarint, not zigzag): refused
		// at the version byte, never parsed as a newer body.
		{"version 2", []byte("HBN\x02\x01\f\nw-deadbeef\x02"), errMalformed},
		// A version-3 launch, which still carried a send window (1 024):
		// refused at the version byte, never parsed as a version-4 body.
		{"version 3", []byte("HBN\x03\x03\\\nw-deadbeef\x02\x06\rphg.partition\x03\x0f127.0.0.1:19091\x0f127.0.0.1:19092\x0f127.0.0.1:19093\x80\x10\x80\xc0\xf5\x88\xfe\x06\x80\x89z\x0e\x03\x01\x02\x03"), errMalformed},
		{"kind zero", []byte{'H', 'B', 'N', frameVersion, 0, 0}, errMalformed},
		{"kind out of range", []byte{'H', 'B', 'N', frameVersion, 0x63, 0}, errMalformed},
		{"missing length", []byte{'H', 'B', 'N', frameVersion, 1}, errMalformed},
		{"length bomb", []byte{'H', 'B', 'N', frameVersion, 4, 0xff, 0xff, 0xff, 0xff, 0x7f}, errMalformed},
		{"length overflows uvarint", append([]byte{'H', 'B', 'N', frameVersion, 4}, bytes.Repeat([]byte{0xff}, 11)...), errMalformed},
		{"truncated body", valid[:len(valid)-2], errMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(tc.data)))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if strings.Contains(tc.name, "version") && !strings.Contains(err.Error(), "version") {
				t.Fatalf("err = %v, want a refusal at the version byte", err)
			}
		})
	}
}

// TestFrameLyingLength: a header that declares a DefaultMaxFrame body and
// sends none must fail as malformed after allocating about one buffer of
// body, not the 64 MiB it claims. Every accepted connection reads such a
// header before any validation.
func TestFrameLyingLength(t *testing.T) {
	hdr := appendFrameHeader(nil, frameMsg, DefaultMaxFrame)
	br := bufio.NewReaderSize(bytes.NewReader(hdr), 64<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrame(br)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errMalformed) {
		t.Fatalf("err = %v, want errMalformed", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte header allocated %d bytes; want under 1 MiB", len(hdr), got)
	}
}

// TestFrameLongBody: a body longer than eagerBody, which readFrame grows
// as it arrives, still comes back whole.
func TestFrameLongBody(t *testing.T) {
	payload := make([]byte, 5*eagerBody+3)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	frame := appendFrame(nil, frameMsg, msgBody{Comm: 1, Src: 2, Tag: 3, Payload: payload}.encode())
	kind, body, n, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil || kind != frameMsg || n != len(frame) {
		t.Fatalf("kind %d, %d of %d bytes, err %v", kind, n, len(frame), err)
	}
	if m, err := parseMsg(body); err != nil || !bytes.Equal(m.Payload, payload) {
		t.Fatalf("payload did not survive (%v)", err)
	}
}

// TestFrameBodyBounds: each body parser enforces its documented limits.
func TestFrameBodyBounds(t *testing.T) {
	launch := func(edit func(l *launchBody)) launchBody {
		l := launchBody{WorldID: "w", Rank: 0, Size: 2, Job: "j", Addrs: []string{"a", "b"}, RecvTimeout: time.Second}
		edit(&l)
		return l
	}
	cases := []struct {
		name string
		body control
		into control
	}{
		{"hello oversized world id", helloBody{WorldID: strings.Repeat("x", maxWorldIDLen+1)}, new(helloBody)},
		{"hello negative rank", helloBody{WorldID: "w", Rank: -1}, new(helloBody)},
		{"launch addr count != size", launch(func(l *launchBody) { l.Addrs = []string{"a", "b", "c"} }), new(launchBody)},
		{"launch rank >= size", launch(func(l *launchBody) { l.Rank = 2 }), new(launchBody)},
		{"launch timeout past 24h", launch(func(l *launchBody) { l.RecvTimeout = 25 * time.Hour }), new(launchBody)},
		{"launch oversized addr", launch(func(l *launchBody) { l.Addrs[1] = strings.Repeat("a", maxAddrLen+1) }), new(launchBody)},
		{"result negative counter", RankResult{Messages: -1}, new(RankResult)},
		{"error unknown kind", errorBody{Kind: errKindStall + 1, Msg: "m"}, new(errorBody)},
		{"error oversized message", errorBody{Msg: strings.Repeat("m", maxErrMsgLen+1)}, new(errorBody)},
	}
	for _, tc := range cases {
		body, err := wire.Varint.Append(nil, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if err := parseControl(body, tc.into); !errors.Is(err, errMalformed) {
			t.Errorf("%s: err = %v, want errMalformed", tc.name, err)
		}
	}
	if _, err := parseMsg(msgBody{Src: maxAddrCount + 1}.encode()); err == nil {
		t.Error("msg accepted an out-of-range source rank")
	}
}

// frameLoop is a Transport whose network is the msg frame path itself:
// Send builds the real frame, reads it back through the streaming reader
// and parser exactly as a peer's readLoop would, and holds the payload for
// the matching Recv. Rank 0 of a 2-rank world on it hears its own messages
// as if rank 1 had sent them.
type frameLoop struct {
	br    *bufio.Reader
	inbox []msgBody
}

func (l *frameLoop) Send(comm uint64, dst, tag int, p wire.Sized) (time.Duration, error) {
	frame := appendMsgFrame(comm, dst, tag, p)
	if len(frame) != cap(frame) {
		return 0, fmt.Errorf("msg frame of %d bytes sits in a %d-byte buffer; it must be sized exactly", len(frame), cap(frame))
	}
	l.br.Reset(bytes.NewReader(frame))
	kind, body, n, err := readFrame(l.br)
	if err != nil || kind != frameMsg || n != len(frame) {
		return 0, fmt.Errorf("readFrame: kind %d, %d of %d bytes, err %v", kind, n, len(frame), err)
	}
	m, err := parseMsg(body)
	if err != nil || m.Comm != comm || m.Src != dst || m.Tag != tag || len(m.Payload) != p.Size() {
		return 0, fmt.Errorf("parseMsg: %+v, err %v", m, err)
	}
	l.inbox = append(l.inbox, m)
	return 0, nil
}

func (l *frameLoop) Recv(comm uint64, src, tag int) ([]byte, time.Duration, error) {
	if len(l.inbox) == 0 || l.inbox[0].Comm != comm || l.inbox[0].Src != src || l.inbox[0].Tag != tag {
		return nil, 0, fmt.Errorf("no message (comm %d, src %d, tag %d) at the head of the loop", comm, src, tag)
	}
	m := l.inbox[0]
	l.inbox = l.inbox[:copy(l.inbox, l.inbox[1:])]
	return m.Payload, 0, nil
}

// TestMsgPathAllocations: a struct-slice payload crosses encode → frame →
// stream read → parse → decode in a small number of allocations that does
// not depend on its length — one frame, one frame body, one decoded slice,
// plus fixed per-message bookkeeping; nothing per element, no intermediate
// payload copies.
func TestMsgPathAllocations(t *testing.T) {
	type bid struct {
		Cand, Match int32
		Score       float64
	}
	allocs := map[int]float64{}
	loop := &frameLoop{br: bufio.NewReader(nil)}
	_, err := mpi.RunTransportRank(loop, 0, 2, mpi.Options{}, func(c *mpi.Comm) error {
		for _, n := range []int{256, 4096} {
			bids := make([]bid, n)
			for i := range bids {
				bids[i] = bid{Cand: int32(i), Match: int32(-i), Score: float64(i) / 2}
			}
			send := [][]bid{nil, bids}
			var got [][]bid
			allocs[n] = testing.AllocsPerRun(20, func() { got = mpi.Alltoall(c, send) })
			if !reflect.DeepEqual(got[1], bids) {
				return fmt.Errorf("%d bids did not survive the frame path", n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs[256] != allocs[4096] || allocs[256] > 12 {
		t.Fatalf("allocations per message: %v for 256 elements, %v for 4096; want equal and at most 12", allocs[256], allocs[4096])
	}
}
