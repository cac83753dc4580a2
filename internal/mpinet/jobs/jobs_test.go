package jobs_test

import (
	"context"
	"encoding/binary"
	"net"
	"strings"
	"testing"

	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpinet"
	"hyperbal/internal/mpinet/jobs"
	"hyperbal/internal/phg"
	"hyperbal/internal/wire"
)

// oldPHGPayload is the launch payload's layout before hgp.Options lost
// four fields (MinShrink and MaxNetSize became constants; the gain-ordered
// k-way polish and the match-filter switch were deleted): twelve serial
// fields, LocalIPM, then the frame. Direct is the direct k-way driver's
// switch; the codec lays fields out by position, not by name.
type oldPHGPayload struct {
	Opt struct {
		Serial struct {
			K               int
			Imbalance       float64
			Seed            int64
			CoarsenTo       int
			MinShrink       float64
			InitialStarts   int
			RefinePasses    int
			MaxNetSize      int
			Direct          bool
			GainOrderedKway bool
			UnfilteredMatch bool
			Parallelism     int
		}
		LocalIPM bool
	}
	Graph hypergraph.Frame
}

// eightFieldPHGPayload is the launch payload's layout before the tuning
// knobs became constants and the direct k-way driver was deleted: eight
// serial fields (K, Imbalance, Seed, CoarsenTo, InitialStarts,
// RefinePasses, Direct, Parallelism), LocalIPM, then the frame.
type eightFieldPHGPayload struct {
	Opt struct {
		Serial struct {
			K             int
			Imbalance     float64
			Seed          int64
			CoarsenTo     int
			InitialStarts int
			RefinePasses  int
			Direct        bool
			Parallelism   int
		}
		LocalIPM bool
	}
	Graph hypergraph.Frame
}

// v4Frame appends h's hypergraph frame as wire version 4 wrote it by
// hand: a frame-version byte (1), the vertex, net and pin counts, a flags
// byte (0: unit weights and sizes, no fixed vertex), then the net sizes,
// the pins and the costs as bare uvarints.
func v4Frame(buf []byte, h *hypergraph.Hypergraph) []byte {
	buf = append(buf, 1)
	for _, n := range []int{h.NumVertices(), h.NumNets(), h.NumPins()} {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	buf = append(buf, 0)
	for n := 0; n < h.NumNets(); n++ {
		buf = binary.AppendUvarint(buf, uint64(len(h.Pins(n))))
	}
	for n := 0; n < h.NumNets(); n++ {
		for _, p := range h.Pins(n) {
			buf = binary.AppendUvarint(buf, uint64(p))
		}
	}
	for n := 0; n < h.NumNets(); n++ {
		buf = binary.AppendUvarint(buf, uint64(h.Cost(n)))
	}
	return buf
}

// TestPayloadsAreReadWhole runs the job on one in-process worker and
// requires it to refuse a payload that does not decode to exactly one
// well-formed input: bytes after the problem frame and a payload missing
// its last byte must each fail the world with an error that names the
// problem, and so must a payload in the options layout of an older build
// and one whose hypergraph frame is in version 4's hand-written layout.
// The unmodified payload must succeed.
func TestPayloadsAreReadWhole(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := mpinet.NewWorker(ln)
	go w.Serve()
	t.Cleanup(func() { w.Close() })

	b := graph.NewBuilder(6)
	for v := 0; v < 6; v++ {
		b.AddEdge(v, (v+1)%6, 1)
	}
	g := b.Build()
	phgPayload, err := jobs.EncodePHG(graph.ToHypergraph(g), phg.Options{Serial: hgp.Options{K: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var old oldPHGPayload
	old.Opt.Serial.K, old.Opt.Serial.Seed = 2, 1
	old.Graph.H = graph.ToHypergraph(g)
	oldPayload, err := wire.Varint.Append(nil, old)
	if err != nil {
		t.Fatal(err)
	}
	var eight eightFieldPHGPayload
	eight.Opt.Serial.K, eight.Opt.Serial.Seed = 2, 1
	eight.Graph.H = graph.ToHypergraph(g)
	eightPayload, err := wire.Varint.Append(nil, eight)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := wire.Varint.Append(nil, phg.Options{Serial: hgp.Options{K: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	v4Payload := v4Frame(opts, graph.ToHypergraph(g))
	cases := []struct {
		name, job string
		payload   []byte
		want      string // in the world's error; "" means the world succeeds
	}{
		{"phg valid", jobs.PHGPartition, phgPayload, ""},
		{"phg trailing bytes", jobs.PHGPartition, append(append([]byte(nil), phgPayload...), 0xAA), "trailing bytes"},
		{"phg truncated", jobs.PHGPartition, phgPayload[:len(phgPayload)-1], "truncated"},
		{"phg old options layout", jobs.PHGPartition, oldPayload, "malformed frame"},
		{"phg eight-field options layout", jobs.PHGPartition, eightPayload, "malformed frame"},
		{"phg version-4 frame layout", jobs.PHGPartition, v4Payload, "malformed frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := mpinet.RunWorld(context.Background(), tc.job, tc.payload, []string{w.Addr()}, mpinet.Options{})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid payload failed: %v", err)
				}
				if parts, err := jobs.DecodeParts(res.Root()); err != nil || len(parts) != g.NumVertices() {
					t.Fatalf("result: %d parts, %v", len(parts), err)
				}
				return
			}
			if err == nil {
				t.Fatal("the job accepted the payload")
			}
			if !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "<nil>") {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}
