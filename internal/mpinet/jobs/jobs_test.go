package jobs_test

import (
	"context"
	"net"
	"strings"
	"testing"

	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/mpinet"
	"hyperbal/internal/mpinet/jobs"
	"hyperbal/internal/phg"
)

// TestPayloadsAreReadWhole runs the job on one in-process worker and
// requires it to refuse a payload that does not decode to exactly one
// well-formed input: bytes after the problem frame and a payload missing
// its last byte must each fail the world with an error that names the
// problem. The unmodified payload must succeed.
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
	cases := []struct {
		name, job string
		payload   []byte
		want      string // in the world's error; "" means the world succeeds
	}{
		{"phg valid", jobs.PHGPartition, phgPayload, ""},
		{"phg trailing bytes", jobs.PHGPartition, append(append([]byte(nil), phgPayload...), 0xAA), "trailing bytes"},
		{"phg truncated", jobs.PHGPartition, phgPayload[:len(phgPayload)-1], "truncated"},
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
