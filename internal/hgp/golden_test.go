package hgp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// goldenFile holds one SHA-256 digest per (dataset, k, pipeline) of the
// partition the pipeline returns, beside that partition's connectivity-1
// cut and max imbalance. The digest is the record of output: a change that
// moves any vertex of any of these partitions must say why, because the
// kernels promise byte-identical results across refactors. The cut and
// imbalance columns make such a change's quality trade readable as a diff.
const goldenFile = "testdata/partition_golden.txt"

// TestPartitionGolden runs the cold pipelines (recursive bisection, the
// direct k-way driver, the k-way FM polish) and the warm path (localized
// and V-cycle tiers, with k-way FM) on every dataset analogue at k = 2 and
// 8, with fixed vertices, and compares each partition's digest with
// goldenFile.
func TestPartitionGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := goldenDigests(t)
	if len(got) != len(want) {
		t.Errorf("%d digests, golden file has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("digest %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("full table:\n%s", strings.Join(got, "\n"))
	}
}

// goldenDigests returns the golden table lines in a fixed order.
func goldenDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, ds := range datasets.Names() {
		g, err := datasets.Generate(ds, 400, 5)
		if err != nil {
			t.Fatal(err)
		}
		h := graph.ToHypergraph(g)
		for _, k := range []int{2, 8} {
			hf := goldenFixed(h, k)
			line := func(name string, parts []int32) {
				p := partition.Partition{Parts: parts, K: k}
				imb := partition.Imbalance(partition.Weights(hf, p))
				lines = append(lines, fmt.Sprintf("%s k%d %s cut %d imb %.4f %s", ds, k, name, partition.CutSize(hf, p), imb, partsDigest(parts)))
			}
			opt := Options{K: k, Seed: 11}
			rb := mustPartition(t, hf, opt)
			line("rb", rb)
			line("direct", mustPartition(t, hf, Options{K: k, Seed: 11, DirectKway: true}))
			line("kwayfm", mustPartition(t, hf, Options{K: k, Seed: 11, KwayFM: true}))
			// The warm inputs rotate the dirty vertices of the cold solution
			// to the next part: a tenth of them stays on the localized tier,
			// a third escalates to the seeded V-cycle.
			for _, every := range []int{10, 3} {
				inherited := append([]int32(nil), rb...)
				dirty := make([]bool, len(rb))
				for v := 0; v < len(rb); v += every {
					dirty[v] = true
					inherited[v] = (inherited[v] + 1) % int32(k)
				}
				p, stats, err := PartitionWarm(hf, Options{K: k, Seed: 11, KwayFM: true}, WarmSpec{Parts: inherited, Dirty: dirty})
				if err != nil {
					t.Fatal(err)
				}
				line(fmt.Sprintf("warm%d/%s", every, stats.Mode), p.Parts)
			}
		}
	}
	return lines
}

// goldenFixed fixes every 13th vertex of h round-robin over the k parts.
func goldenFixed(h *hypergraph.Hypergraph, k int) *hypergraph.Hypergraph {
	fixed := make([]int32, h.NumVertices())
	for v := range fixed {
		fixed[v] = hypergraph.Free
		if v%13 == 0 {
			fixed[v] = int32(v / 13 % k)
		}
	}
	return h.WithFixed(fixed)
}

func mustPartition(t *testing.T, h *hypergraph.Hypergraph, opt Options) []int32 {
	t.Helper()
	p, err := Partition(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p.Parts
}

// partsDigest is the hex SHA-256 of parts as little-endian int32s.
func partsDigest(parts []int32) string {
	buf := make([]byte, 4*len(parts))
	for i, p := range parts {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(p))
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf))
}
