package gp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/partition"
)

// goldenFile holds one SHA-256 digest per (dataset, k, entry point) of the
// partition gp returns. It is a record of output, not of quality: a change
// that moves any vertex of any of these partitions must say why, because
// refactors of the FM kernels promise byte-identical results.
const goldenFile = "testdata/partition_golden.txt"

// TestPartitionGolden runs Partition and AdaptiveRepart on every dataset
// analogue at k = 2 and 8 and compares each partition's digest with
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

// goldenDigests returns the golden table lines in a fixed order. The
// adaptive inputs rotate every fifth vertex of the scratch solution to the
// next part, and repartition at ITR 1 and 100.
func goldenDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, ds := range datasets.Names() {
		g, err := datasets.Generate(ds, 400, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 8} {
			line := func(name string, parts []int32) {
				lines = append(lines, fmt.Sprintf("%s k%d %s %s", ds, k, name, partsDigest(parts)))
			}
			opt := Options{K: k, Seed: 11}
			p, err := Partition(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			line("scratch", p.Parts)
			old := partition.Partition{Parts: append([]int32(nil), p.Parts...), K: k}
			for v := 0; v < len(old.Parts); v += 5 {
				old.Parts[v] = (old.Parts[v] + 1) % int32(k)
			}
			for _, itr := range []int64{1, 100} {
				r, err := AdaptiveRepart(g, old, itr, opt)
				if err != nil {
					t.Fatal(err)
				}
				line(fmt.Sprintf("repart/itr%d", itr), r.Parts)
			}
		}
	}
	return lines
}

// partsDigest is the hex SHA-256 of parts as little-endian int32s.
func partsDigest(parts []int32) string {
	buf := make([]byte, 4*len(parts))
	for i, p := range parts {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(p))
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf))
}
