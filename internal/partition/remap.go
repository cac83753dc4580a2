package partition

import (
	"slices"

	"hyperbal/internal/hypergraph"
)

// Remap relabels the parts of a freshly computed partition so that each new
// part number is matched to the old part number with which it shares the
// most data, minimizing migration volume after a partition-from-scratch.
// This is the "maximal matching heuristic in Zoltan to map partition
// numbers" referenced in Section 5 of the paper.
//
// The overlap matrix S[p][q] holds the total vertex data size assigned to
// old part p and new part q; a greedy maximal-weight matching on S chooses
// the relabeling. Unmatched new parts are assigned the remaining old labels
// in arbitrary (deterministic) order.
//
// Remap returns a new Partition; the input is not modified.
func Remap(h *hypergraph.Hypergraph, old, fresh Partition) Partition {
	if len(old.Parts) != len(fresh.Parts) {
		panic("partition: Remap over different vertex sets")
	}
	k := fresh.K
	if old.K > k {
		k = old.K
	}
	// Overlap matrix, sparse-ish but k is small; dense is fine.
	overlap := make([][]int64, k)
	for p := range overlap {
		overlap[p] = make([]int64, k)
	}
	for v := range fresh.Parts {
		overlap[old.Parts[v]][fresh.Parts[v]] += h.Size(v)
	}

	type entry struct {
		oldPart, newPart int
		size             int64
	}
	entries := make([]entry, 0, k*k)
	for p := 0; p < k; p++ {
		for q := 0; q < k; q++ {
			if overlap[p][q] > 0 {
				entries = append(entries, entry{p, q, overlap[p][q]})
			}
		}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.size != b.size {
			if a.size > b.size {
				return -1
			}
			return 1
		}
		if a.oldPart != b.oldPart {
			return a.oldPart - b.oldPart
		}
		return a.newPart - b.newPart
	})

	newToOld := make([]int32, k)
	for i := range newToOld {
		newToOld[i] = -1
	}
	oldUsed := make([]bool, k)
	for _, e := range entries {
		if newToOld[e.newPart] == -1 && !oldUsed[e.oldPart] {
			newToOld[e.newPart] = int32(e.oldPart)
			oldUsed[e.oldPart] = true
		}
	}
	// Assign leftovers deterministically.
	next := 0
	for q := 0; q < k; q++ {
		if newToOld[q] != -1 {
			continue
		}
		for oldUsed[next] {
			next++
		}
		newToOld[q] = int32(next)
		oldUsed[next] = true
	}

	// Greedy matching maximizes locally but can lose to the identity
	// relabeling (it may spend an old label on one large overlap and
	// strand two medium diagonal ones). Keep whichever mapping retains
	// more data, so Remap never increases migration over the input.
	var greedyKept, identityKept int64
	for q := 0; q < k; q++ {
		greedyKept += overlap[newToOld[q]][q]
		identityKept += overlap[q][q]
	}
	if identityKept > greedyKept {
		for q := 0; q < k; q++ {
			newToOld[q] = int32(q)
		}
	}

	out := Partition{Parts: make([]int32, len(fresh.Parts)), K: fresh.K}
	for v, q := range fresh.Parts {
		out.Parts[v] = newToOld[q]
	}
	return out
}
