package hgp

import (
	"slices"

	"hyperbal/internal/hypergraph"
)

// Contract builds the coarse hypergraph induced by a match vector.
// It returns the coarse hypergraph and the coarse map cmap (fine vertex ->
// coarse vertex). Coarse vertex weight and size are the sums of the
// constituents. Fixed labels propagate by the three-case rule of
// Section 4.1: same-fixed pairs stay fixed, fixed+free pairs inherit the
// fixed part, free pairs stay free. Single-pin coarse nets are dropped;
// identical coarse nets are merged with summed costs.
func Contract(h *hypergraph.Hypergraph, match []int32) (*hypergraph.Hypergraph, []int32) {
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	return contractWS(h, match, ws)
}

// contractWS is Contract with explicit scratch space: the dedup hash table,
// per-net pin buffer, and dedup marks live in ws, so coarsening a level
// allocates only the coarse CSR arrays and cmap that outlive the call.
func contractWS(h *hypergraph.Hypergraph, match []int32, ws *workspace) (*hypergraph.Hypergraph, []int32) {
	n := h.NumVertices()
	cmap := make([]int32, n)
	for v := range cmap {
		cmap[v] = -1
	}
	numCoarse := 0
	for v := 0; v < n; v++ {
		if cmap[v] != -1 {
			continue
		}
		u := int(match[v])
		cmap[v] = int32(numCoarse)
		if u != v {
			cmap[u] = int32(numCoarse)
		}
		numCoarse++
	}

	weights := make([]int64, numCoarse)
	sizes := make([]int64, numCoarse)
	var fixed []int32
	hasFixed := false
	if h.HasFixed() {
		fixed = make([]int32, numCoarse)
		for i := range fixed {
			fixed[i] = hypergraph.Free
		}
	}
	for v := 0; v < n; v++ {
		c := cmap[v]
		weights[c] += h.Weight(v)
		sizes[c] += h.Size(v)
		if fixed != nil {
			if f := h.Fixed(v); f != hypergraph.Free {
				fixed[c] = f
				hasFixed = true
			}
		}
	}
	if !hasFixed {
		fixed = nil
	}

	// Coarse nets, deduplicated through an open-addressing table keyed by
	// the sorted pin list. Slots hold coarse net ids (or -1 when empty);
	// probing compares actual pin lists, so hash collisions are benign.
	// Nets are appended in fine-net order, keeping output deterministic.
	numNets := h.NumNets()
	tabSize := 1
	for tabSize < 2*numNets {
		tabSize *= 2
	}
	ws.htab = growI32(ws.htab, tabSize)
	htab := ws.htab
	for i := range htab {
		htab[i] = -1
	}
	mask := uint64(tabSize - 1)

	ws.cmark = growBool(ws.cmark, numCoarse)
	mark := ws.cmark
	buf := ws.pinBuf[:0]

	netStart := make([]int32, 1, numNets+1)
	netPins := make([]int32, 0, h.NumPins())
	costs := make([]int64, 0, numNets)

	for netID := 0; netID < numNets; netID++ {
		buf = buf[:0]
		for _, p := range h.Pins(netID) {
			c := cmap[p]
			if !mark[c] {
				mark[c] = true
				buf = append(buf, c)
			}
		}
		for _, c := range buf {
			mark[c] = false
		}
		if len(buf) < 2 {
			continue // uncuttable net
		}
		slices.Sort(buf)
		slot := hashPins(buf) & mask
		for {
			id := htab[slot]
			if id == -1 {
				htab[slot] = int32(len(costs))
				netPins = append(netPins, buf...)
				netStart = append(netStart, int32(len(netPins)))
				costs = append(costs, h.Cost(netID))
				break
			}
			if equalPins(netPins[netStart[id]:netStart[id+1]], buf) {
				costs[id] += h.Cost(netID)
				break
			}
			slot = (slot + 1) & mask
		}
	}
	ws.pinBuf = buf

	return hypergraph.FromCSR(netStart, netPins, costs, weights, sizes, fixed), cmap
}

// hashPins is an FNV-1a-style hash over the pin ids.
func hashPins(pins []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range pins {
		h ^= uint64(uint32(p))
		h *= 1099511628211
	}
	return h
}

func equalPins(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
