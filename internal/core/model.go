// Package core implements the paper's primary contribution: the
// repartitioning hypergraph model of Section 3. Given the epoch-j
// computation hypergraph H^j and the epoch j-1 partition, it constructs the
// augmented hypergraph H̄^j whose connectivity-1 cut under a fixed-vertex
// constraint equals α·(communication volume) + (migration volume), reduces
// dynamic load balancing to hypergraph partitioning with fixed vertices,
// and decodes the result back into a partition plus a migration plan.
//
// The package also provides the Balancer front-end exposing the four
// algorithms benchmarked in Section 5 (Zoltan-repart, Zoltan-scratch,
// ParMETIS-repart, ParMETIS-scratch equivalents) and the total-cost model
// t_tot = α(t_comp + t_comm) + t_mig + t_repart of Section 1.
package core

import (
	"fmt"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// RepartitionHypergraph is the augmented hypergraph H̄^j together with the
// bookkeeping needed to decode a partition of it.
type RepartitionHypergraph struct {
	// H is the augmented hypergraph: the original numVertices vertices
	// followed by K partition vertices u_0..u_{K-1}, each fixed to its
	// part. Original net costs are scaled by Alpha; each original vertex
	// carries one migration net {v, u_old(v)} with cost Size(v).
	H *hypergraph.Hypergraph
	// NumVertices is the number of original (computation) vertices.
	NumVertices int
	// K is the part count; partition vertex u_i has index NumVertices+i.
	K int
	// Alpha is the iteration count the communication costs were scaled by.
	Alpha int64
	// Old is the epoch j-1 partition the migration nets encode.
	Old partition.Partition
}

// BuildRepartition constructs the repartitioning hypergraph H̄^j from the
// epoch hypergraph h and the previous assignment old (Section 3):
//
//   - one zero-weight partition vertex u_i per part i, fixed to part i;
//   - every communication net's cost multiplied by alpha;
//   - one migration net {v, u_i} per vertex v previously assigned to part
//     i, with cost Size(v) — if v lands in part q != i, the net is cut with
//     connectivity 2 and contributes exactly Size(v) to the cut.
//
// New vertices (absent from the old epoch) must carry old assignments too —
// the paper attaches them to "the partition vertex associated with the
// partition they were created" on; callers encode that in old.
func BuildRepartition(h *hypergraph.Hypergraph, old partition.Partition, k int, alpha int64) (*RepartitionHypergraph, error) {
	n := h.NumVertices()
	if len(old.Parts) != n {
		return nil, fmt.Errorf("core: old partition covers %d vertices, hypergraph has %d", len(old.Parts), n)
	}
	if alpha < 1 {
		return nil, fmt.Errorf("core: alpha must be >= 1, got %d", alpha)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	for v, p := range old.Parts {
		if p < 0 || int(p) >= k {
			return nil, fmt.Errorf("core: vertex %d previously on part %d, want [0,%d)", v, p, k)
		}
	}

	// One exact-size CSR pass: the communication nets, scaled by alpha,
	// then one migration net per original vertex.
	nets, pins := h.NumNets(), h.NumPins()
	netStart := make([]int32, 1, nets+n+1)
	netPins := make([]int32, 0, pins+2*n)
	costs := make([]int64, 0, nets+n)
	for netID := 0; netID < nets; netID++ {
		netPins = append(netPins, h.Pins(netID)...)
		netStart = append(netStart, int32(len(netPins)))
		costs = append(costs, h.Cost(netID)*alpha)
	}
	for v := 0; v < n; v++ {
		netPins = append(netPins, int32(v), int32(n)+old.Parts[v])
		netStart = append(netStart, int32(len(netPins)))
		costs = append(costs, h.Size(v))
	}
	// Partition vertices carry no computational load or data and are
	// fixed to their parts; original vertices are free.
	weights := make([]int64, n+k)
	sizes := make([]int64, n+k)
	fixed := make([]int32, n+k)
	for v := 0; v < n; v++ {
		weights[v], sizes[v], fixed[v] = h.Weight(v), h.Size(v), hypergraph.Free
	}
	for i := 0; i < k; i++ {
		fixed[n+i] = int32(i)
	}
	return &RepartitionHypergraph{
		H:           hypergraph.FromCSR(netStart, netPins, costs, weights, sizes, fixed),
		NumVertices: n,
		K:           k,
		Alpha:       alpha,
		Old:         old.Clone(),
	}, nil
}

// Decode extracts the epoch-j partition of the original vertices from a
// partition of the augmented hypergraph, verifying the fixed-vertex
// constraint held, and returns it together with the migration statistics.
func (r *RepartitionHypergraph) Decode(h *hypergraph.Hypergraph, aug partition.Partition) (partition.Partition, Migration, error) {
	if len(aug.Parts) != r.NumVertices+r.K {
		return partition.Partition{}, Migration{}, fmt.Errorf("core: augmented partition covers %d vertices, want %d", len(aug.Parts), r.NumVertices+r.K)
	}
	for i := 0; i < r.K; i++ {
		if got := aug.Of(r.NumVertices + i); got != i {
			return partition.Partition{}, Migration{}, fmt.Errorf("core: partition vertex u_%d landed on part %d; fixed-vertex constraint violated", i, got)
		}
	}
	p := partition.Partition{Parts: append([]int32(nil), aug.Parts[:r.NumVertices]...), K: r.K}
	mig := ComputeMigration(h, r.Old, p)
	return p, mig, nil
}

// Migration summarizes the data movement between two epochs.
type Migration struct {
	Volume int64 // total size of moved vertex data
	Moved  int   // number of moved vertices
}

// ComputeMigration measures the migration implied by moving from old to new.
func ComputeMigration(h *hypergraph.Hypergraph, old, new partition.Partition) Migration {
	return Migration{
		Volume: partition.MigrationVolume(h, old, new),
		Moved:  partition.MovedVertices(old, new),
	}
}

// ModelCut verifies the central identity of the model: the connectivity-1
// cut of the augmented hypergraph equals alpha*commVolume + migrationVolume.
// Exposed for tests and the worked example of Figure 1.
func (r *RepartitionHypergraph) ModelCut(aug partition.Partition) int64 {
	return partition.CutSize(r.H, aug)
}

// Extend lifts an epoch partition to the augmented vertex set (partition
// vertices appended at their fixed parts), for feeding ModelCut.
func (r *RepartitionHypergraph) Extend(p partition.Partition) partition.Partition {
	parts := make([]int32, r.NumVertices+r.K)
	copy(parts, p.Parts)
	for i := 0; i < r.K; i++ {
		parts[r.NumVertices+i] = int32(i)
	}
	return partition.Partition{Parts: parts, K: r.K}
}
