// Package jobs registers the partitioner jobs runnable on mpinet compute
// workers: the parallel hypergraph partitioner (phg) and the parallel
// graph partitioner / adaptive repartitioner (pgp). Importing this
// package (balancerd's -compute-worker mode and hgpart's -net-workers
// mode both do, blank or otherwise) makes a process able to serve as any
// rank of those worlds.
//
// Job payloads are self-contained declared structs in the internal/wire
// codec's Varint layout: the options, then the problem as its own frame —
// the hypergraph's HBW frame or the graph's CSR frame — so the coordinator
// ships the exact problem every rank needs and nothing else, and a payload
// with bytes left over is refused. Results are the partition vector in
// the same layout (rank 0 only; other ranks return nothing, since every
// rank computes the identical partition).
package jobs

import (
	"fmt"

	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/mpinet"
	"hyperbal/internal/partition"
	"hyperbal/internal/pgp"
	"hyperbal/internal/phg"
	"hyperbal/internal/wire"
)

// Job names, as launched by mpinet.RunWorld.
const (
	PHGPartition = "phg.partition"
	PGPPartition = "pgp.partition"
)

type phgPayload struct {
	Opt   phg.Options
	Graph hypergraph.Frame
}

// pgpPayload carries Old, the partition AdaptiveRepart improves on,
// exactly when Adaptive is set.
type pgpPayload struct {
	Opt      pgp.Options
	Adaptive bool
	Itr      int64
	G        graph.Graph
	Old      []int32
}

// EncodePHG builds the payload for a PHGPartition world: opt, then h's
// binary frame.
func EncodePHG(h *hypergraph.Hypergraph, opt phg.Options) ([]byte, error) {
	return wire.Varint.Append(nil, phgPayload{opt, hypergraph.Frame{H: h}})
}

// EncodePGP builds the payload for a PGPPartition world. old (required
// iff adaptive) is the previous partition AdaptiveRepart improves on; itr
// is the paper's migration-vs-cut trade-off factor.
func EncodePGP(g *graph.Graph, old []int32, itr int64, opt pgp.Options, adaptive bool) ([]byte, error) {
	if !adaptive {
		old = nil
	} else if len(old) != g.NumVertices() {
		return nil, fmt.Errorf("jobs: old partition covers %d vertices, graph has %d", len(old), g.NumVertices())
	}
	return wire.Varint.Append(nil, pgpPayload{opt, adaptive, itr, *g, old})
}

// DecodeParts decodes a world's result payload (rank 0's partition
// vector).
func DecodeParts(payload []byte) ([]int32, error) {
	var parts []int32
	if err := decode(payload, &parts); err != nil {
		return nil, err
	}
	if len(parts) > hypergraph.MaxWireVertices {
		return nil, fmt.Errorf("jobs: result partition of %d vertices exceeds %d", len(parts), hypergraph.MaxWireVertices)
	}
	return parts, nil
}

func decode(payload []byte, into any) error {
	if err := wire.Varint.Decode(payload, into); err != nil {
		return fmt.Errorf("jobs: %T payload: %w", into, err)
	}
	return nil
}

func init() {
	mpinet.RegisterJob(PHGPartition, partitionPHG)
	mpinet.RegisterJob(PGPPartition, partitionPGP)
}

func partitionPHG(c *mpi.Comm, payload []byte) ([]byte, error) {
	var in phgPayload
	if err := decode(payload, &in); err != nil {
		return nil, err
	}
	p, err := phg.Partition(c, in.Graph.H, in.Opt)
	return rootParts(c, p, err)
}

func partitionPGP(c *mpi.Comm, payload []byte) ([]byte, error) {
	var in pgpPayload
	if err := decode(payload, &in); err != nil {
		return nil, err
	}
	if n := in.G.NumVertices(); in.Adaptive && len(in.Old) != n || !in.Adaptive && in.Old != nil {
		return nil, fmt.Errorf("jobs: pgp payload (adaptive %v) carries an old partition of %d vertices for a graph of %d",
			in.Adaptive, len(in.Old), n)
	}
	if in.Adaptive {
		p, err := pgp.AdaptiveRepart(c, &in.G, partition.Partition{Parts: in.Old, K: in.Opt.Serial.K}, in.Itr, in.Opt)
		return rootParts(c, p, err)
	}
	p, err := pgp.Partition(c, &in.G, in.Opt)
	return rootParts(c, p, err)
}

// rootParts is a job's result: rank 0's partition vector.
func rootParts(c *mpi.Comm, p partition.Partition, err error) ([]byte, error) {
	if err != nil || c.Rank() != 0 {
		return nil, err
	}
	return wire.Varint.Append(nil, p.Parts)
}
