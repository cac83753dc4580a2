// Package jobs registers the partitioner job runnable on mpinet compute
// workers: the parallel hypergraph partitioner (phg). Importing this
// package (hgpart does, for both its -worker and -net-workers modes)
// makes a process able to serve as any rank of that world.
//
// A job payload is a self-contained declared struct in the internal/wire
// codec's Varint layout: the options, then the hypergraph as its own
// length-prefixed HBW frame, so the coordinator ships the exact problem every rank needs and
// nothing else, and a payload with bytes left over or cut short is
// refused. The result is the partition vector in the same layout (rank 0
// only; other ranks return nothing, since every rank computes the
// identical partition).
package jobs

import (
	"fmt"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/mpinet"
	"hyperbal/internal/phg"
	"hyperbal/internal/wire"
)

// PHGPartition is the job name mpinet.RunWorld launches.
const PHGPartition = "phg.partition"

type phgPayload struct {
	Opt   phg.Options
	Graph hypergraph.Frame
}

// EncodePHG builds the payload for a PHGPartition world: opt, then h's
// binary frame.
func EncodePHG(h *hypergraph.Hypergraph, opt phg.Options) ([]byte, error) {
	return wire.Varint.Append(nil, phgPayload{opt, hypergraph.Frame{H: h}})
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
}

// partitionPHG runs one rank of a PHGPartition world. Its result is
// rank 0's partition vector.
func partitionPHG(c *mpi.Comm, payload []byte) ([]byte, error) {
	var in phgPayload
	if err := decode(payload, &in); err != nil {
		return nil, err
	}
	h, err := in.Graph.Build()
	if err != nil {
		return nil, fmt.Errorf("jobs: phg payload: %w", err)
	}
	p, err := phg.Partition(c, h, in.Opt)
	if err != nil || c.Rank() != 0 {
		return nil, err
	}
	return wire.Varint.Append(nil, p.Parts)
}
