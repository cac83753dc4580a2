// Package migrate turns a pair of partitions (old, new) into an explicit
// data-migration plan — who sends which vertices where, and how much — and
// executes it over the mpi substrate, moving the actual vertex payloads
// between rank-owned stores. This is the "decode the resulting partition
// to infer the data-migration pattern and cost" step of Section 3, plus
// the Zoltan-style migration tools the application would call afterwards.
package migrate

import (
	"fmt"

	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/partition"
)

// Move is one vertex relocation.
type Move struct {
	Vertex int32
	From   int32
	To     int32
	Size   int64
}

// Plan is the full migration schedule between two assignments.
type Plan struct {
	K     int
	Moves []Move
	// Volume[from][to] is the data volume moving from part `from` to part
	// `to` (zero diagonal).
	Volume [][]int64
}

// NewPlan derives the migration plan for moving h's vertex data from old
// to new. Both partitions must cover h's vertices and use the same K.
func NewPlan(h *hypergraph.Hypergraph, old, new partition.Partition) (*Plan, error) {
	if len(old.Parts) != h.NumVertices() || len(new.Parts) != h.NumVertices() {
		return nil, fmt.Errorf("migrate: partitions cover %d/%d vertices, hypergraph has %d",
			len(old.Parts), len(new.Parts), h.NumVertices())
	}
	if old.K != new.K {
		return nil, fmt.Errorf("migrate: K mismatch %d vs %d", old.K, new.K)
	}
	p := &Plan{K: old.K, Volume: make([][]int64, old.K)}
	for i := range p.Volume {
		p.Volume[i] = make([]int64, old.K)
	}
	for v := 0; v < h.NumVertices(); v++ {
		from, to := old.Parts[v], new.Parts[v]
		if from == to {
			continue
		}
		sz := h.Size(v)
		p.Moves = append(p.Moves, Move{Vertex: int32(v), From: from, To: to, Size: sz})
		p.Volume[from][to] += sz
	}
	return p, nil
}

// TotalVolume is the sum of all moved data sizes.
func (p *Plan) TotalVolume() int64 {
	var t int64
	for _, row := range p.Volume {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// MaxOutbound returns the largest per-part send volume (the migration
// bottleneck on the sending side).
func (p *Plan) MaxOutbound() int64 {
	var m int64
	for _, row := range p.Volume {
		var s int64
		for _, v := range row {
			s += v
		}
		if s > m {
			m = s
		}
	}
	return m
}

// MaxInbound returns the largest per-part receive volume.
func (p *Plan) MaxInbound() int64 {
	var m int64
	for to := 0; to < p.K; to++ {
		var s int64
		for from := 0; from < p.K; from++ {
			s += p.Volume[from][to]
		}
		if s > m {
			m = s
		}
	}
	return m
}

// VertexPayload is a vertex's application data in flight.
type VertexPayload struct {
	Vertex int32
	Data   []byte
}

// Store is one rank's owned vertex data.
type Store map[int32][]byte

// Execute runs the plan over the communicator: each rank plays part
// c.Rank(), sending the payloads of its outgoing vertices and receiving
// incoming ones. The store is mutated in place. The communicator size must
// equal the plan's K. Returns the number of vertices received.
//
// Every rank must call Execute with the plan and its own store; payload
// ownership transfers with the message (the sender deletes its copy),
// exactly like a real Zoltan data migration.
func Execute(c *mpi.Comm, p *Plan, store Store) (int, error) {
	if c.Size() != p.K {
		return 0, fmt.Errorf("migrate: plan has %d parts, communicator %d ranks", p.K, c.Size())
	}
	me := int32(c.Rank())
	// Bucket outgoing payloads per destination. Errors are deferred until
	// after the collective exchange so a faulty rank cannot deadlock its
	// peers mid-Alltoall (collective symmetry is preserved even on error).
	var firstErr error
	out := make([][]VertexPayload, p.K)
	for _, m := range p.Moves {
		if m.From != me {
			continue
		}
		data, ok := store[m.Vertex]
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("migrate: rank %d does not own vertex %d scheduled to move", me, m.Vertex)
			}
			continue
		}
		out[m.To] = append(out[m.To], VertexPayload{Vertex: m.Vertex, Data: data})
		delete(store, m.Vertex)
	}
	in := mpi.Alltoall(c, out)
	received := 0
	for src, payloads := range in {
		if src == int(me) {
			continue
		}
		for _, pl := range payloads {
			if _, dup := store[pl.Vertex]; dup {
				if firstErr == nil {
					firstErr = fmt.Errorf("migrate: rank %d received duplicate vertex %d", me, pl.Vertex)
				}
				continue
			}
			store[pl.Vertex] = pl.Data
			received++
		}
	}
	return received, firstErr
}
