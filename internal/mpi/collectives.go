package mpi

import "slices"

// Typed collectives. All of them must be called by every rank of the
// communicator, in the same order (standard MPI discipline). Simple
// root-centralized algorithms: correctness and traffic accounting matter
// here, not message-complexity asymptotics.

// Bcast distributes root's value to every rank and returns it.
func Bcast[T any](c *Comm, root int, v T) T {
	defer c.collective("bcast")()
	if c.size == 1 {
		return v
	}
	if c.rank == root {
		for r := 0; r < c.size; r++ {
			if r != root {
				c.Send(r, tagBcast, v)
			}
		}
		return v
	}
	return recvAs[T](c, root, tagBcast)
}

// BcastSlice distributes root's slice; non-root ranks receive a copy they
// own (in-process the root makes it; over a Transport the encode is it).
func BcastSlice[T any](c *Comm, root int, v []T) []T {
	defer c.collective("bcast-slice")()
	if c.size == 1 {
		return v
	}
	if c.rank == root {
		for r := 0; r < c.size; r++ {
			if r != root {
				s := v
				if c.tr == nil {
					s = append([]T(nil), v...)
				}
				c.Send(r, tagBcast, s)
			}
		}
		return v
	}
	return recvAs[[]T](c, root, tagBcast)
}

// Gather collects one value per rank at root (rank order). Non-root ranks
// receive nil.
func Gather[T any](c *Comm, root int, v T) []T {
	defer c.collective("gather")()
	if c.rank == root {
		out := make([]T, c.size)
		out[root] = v
		for r := 0; r < c.size; r++ {
			if r != root {
				out[r] = recvAs[T](c, r, tagGather)
			}
		}
		return out
	}
	c.Send(root, tagGather, v)
	return nil
}

// Allgather collects one value per rank, in rank order, on every rank.
func Allgather[T any](c *Comm, v T) []T {
	defer c.collective("allgather")()
	all := Gather(c, 0, v)
	return BcastSlice(c, 0, all)
}

// AllgatherSlice concatenates per-rank slices on every rank (rank order),
// also returning per-rank counts. It is one Allgather of the slices, each
// rank concatenating locally, so the counts are the slice lengths and cost
// no message of their own: 2(p−1) messages. In-process the other ranks
// read v itself, so v is the caller's no longer (as with Send).
func AllgatherSlice[T any](c *Comm, v []T) (concat []T, counts []int) {
	defer c.collective("allgather-slice")()
	parts := Allgather(c, v)
	counts = make([]int, len(parts))
	for r, p := range parts {
		counts[r] = len(p)
	}
	return slices.Concat(parts...), counts
}

// Reduce folds one value per rank at root with op (applied in rank order).
// Non-root ranks receive the zero value.
func Reduce[T any](c *Comm, root int, v T, op func(T, T) T) T {
	defer c.collective("reduce")()
	all := Gather(c, root, v)
	if c.rank != root {
		var zero T
		return zero
	}
	acc := all[0]
	for _, x := range all[1:] {
		acc = op(acc, x)
	}
	return acc
}

// Allreduce folds one value per rank with op and distributes the result.
func Allreduce[T any](c *Comm, v T, op func(T, T) T) T {
	defer c.collective("allreduce")()
	acc := Reduce(c, 0, v, op)
	return Bcast(c, 0, acc)
}

// AllreduceSlice folds equal-length slices elementwise with op and
// distributes the result (like MPI_Allreduce over an array).
func AllreduceSlice[T any](c *Comm, v []T, op func(T, T) T) []T {
	defer c.collective("allreduce-slice")()
	all := Gather(c, 0, v)
	var acc []T
	if c.rank == 0 {
		acc = append([]T(nil), all[0]...)
		for _, x := range all[1:] {
			for i := range acc {
				acc[i] = op(acc[i], x[i])
			}
		}
	}
	return BcastSlice(c, 0, acc)
}

// Alltoall delivers sendbuf[r] to rank r; returns the values received,
// indexed by source rank.
func Alltoall[T any](c *Comm, sendbuf []T) []T {
	defer c.collective("alltoall")()
	if len(sendbuf) != c.size {
		panic("mpi: Alltoall sendbuf length must equal communicator size")
	}
	// route through rank-ordered point-to-point with deterministic order:
	// send ascending, receive ascending; self-delivery is local.
	out := make([]T, c.size)
	out[c.rank] = sendbuf[c.rank]
	for r := 0; r < c.size; r++ {
		if r != c.rank {
			c.Send(r, tagGather, sendbuf[r])
		}
	}
	for r := 0; r < c.size; r++ {
		if r != c.rank {
			out[r] = recvAs[T](c, r, tagGather)
		}
	}
	return out
}

// MinLoc reduction helper: value with the lowest key wins; ties go to the
// lowest rank (deterministic leader election for multi-start solves).
type MinLoc struct {
	Key  int64
	Rank int
}

// AllreduceMinLoc returns the MinLoc winner across ranks.
func AllreduceMinLoc(c *Comm, key int64) MinLoc {
	return Allreduce(c, MinLoc{Key: key, Rank: c.rank}, func(a, b MinLoc) MinLoc {
		if b.Key < a.Key || (b.Key == a.Key && b.Rank < a.Rank) {
			return b
		}
		return a
	})
}

// SumInt64 is the int64 addition operator for reductions.
func SumInt64(a, b int64) int64 { return a + b }

// MaxInt64 is the int64 max operator for reductions.
func MaxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
