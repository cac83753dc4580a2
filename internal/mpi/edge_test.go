package mpi

import (
	"reflect"
	"testing"
	"time"
)

// runEdge runs fn on np ranks under a watchdog so an edge case that breaks
// collective symmetry fails with a structured DeadlockError instead of a
// test timeout.
func runEdge(t *testing.T, np int, fn func(c *Comm) error) {
	t.Helper()
	if _, err := RunWith(np, Options{Watchdog: 30 * time.Second}, fn); err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesSizeOneWorld(t *testing.T) {
	runEdge(t, 1, func(c *Comm) error {
		if got := Bcast(c, 0, 42); got != 42 {
			t.Errorf("Bcast = %d, want 42", got)
		}
		if got := Allgather(c, 7); !reflect.DeepEqual(got, []int{7}) {
			t.Errorf("Allgather = %v, want [7]", got)
		}
		if got := Allreduce(c, int64(9), SumInt64); got != 9 {
			t.Errorf("Allreduce = %d, want 9", got)
		}
		if got := AllreduceSlice(c, []int64{1, 2}, SumInt64); !reflect.DeepEqual(got, []int64{1, 2}) {
			t.Errorf("AllreduceSlice = %v, want [1 2]", got)
		}
		if got := Alltoall(c, []int{3}); !reflect.DeepEqual(got, []int{3}) {
			t.Errorf("Alltoall = %v, want [3]", got)
		}
		if got := AllreduceMinLoc(c, 11); got.Key != 11 || got.Rank != 0 {
			t.Errorf("AllreduceMinLoc = %+v, want {11 0}", got)
		}
		return nil
	})
}

func TestAllreduceSliceEmptyAndNil(t *testing.T) {
	runEdge(t, 3, func(c *Comm) error {
		// All ranks contribute nil: the reduction must complete (every rank
		// still participates in the underlying Gather/Bcast) and yield an
		// empty slice.
		if got := AllreduceSlice(c, nil, SumInt64); len(got) != 0 {
			t.Errorf("rank %d: AllreduceSlice(nil) = %v, want empty", c.Rank(), got)
		}
		if got := AllreduceSlice(c, []int64{}, SumInt64); len(got) != 0 {
			t.Errorf("rank %d: AllreduceSlice([]) = %v, want empty", c.Rank(), got)
		}
		return nil
	})
}

func TestAlltoallEmptyPayloads(t *testing.T) {
	// Slice-of-slice payloads where most entries are nil: delivery stays
	// symmetric and index-by-source, with empty slices passing through.
	runEdge(t, 3, func(c *Comm) error {
		send := make([][]int32, c.Size())
		send[(c.Rank()+1)%c.Size()] = []int32{int32(c.Rank())}
		got := Alltoall(c, send)
		if len(got) != c.Size() {
			t.Fatalf("rank %d: Alltoall returned %d entries, want %d", c.Rank(), len(got), c.Size())
		}
		src := (c.Rank() + c.Size() - 1) % c.Size()
		for r, pl := range got {
			if r == src {
				if len(pl) != 1 || pl[0] != int32(src) {
					t.Errorf("rank %d: from %d got %v, want [%d]", c.Rank(), r, pl, src)
				}
			} else if len(pl) != 0 {
				t.Errorf("rank %d: from %d got %v, want empty", c.Rank(), r, pl)
			}
		}
		return nil
	})
}

func TestGatherSliceEmptyContributions(t *testing.T) {
	runEdge(t, 4, func(c *Comm) error {
		// Odd ranks contribute nothing; counts must still line up per rank.
		var v []int
		if c.Rank()%2 == 0 {
			v = []int{c.Rank()}
		}
		concat, counts := AllgatherSlice(c, v)
		if want := []int{1, 0, 1, 0}; !reflect.DeepEqual(counts, want) {
			t.Errorf("rank %d: counts = %v, want %v", c.Rank(), counts, want)
		}
		if want := []int{0, 2}; !reflect.DeepEqual(concat, want) {
			t.Errorf("rank %d: concat = %v, want %v", c.Rank(), concat, want)
		}
		return nil
	})
}
