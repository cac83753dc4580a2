package server

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
)

// ring is the consistent-hash ring the distributed serving tier routes on.
// Replica base URLs are placed on a 64-bit ring at ringVnodes points each;
// a key's candidate order is the distinct replicas encountered walking
// clockwise from the key's point. Two properties matter:
//
//   - Determinism: every node (gateway or replica) given the same replica
//     list computes the same candidate order for every key, so the
//     gateway's routing and a draining replica's handoff successor agree
//     without coordination.
//   - Stability: removing a replica only reroutes the keys it owned — each
//     moves to the next candidate on its own walk, which is exactly where
//     drain-time handoff sent the session.
//
// Bounded-load placement (pickBounded) is the Consistent Hashing with
// Bounded Loads policy: walk the key's candidates and take the first whose
// current load is under ceil(c · total/alive), so one hot ring segment
// cannot overload a single replica while placements stay ring-affine.
type ring struct {
	urls   []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	idx  int // index into urls
}

// ringVnodes is the virtual-node count per replica: enough to spread
// ownership within a few percent at 3-16 replicas, cheap to rebuild.
const ringVnodes = 64

func newRing(urls []string) *ring {
	r := &ring{urls: urls}
	for i, u := range urls {
		for v := 0; v < ringVnodes; v++ {
			sum := sha256.Sum256(append([]byte(u), byte('#'), byte(v), byte(v>>8)))
			r.points = append(r.points, ringPoint{hash: binary.BigEndian.Uint64(sum[:8]), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		return p.idx < q.idx
	})
	return r
}

// hashKey maps a key (a session id) to its ring point.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// candidates returns every replica index in the key's preference order:
// the walk clockwise from the key's point, keeping the first occurrence of
// each replica.
func (r *ring) candidates(key string) []int {
	if r == nil || len(r.urls) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, len(r.urls))
	order := make([]int, 0, len(r.urls))
	for i := 0; i < len(r.points) && len(order) < len(r.urls); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.idx] {
			seen[p.idx] = true
			order = append(order, p.idx)
		}
	}
	return order
}

// pickBounded returns the first alive candidate for key whose load is
// within the bounded-load cap ceil(factor · (total+1)/alive), falling back
// to the least-loaded alive candidate when every one is at the cap (only
// possible with factor <= 1). Returns -1 when no candidate is alive.
func (r *ring) pickBounded(key string, load func(int) int, alive func(int) bool, factor float64) int {
	if factor <= 0 {
		factor = 1.25
	}
	total, nAlive := 0, 0
	for i := range r.urls {
		if alive(i) {
			nAlive++
			total += load(i)
		}
	}
	if nAlive == 0 {
		return -1
	}
	cap_ := int(math.Ceil(factor * float64(total+1) / float64(nAlive)))
	best, bestLoad := -1, math.MaxInt
	for _, c := range r.candidates(key) {
		if !alive(c) {
			continue
		}
		l := load(c)
		if l < cap_ {
			return c
		}
		if l < bestLoad {
			best, bestLoad = c, l
		}
	}
	return best
}
