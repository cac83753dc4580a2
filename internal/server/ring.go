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
// The gateway mints each session id to fit the ring (mint): of the ids it
// draws, it keeps one whose first alive candidate is a least-loaded
// accepting replica, so routing needs nothing but the id.
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

// replicaView is what the gateway knows of one replica when it mints an
// id: its session count (from /healthz, plus creates routed since), and
// whether it answered at all (alive) and answered 200 (accepting; a
// draining replica answers 503).
type replicaView struct {
	sessions  int
	alive     bool
	accepting bool
}

// mintDraws caps the ids one create draws. A draw's first candidate is a
// given replica with probability about 1/n (its ring share), so at 16
// replicas with a single least-loaded one, 64 draws all miss it with
// probability (15/16)^64 ≈ 1.6 % (at 8 replicas, 0.02 %). A miss costs
// balance only: the best id seen is taken. A draw is one SHA-256 and a
// ring walk, far below the solve a create runs.
const mintDraws = 64

// mint draws ids from draw and returns the first whose first alive
// candidate is accepting and holds the fewest sessions among accepting
// replicas, with that replica's index. After mintDraws draws it returns
// the best id seen: fewest sessions on its first alive accepting
// candidate, preferring ids no alive non-accepting candidate precedes
// (those cost a 404 hop until the draining replica leaves). It returns
// ("", -1) when no alive replica is accepting.
func (r *ring) mint(reps []replicaView, draw func() string) (string, int) {
	least := -1
	for _, v := range reps {
		if v.alive && v.accepting && (least < 0 || v.sessions < least) {
			least = v.sessions
		}
	}
	if least < 0 {
		return "", -1
	}
	bestID, best, bestRank := "", -1, 0
	for d := 0; d < mintDraws; d++ {
		id := draw()
		hop := false
		for _, c := range r.candidates(id) {
			if !reps[c].alive {
				continue
			}
			if !reps[c].accepting {
				hop = true
				continue
			}
			if !hop && reps[c].sessions == least {
				return id, c
			}
			rank := reps[c].sessions // an id without a 404 hop ranks first
			if hop {
				rank += math.MaxInt32
			}
			if best < 0 || rank < bestRank {
				bestID, best, bestRank = id, c, rank
			}
			break
		}
	}
	return bestID, best
}
