package phg

import (
	"math/rand"
	"runtime"
	"testing"

	"hyperbal/internal/hgp"
)

// TestCoarseSolveRankLocalParallelism is the regression test for rank
// oversubscription: with Parallelism unset, each SPMD rank must fall back
// to a serial coarse solve (observable through the serialized-solve
// counter), an explicit setting must win, and the partitions must be
// byte-identical either way.
func TestCoarseSolveRankLocalParallelism(t *testing.T) {
	const np = 4
	h := randomHG(rand.New(rand.NewSource(7)), 300, 450, 6)
	base := Options{Serial: hgp.Options{K: 4, Imbalance: 0.10, Seed: 42}}

	before := obsOversubGuarded.Load()
	def := runParallel(t, np, h, base)
	if got := obsOversubGuarded.Load() - before; got != np {
		t.Errorf("default options: %d ranks serialized their coarse solve, want %d", got, np)
	}

	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		opt := base
		opt.Serial.Parallelism = par
		before = obsOversubGuarded.Load()
		got := runParallel(t, np, h, opt)
		if d := obsOversubGuarded.Load() - before; d != 0 {
			t.Errorf("Parallelism=%d: serialized-solve guard fired %d times, want 0 (explicit setting must win)", par, d)
		}
		for v := range def.Parts {
			if got.Parts[v] != def.Parts[v] {
				t.Fatalf("Parallelism=%d: partition differs from default at vertex %d", par, v)
			}
		}
	}
}
