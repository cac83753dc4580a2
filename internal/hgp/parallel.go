package hgp

import "sync"

// parctx is the per-Partition parallel execution context: a token pool
// bounding the extra worker goroutines of one call, with workspaces
// recycled through wsPool. A nil-sem parctx executes everything inline.
//
// One pool serves both coarse-grained layers of the call: recursive-
// bisection sides (fork) and the multi-starts of each coarse solve
// (forEach), so they share the Options.Parallelism budget and can never
// oversubscribe it — a multi-start nested inside a busy RB side simply
// runs inline on its caller. The kernels within a level run serially.
//
// Determinism: the inline path is also the reference schedule. Every work
// item handed to fork or forEach derives its random stream from its index
// (never from execution order), writes only to its own result slot or
// vertex range, and winners are reduced by a scan in index order — so
// every Parallelism value, 1 included, produces bit-identical partitions.
// The coarse solve's starts also share a registry of the partitions they
// grew (coarseStarts); which start refines a shared partition depends on
// the schedule, the result the others take does not.
// Items that run on a spawned worker are counted in
// hgp_kernel_worker_items_total (the rank-local oversubscription pin
// asserts it stays flat at Parallelism=1).
type parctx struct {
	sem chan struct{} // capacity = Parallelism-1 extra workers; nil = serial
}

func newParctx(parallelism int) *parctx {
	px := &parctx{}
	if parallelism > 1 {
		px.sem = make(chan struct{}, parallelism-1)
	}
	return px
}

// fork runs fn, in a fresh goroutine when a worker token is free and
// inline otherwise, and returns a join function the caller must invoke
// before touching data fn writes. fn receives a workspace of its own.
func (px *parctx) fork(fn func(ws *workspace)) (join func()) {
	if px.sem != nil {
		select {
		case px.sem <- struct{}{}:
			obsKernelWorkerItems.Inc()
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { <-px.sem }()
				ws := wsPool.Get().(*workspace)
				defer wsPool.Put(ws)
				fn(ws)
			}()
			return func() { <-done }
		default:
		}
	}
	ws := wsPool.Get().(*workspace)
	fn(ws)
	wsPool.Put(ws)
	return func() {}
}

// forEach runs fn(0..n-1), spilling items onto worker goroutines while
// tokens are free and running the rest inline on the caller's workspace.
// It returns only after every item completed.
func (px *parctx) forEach(n int, ws *workspace, fn func(i int, ws *workspace)) {
	if px.sem == nil || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i, ws)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case px.sem <- struct{}{}:
			obsKernelWorkerItems.Inc()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-px.sem }()
				w := wsPool.Get().(*workspace)
				defer wsPool.Put(w)
				fn(i, w)
			}(i)
		default:
			fn(i, ws)
		}
	}
	wg.Wait()
}

// startSeed derives the RNG seed of multi-start attempt s from the base
// seed drawn once from the level's stream. The constant is the odd PCG
// multiplier, so distinct starts get well-separated streams.
func startSeed(base int64, s int) int64 {
	return base + int64(s+1)*0x5851F42D4C957F2D
}

// mix64 is the splitmix64 finalizer: an index-seeded stand-in for a
// per-vertex RNG draw. Kernels key it on (seed, vertex indices) to break
// score ties pseudo-randomly without any execution-order dependence.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
