package server

import (
	"context"
	"errors"
	"sync"
)

// Admission-control errors, mapped to HTTP 429 and 503 by the handlers.
var (
	errBusy     = errors.New("server: queue full")
	errDraining = errors.New("server: draining")
)

// admission is the bounded worker pool with backpressure: at most
// `workers` epoch jobs run concurrently, at most `queue` more wait for a
// slot, and everything beyond that is rejected immediately (429). Drain
// flips the controller into rejection mode (503) and waits for every
// admitted job — running or queued — to finish.
type admission struct {
	mu       sync.Mutex
	draining bool
	admitted int // running + queued jobs
	running  int // jobs holding a worker slot (gauge source; guarded by mu)
	limit    int // workers + queue
	workers  int
	slots    chan struct{} // buffered; a held token = a running job
	wg       sync.WaitGroup
}

func newAdmission(workers, queue int) *admission {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &admission{
		limit:   workers + queue,
		workers: workers,
		slots:   make(chan struct{}, workers),
	}
}

// acquire admits one job, blocking in the queue until a worker slot frees
// up or ctx is canceled. The returned release func must be called exactly
// once when the job is done.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return nil, errDraining
	}
	if a.admitted >= a.limit {
		a.mu.Unlock()
		obsRejectedBusy.Inc()
		return nil, errBusy
	}
	a.admitted++
	a.wg.Add(1)
	a.gaugesLocked()
	a.mu.Unlock()

	select {
	case a.slots <- struct{}{}:
		a.mu.Lock()
		a.running++
		a.gaugesLocked()
		a.mu.Unlock()
		return func() {
			// Book-keep under the lock before freeing the slot: a queued
			// job woken by the free slot increments running only after this
			// decrement, so the in-flight gauge never exceeds the worker
			// count and queue depth never goes transiently negative.
			a.mu.Lock()
			a.running--
			a.admitted--
			a.gaugesLocked()
			a.mu.Unlock()
			<-a.slots
			a.wg.Done()
		}, nil
	case <-ctx.Done():
		a.mu.Lock()
		a.admitted--
		a.gaugesLocked()
		a.mu.Unlock()
		a.wg.Done()
		return nil, ctx.Err()
	}
}

// drain stops admitting new jobs and waits (bounded by ctx) for every
// admitted job to complete.
func (a *admission) drain(ctx context.Context) error {
	a.mu.Lock()
	a.draining = true
	a.mu.Unlock()
	done := make(chan struct{})
	go func() {
		a.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// isDraining reports whether drain has started.
func (a *admission) isDraining() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.draining
}

// gaugesLocked refreshes the queue/in-flight gauges; a.mu must be held.
// running and admitted are both mutated under the same lock, so the pair
// of gauges is always a consistent snapshot (the pre-fix code sampled
// len(a.slots) outside any slot/lock ordering, racing the post-acquire
// snapshot into transiently impossible queue depths).
func (a *admission) gaugesLocked() {
	obsInFlight.Set(int64(a.running))
	obsQueueDepth.Set(int64(a.admitted - a.running))
}
