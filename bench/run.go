package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/obs"
	"hyperbal/internal/partition"
)

const (
	// sampleEvery and maxSamples bound the reference checks: one op in 8 is
	// kept, up to 16 per pass, and verified after the timed phase so that no
	// reference solve competes with a timed op for a CPU.
	sampleEvery = 8
	maxSamples  = 16
	// countOps is the length of the traced pass's count window.
	countOps = 32
)

// sample is one op kept for the reference check.
type sample struct {
	op  int
	ref func() ([]int32, error)
	got []int32
}

// callerRec is what one load goroutine records; only it writes it while a
// segment runs.
type callerRec struct {
	ops     int         // ops attempted
	lat     []float64   // ms, one per completed op
	late    []float64   // open loop: ms between an op's due time and its send
	quality []opQuality // one per completed op
	failed  int         // ops whose call returned an error or whose output failed a check
	overEps int         // ops whose result exceeded the balance bound
	samples []sample
	tally
}

// tally sums what the exact counts outside the obs registry are made of.
type tally struct {
	comm, mig int64 // volumes of the ops' results
	// Byte totals of the traced pass's probes.
	fullBytes, deltaBytes, deltaFullBytes int64
}

func (t *tally) add(o tally) {
	t.comm += o.comm
	t.mig += o.mig
	t.fullBytes += o.fullBytes
	t.deltaBytes += o.deltaBytes
	t.deltaFullBytes += o.deltaFullBytes
}

// opQuality is what one op's result is worth, under the op's position in
// the pass's fixed op order: its normalized cost, comm + mig/alpha, and its
// Eq. 1 imbalance.
type opQuality struct {
	idx       int
	cost, imb float64
}

// counts is the state of every exact count at the end of the count window.
type counts struct {
	ops int
	reg regDiff
	tally
}

// phase is one pass over a set-up instance: the timed phase of a run.
type phase struct {
	inst    *instance
	tr      *tracer
	recs    []*callerRec
	wall    time.Duration
	firstIn epochIn // the input of op 0, kept for the hgp.par_speedup probe

	dues    []time.Duration // open loop: the whole pass's arrival schedule
	dueNext int
	flat    []session    // open loop: every session, in round-robin order
	busy    []sync.Mutex // open loop: one per session; ops of a session stay ordered
}

func newPhase(inst *instance, tr *tracer) *phase {
	p := &phase{inst: inst, tr: tr}
	for range inst.callers {
		p.recs = append(p.recs, &callerRec{})
	}
	for j := 0; j < inst.wl.sessions && inst.wl.openRate > 0; j++ {
		p.flat = append(p.flat, inst.callers[j%len(inst.callers)][j/len(inst.callers)])
	}
	p.busy = make([]sync.Mutex, len(p.flat))
	return p
}

// schedule draws n arrival times over span: a Poisson process at rate
// n/span conditioned on its count, so every seed offers the same rate.
func schedule(seed int64, n int, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(span))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	return dues
}

// run executes the pass: ops > 0 runs exactly that many ops, otherwise the
// pass measures for the given duration. window > 0 opens the pass with a
// count window of that many ops, after which the load quiesces and every
// exact count is read.
func (p *phase) run(ctx context.Context, ops int, d time.Duration, window int) (*counts, error) {
	wl := p.inst.wl
	if wl.openRate > 0 {
		// The arrival trace is part of the workload, not of the run: bursts
		// decide an open loop's p90, and a trace drawn anew per seed would
		// make runs differ by their luck with it.
		const traceSeed = 22
		n, span := ops, d
		if ops > 0 {
			span = time.Duration(float64(ops) / wl.openRate * float64(time.Second))
		} else {
			n = int(wl.openRate*d.Seconds() + 0.5)
		}
		p.dues = schedule(traceSeed, n, span)
	}
	byCount := ops > 0
	var cnt *counts
	if window > 0 {
		if byCount && window > ops {
			window = ops
		}
		before := obs.Default().Snapshot()
		t0 := time.Now()
		if err := p.segment(ctx, window, time.Time{}); err != nil {
			return nil, err
		}
		cnt = &counts{reg: regDiff{before, obs.Default().Snapshot()}}
		for _, r := range p.recs {
			cnt.ops += len(r.lat)
			cnt.add(r.tally)
		}
		ops -= window
		d -= time.Since(t0)
	}
	var err error
	switch {
	case byCount && ops > 0:
		err = p.segment(ctx, ops, time.Time{})
	case !byCount && d > 0:
		err = p.segment(ctx, 0, time.Now().Add(d))
	}
	return cnt, err
}

// segment runs callers until ops ops are done (ops > 0) or the deadline
// passes, and returns once every caller is idle. Its wall time adds to the
// pass's.
func (p *phase) segment(ctx context.Context, ops int, deadline time.Time) error {
	callers := len(p.inst.callers)
	var dues []time.Duration
	if p.dues != nil {
		dues = p.dues[p.dueNext:]
		if ops > 0 && ops < len(dues) {
			dues = dues[:ops]
		}
		p.dueNext += len(dues)
		if len(dues) == 0 {
			return nil
		}
	}
	errs := make([]error, callers)
	var wg sync.WaitGroup
	var taken atomic.Int64
	first := p.dueNext - len(dues)
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := p.recs[c]
			if dues != nil {
				// Open loop: whichever sender is free takes the next arrival, in
				// order, and sends it at its due time, measured from the
				// segment's first arrival. Arrivals go round-robin over sessions.
				for errs[c] == nil {
					i := int(taken.Add(1)) - 1
					if i >= len(dues) {
						return
					}
					j := (first + i) % len(p.flat)
					p.busy[j].Lock()
					errs[c] = p.op(ctx, rec, p.flat[j], first+i, start.Add(dues[i]-dues[0]))
					p.busy[j].Unlock()
				}
				return
			}
			quota := ops / callers
			if c < ops%callers {
				quota++
			}
			sessions := p.inst.callers[c]
			for n := 0; errs[c] == nil; n++ {
				if ops > 0 && n == quota || ops == 0 && !time.Now().Before(deadline) {
					return
				}
				// Closed loop: caller c's ops take every callers-th place of the
				// pass's op order.
				errs[c] = p.op(ctx, rec, sessions[rec.ops%len(sessions)], rec.ops*callers+c, time.Time{})
			}
		}(c)
	}
	wg.Wait()
	p.wall += time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// maxFailLines bounds the FAILED lines one caller prints in a pass; every
// failure is counted.
const maxFailLines = 8

// fail counts one failed op of rec's caller and says why.
func (p *phase) fail(rec *callerRec, idx int, err error) {
	rec.failed++
	if rec.failed <= maxFailLines {
		fmt.Printf("# FAILED %s op %d: %v\n", p.inst.wl.name, idx, err)
	}
}

// op runs one op, number idx of the pass's op order, on session s: generate
// the input, wait for the due time (open loop), solve under the clock, then
// check, probe and feed back. rec is the calling goroutine's record. An op
// whose call or check fails is counted and the pass goes on; the error
// returned is one that leaves the session unusable.
func (p *phase) op(ctx context.Context, rec *callerRec, s session, idx int, due time.Time) error {
	o := p.tr.scope("op", idx)
	defer o.close()

	in, err := s.next(o)
	if err != nil {
		return fmt.Errorf("op %d: generate epoch: %w", idx, err)
	}
	if idx == 0 {
		p.firstIn = in
	}

	start := time.Now()
	if !due.IsZero() {
		if wait := due.Sub(start); wait > 0 {
			time.Sleep(wait)
		}
		// Latency counts from the due time, so a late send is not forgiven.
		rec.late = append(rec.late, float64(time.Since(due))/1e6)
		start = due
	}
	out, err := s.solve(ctx, in, o)
	lat := time.Since(start)
	rec.ops++
	if err != nil {
		p.fail(rec, idx, err)
		return s.skip(in)
	}
	rec.lat = append(rec.lat, float64(lat)/1e6)

	end := o.span("bench.check")
	imb, err := checkOutput(in, out)
	end()
	if err != nil {
		p.fail(rec, idx, err)
		return s.skip(in)
	}
	if imb > benchEps+1e-12 {
		// Reported, not failed: neither partitioner guarantees Eq. 1 yet (hgp
		// overshoots by under 0.001 on a few ops in a thousand, phg by more).
		// -compare holds a change to the parent's imbalance_max instead.
		rec.overEps++
	}
	if o != nil {
		if err := p.probe(rec, in, out, o); err != nil {
			p.fail(rec, idx, err)
			return s.observe(in, out)
		}
	}
	rec.quality = append(rec.quality, opQuality{idx, float64(out.comm) + float64(out.mig)/benchAlpha, imb})
	rec.comm += out.comm
	rec.mig += out.mig
	if (rec.ops-1)%sampleEvery == 0 && len(rec.samples) < maxSamples/len(p.recs) {
		if ref := s.reference(in); ref != nil {
			rec.samples = append(rec.samples, sample{op: idx, ref: ref, got: out.raw})
		}
	}
	return s.observe(in, out)
}

// checkOutput verifies what every returned partition must satisfy: one
// valid part per vertex and fixed vertices on their parts. It returns the
// partition's Eq. 1 imbalance for the caller to judge.
func checkOutput(in epochIn, out epochOut) (imbalance float64, err error) {
	n := in.h.NumVertices()
	if len(out.parts.Parts) != n || out.parts.K != benchK {
		return 0, fmt.Errorf("partition has %d parts/K=%d for %d vertices/K=%d", len(out.parts.Parts), out.parts.K, n, benchK)
	}
	for v, q := range out.parts.Parts {
		if q < 0 || int(q) >= benchK {
			return 0, fmt.Errorf("vertex %d on part %d outside [0,%d)", v, q, benchK)
		}
		if f := in.h.Fixed(v); f != hypergraph.Free && f != q {
			return 0, fmt.Errorf("vertex %d fixed to part %d landed on %d", v, f, q)
		}
	}
	return partition.Imbalance(partition.Weights(in.h, out.parts)), nil
}

// probe repeats, under spans, the layer calls that the op's own path makes
// out of the benchmark's sight (inside the client, the server or
// core.Session), on the op's own input. Traced pass only; never inside the
// op's timed span. A layer call that fails here fails the op's check.
func (p *phase) probe(rec *callerRec, in epochIn, out epochOut, o *opTrace) error {
	end := o.span("hypergraph.AppendBinary")
	frame := in.h.AppendBinary(nil)
	end()
	rec.fullBytes += int64(len(frame))
	end = o.span("hypergraph.DecodeBinary")
	_, _, err := hypergraph.DecodeBinary(hypergraph.NewBinReader(frame))
	end()
	if err != nil {
		return fmt.Errorf("hypergraph frame does not round-trip: %w", err)
	}
	end = o.span("hypergraph.Fingerprint")
	_ = in.h.Fingerprint()
	end()
	if p.inst.wl.layer != "spmd" { // spmd sessions build it, under this span, for the op itself
		end = o.span("core.BuildRepartition")
		_, err = core.BuildRepartition(in.h, in.old, benchK, benchAlpha)
		end()
		if err != nil {
			return err
		}
	}
	end = o.span("core.cut_mig")
	_ = partition.CutSize(in.h, out.parts)
	_ = core.ComputeMigration(in.h, in.old, out.parts)
	end()
	if p.inst.wl.delta {
		end = o.span("hypergraph.ComputeDeltaMapped")
		d, ok := hypergraph.ComputeDeltaMapped(in.base, in.h, identityMap(in.h.NumVertices()))
		end()
		if !ok {
			return fmt.Errorf("epoch %d is not expressible as a delta", in.epoch)
		}
		end = o.span("hypergraph.Delta.Apply")
		_, err = d.Apply(in.base)
		end()
		if err != nil {
			return fmt.Errorf("delta does not apply to its base: %w", err)
		}
		rec.deltaBytes += int64(len(d.AppendBinary(nil)))
		rec.deltaFullBytes += int64(len(frame))
	}
	return nil
}

// verify runs the kept reference checks and returns how many failed and how
// long each reference took, in ms.
func (p *phase) verify() (failed int, refMS []float64) {
	for _, r := range p.recs {
		for _, s := range r.samples {
			o := p.tr.scope("bench.reference", -1)
			t0 := time.Now()
			want, err := s.ref()
			refMS = append(refMS, float64(time.Since(t0))/1e6)
			o.close()
			if err == nil && !slices.Equal(want, s.got) {
				err = fmt.Errorf("result differs from the in-process reference")
			}
			if err != nil {
				failed++
				fmt.Printf("# FAILED %s op %d: %v\n", p.inst.wl.name, s.op, err)
			}
		}
	}
	return failed, refMS
}
