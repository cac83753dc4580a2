package main

import (
	"context"
	"fmt"
	"time"

	"hyperbal"
	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/mpinet"
	"hyperbal/internal/mpinet/jobs"
	"hyperbal/internal/partition"
	"hyperbal/internal/phg"
)

// epochIn is one op's input: an epoch's hypergraph with the assignment it
// inherits from the epoch before.
type epochIn struct {
	h     *hypergraph.Hypergraph
	old   partition.Partition
	base  *hypergraph.Hypergraph // the session's previous epoch hypergraph
	epoch int64                  // number of this op within its session, from 1
}

// epochOut is what the caller of one load-balance op gets back.
type epochOut struct {
	parts     partition.Partition // over in.h's vertices
	comm, mig int64
	raw       []int32 // the vector the layer returned, compared with the reference
}

// session is one adaptive application instance: a dataset drifting epoch by
// epoch, and one way of asking for each epoch's load balance.
type session interface {
	// next generates the next epoch's input. Never inside an op's timed span.
	next(o *opTrace) (epochIn, error)
	// solve is the op: the call whose latency the workload reports.
	solve(ctx context.Context, in epochIn, o *opTrace) (epochOut, error)
	// reference returns an in-process computation of the same op for the
	// sampled output check, or nil when the workload defines none. It is
	// called right after solve and may be run later.
	reference(in epochIn) func() ([]int32, error)
	// observe feeds the op's result back into the drift and commits the
	// epoch.
	observe(in epochIn, out epochOut) error
	// skip is observe for an op that failed: the application keeps the
	// distribution it had, and the epoch is not committed. This matches
	// hyperbal.RemoteSession, which advances its epoch number and delta base
	// only on success.
	skip(in epochIn) error
}

// drift is the part every session shares: the dataset analogue and the
// paper's dynamic that perturbs it from epoch to epoch.
type drift struct {
	wl    *workload
	g     *graph.Graph
	h0    *hypergraph.Hypergraph // the epoch-1 (static) problem
	cfg   core.Config
	gen   dynamics.Generator
	prev  *hypergraph.Hypergraph
	epoch int64
}

func newDrift(wl *workload, dataSeed, seed int64, o *opTrace) (*drift, error) {
	end := o.span("datasets.Generate")
	g, err := datasets.Generate(wl.dataset, wl.n, dataSeed)
	end()
	if err != nil {
		return nil, err
	}
	return &drift{
		wl: wl, g: g, h0: graph.ToHypergraph(g),
		cfg: core.Config{K: benchK, Alpha: benchAlpha, Imbalance: benchEps, Seed: seed,
			Method: core.HypergraphRepart, Parallelism: wl.parallelism},
	}, nil
}

// start (re)starts the drift from the epoch-1 partition.
func (d *drift) start(first partition.Partition) error {
	var err error
	if d.wl.structural {
		d.gen, err = dynamics.NewStructural(d.g, first, benchK, 0.25, 0.5, d.cfg.Seed*3+1)
	} else {
		d.gen, err = dynamics.NewRefinement(d.g, first, benchK, 0.1, 1.5, 7.5, d.cfg.Seed*3+2)
	}
	d.prev, d.epoch = d.h0, 0
	return err
}

func (d *drift) next(o *opTrace) (epochIn, error) {
	end := o.span("dynamics.Next")
	prob, old := d.gen.Next()
	end()
	return epochIn{h: prob.H, old: old, base: d.prev, epoch: d.epoch + 1}, nil
}

func (d *drift) observe(in epochIn, out epochOut) error {
	d.prev, d.epoch = in.h, in.epoch
	return d.gen.Observe(out.parts)
}

func (d *drift) skip(in epochIn) error { return d.gen.Observe(in.old) }

// libSession asks an in-process core.Session: no wire, no server.
type libSession struct {
	*drift
	sess *core.Session
}

func newLibSession(wl *workload, dataSeed, seed int64, o *opTrace) (*libSession, error) {
	d, err := newDrift(wl, dataSeed, seed, o)
	if err != nil {
		return nil, err
	}
	bal, err := core.NewBalancer(d.cfg)
	if err != nil {
		return nil, err
	}
	end := o.span("core.NewSession")
	sess, first, err := core.NewSession(bal, core.Problem{H: d.h0})
	end()
	if err != nil {
		return nil, err
	}
	return &libSession{drift: d, sess: sess}, d.start(first.Partition)
}

func (s *libSession) solve(_ context.Context, in epochIn, o *opTrace) (epochOut, error) {
	defer o.span("core.Session.RebalanceInherited")()
	res, err := s.sess.RebalanceInherited(core.Problem{H: in.h}, in.old)
	return epochOut{parts: res.Partition, comm: res.CommVolume, mig: res.MigrationVolume, raw: res.Partition.Parts}, err
}

func (s *libSession) reference(epochIn) func() ([]int32, error) { return nil }

// serveSession asks a balancerd over loopback HTTP through hyperbal.Client.
type serveSession struct {
	*drift
	c   *hyperbal.Client
	rs  *hyperbal.RemoteSession
	bal *core.Balancer // the in-process oracle's balancer
}

func newServeSession(ctx context.Context, wl *workload, c *hyperbal.Client, dataSeed, seed int64, o *opTrace) (*serveSession, error) {
	d, err := newDrift(wl, dataSeed, seed, o)
	if err != nil {
		return nil, err
	}
	bal, err := core.NewBalancer(d.cfg)
	if err != nil {
		return nil, err
	}
	s := &serveSession{drift: d, c: c, bal: bal}
	return s, s.create(ctx, o)
}

// create opens the server-side session (the epoch-1 static partition) and
// restarts the drift from its result.
func (s *serveSession) create(ctx context.Context, o *opTrace) error {
	end := o.span("client.CreateSession")
	rs, first, err := s.c.CreateSession(ctx, s.cfg, s.h0)
	end()
	if err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	s.rs = rs
	return s.start(first.Partition)
}

func (s *serveSession) next(o *opTrace) (epochIn, error) {
	// A cached session replays the epochs its priming session solved, then
	// starts over as a new server-side session: the cache key holds the
	// epoch number, so only a fresh session meets the primed entries again.
	if s.wl.lapEpochs > 0 && s.epoch == int64(s.wl.lapEpochs) {
		ctx := context.Background()
		if err := s.rs.Close(ctx); err != nil {
			return epochIn{}, err
		}
		if err := s.create(ctx, o); err != nil {
			return epochIn{}, err
		}
	}
	return s.drift.next(o)
}

func identityMap(n int) []int32 {
	m := make([]int32, n)
	for i := range m {
		m[i] = int32(i)
	}
	return m
}

func (s *serveSession) solve(ctx context.Context, in epochIn, o *opTrace) (epochOut, error) {
	var res hyperbal.RemoteResult
	var err error
	if s.wl.delta {
		end := o.span("client.SubmitEpochDeltaMapped")
		res, err = s.rs.SubmitEpochDeltaMapped(ctx, in.h, identityMap(in.h.NumVertices()), in.old, true)
		end()
	} else {
		end := o.span("client.SubmitEpoch")
		res, err = s.rs.SubmitEpoch(ctx, in.h)
		end()
	}
	return epochOut{parts: res.Partition, comm: res.CommVolume, mig: res.MigrationVolume, raw: res.Partition.Parts}, err
}

// reference is the in-process core oracle: the same balancer configuration
// fed the same epoch, which the server must reproduce byte for byte.
func (s *serveSession) reference(in epochIn) func() ([]int32, error) {
	return func() ([]int32, error) {
		var res core.Result
		var err error
		if s.wl.delta {
			d, ok := hypergraph.ComputeDeltaMapped(in.base, in.h, identityMap(in.h.NumVertices()))
			if !ok {
				return nil, fmt.Errorf("epoch %d is not expressible as a delta", in.epoch)
			}
			res, err = s.bal.RepartitionWarm(core.Problem{H: in.h}, in.old, in.epoch, d.DirtyVertices(in.base, in.h))
		} else {
			res, err = s.bal.Repartition(core.Problem{H: in.h}, in.old, in.epoch)
		}
		return res.Partition.Parts, err
	}
}

// spmdSession partitions each epoch's augmented repartitioning hypergraph
// with the parallel partitioner, one TCP world per op.
type spmdSession struct {
	*drift
	workers  []string
	rep      *core.RepartitionHypergraph // built by next for the coming op
	maxStall time.Duration
}

func newSPMDSession(wl *workload, workers []string, dataSeed, seed int64, o *opTrace) (*spmdSession, error) {
	d, err := newDrift(wl, dataSeed, seed, o)
	if err != nil {
		return nil, err
	}
	end := o.span("hgp.Partition")
	first, err := hgp.Partition(d.h0, hgp.Options{K: benchK, Imbalance: benchEps, Seed: seed})
	end()
	if err != nil {
		return nil, err
	}
	return &spmdSession{drift: d, workers: workers}, d.start(first)
}

func (s *spmdSession) next(o *opTrace) (epochIn, error) {
	in, err := s.drift.next(o)
	if err != nil {
		return in, err
	}
	end := o.span("core.BuildRepartition")
	s.rep, err = core.BuildRepartition(in.h, in.old, benchK, benchAlpha)
	end()
	return in, err
}

func (s *spmdSession) options(in epochIn) phg.Options {
	return phg.Options{Serial: hgp.Options{K: benchK, Imbalance: benchEps, Seed: s.cfg.Seed + in.epoch}}
}

func (s *spmdSession) solve(ctx context.Context, in epochIn, o *opTrace) (epochOut, error) {
	end := o.span("jobs.EncodePHG")
	payload, err := jobs.EncodePHG(s.rep.H, s.options(in))
	end()
	if err != nil {
		return epochOut{}, err
	}
	end = o.span("mpinet.RunWorld")
	res, err := mpinet.RunWorld(ctx, jobs.PHGPartition, payload, s.workers, mpinet.Options{})
	end()
	if err != nil {
		return epochOut{}, err
	}
	for _, r := range res.Ranks {
		if r.MaxStall > s.maxStall {
			s.maxStall = r.MaxStall
		}
	}
	end = o.span("jobs.DecodeParts")
	aug, err := jobs.DecodeParts(res.Root())
	end()
	if err != nil {
		return epochOut{}, err
	}
	if len(aug) != s.rep.H.NumVertices() {
		return epochOut{}, fmt.Errorf("world returned %d parts for %d augmented vertices", len(aug), s.rep.H.NumVertices())
	}
	// Decode also verifies that every partition vertex stayed on its part.
	parts, mig, err := s.rep.Decode(in.h, partition.Partition{Parts: aug, K: benchK})
	if err != nil {
		return epochOut{}, err
	}
	return epochOut{parts: parts, comm: partition.CutSize(in.h, parts), mig: mig.Volume, raw: aug}, nil
}

// reference runs the same job on the in-process substrate; by
// parallelism invariance the two must agree exactly.
func (s *spmdSession) reference(in epochIn) func() ([]int32, error) {
	rep, opt, ranks := s.rep, s.options(in), len(s.workers)
	return func() ([]int32, error) {
		var parts []int32
		_, err := mpi.RunWith(ranks, mpi.Options{}, func(c *mpi.Comm) error {
			p, err := phg.Partition(c, rep.H, opt)
			if c.Rank() == 0 {
				parts = p.Parts
			}
			return err
		})
		return parts, err
	}
}
