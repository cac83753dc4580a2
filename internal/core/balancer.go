package core

import (
	"fmt"
	"strings"
	"time"

	"hyperbal/internal/gp"
	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/partition"
)

// Method selects one of the four algorithms compared in Section 5.
type Method int

const (
	// HypergraphRepart is the paper's contribution: repartitioning via the
	// augmented hypergraph with fixed vertices ("Zoltan-repart").
	HypergraphRepart Method = iota
	// HypergraphScratch partitions the epoch hypergraph from scratch and
	// remaps part labels with the maximal-matching heuristic
	// ("Zoltan-scratch").
	HypergraphScratch
	// GraphRepart runs the unified adaptive graph repartitioner with
	// ITR = alpha ("ParMETIS-repart" with AdaptiveRepart).
	GraphRepart
	// GraphScratch partitions the graph form from scratch and remaps
	// ("ParMETIS-scratch" with Partkway).
	GraphScratch
	// HypergraphRefineOnly accounts for migration only during refinement
	// (the Schloegel-style strategy of [27] applied to the hypergraph):
	// inherit the old partition and improve it with combined-objective
	// k-way passes, with no migration nets and no migration-aware
	// coarsening. Not one of the paper's four algorithms — it exists to
	// measure the Section 1 claim that "directly incorporating both the
	// communication and migration costs into a single hypergraph model is
	// more suitable ... than accounting for migration costs only in
	// refinement" (ablation A2).
	HypergraphRefineOnly
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case HypergraphRepart:
		return "Zoltan-repart"
	case HypergraphScratch:
		return "Zoltan-scratch"
	case GraphRepart:
		return "ParMETIS-repart"
	case GraphScratch:
		return "ParMETIS-scratch"
	case HypergraphRefineOnly:
		return "Zoltan-refineonly"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists all four in the figures' bar order.
var Methods = []Method{HypergraphRepart, GraphRepart, HypergraphScratch, GraphScratch}

// ParseMethod resolves a method from its paper name (the String form,
// case-insensitive): "Zoltan-repart", "Zoltan-scratch", "ParMETIS-repart",
// "ParMETIS-scratch", "Zoltan-refineonly". This is the wire form the
// balancerd service accepts.
func ParseMethod(s string) (Method, error) {
	for _, m := range []Method{HypergraphRepart, HypergraphScratch, GraphRepart, GraphScratch, HypergraphRefineOnly} {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown method %q (want Zoltan-repart, Zoltan-scratch, ParMETIS-repart, ParMETIS-scratch or Zoltan-refineonly)", s)
}

// Config parameterizes a Balancer.
type Config struct {
	K         int     // number of parts (processors)
	Alpha     int64   // iterations per epoch; the communication/migration trade-off
	Imbalance float64 // Eq. 1 epsilon (default 0.05)
	Seed      int64
	Method    Method
	// MaxClique bounds clique expansion when deriving a graph from a
	// hypergraph for the graph-based methods (default 32).
	MaxClique int
	// Tuning knobs forwarded to the partitioners (0 = their defaults).
	CoarsenTo     int
	InitialStarts int
	RefinePasses  int
	// Parallelism bounds the worker goroutines of each hypergraph
	// partitioning call; results are identical for every value
	// (0 = the partitioner's default, GOMAXPROCS).
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Imbalance <= 0 {
		c.Imbalance = 0.05
	}
	if c.Alpha < 1 {
		c.Alpha = 1
	}
	if c.MaxClique <= 0 {
		c.MaxClique = 32
	}
	return c
}

// Problem bundles the two representations of an epoch's computation. H is
// required; G is optional and derived by clique expansion when a
// graph-based method needs it.
type Problem struct {
	H *hypergraph.Hypergraph
	G *graph.Graph
}

// Result reports one load-balancing operation.
type Result struct {
	Partition partition.Partition
	// CommVolume is the connectivity-1 cut of the epoch hypergraph under
	// the new partition: the application's communication volume per
	// iteration.
	CommVolume int64
	// MigrationVolume is the data volume moved from the old to the new
	// distribution (0 for a first/static partitioning).
	MigrationVolume int64
	// Moved is the number of vertices that changed parts.
	Moved int
	// RepartTime is the wall-clock time of the load-balance operation.
	RepartTime time.Duration
	// Warm reports that the partitioner was warm-started from the previous
	// distribution (RepartitionWarm with a method that supports it).
	Warm bool
}

// TotalCost returns α·comm + mig, the objective of Section 2.
func (r Result) TotalCost(alpha int64) int64 {
	return alpha*r.CommVolume + r.MigrationVolume
}

// NormalizedCost returns comm + mig/α, the quantity plotted in Figures 2-6
// ("Total cost in each bar is normalized by α").
func (r Result) NormalizedCost(alpha int64) float64 {
	return float64(r.CommVolume) + float64(r.MigrationVolume)/float64(alpha)
}

// Balancer runs static partitioning and epoch repartitioning with one of
// the four methods.
type Balancer struct {
	cfg Config
}

// NewBalancer validates cfg and returns a Balancer.
func NewBalancer(cfg Config) (*Balancer, error) {
	cfg = cfg.withDefaults()
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: K must be >= 1, got %d", cfg.K)
	}
	return &Balancer{cfg: cfg}, nil
}

// Config returns the balancer's effective configuration.
func (b *Balancer) Config() Config { return b.cfg }

// Partition computes the epoch-1 (static) partition of the problem.
func (b *Balancer) Partition(p Problem) (Result, error) {
	start := time.Now()
	var newP partition.Partition
	var err error
	switch b.cfg.Method {
	case HypergraphRepart, HypergraphScratch, HypergraphRefineOnly:
		newP, err = hgp.Partition(p.H.WithoutFixed(), b.hgpOptions(0))
	case GraphRepart, GraphScratch:
		g := b.graphOf(p)
		newP, err = gp.Partition(g, b.gpOptions(0))
	default:
		err = fmt.Errorf("core: unknown method %v", b.cfg.Method)
	}
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Partition:  newP,
		CommVolume: partition.CutSize(p.H, newP),
		RepartTime: time.Since(start),
	}
	obsCommVolume.With(b.cfg.Method.String()).Add(res.CommVolume)
	return res, nil
}

// Repartition rebalances the problem given the previous epoch's
// assignment, using the configured method. The returned result accounts
// both communication (cut of p.H under the new partition) and migration
// (data size moved relative to old).
func (b *Balancer) Repartition(p Problem, old partition.Partition, epoch int64) (Result, error) {
	start := time.Now()
	var newP partition.Partition
	var err error
	switch b.cfg.Method {
	case HypergraphRepart:
		newP, err = b.hypergraphRepart(p.H, old, epoch)
	case HypergraphScratch:
		newP, err = hgp.Partition(p.H.WithoutFixed(), b.hgpOptions(epoch))
		if err == nil {
			newP = partition.Remap(p.H, old, newP)
		}
	case GraphRepart:
		g := b.graphOf(p)
		newP, err = gp.AdaptiveRepart(g, old, b.cfg.Alpha, b.gpOptions(epoch))
	case GraphScratch:
		g := b.graphOf(p)
		newP, err = gp.Partition(g, b.gpOptions(epoch))
		if err == nil {
			newP = partition.Remap(p.H, old, newP)
		}
	case HypergraphRefineOnly:
		newP = old.Clone()
		caps := refineCaps(p.H, b.cfg.K, b.cfg.Imbalance)
		hgp.RefineKwayWithMigration(p.H.WithoutFixed(), b.cfg.K, newP.Parts,
			old.Parts, b.cfg.Alpha, caps, 8)
	default:
		err = fmt.Errorf("core: unknown method %v", b.cfg.Method)
	}
	if err != nil {
		return Result{}, err
	}
	mig := ComputeMigration(p.H, old, newP)
	res := Result{
		Partition:       newP,
		CommVolume:      partition.CutSize(p.H, newP),
		MigrationVolume: mig.Volume,
		Moved:           mig.Moved,
		RepartTime:      time.Since(start),
	}
	method := b.cfg.Method.String()
	obsRepartNs.With(method).Observe(int64(res.RepartTime))
	obsCommVolume.With(method).Add(res.CommVolume)
	obsMigVolume.With(method).Add(res.MigrationVolume)
	return res, nil
}

// RepartitionWarm rebalances like Repartition but warm-starts the
// partitioner from the previous assignment, restricting work to the dirty
// region when one is given (nil dirty = everything changed; the seeded
// V-cycle still skips the from-scratch coarse solve). Only the
// hypergraph-repartitioning method can honor a warm start — it seeds the
// augmented hypergraph H̄ with the inherited parts — so every other method
// falls back to the cold Repartition path; check Result.Warm to see which
// path ran. Warm results are deterministic at every Config.Parallelism.
func (b *Balancer) RepartitionWarm(p Problem, old partition.Partition, epoch int64, dirty []bool) (Result, error) {
	if b.cfg.Method != HypergraphRepart {
		return b.Repartition(p, old, epoch)
	}
	start := time.Now()
	r, err := BuildRepartition(p.H, old, b.cfg.K, b.cfg.Alpha)
	if err != nil {
		return Result{}, err
	}
	// Inherited assignment in the augmented vertex space: real vertices
	// keep their old parts, partition vertices sit on their fixed parts.
	n := p.H.NumVertices()
	augParts := make([]int32, n+b.cfg.K)
	copy(augParts, old.Parts)
	for i := 0; i < b.cfg.K; i++ {
		augParts[n+i] = int32(i)
	}
	var augDirty []bool
	if dirty != nil {
		augDirty = make([]bool, n+b.cfg.K)
		copy(augDirty, dirty)
	}
	aug, _, err := hgp.PartitionWarm(r.H, b.hgpOptions(epoch), hgp.WarmSpec{Parts: augParts, Dirty: augDirty})
	if err != nil {
		return Result{}, err
	}
	newP, mig, err := r.Decode(p.H, aug)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Partition:       newP,
		CommVolume:      partition.CutSize(p.H, newP),
		MigrationVolume: mig.Volume,
		Moved:           mig.Moved,
		RepartTime:      time.Since(start),
		Warm:            true,
	}
	method := b.cfg.Method.String()
	obsRepartNs.With(method).Observe(int64(res.RepartTime))
	obsCommVolume.With(method).Add(res.CommVolume)
	obsMigVolume.With(method).Add(res.MigrationVolume)
	return res, nil
}

// hypergraphRepart is the paper's algorithm: build H̄, partition with fixed
// vertices, decode.
func (b *Balancer) hypergraphRepart(h *hypergraph.Hypergraph, old partition.Partition, epoch int64) (partition.Partition, error) {
	r, err := BuildRepartition(h, old, b.cfg.K, b.cfg.Alpha)
	if err != nil {
		return partition.Partition{}, err
	}
	aug, err := hgp.Partition(r.H, b.hgpOptions(epoch))
	if err != nil {
		return partition.Partition{}, err
	}
	p, _, err := r.Decode(h, aug)
	return p, err
}

func (b *Balancer) graphOf(p Problem) *graph.Graph {
	if p.G != nil {
		return p.G
	}
	return graph.FromHypergraph(p.H, b.cfg.MaxClique)
}

func (b *Balancer) hgpOptions(epoch int64) hgp.Options {
	return hgp.Options{
		K:             b.cfg.K,
		Imbalance:     b.cfg.Imbalance,
		Seed:          b.cfg.Seed + epoch*7919,
		CoarsenTo:     b.cfg.CoarsenTo,
		InitialStarts: b.cfg.InitialStarts,
		RefinePasses:  b.cfg.RefinePasses,
		Parallelism:   b.cfg.Parallelism,
	}
}

func (b *Balancer) gpOptions(epoch int64) gp.Options {
	return gp.Options{
		K:             b.cfg.K,
		Imbalance:     b.cfg.Imbalance,
		Seed:          b.cfg.Seed + epoch*7919,
		CoarsenTo:     b.cfg.CoarsenTo,
		InitialStarts: b.cfg.InitialStarts,
		RefinePasses:  b.cfg.RefinePasses,
	}
}

// refineCaps returns per-part weight caps for the refine-only ablation.
func refineCaps(h *hypergraph.Hypergraph, k int, eps float64) []int64 {
	total := h.TotalWeight()
	capv := int64(float64(total) / float64(k) * (1 + eps))
	if capv < 1 {
		capv = 1
	}
	caps := make([]int64, k)
	for p := range caps {
		caps[p] = capv
	}
	return caps
}
