// Package hyperbal is a Go implementation of hypergraph-based dynamic load
// balancing for adaptive scientific computations, reproducing Catalyurek,
// Boman, Devine, Bozdag, Heaphy & Riesen (IPDPS 2007): a repartitioning
// hypergraph model that minimizes α·(communication volume) + (migration
// volume) via multilevel hypergraph partitioning with fixed vertices, plus
// the graph-based baselines the paper compares against.
//
// This file is the public façade: it re-exports the user-facing types and
// entry points so downstream code imports only "hyperbal".
//
// # Quick start
//
//	b := hyperbal.NewHypergraphBuilder(numVertices)
//	// ... b.AddNet / b.SetWeight / b.SetSize ...
//	h := b.Build()
//
//	bal, _ := hyperbal.NewBalancer(hyperbal.BalancerConfig{
//		K: 8, Alpha: 100, Method: hyperbal.HypergraphRepart,
//	})
//	first, _ := bal.Partition(hyperbal.Problem{H: h})
//	// ... application runs an epoch, the hypergraph drifts to h2 ...
//	next, _ := bal.Repartition(hyperbal.Problem{H: h2}, first.Partition, 1)
//	fmt.Println(next.CommVolume, next.MigrationVolume)
package hyperbal

import (
	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/gp"
	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/migrate"
	"hyperbal/internal/mpi"
	"hyperbal/internal/partition"
	"hyperbal/internal/phg"
)

// ---- Hypergraph and graph data structures ----

// Hypergraph is a vertex/net structure with weights, sizes, costs and
// optional fixed-vertex labels. See NewHypergraphBuilder.
type Hypergraph = hypergraph.Hypergraph

// HypergraphBuilder incrementally constructs a Hypergraph.
type HypergraphBuilder = hypergraph.Builder

// NewHypergraphBuilder creates a builder for n vertices.
func NewHypergraphBuilder(n int) *HypergraphBuilder { return hypergraph.NewBuilder(n) }

// Graph is a CSR weighted undirected graph (input form for the graph
// baselines and the dataset generators).
type Graph = graph.Graph

// GraphBuilder incrementally constructs a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder creates a builder for n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// GraphToHypergraph converts a graph to its exact hypergraph form (one
// 2-pin net per edge).
func GraphToHypergraph(g *Graph) *Hypergraph { return graph.ToHypergraph(g) }

// HypergraphToGraph converts a hypergraph to a graph by clique expansion
// (nets above maxClique pins fall back to rings).
func HypergraphToGraph(h *Hypergraph, maxClique int) *Graph {
	return graph.FromHypergraph(h, maxClique)
}

// ---- Partitions and metrics ----

// Partition assigns each vertex to a part in [0, K).
type Partition = partition.Partition

// CutSize returns the connectivity-1 cut (Eq. 2): the communication volume
// of the modeled computation.
func CutSize(h *Hypergraph, p Partition) int64 { return partition.CutSize(h, p) }

// MigrationVolume returns the data volume that must move between two
// assignments of the same hypergraph.
func MigrationVolume(h *Hypergraph, old, new Partition) int64 {
	return partition.MigrationVolume(h, old, new)
}

// PartWeights returns the per-part vertex weight totals.
func PartWeights(h *Hypergraph, p Partition) []int64 { return partition.Weights(h, p) }

// Imbalance returns max_p W_p / W_avg - 1.
func Imbalance(weights []int64) float64 { return partition.Imbalance(weights) }

// RemapParts relabels a freshly computed partition to minimize migration
// from old (the maximal-matching heuristic used by the scratch methods).
func RemapParts(h *Hypergraph, old, fresh Partition) Partition {
	return partition.Remap(h, old, fresh)
}

// ---- The repartitioning model (the paper's contribution) ----

// RepartitionHypergraph is the augmented hypergraph H̄ of Section 3.
type RepartitionHypergraph = core.RepartitionHypergraph

// BuildRepartition constructs H̄ from an epoch hypergraph, the previous
// partition, the part count and α.
func BuildRepartition(h *Hypergraph, old Partition, k int, alpha int64) (*RepartitionHypergraph, error) {
	return core.BuildRepartition(h, old, k, alpha)
}

// Migration summarizes data movement between epochs.
type Migration = core.Migration

// ---- Balancer: the four Section 5 algorithms ----

// Method selects a load-balancing algorithm.
type Method = core.Method

// The four methods benchmarked in the paper.
const (
	HypergraphRepart  = core.HypergraphRepart  // "Zoltan-repart" (the new model)
	HypergraphScratch = core.HypergraphScratch // "Zoltan-scratch"
	GraphRepart       = core.GraphRepart       // "ParMETIS-repart" (AdaptiveRepart)
	GraphScratch      = core.GraphScratch      // "ParMETIS-scratch" (Partkway)
)

// BalancerConfig parameterizes a Balancer.
type BalancerConfig = core.Config

// Problem bundles the hypergraph (required) and graph (optional) views of
// an epoch's computation.
type Problem = core.Problem

// Result reports one load-balance operation.
type Result = core.Result

// Balancer runs static partitioning and epoch repartitioning.
type Balancer = core.Balancer

// NewBalancer validates the configuration and returns a Balancer.
func NewBalancer(cfg BalancerConfig) (*Balancer, error) { return core.NewBalancer(cfg) }

// CostModel evaluates t_tot = α(t_comp + t_comm) + t_mig + t_repart.
type CostModel = core.CostModel

// CostEstimate is a t_tot breakdown.
type CostEstimate = core.Estimate

// DefaultCostModel is a nominal cluster profile (ratios matter, not
// absolutes).
var DefaultCostModel = core.DefaultCostModel

// ---- Direct partitioner access ----

// HGPOptions tune the serial multilevel hypergraph partitioner.
type HGPOptions = hgp.Options

// PartitionHypergraph partitions h (honoring fixed vertices) with the
// serial multilevel algorithm of Section 4.
func PartitionHypergraph(h *Hypergraph, opt HGPOptions) (Partition, error) {
	return hgp.Partition(h, opt)
}

// GPOptions tune the baseline multilevel graph partitioner.
type GPOptions = gp.Options

// PartitionGraph partitions a graph from scratch (METIS-style multilevel
// recursive bisection).
func PartitionGraph(g *Graph, opt GPOptions) (Partition, error) { return gp.Partition(g, opt) }

// ---- Parallel execution ----

// Comm is a communicator of the in-process message-passing substrate.
type Comm = mpi.Comm

// RunWorld launches an n-rank SPMD world (the MPI substitute; see
// internal/mpi docs) and waits for completion.
func RunWorld(n int, fn func(c *Comm) error) error { return mpi.Run(n, fn) }

// WorldStats carries the substrate traffic counters of one world.
type WorldStats = mpi.Stats

// RunWorldStats is RunWorld, also returning message/byte counters.
func RunWorldStats(n int, fn func(c *Comm) error) (*WorldStats, error) {
	return mpi.RunStats(n, fn)
}

// WorldOptions configure a world beyond its size: fault injection
// (FaultPlan), the deadlock watchdog, and per-operation tracing.
type WorldOptions = mpi.Options

// FaultPlan is a deterministic (seeded) fault schedule: per-rank message
// delays, delivery reordering across distinct (src,tag) streams, and
// rank-crash-at-step faults.
type FaultPlan = mpi.FaultPlan

// DeadlockError is returned when the watchdog aborts a stalled world; it
// names which ranks were blocked in which operation.
type DeadlockError = mpi.DeadlockError

// CrashError reports a rank killed by an injected crash fault.
type CrashError = mpi.CrashError

// WorldEvent is one completed substrate operation, reported via
// WorldOptions.OnEvent.
type WorldEvent = mpi.Event

// RunWorldWith is RunWorld with fault injection, watchdog diagnostics and
// tracing (see WorldOptions).
func RunWorldWith(n int, opt WorldOptions, fn func(c *Comm) error) (*WorldStats, error) {
	return mpi.RunWith(n, opt, fn)
}

// PHGOptions tune the parallel hypergraph partitioner.
type PHGOptions = phg.Options

// ParallelPartitionHypergraph partitions h in parallel with fixed-vertex
// support; every rank must call it with identical arguments and receives
// the identical result.
func ParallelPartitionHypergraph(c *Comm, h *Hypergraph, opt PHGOptions) (Partition, error) {
	return phg.Partition(c, h, opt)
}

// ---- Migration execution ----

// MigrationPlan schedules vertex data movement between two assignments.
type MigrationPlan = migrate.Plan

// NewMigrationPlan derives the plan for moving h's data from old to new.
func NewMigrationPlan(h *Hypergraph, old, new Partition) (*MigrationPlan, error) {
	return migrate.NewPlan(h, old, new)
}

// VertexStore is one rank's owned vertex payloads.
type VertexStore = migrate.Store

// ExecuteMigration runs the plan over a communicator (one rank per part).
func ExecuteMigration(c *Comm, p *MigrationPlan, store VertexStore) (int, error) {
	return migrate.Execute(c, p, store)
}

// ---- Synthetic datasets and dynamics (Section 5 experiments) ----

// GenerateDataset builds the synthetic analogue of a Table 1 dataset with
// n vertices (n <= 0 uses the default scale).
func GenerateDataset(name string, n int, seed int64) (*Graph, error) {
	return datasets.Generate(name, n, seed)
}

// DynamicsGenerator produces a sequence of drifted epochs (Next) and
// records computed partitions (Observe).
type DynamicsGenerator = dynamics.Generator

// NewRefinementDynamics builds the simulated-AMR dynamic (partFrac of the
// parts scale vertex weight and size by U(minF, maxF) each epoch).
func NewRefinementDynamics(orig *Graph, init Partition, k int, partFrac, minF, maxF float64, seed int64) (DynamicsGenerator, error) {
	return dynamics.NewRefinement(orig, init, k, partFrac, minF, maxF, seed)
}

// The Client for a remote balancerd (with timeout/retry/backoff) lives in
// client.go: NewClient, Client, RemoteSession, RemoteResult.

// ---- Epoch session management ----

// Session owns an adaptive application's epoch lifecycle: current
// distribution, rebalance triggering, and the account of the run (epoch
// count, last result, running α·comm + mig).
type Session = core.Session

// NewSession computes the epoch-1 static partition and returns the
// running session.
func NewSession(bal *Balancer, p Problem) (*Session, Result, error) {
	return core.NewSession(bal, p)
}
