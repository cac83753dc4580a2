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
	"io"

	"hyperbal/internal/appsim"
	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/dhg"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/gp"
	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/migrate"
	"hyperbal/internal/mpi"
	"hyperbal/internal/mtx"
	"hyperbal/internal/partition"
	"hyperbal/internal/pgp"
	"hyperbal/internal/phg"
	"hyperbal/internal/server"
	"hyperbal/internal/toolkit"
)

// ---- Hypergraph and graph data structures ----

// Hypergraph is a vertex/net structure with weights, sizes, costs and
// optional fixed-vertex labels. See NewHypergraphBuilder.
type Hypergraph = hypergraph.Hypergraph

// HypergraphBuilder incrementally constructs a Hypergraph.
type HypergraphBuilder = hypergraph.Builder

// NewHypergraphBuilder creates a builder for n vertices.
func NewHypergraphBuilder(n int) *HypergraphBuilder { return hypergraph.NewBuilder(n) }

// FreeVertex marks a vertex as not fixed to any part.
const FreeVertex = hypergraph.Free

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

// NewPartition creates an all-zeros partition of n vertices into k parts.
func NewPartition(n, k int) Partition { return partition.New(n, k) }

// CutSize returns the connectivity-1 cut (Eq. 2): the communication volume
// of the modeled computation.
func CutSize(h *Hypergraph, p Partition) int64 { return partition.CutSize(h, p) }

// EdgeCut returns the weighted edge cut of a graph partition.
func EdgeCut(g *Graph, p Partition) int64 { return partition.EdgeCut(g, p) }

// MigrationVolume returns the data volume that must move between two
// assignments of the same hypergraph.
func MigrationVolume(h *Hypergraph, old, new Partition) int64 {
	return partition.MigrationVolume(h, old, new)
}

// PartWeights returns the per-part vertex weight totals.
func PartWeights(h *Hypergraph, p Partition) []int64 { return partition.Weights(h, p) }

// Imbalance returns max_p W_p / W_avg - 1.
func Imbalance(weights []int64) float64 { return partition.Imbalance(weights) }

// IsBalanced reports Eq. 1: W_p <= W_avg(1+eps) for all parts.
func IsBalanced(weights []int64, eps float64) bool { return partition.IsBalanced(weights, eps) }

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

// Methods lists all four in the figures' bar order.
var Methods = core.Methods

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

// AdaptiveRepartGraph runs the ParMETIS-style unified adaptive
// repartitioner with trade-off parameter itr (≈ α).
func AdaptiveRepartGraph(g *Graph, old Partition, itr int64, opt GPOptions) (Partition, error) {
	return gp.AdaptiveRepart(g, old, itr, opt)
}

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

// DatasetInfo describes a Table 1 dataset and its synthetic analogue.
type DatasetInfo = datasets.Info

// Datasets lists the five Table 1 datasets in paper order.
func Datasets() []DatasetInfo { return datasets.Registry }

// GenerateDataset builds the synthetic analogue of a Table 1 dataset with
// n vertices (n <= 0 uses the default scale).
func GenerateDataset(name string, n int, seed int64) (*Graph, error) {
	return datasets.Generate(name, n, seed)
}

// DynamicsGenerator produces a sequence of drifted epochs (Next) and
// records computed partitions (Observe).
type DynamicsGenerator = dynamics.Generator

// NewStructuralDynamics builds the biased-perturbation dynamic (half the
// parts lose/gain vertFrac of the vertices each epoch, per Section 5).
func NewStructuralDynamics(orig *Graph, init Partition, k int, vertFrac, partFrac float64, seed int64) (DynamicsGenerator, error) {
	return dynamics.NewStructural(orig, init, k, vertFrac, partFrac, seed)
}

// NewRefinementDynamics builds the simulated-AMR dynamic (partFrac of the
// parts scale vertex weight and size by U(minF, maxF) each epoch).
func NewRefinementDynamics(orig *Graph, init Partition, k int, partFrac, minF, maxF float64, seed int64) (DynamicsGenerator, error) {
	return dynamics.NewRefinement(orig, init, k, partFrac, minF, maxF, seed)
}

// ---- Parallel graph baseline ----

// PGPOptions tune the parallel graph partitioner.
type PGPOptions = pgp.Options

// ParallelPartitionGraph partitions a graph from scratch in parallel
// (candidate-round heavy-edge matching over the mpi substrate).
func ParallelPartitionGraph(c *Comm, g *Graph, opt PGPOptions) (Partition, error) {
	return pgp.Partition(c, g, opt)
}

// ParallelAdaptiveRepartGraph runs the unified adaptive repartitioner in
// parallel with trade-off parameter itr.
func ParallelAdaptiveRepartGraph(c *Comm, g *Graph, old Partition, itr int64, opt PGPOptions) (Partition, error) {
	return pgp.AdaptiveRepart(c, g, old, itr, opt)
}

// ---- Zoltan-style callback toolkit ----

// ObjectID identifies an application object in the callback interface.
type ObjectID = toolkit.ObjectID

// Callbacks is the Zoltan-style query interface applications implement.
type Callbacks = toolkit.Callbacks

// Changes is the import/export result of one load-balance call.
type Changes = toolkit.Changes

// LoadBalancer is the callback-driven front end (Zoltan-style).
type LoadBalancer = toolkit.LB

// NewLoadBalancer binds a configuration to application callbacks.
func NewLoadBalancer(cfg BalancerConfig, cb Callbacks) (*LoadBalancer, error) {
	return toolkit.New(cfg, cb)
}

// ---- Application simulation ----

// SimResult reports a simulated application epoch.
type SimResult = appsim.Result

// SimulateApplication runs a halo-exchange application epoch over the mpi
// substrate (one rank per part): optional migration from old, then the
// given number of iterations under p. The measured per-iteration traffic
// equals CutSize(h, p).
func SimulateApplication(h *Hypergraph, old *Partition, p Partition, iterations int) (SimResult, error) {
	return appsim.Simulate(h, old, p, iterations)
}

// ---- Additional metrics and ablation methods ----

// HypergraphRefineOnly accounts for migration only in refinement (the A2
// ablation; not one of the paper's four algorithms).
const HypergraphRefineOnly = core.HypergraphRefineOnly

// CommMatrix returns per-part-pair communication volumes; its total equals
// CutSize.
func CommMatrix(h *Hypergraph, p Partition) [][]int64 { return partition.CommMatrix(h, p) }

// SOED returns the sum-of-external-degrees metric (cost * lambda per cut
// net).
func SOED(h *Hypergraph, p Partition) int64 { return partition.SOED(h, p) }

// CutNets returns the plain cut-net metric (cost once per cut net).
func CutNets(h *Hypergraph, p Partition) int64 { return partition.CutNetMetric(h, p) }

// BoundaryVertices returns the vertices touching at least one cut net.
func BoundaryVertices(h *Hypergraph, p Partition) []int32 {
	return partition.BoundaryVertices(h, p)
}

// ---- MatrixMarket input ----

// MTXMatrix is a parsed MatrixMarket coordinate pattern.
type MTXMatrix = mtx.Matrix

// ReadMatrixMarket parses a MatrixMarket coordinate file (the format the
// paper's test matrices are published in).
func ReadMatrixMarket(r io.Reader) (*MTXMatrix, error) { return mtx.Read(r) }

// MatrixToHypergraph builds the exact column-net model of a sparse matrix.
func MatrixToHypergraph(m *MTXMatrix) (*Hypergraph, error) { return mtx.ToHypergraph(m) }

// MatrixToGraph builds the symmetrized graph model of a square sparse
// matrix.
func MatrixToGraph(m *MTXMatrix) (*Graph, error) { return mtx.ToGraph(m) }

// ---- Distributed hypergraphs (Zoltan-style data layout) ----

// DistHypergraph is a 1D-distributed hypergraph share (block vertices,
// owner-held nets).
type DistHypergraph = dhg.DH

// DistStats are globally reduced hypergraph statistics.
type DistStats = dhg.GlobalStats

// DistributeHypergraph scatters a root-held hypergraph over the
// communicator in the 1D layout.
func DistributeHypergraph(c *Comm, root int, h *Hypergraph) (*DistHypergraph, error) {
	return dhg.Distribute(c, root, h)
}

// PartitionHypergraphVCycles is PartitionHypergraph followed by the given
// number of refinement V-cycles (never worsens the cut).
func PartitionHypergraphVCycles(h *Hypergraph, opt HGPOptions, cycles int) (Partition, error) {
	return hgp.PartitionWithVCycles(h, opt, cycles)
}

// ---- Serving (balancerd) ----

// ServeConfig parameterizes an embedded balancerd serving tier: worker
// pool size, queue depth, session TTL, cache capacity and fault-injection
// knobs. See cmd/balancerd for the daemon wiring.
type ServeConfig = server.Config

// Server is the balancerd serving core: session store, admission control,
// fingerprint-keyed partition cache and the HTTP API. Mount Handler() on a
// listener and call Drain on shutdown.
type Server = server.Server

// NewServer builds an embeddable balancerd serving core.
func NewServer(cfg ServeConfig) *Server { return server.New(cfg) }

// HypergraphFingerprint returns the stable content hash of a hypergraph —
// the cache key component balancerd uses to serve identical epoch
// submissions without re-partitioning.
func HypergraphFingerprint(h *Hypergraph) string { return h.Fingerprint() }

// ---- Delta epochs ----

// HypergraphDelta is the versioned wire form of an epoch transition:
// vertex/net add/remove plus sparse weight/size/cost updates, applied
// against the previous epoch's fingerprint. Apply/Digest/DirtyVertices
// are methods on the type; RemoteSession.SubmitEpochDelta uses it to cut
// epoch wire bytes and warm-start the server-side repartition.
type HypergraphDelta = hypergraph.Delta

// ErrDeltaBaseMismatch is returned by HypergraphDelta.Apply when the base
// fingerprint disagrees — the signal to fall back to a full resync.
var ErrDeltaBaseMismatch = hypergraph.ErrBaseMismatch

// ComputeHypergraphDelta derives the delta from base to next over an
// unchanged vertex set (false when the transition is not delta-able).
func ComputeHypergraphDelta(base, next *Hypergraph) (*HypergraphDelta, bool) {
	return hypergraph.ComputeDelta(base, next)
}

// ComputeHypergraphDeltaMapped derives the delta for a structural
// transition: vmap[i] is the base vertex that became next's vertex i, or
// -1 for a created vertex.
func ComputeHypergraphDeltaMapped(base, next *Hypergraph, vmap []int32) (*HypergraphDelta, bool) {
	return hypergraph.ComputeDeltaMapped(base, next, vmap)
}

// The Client for a remote balancerd (with timeout/retry/backoff) lives in
// client.go: NewClient, Client, RemoteSession, RemoteResult.

// ---- Epoch session management ----

// Session owns an adaptive application's epoch lifecycle: current
// distribution, rebalance triggering, accumulated history.
type Session = core.Session

// NewSession computes the epoch-1 static partition and returns the
// running session.
func NewSession(bal *Balancer, p Problem) (*Session, Result, error) {
	return core.NewSession(bal, p)
}
