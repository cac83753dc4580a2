package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hyperbal"
	"hyperbal/internal/core"
	"hyperbal/internal/hgp"
	"hyperbal/internal/obs"
)

// setupReps is how often a run sets the workload up; setup_s is the median,
// and the last instance is the one measured.
const setupReps = 3

// endToEnd lists the end-to-end metrics. Those with a relative bound are
// BENCHMARK.json's, in its order. The absolute ones can be 0, which a bound
// that is a share of the parent's median cannot judge, so they stay out of
// BENCHMARK.json and of the driver's result line; -compare holds them to
// rules of their own.
var endToEnd = []struct {
	name, unit string
	absolute   bool
}{
	{"setup_s", "s", false},
	{"epoch_ms_p50", "ms", false},
	{"epoch_ms_p90", "ms", false},
	{"epochs_per_s", "1/s", false},
	{"norm_cost", "volume", false},
	{"alloc_mb_per_epoch", "MB", false},
	{"fail_frac", "ratio", true},     // may not rise
	{"imbalance_max", "ratio", true}, // must stay within max(eps, the parent's)
}

// perLayer lists the per-layer metrics in BENCHMARK.json's order. exact
// marks the counts that must repeat from run to run on one seed.
var perLayer = []struct {
	name, unit string
	exact      bool
}{
	{"hypergraph.encode_ms", "ms", false},
	{"hypergraph.decode_fp_ms", "ms", false},
	{"hypergraph.fingerprint_ms", "ms", false},
	{"hypergraph.full_bytes", "B", true},
	{"hypergraph.delta_compute_ms", "ms", false},
	{"hypergraph.delta_apply_ms", "ms", false},
	{"hypergraph.delta_bytes", "B", true},
	{"hypergraph.delta_over_full_bytes", "ratio", true},
	{"core.build_repart_ms", "ms", false},
	{"core.cut_mig_ms", "ms", false},
	{"core.repart_ms", "ms", false},
	{"core.comm_volume", "volume", true},
	{"core.migration_volume", "volume", true},
	{"hgp.coarsen_ms", "ms", false},
	{"hgp.coarse_solve_ms", "ms", false},
	{"hgp.refine_ms", "ms", false},
	{"hgp.polish_ms", "ms", false},
	{"hgp.levels", "count", true},
	{"hgp.fm2_moves", "count", true},
	{"hgp.kway_moves", "count", true},
	{"hgp.kway_passes", "count", true},
	{"hgp.kernel_rounds", "count", true},
	{"hgp.kernel_conflicts", "count", true},
	{"hgp.kernel_worker_items", "count", false},
	{"hgp.kernel_conflict_frac", "ratio", false},
	{"hgp.par_speedup", "ratio", false},
	{"hgp.par_serial_ms", "ms", false},
	{"hgp.warm_ms", "ms", false},
	{"hgp.warm_localized_frac", "ratio", true},
	{"server.request_ms", "ms", false},
	{"server.codec_ms", "ms", false},
	{"server.solve_cold_ms", "ms", false},
	{"server.solve_warm_ms", "ms", false},
	{"server.unattributed_ms", "ms", false},
	{"server.cache_hit_frac", "ratio", true},
	{"server.rejected_busy", "count", true},
	{"server.wire_rx_kb", "kB", true},
	{"server.wire_tx_kb", "kB", true},
	{"client.http_overhead_ms", "ms", false},
	{"client.retries", "count", true},
	{"client.delta_fallbacks", "count", true},
	{"client.json_epoch_ms_p50", "ms", false},
	{"bench.offered_rate", "1/s", false},
	{"bench.achieved_rate", "1/s", false},
	{"bench.late_ms_p90", "ms", false},
	{"bench.trace_overhead_frac", "ratio", false},
	{"bench.traced_ops", "count", false},
	{"bench.count_window_ops", "count", true},
	{"mpi.messages", "count", true},
	{"mpi.bytes", "B", true},
	{"mpi.collectives", "count", true},
	{"mpi.max_stall_ms", "ms", false},
	// Not exact: a worker may send its last frame of a world after RunWorld
	// has returned, on either side of the count window's end.
	{"mpinet.frames", "count", false},
	{"mpinet.bytes", "B", false},
	{"mpinet.bytes_over_mpi_bytes", "ratio", false},
	{"phg.inproc_ms", "ms", false},
	{"mpinet.transport_overhead_ms", "ms", false},
	{"jobs.encode_ms", "ms", false},
	{"datasets.generate_ms", "ms", false},
	{"dynamics.next_ms", "ms", false},
	{"partition.imbalance_max", "ratio", false},
	{"partition.over_eps_frac", "ratio", false},
	{"go.gc_pause_ms", "ms", false},
	{"go.heap_sys_mb", "MB", false},
}

type runConfig struct {
	seed    int64
	seconds float64
	ops     int  // > 0: passes run exactly this many ops (the test)
	trace   bool // also run the traced pass and report per-layer metrics
	tiny    bool // shrink the workload (the test)
	dir     string
}

// pass is the outcome of one timed pass.
type pass struct {
	p      *phase
	reg    regDiff // registry growth over the whole pass
	cnt    *counts // traced pass: state at the end of the count window
	lat    []float64
	late   []float64
	tried  int // ops attempted
	failed int
	refMS  []float64
	// Whole-process memory figures over the pass.
	allocMB, gcMS float64
}

func (ps *pass) ops() int     { return len(ps.lat) }
func (ps *pass) p50() float64 { return quantile(ps.lat, 0.5) }

// measure runs one pass over inst and verifies its kept samples.
func measure(ctx context.Context, inst *instance, tr *tracer, cfg runConfig, d time.Duration) (*pass, error) {
	p := newPhase(inst, tr)
	window := 0
	if tr != nil {
		window = countOps
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := obs.Default().Snapshot()
	cnt, err := p.run(ctx, cfg.ops, d, window)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	ps := &pass{p: p, cnt: cnt, reg: regDiff{before, obs.Default().Snapshot()},
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		gcMS:    float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6}
	for _, r := range p.recs {
		ps.lat = append(ps.lat, r.lat...)
		ps.late = append(ps.late, r.late...)
		ps.tried += r.ops
		ps.failed += r.failed
	}
	if ps.ops() == 0 {
		return nil, fmt.Errorf("the timed phase completed no op (%d attempted)", ps.tried)
	}
	bad, refMS := p.verify()
	ps.failed += bad
	ps.refMS = refMS
	return ps, nil
}

func runWorkload(ctx context.Context, wl *workload, cfg runConfig) (runResult, error) {
	if cfg.tiny {
		wl = wl.tiny()
	}
	res := runResult{Workload: wl.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds}

	var setups []float64
	var inst *instance
	for r := 0; r < setupReps; r++ {
		if inst != nil {
			inst.teardown()
		}
		runtime.GC() // every repetition starts from a collected heap
		t0 := time.Now()
		var err error
		if inst, err = setup(ctx, wl, cfg.seed, nil); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	plain, err := measure(ctx, inst, nil, cfg, d)
	inst.teardown()
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed, res.Samples = plain.tried, plain.failed, plain.ops()
	res.EndToEnd = endToEndMetrics(median(setups), plain)
	if err := checkIntent(wl, cfg, plain); err != nil {
		return res, err
	}

	if cfg.trace {
		tr := newTracer()
		if inst, err = setup(ctx, wl, cfg.seed, tr); err != nil {
			return res, fmt.Errorf("set-up for the traced pass: %w", err)
		}
		traced, err := measure(ctx, inst, tr, cfg, d)
		if err == nil {
			err = checkIntent(wl, cfg, traced)
		}
		var ex extras
		if err == nil {
			ex, err = runExtras(ctx, inst, traced, tr, cfg)
		}
		inst.teardown()
		if err != nil {
			return res, fmt.Errorf("traced pass: %w", err)
		}
		res.Attempted += traced.tried
		res.Failed += traced.failed
		res.PerLayer = perLayerMetrics(wl, traced, tr, ex, plain.p50())
		res.SpanFile = filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, cfg.seed))
		if err := tr.write(res.SpanFile); err != nil {
			return res, err
		}
	}
	res.Correct = res.Failed == 0
	res.EndToEnd["fail_frac"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	return res, nil
}

func endToEndMetrics(setupS float64, ps *pass) map[string]metric {
	// norm_cost and imbalance_max cover a fixed prefix of the pass's op
	// order, so that they depend on the seed and not on the host's speed.
	var prefix []opQuality
	for _, r := range ps.p.recs {
		for _, q := range r.quality {
			if q.idx < ps.p.inst.wl.qualityOps {
				prefix = append(prefix, q)
			}
		}
	}
	sort.Slice(prefix, func(i, j int) bool { return prefix[i].idx < prefix[j].idx })
	costs := make([]float64, len(prefix))
	var imb float64
	for i, q := range prefix {
		costs[i] = q.cost
		imb = max(imb, q.imb)
	}
	vals := map[string]float64{
		"setup_s":            setupS,
		"epoch_ms_p50":       ps.p50(),
		"epoch_ms_p90":       quantile(ps.lat, 0.9),
		"epochs_per_s":       float64(ps.ops()) / ps.p.wall.Seconds(),
		"norm_cost":          mean(costs),
		"alloc_mb_per_epoch": ps.allocMB / float64(ps.ops()),
		"imbalance_max":      imb,
		"fail_frac":          0, // set once the run's last pass has ended
	}
	m := make(map[string]metric, len(endToEnd))
	for _, e := range endToEnd {
		m[e.name] = metric{vals[e.name], e.unit}
	}
	return m
}

func hitFrac(d regDiff) float64 {
	hits := d.counter("server_cache_hits_total", "")
	return ratio(hits, hits+d.counter("server_cache_misses_total", ""))
}

func localizedFrac(d regDiff) float64 {
	return ratio(d.counter("hgp_warm_partitions_total", `mode="localized"`), d.counter("hgp_warm_partitions_total", ""))
}

// achievedRate is completed ops over the pass's wall time; offeredRate is
// the arrival schedule's own rate (closed loop: the same thing, since a
// closed loop offers exactly what completes).
func achievedRate(ps *pass) float64 { return float64(ps.ops()) / ps.p.wall.Seconds() }

func offeredRate(ps *pass) float64 {
	if ps.p.inst.wl.openRate > 0 {
		return ps.p.inst.wl.openRate
	}
	return achievedRate(ps)
}

// checkIntent fails the run when a workload did not exercise what it
// exists to exercise: the numbers would be valid measurements of the wrong
// thing.
func checkIntent(wl *workload, cfg runConfig, ps *pass) error {
	if wl.layer != "serve" {
		return nil
	}
	hit := hitFrac(ps.reg)
	switch {
	case wl.sharedSeed && hit < 0.95:
		return fmt.Errorf("intent: cache hit fraction %.3f < 0.95 on a workload that must hit", hit)
	case !wl.sharedSeed && hit > 0.05:
		return fmt.Errorf("intent: cache hit fraction %.3f > 0.05 on a workload that must miss", hit)
	}
	if wl.delta {
		if f := localizedFrac(ps.reg); f <= 0 {
			return fmt.Errorf("intent: no warm start took the localized path")
		}
		if fb := ps.reg.counter("client_delta_fallbacks_total", ""); fb > 0.05*float64(ps.ops()) {
			return fmt.Errorf("intent: %.0f of %d delta epochs fell back to full submissions", fb, ps.ops())
		}
	}
	if wl.openRate > 0 && cfg.ops == 0 && ps.cnt == nil {
		// Untraced, timed passes only. The rate constant must leave the host
		// headroom; if either fires, lower openRate rather than ignore it.
		if a, o := achievedRate(ps), offeredRate(ps); a < 0.95*o {
			return fmt.Errorf("intent: achieved %.1f ops/s is more than 5%% below the offered %.1f", a, o)
		}
		// Lateness only warns: on a host where a neighbour can slow every
		// solve by a quarter for a minute, one run in ten crossed this line
		// even at 18 ops/s, and a run that exits non-zero reports nothing.
		service := ps.reg.histMS("server_epoch_cold_ns", "") / float64(ps.ops())
		if l := quantile(ps.late, 0.9); l > service {
			fmt.Printf("# WARNING intent: senders ran %.1f ms late at p90, above one mean service time (%.1f ms)\n", l, service)
		}
	}
	return nil
}

// extras are the traced run's measurements outside the timed pass.
type extras struct {
	parSerialMS, parSpeedup float64
	jsonP50                 float64
}

func runExtras(ctx context.Context, inst *instance, traced *pass, tr *tracer, cfg runConfig) (extras, error) {
	var ex extras
	wl := inst.wl
	// hgp.par_speedup: the same augmented hypergraph partitioned serially and
	// at GOMAXPROCS, five times each, alternating.
	in := traced.p.firstIn
	rep, err := core.BuildRepartition(in.h, in.old, benchK, benchAlpha)
	if err != nil {
		return ex, err
	}
	var serial, par []float64
	for i := 0; i < 5; i++ {
		for _, width := range []int{1, runtime.GOMAXPROCS(0)} {
			o := tr.scope(fmt.Sprintf("hgp.Partition/par=%d", width), -1)
			t0 := time.Now()
			_, err := hgp.Partition(rep.H, hgp.Options{K: benchK, Imbalance: benchEps, Seed: cfg.seed, Parallelism: width})
			ms := float64(time.Since(t0)) / 1e6
			o.close()
			if err != nil {
				return ex, err
			}
			if width == 1 {
				serial = append(serial, ms)
			} else {
				par = append(par, ms)
			}
		}
	}
	ex.parSerialMS = median(serial)
	ex.parSpeedup = ratio(median(serial), median(par))

	if wl.sharedSeed {
		// client.json_epoch_ms_p50: 50 cached ops replayed over the JSON wire.
		c := hyperbal.NewClient(inst.url, hyperbal.ClientOptions{Wire: "json"})
		s, err := newServeSession(ctx, wl, c, datasetSeed(0), sessionSeed(cfg.seed, 0), nil)
		if err != nil {
			return ex, err
		}
		n := 50
		if cfg.ops > 0 {
			n = cfg.ops
		}
		p := newPhase(&instance{wl: wl, callers: [][]session{{s}}}, nil)
		if _, err := p.run(ctx, n, 0, 0); err != nil {
			return ex, err
		}
		if r := p.recs[0]; r.failed > 0 {
			return ex, fmt.Errorf("json replay: %d of %d ops failed", r.failed, r.ops)
		}
		ex.jsonP50 = quantile(p.recs[0].lat, 0.5)
	}
	return ex, nil
}

func perLayerMetrics(wl *workload, ps *pass, tr *tracer, ex extras, plainP50 float64) map[string]metric {
	n, c := float64(ps.ops()), float64(ps.cnt.ops)
	pr, cr := ps.reg, ps.cnt.reg
	spans := tr.sums()
	perOp := func(name string) float64 { return spans[name].ms / n }
	gen := spans["datasets.Generate"]
	request := (pr.histMS("server_request_ns", `route="epoch"`) + pr.histMS("server_request_ns", `route="delta"`)) / n
	codec := pr.histMS("server_codec_ns", "") / n
	cold := pr.histMS("server_epoch_cold_ns", "") / n
	warm := pr.histMS("server_epoch_warm_ns", "") / n
	var httpOverhead, inproc, transport, stall float64
	if wl.layer == "serve" {
		httpOverhead = ps.p50() - request
	}
	if wl.layer == "spmd" {
		inproc = median(ps.refMS)
		transport = ps.p50() - inproc
		for _, ss := range ps.p.inst.callers {
			for _, s := range ss {
				if ms := float64(s.(*spmdSession).maxStall) / 1e6; ms > stall {
					stall = ms
				}
			}
		}
	}
	var imb float64
	var overEps int
	for _, r := range ps.p.recs {
		overEps += r.overEps
		for _, q := range r.quality {
			imb = max(imb, q.imb)
		}
	}
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	vals := map[string]float64{
		"hypergraph.encode_ms":             perOp("hypergraph.AppendBinary"),
		"hypergraph.decode_fp_ms":          perOp("hypergraph.DecodeBinary"),
		"hypergraph.fingerprint_ms":        perOp("hypergraph.Fingerprint"),
		"hypergraph.full_bytes":            float64(ps.cnt.fullBytes) / c,
		"hypergraph.delta_compute_ms":      perOp("hypergraph.ComputeDeltaMapped"),
		"hypergraph.delta_apply_ms":        perOp("hypergraph.Delta.Apply"),
		"hypergraph.delta_bytes":           float64(ps.cnt.deltaBytes) / c,
		"hypergraph.delta_over_full_bytes": ratio(float64(ps.cnt.deltaBytes), float64(ps.cnt.deltaFullBytes)),
		"core.build_repart_ms":             perOp("core.BuildRepartition"),
		"core.cut_mig_ms":                  perOp("core.cut_mig"),
		"core.repart_ms":                   pr.histMS("core_repart_ns", "") / n,
		"core.comm_volume":                 float64(ps.cnt.comm) / c,
		"core.migration_volume":            float64(ps.cnt.mig) / c,
		"hgp.coarsen_ms":                   pr.histMS("hgp_coarsen_ns", "") / n,
		"hgp.coarse_solve_ms":              pr.histMS("hgp_coarse_solve_ns", "") / n,
		"hgp.refine_ms":                    pr.histMS("hgp_refine_ns", "") / n,
		"hgp.polish_ms":                    pr.histMS("hgp_kway_polish_ns", "") / n,
		"hgp.levels":                       cr.counter("hgp_coarsen_levels_total", "") / c,
		"hgp.fm2_moves":                    cr.counter("hgp_fm2_moves_total", "") / c,
		"hgp.kway_moves":                   cr.counter("hgp_kway_moves_total", "") / c,
		"hgp.kway_passes":                  cr.counter("hgp_kway_passes_total", "") / c,
		"hgp.kernel_rounds":                cr.counter("hgp_kernel_rounds_total", "") / c,
		"hgp.kernel_conflicts":             cr.counter("hgp_kernel_conflicts_total", "") / c,
		"hgp.kernel_worker_items":          cr.counter("hgp_kernel_worker_items_total", "") / c,
		"hgp.kernel_conflict_frac":         ratio(cr.counter("hgp_kernel_conflicts_total", ""), cr.counter("hgp_kernel_worker_items_total", "")),
		"hgp.par_speedup":                  ex.parSpeedup,
		"hgp.par_serial_ms":                ex.parSerialMS,
		"hgp.warm_ms":                      pr.histMS("hgp_warm_partition_ns", "") / n,
		"hgp.warm_localized_frac":          localizedFrac(cr),
		"server.request_ms":                request,
		"server.codec_ms":                  codec,
		"server.solve_cold_ms":             cold,
		"server.solve_warm_ms":             warm,
		"server.unattributed_ms":           request - codec - cold - warm,
		"server.cache_hit_frac":            hitFrac(cr),
		"server.rejected_busy":             pr.counter("server_rejected_busy_total", ""),
		"server.wire_rx_kb":                cr.counter("server_wire_rx_bytes_total", "") / c / 1024,
		"server.wire_tx_kb":                cr.counter("server_wire_tx_bytes_total", "") / c / 1024,
		"client.http_overhead_ms":          httpOverhead,
		"client.retries":                   pr.counter("client_retries_total", ""),
		"client.delta_fallbacks":           pr.counter("client_delta_fallbacks_total", ""),
		"client.json_epoch_ms_p50":         ex.jsonP50,
		"bench.offered_rate":               offeredRate(ps),
		"bench.achieved_rate":              achievedRate(ps),
		"bench.late_ms_p90":                quantile(ps.late, 0.9),
		"bench.trace_overhead_frac":        ratio(ps.p50(), plainP50) - 1,
		"bench.traced_ops":                 n,
		"bench.count_window_ops":           c,
		"mpi.messages":                     cr.counter("mpi_messages_total", "") / c,
		"mpi.bytes":                        cr.counter("mpi_bytes_total", "") / c,
		"mpi.collectives":                  cr.counter("mpi_collectives_total", "") / c,
		"mpi.max_stall_ms":                 stall,
		"mpinet.frames":                    cr.counter("mpinet_frames_total", `dir="tx"`) / c,
		"mpinet.bytes":                     cr.counter("mpinet_bytes_total", `dir="tx"`) / c,
		"mpinet.bytes_over_mpi_bytes":      ratio(cr.counter("mpinet_bytes_total", `dir="tx"`), cr.counter("mpi_bytes_total", "")),
		"phg.inproc_ms":                    inproc,
		"mpinet.transport_overhead_ms":     transport,
		"jobs.encode_ms":                   perOp("jobs.EncodePHG"),
		"datasets.generate_ms":             ratio(gen.ms, float64(gen.n)),
		"dynamics.next_ms":                 perOp("dynamics.Next"),
		"partition.imbalance_max":          imb,
		"partition.over_eps_frac":          float64(overEps) / n,
		"go.gc_pause_ms":                   ps.gcMS,
		"go.heap_sys_mb":                   float64(heap.HeapSys) / (1 << 20),
	}
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		v, ok := vals[l.name]
		if !ok {
			panic("bench: per-layer metric " + l.name + " is listed but not computed")
		}
		m[l.name] = metric{v, l.unit}
	}
	return m
}
