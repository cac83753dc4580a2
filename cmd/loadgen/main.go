// Command loadgen is the out-of-process smoke and fault driver for
// balancerd: it drives N concurrent sessions over the Table-1 dataset
// analogues, each session running E epochs of drift -> submit -> observe
// against the service, and exits non-zero unless every epoch was served.
// Its verdict is counters only — ops ok/dropped, failed sessions, cache
// hits, singleflight leaders/shared, retargets/redirects/retries, wire
// bytes; latency and throughput are measured by `go run ./bench`.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 [-sessions 100] [-epochs 3]
//	        [-datasets xyce680s] [-n 1200] [-k 8] [-alpha 100]
//	        [-dynamic weights|structure] [-distinct-seeds]
//	        [-scenario delta-drift|concurrent-identical|replica-kill]
//	        [-warm] [-check-schema schema.json]
//
// -scenario delta-drift submits every epoch as a PATCH delta against the
// previous one instead of a full hypergraph; -warm additionally asks the
// server to warm-start each repartition from the inherited distribution.
// The pass reports the client's wire bytes by op.
//
// -scenario concurrent-identical releases every session's create through a
// start barrier at once, all with the same seed: the server's singleflight
// group and partition cache collapse the identical cold solves, and the
// pass fails unless the server led fewer solves than ops were issued.
//
// -scenario replica-kill drives a distributed deployment (-addr pointing at
// the gateway) and SIGTERMs the balancerd replica with pid -kill-pid after
// -kill-after: the replica drains, hands its sessions to a ring successor,
// and the pass must finish with zero dropped epochs and a delivered SIGTERM
// — the gateway retarget and client retry counters show the disruption.
// -think paces each session between epochs so the run spans the kill.
//
// By default every session runs the identical workload (same seed), which
// exercises the server's fingerprint-keyed partition cache: the first
// session computes each epoch, the rest are cache hits. -distinct-seeds
// gives every session its own drift, forcing full partitioning load.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hyperbal"
	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/obs"
)

// Op counters of the pass, in the same obs registry the client uses.
var (
	lgEpochsOK = obs.Default().Counter("loadgen_epochs_ok_total")
	lgCached   = obs.Default().Counter("loadgen_epochs_cached_total")
	lgDropped  = obs.Default().Counter("loadgen_epochs_dropped_total")
)

func main() {
	var (
		addr     = flag.String("addr", "", "balancerd base URL (required), e.g. http://127.0.0.1:8080")
		sessions = flag.Int("sessions", 100, "concurrent sessions")
		epochs   = flag.Int("epochs", 3, "epochs per session")
		dsList   = flag.String("datasets", "xyce680s", "comma-separated dataset analogues, assigned round-robin")
		n        = flag.Int("n", 1200, "vertex count per dataset analogue")
		k        = flag.Int("k", 8, "parts")
		alpha    = flag.Int64("alpha", 100, "iterations per epoch")
		dynamic  = flag.String("dynamic", "weights", "weights | structure drift")
		method   = flag.String("method", "Zoltan-repart", "load-balancing method")
		seed     = flag.Int64("seed", 1, "base random seed")
		distinct = flag.Bool("distinct-seeds", false, "give every session its own seed (defeats the partition cache)")
		scenario = flag.String("scenario", "", "named scenario: delta-drift (PATCH deltas), concurrent-identical (singleflight collapse), or replica-kill (SIGTERM a replica mid-run)")
		warm     = flag.Bool("warm", false, "ask the server to warm-start delta epochs from the inherited distribution (delta-drift only)")

		killPid   = flag.Int("kill-pid", 0, "replica-kill: pid of the balancerd replica to SIGTERM mid-run")
		killAfter = flag.Duration("kill-after", 2*time.Second, "replica-kill: delay from run start to the SIGTERM")
		think     = flag.Duration("think", 0, "pause between a session's epochs (paces the run, e.g. across a replica kill)")

		timeout = flag.Duration("timeout", 2*time.Minute, "per-request timeout")
		retries = flag.Int("retries", 5, "max retries per request")

		checkSchema = flag.String("check-schema", "", "validate the server's /metrics.json against this obs schema file")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -addr is required")
		flag.Usage()
		os.Exit(2)
	}
	names := strings.Split(*dsList, ",")
	m, err := core.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	useDelta, barrier := false, false
	switch *scenario {
	case "":
	case "delta-drift":
		useDelta = true
	case "concurrent-identical":
		barrier = true
	case "replica-kill":
		if *killPid <= 0 {
			fmt.Fprintln(os.Stderr, "loadgen: -scenario replica-kill requires -kill-pid")
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown scenario %q (have: delta-drift, concurrent-identical, replica-kill)\n", *scenario)
		os.Exit(2)
	}
	if *killPid > 0 && *scenario != "replica-kill" {
		fmt.Fprintln(os.Stderr, "loadgen: -kill-pid requires -scenario replica-kill")
		os.Exit(2)
	}
	if *warm && !useDelta {
		fmt.Fprintln(os.Stderr, "loadgen: -warm requires -scenario delta-drift")
		os.Exit(2)
	}
	if barrier && *distinct {
		fmt.Fprintln(os.Stderr, "loadgen: -scenario concurrent-identical needs identical seeds; drop -distinct-seeds")
		os.Exit(2)
	}
	if !runLoad(loadRun{
		addr: *addr, sessions: *sessions, epochs: *epochs,
		names: names, n: *n, k: *k, alpha: *alpha, m: m, dynamic: *dynamic,
		seed: *seed, distinct: *distinct, useDelta: useDelta, warm: *warm,
		barrier: barrier,
		killPid: *killPid, killAfter: *killAfter, think: *think,
		timeout: *timeout, retries: *retries,
		checkSchema: *checkSchema,
	}) {
		os.Exit(1)
	}
	fmt.Println("loadgen: all epochs served (zero dropped)")
}

// loadRun is one full load-generation pass.
type loadRun struct {
	addr     string
	sessions int
	epochs   int
	names    []string
	n, k     int
	alpha    int64
	m        core.Method
	dynamic  string
	seed     int64
	distinct bool
	useDelta bool
	warm     bool
	// barrier releases every session's create simultaneously
	// (concurrent-identical scenario).
	barrier bool
	// replica-kill scenario: SIGTERM killPid after killAfter; think paces
	// sessions between epochs so the run spans the kill.
	killPid   int
	killAfter time.Duration
	think     time.Duration

	timeout time.Duration
	retries int

	checkSchema string
}

// runLoad drives one complete pass and prints its counters. Local obs
// metrics are reset at entry; server-side counters (cumulative since
// server start) are diffed around the pass. Returns false when any epoch
// dropped, any session failed, or a scenario's or -check-schema's
// assertion did not hold.
func runLoad(rc loadRun) bool {
	obs.Default().Reset()
	before := fetchServerMetrics(rc.addr)

	client := hyperbal.NewClient(rc.addr, hyperbal.ClientOptions{
		RequestTimeout: rc.timeout,
		MaxRetries:     rc.retries,
	})

	var gate chan struct{}
	if rc.barrier {
		gate = make(chan struct{})
	}
	var failures atomic.Int64
	var wg sync.WaitGroup
	var killTimer *time.Timer
	killErr := make(chan error, 1)
	if rc.killPid > 0 {
		killTimer = time.AfterFunc(rc.killAfter, func() {
			proc, err := os.FindProcess(rc.killPid)
			if err == nil {
				err = proc.Signal(syscall.SIGTERM)
			}
			killErr <- err
		})
	}
	for i := 0; i < rc.sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sseed := rc.seed
			if rc.distinct {
				sseed += int64(i)
			}
			name := rc.names[i%len(rc.names)]
			if gate != nil {
				<-gate
			}
			if err := runSession(client, name, rc.n, rc.k, rc.alpha, rc.m, rc.dynamic, sseed, rc.epochs, rc.useDelta, rc.warm, rc.think); err != nil {
				failures.Add(1)
				fmt.Fprintf(os.Stderr, "loadgen: session %d (%s): %v\n", i, name, err)
			}
		}(i)
	}
	if gate != nil {
		close(gate)
	}
	wg.Wait()

	ok := lgEpochsOK.Load()
	dropped := lgDropped.Load()
	total := int64(rc.sessions) * int64(rc.epochs+1) // +1: the create partitioning
	fmt.Printf("loadgen: %d sessions x %d epochs on %v (%s drift, method %s)\n",
		rc.sessions, rc.epochs, rc.names, rc.dynamic, rc.m)
	fmt.Printf("  ops ok/dropped   %d/%d (of %d)\n", ok, dropped, total)
	fmt.Printf("  sessions failed  %d\n", failures.Load())
	fmt.Printf("  client cached    %d/%d responses\n", lgCached.Load(), ok)

	pass := true
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "loadgen: FAILED: "+format+"\n", args...)
		pass = false
	}
	if dropped > 0 || failures.Load() > 0 {
		fail("%d dropped epochs, %d failed sessions", dropped, failures.Load())
	}

	snap := fetchServerMetrics(rc.addr)
	if snap != nil {
		fmt.Printf("  server cache     %d hits, %d misses\n",
			counterDiff(before, snap, "server_cache_hits_total"),
			counterDiff(before, snap, "server_cache_misses_total"))
		fmt.Printf("  server wire      %d B in / %d B out\n",
			counterDiff(before, snap, `server_wire_rx_bytes_total{codec="binary"}`),
			counterDiff(before, snap, `server_wire_tx_bytes_total{codec="binary"}`))
	}
	if rc.useDelta {
		fmt.Printf("  delta wire       %d B sent as deltas, %d B as full epochs, %d fallbacks\n",
			localCounter("client_bytes_sent_total", "op", "delta"),
			localCounter("client_bytes_sent_total", "op", "epoch"),
			localCounter("client_delta_fallbacks_total"))
	}
	if rc.barrier {
		leaders := counterDiff(before, snap, "server_singleflight_leaders_total")
		fmt.Printf("  singleflight     %d leaders, %d shared followers\n",
			leaders, counterDiff(before, snap, "server_singleflight_shared_total"))
		if snap == nil {
			fail("concurrent-identical: could not fetch server metrics")
		} else if leaders >= total {
			fail("concurrent-identical: %d singleflight leaders for %d ops, identical solves did not collapse", leaders, total)
		}
	}
	if rc.killPid > 0 {
		err := errors.New("the run finished before -kill-after")
		if !killTimer.Stop() {
			err = <-killErr
		}
		if err != nil {
			fail("replica-kill: SIGTERM pid %d not delivered: %v", rc.killPid, err)
		}
		fmt.Printf("  replica kill     %d gateway retargets, %d client owner redirects, %d client retries\n",
			counterDiff(before, snap, "gateway_retargets_total"),
			localCounter("client_owner_redirects_total"), localCounter("client_retries_total"))
	}
	if rc.checkSchema != "" {
		if err := checkSchema(snap, rc.checkSchema); err != nil {
			fail("-check-schema: %v", err)
		} else {
			fmt.Printf("  metrics schema   ok (%s)\n", rc.checkSchema)
		}
	}
	return pass
}

// checkSchema validates the server's metrics snapshot against a schema file.
func checkSchema(snap *obs.Snapshot, path string) error {
	if snap == nil {
		return errors.New("could not fetch server metrics")
	}
	schema, err := obs.ReadSchema(path)
	if err != nil {
		return err
	}
	return obs.CheckSnapshot(*snap, schema)
}

// runSession drives one full session lifecycle against the server. With
// useDelta it submits every epoch as a PATCH delta against the previous
// hypergraph (the client falls back to full submissions transparently);
// warm additionally asks the server to warm-start from the inherited
// distribution.
func runSession(client *hyperbal.Client, dataset string, n, k int, alpha int64, m core.Method, dynamic string, seed int64, epochs int, useDelta, warm bool, think time.Duration) error {
	ctx := context.Background()
	g, err := datasets.Generate(dataset, n, seed)
	if err != nil {
		return err
	}
	h := graph.ToHypergraph(g)
	cfg := core.Config{K: k, Alpha: alpha, Seed: seed, Method: m}

	sess, first, err := client.CreateSession(ctx, cfg, h)
	if err != nil {
		lgDropped.Inc()
		return fmt.Errorf("create: %w", err)
	}
	lgEpochsOK.Inc()
	if first.Cached {
		lgCached.Inc()
	}

	var gen dynamics.Generator
	switch dynamic {
	case "structure":
		gen, err = dynamics.NewStructural(g, first.Partition, k, 0.25, 0.5, seed*3+1)
	case "weights":
		gen, err = dynamics.NewRefinement(g, first.Partition, k, 0.1, 1.5, 7.5, seed*3+2)
	default:
		err = fmt.Errorf("unknown dynamic %q", dynamic)
	}
	if err != nil {
		return err
	}

	// prevIDs tracks the stable vertex ids of the last submitted epoch so
	// structural deltas can translate the base vertex space; epoch 0 is the
	// identity (every generator vertex alive, in order).
	var prevIDs []int32
	if useDelta && dynamic == "structure" {
		prevIDs = make([]int32, g.NumVertices())
		for i := range prevIDs {
			prevIDs[i] = int32(i)
		}
	}

	for e := 1; e <= epochs; e++ {
		if think > 0 {
			time.Sleep(think)
		}
		prob, old := gen.Next()
		var res hyperbal.RemoteResult
		switch {
		case useDelta && dynamic == "structure":
			st := gen.(*dynamics.Structural)
			curIDs := st.AliveMap()
			vmap := hypergraph.VertexMapFromIDs(prevIDs, curIDs)
			prevIDs = append(prevIDs[:0], curIDs...)
			res, err = sess.SubmitEpochDeltaMapped(ctx, prob.H, vmap, old, warm)
		case useDelta:
			res, err = sess.SubmitEpochDelta(ctx, prob.H, warm)
		case prob.H.NumVertices() != len(first.Partition.Parts) || dynamic == "structure":
			res, err = sess.SubmitEpochInherited(ctx, prob.H, old)
		default:
			res, err = sess.SubmitEpoch(ctx, prob.H)
		}
		if err != nil {
			lgDropped.Inc()
			return fmt.Errorf("epoch %d: %w", e, err)
		}
		lgEpochsOK.Inc()
		if res.Cached {
			lgCached.Inc()
		}
		if err := gen.Observe(res.Partition); err != nil {
			return fmt.Errorf("epoch %d observe: %w", e, err)
		}
	}
	return sess.Close(ctx)
}

// fetchServerMetrics pulls the server's obs snapshot (nil when
// unavailable).
func fetchServerMetrics(base string) *obs.Snapshot {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/metrics.json")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil
	}
	return &snap
}

// localCounter reads one counter from the local registry; kv are optional
// label key,value pairs.
func localCounter(name string, kv ...string) int64 {
	return obs.Default().Counter(name, kv...).Load()
}

// counterDiff reads how much a server counter grew across this run:
// after-value minus before-value (0 when the after snapshot is missing;
// a missing before snapshot counts as zero).
func counterDiff(before, after *obs.Snapshot, key string) int64 {
	if after == nil {
		return 0
	}
	v := after.Counters[key]
	if before != nil {
		v -= before.Counters[key]
	}
	return v
}
