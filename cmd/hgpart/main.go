// Command hgpart partitions a hypergraph file (hMETIS-compatible text
// format, extended with vertex sizes) with the serial or parallel
// multilevel partitioner and reports quality metrics.
//
// Usage:
//
//	hgpart -k 8 [-eps 0.05] [-seed 1] [-ranks 4] [-direct] [-mtx] [-o out.part] input.hgr
//	hgpart -worker ADDR [-metrics-addr ADDR]
//
// With -ranks > 1 the parallel partitioner runs on that many in-process
// ranks. With -net-workers the same partitioner runs over the network
// transport, one rank per listed worker, and produces the identical
// partition. The optional output file receives one part id per line.
//
// -worker turns the process into one of those workers: a compute-plane
// rank endpoint speaking the mpinet wire protocol on ADDR, hosting one
// rank of each world a coordinator launches at it. It logs "compute
// worker on <addr>" once listening and exits 0 on SIGTERM or SIGINT.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"hyperbal/internal/hgp"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/mpi"
	"hyperbal/internal/mpinet"
	"hyperbal/internal/mpinet/jobs"
	"hyperbal/internal/mtx"
	"hyperbal/internal/obs"
	"hyperbal/internal/partition"
	"hyperbal/internal/phg"
)

func main() {
	var (
		mtxIn       = flag.Bool("mtx", false, "input is a MatrixMarket file (column-net model)")
		k           = flag.Int("k", 2, "number of parts")
		eps         = flag.Float64("eps", 0.05, "allowed imbalance (Eq. 1 epsilon)")
		seed        = flag.Int64("seed", 1, "random seed")
		ranks       = flag.Int("ranks", 1, "in-process ranks (>1 uses the parallel partitioner)")
		direct      = flag.Bool("direct", false, "direct k-way instead of recursive bisection")
		out         = flag.String("o", "", "write part ids to this file")
		parallelism = flag.Int("parallelism", 0, "worker goroutines for the serial partitioner (0 = GOMAXPROCS; results identical for every value)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text, ?format=json) and /debug/pprof on this address")
		metricsJSON = flag.String("metrics-json", "", `write a JSON metrics snapshot to this file on exit ("-" = stdout)`)

		worker     = flag.String("worker", "", "serve as a compute worker (mpinet rank endpoint) on this address instead of partitioning")
		netWorkers = flag.String("net-workers", "", "comma-separated -worker addresses; run the parallel partitioner over the network transport (one rank per worker)")
		netJitter  = flag.Duration("net-jitter", 0, "artificial per-message delay bound on the network transport, seeded by -seed (scheduling-independence check)")
		netTimeout = flag.Duration("net-timeout", 0, "network transport receive timeout (0 = default)")
	)
	flag.Parse()
	if *metricsAddr != "" {
		bound, shutdown, err := obs.Serve(*metricsAddr, obs.Default())
		check(err)
		defer shutdown()
		fmt.Fprintf(os.Stderr, "hgpart: metrics on http://%s/metrics\n", bound)
	}
	if *worker != "" {
		serveWorker(*worker)
		return
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(pf))
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			pf, err := os.Create(*memprofile)
			check(err)
			defer pf.Close()
			check(pprof.Lookup("allocs").WriteTo(pf, 0))
		}()
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hgpart [flags] input.hgr")
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	check(err)
	var h *hypergraph.Hypergraph
	if *mtxIn {
		m, merr := mtx.Read(bufio.NewReader(f))
		check(merr)
		h, err = mtx.ToHypergraph(m)
	} else {
		h, err = hypergraph.ReadText(bufio.NewReader(f))
	}
	f.Close()
	check(err)

	stats := hypergraph.ComputeStats(h)
	fmt.Printf("hypergraph: %d vertices, %d nets, %d pins (avg degree %.1f)\n",
		stats.NumVertices, stats.NumNets, stats.NumPins, stats.AvgDegree)

	opts := hgp.Options{K: *k, Imbalance: *eps, Seed: *seed, DirectKway: *direct, Parallelism: *parallelism}
	start := time.Now()
	var p partition.Partition
	if *netWorkers != "" {
		payload, err := jobs.EncodePHG(h, phg.Options{Serial: opts})
		check(err)
		res, err := mpinet.RunWorld(context.Background(), jobs.PHGPartition, payload, strings.Split(*netWorkers, ","),
			mpinet.Options{RecvTimeout: *netTimeout, Jitter: *netJitter, JitterSeed: *seed})
		check(err)
		parts, err := jobs.DecodeParts(res.Root())
		check(err)
		p = partition.Partition{Parts: parts, K: *k}
	} else if *ranks > 1 {
		err = mpi.Run(*ranks, func(c *mpi.Comm) error {
			pp, err := phg.Partition(c, h, phg.Options{Serial: opts})
			if c.Rank() == 0 {
				p = pp
			}
			return err
		})
		check(err)
	} else {
		p, err = hgp.Partition(h, opts)
		check(err)
	}
	elapsed := time.Since(start)

	w := partition.Weights(h, p)
	fmt.Printf("k=%d cut=%d cutnets=%d imbalance=%.4f time=%s\n",
		*k, partition.CutSize(h, p), partition.CutNets(h, p), partition.Imbalance(w), elapsed)
	for q, ww := range w {
		fmt.Printf("  part %2d: weight %d\n", q, ww)
	}

	if *out != "" {
		of, err := os.Create(*out)
		check(err)
		bw := bufio.NewWriter(of)
		for _, q := range p.Parts {
			fmt.Fprintln(bw, q)
		}
		check(bw.Flush())
		check(of.Close())
		fmt.Printf("wrote %s\n", *out)
	}

	if *metricsJSON != "" {
		check(obs.DumpJSONFile(*metricsJSON, obs.Default()))
	}
}

// serveWorker is the -worker mode: it hosts ranks of the worlds
// coordinators launch at addr until SIGTERM or SIGINT.
func serveWorker(addr string) {
	ln, err := net.Listen("tcp", addr)
	check(err)
	fmt.Fprintf(os.Stderr, "hgpart: compute worker on %s\n", ln.Addr())
	w := mpinet.NewWorker(ln)
	serveErr := make(chan error, 1)
	go func() { serveErr <- w.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "hgpart: received %v; shutting down\n", s)
	case err := <-serveErr:
		check(fmt.Errorf("serve: %w", err))
	}
	w.Close()
	<-serveErr
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hgpart:", err)
		os.Exit(1)
	}
}
