// Command datagen generates the synthetic analogues of the paper's Table 1
// datasets and writes them as hypergraph files, or prints their structural
// fingerprints.
//
// Usage:
//
//	datagen -list
//	datagen -dataset auto -n 6000 -seed 1 -o auto.hgr
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list datasets and their paper vs default-analogue properties")
		dataset = flag.String("dataset", "", "dataset to generate")
		n       = flag.Int("n", 0, "vertex count (0 = default scale)")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("o", "", "output hypergraph file (default stdout)")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-10s %-20s %10s %8s | fingerprint of default analogue\n", "name", "area", "paper |V|", "avg deg")
		for _, info := range datasets.Registry {
			g, err := datasets.Generate(info.Name, 0, *seed)
			check(err)
			s := graph.ComputeStats(g)
			fmt.Printf("%-10s %-20s %10d %8.1f | |V|=%d |E|=%d deg %d/%d/%.1f\n",
				info.Name, info.Area, info.PaperV, info.PaperAvgDeg,
				s.NumVertices, s.NumEdges, s.MinDegree, s.MaxDegree, s.AvgDegree)
		}
		return
	}
	if *dataset == "" {
		flag.Usage()
		os.Exit(2)
	}
	g, err := datasets.Generate(*dataset, *n, *seed)
	check(err)
	h := graph.ToHypergraph(g)
	s := graph.ComputeStats(g)
	fmt.Fprintf(os.Stderr, "%s: |V|=%d |E|=%d deg %d/%d/%.1f\n",
		*dataset, s.NumVertices, s.NumEdges, s.MinDegree, s.MaxDegree, s.AvgDegree)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		check(err)
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	check(hypergraph.WriteText(bw, h))
	check(bw.Flush())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}
