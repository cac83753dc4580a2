// Package datasets generates deterministic synthetic analogues of the five
// test problems in Table 1 of the paper. The real matrices (xyce680s,
// 2DLipid, auto, apoa1-10, cage14) are not redistributable here, so each
// generator reproduces the dataset's structural fingerprint — family,
// degree spread, density class — at a configurable scale. The experiment
// figures depend on structure class (sparse circuit vs dense geometric vs
// mesh), not on the exact matrices.
package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hyperbal/internal/graph"
)

// Info describes one dataset: the paper's reported properties and the
// scaled synthetic default.
type Info struct {
	Name   string
	Family string // generator family
	Area   string // application area from Table 1

	// Paper-reported properties (Table 1).
	PaperV, PaperE           int
	PaperMinDeg, PaperMaxDeg int
	PaperAvgDeg              float64

	// DefaultV is the laptop-scale vertex count used by the harness.
	DefaultV int
}

// Registry lists the five Table 1 datasets in paper order.
var Registry = []Info{
	{Name: "xyce680s", Family: "circuit", Area: "VLSI design",
		PaperV: 682712, PaperE: 823232, PaperMinDeg: 1, PaperMaxDeg: 209, PaperAvgDeg: 2.4, DefaultV: 6000},
	{Name: "2DLipid", Family: "geometric-dense", Area: "Polymer DFT",
		PaperV: 4368, PaperE: 2793988, PaperMinDeg: 396, PaperMaxDeg: 1984, PaperAvgDeg: 1279.3, DefaultV: 900},
	{Name: "auto", Family: "fem-mesh", Area: "Structural analysis",
		PaperV: 448695, PaperE: 3314611, PaperMinDeg: 4, PaperMaxDeg: 37, PaperAvgDeg: 14.8, DefaultV: 6000},
	{Name: "apoa1-10", Family: "md-cutoff", Area: "Molecular dynamics",
		PaperV: 92224, PaperE: 17100850, PaperMinDeg: 54, PaperMaxDeg: 503, PaperAvgDeg: 370.9, DefaultV: 1500},
	{Name: "cage14", Family: "lattice", Area: "DNA electrophoresis",
		PaperV: 1505785, PaperE: 13565176, PaperMinDeg: 3, PaperMaxDeg: 41, PaperAvgDeg: 18.0, DefaultV: 6000},
}

// Lookup returns the Info for a dataset name.
func Lookup(name string) (Info, error) {
	for _, d := range Registry {
		if d.Name == name {
			return d, nil
		}
	}
	return Info{}, fmt.Errorf("datasets: unknown dataset %q (have %v)", name, Names())
}

// Names returns the registry's dataset names in order.
func Names() []string {
	out := make([]string, len(Registry))
	for i, d := range Registry {
		out[i] = d.Name
	}
	return out
}

// Generate builds the synthetic analogue of the named dataset with n
// vertices (n <= 0 selects the registry default). Same name, n and seed
// always produce the same graph.
func Generate(name string, n int, seed int64) (*graph.Graph, error) {
	info, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = info.DefaultV
	}
	rng := rand.New(rand.NewSource(seed))
	switch info.Family {
	case "circuit":
		return genCircuit(n, rng), nil
	case "geometric-dense":
		return genGeometricDense(n, info.PaperAvgDeg/float64(info.PaperV), rng), nil
	case "fem-mesh":
		return genFEMMesh(n, rng), nil
	case "md-cutoff":
		return genMDCutoff(n, rng), nil
	case "lattice":
		return genLattice(n, rng), nil
	default:
		return nil, fmt.Errorf("datasets: no generator for family %q", info.Family)
	}
}

// genCircuit produces a sparse circuit-like graph: a spanning tree built by
// preferential attachment (hubs emerge, like power/clock nets), plus a few
// extra random edges. Matches xyce680s's fingerprint: avg degree ~2.4,
// min 1, highly skewed maximum.
func genCircuit(n int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	if n < 2 {
		return b.Build()
	}
	// Preferential attachment tree with repeated-endpoint bias.
	endpoints := make([]int32, 0, 4*n)
	endpoints = append(endpoints, 0)
	for v := 1; v < n; v++ {
		u := int(endpoints[rng.Intn(len(endpoints))])
		b.AddEdge(v, u, 1)
		endpoints = append(endpoints, int32(v), int32(u))
	}
	// Extra edges to lift avg degree to ~2.4 (tree gives 2 - 2/n).
	extra := n / 5
	for i := 0; i < extra; i++ {
		u := int(endpoints[rng.Intn(len(endpoints))])
		v := rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, 1)
		}
	}
	return b.Build()
}

// genGeometricDense produces a dense geometric graph like 2DLipid: points
// in the unit square connected within a radius chosen so the average
// degree is densityFrac*n (2DLipid: ~0.29 |V|).
func genGeometricDense(n int, densityFrac float64, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for v := 0; v < n; v++ {
		xs[v] = rng.Float64()
		ys[v] = rng.Float64()
	}
	// Average degree of a random geometric graph in the unit square is
	// about n*pi*r^2 (ignoring boundary); solve for r.
	wantDeg := densityFrac * float64(n)
	r := math.Sqrt(wantDeg / (float64(n) * math.Pi))
	r2 := r * r
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			if dx*dx+dy*dy <= r2 {
				b.AddEdge(u, v, 1)
			}
		}
	}
	return b.Build()
}

// genFEMMesh produces an auto-like 3D finite-element mesh: a grid with
// face and edge-diagonal neighbors (18-point stencil thinned to ~15) and
// slight irregularity from random node removal.
func genFEMMesh(n int, rng *rand.Rand) *graph.Graph {
	side := int(math.Cbrt(float64(n)) + 0.5)
	if side < 2 {
		side = 2
	}
	dims := [3]int{side, side, (n + side*side - 1) / (side * side)}
	if dims[2] < 2 {
		dims[2] = 2
	}
	total := dims[0] * dims[1] * dims[2]
	id := func(x, y, z int) int { return (z*dims[1]+y)*dims[0] + x }
	present := make([]bool, total)
	var kept []int32
	newID := make([]int32, total)
	for i := range newID {
		newID[i] = -1
	}
	order := rng.Perm(total)
	for _, i := range order {
		if len(kept) >= n {
			break
		}
		present[i] = true
		newID[i] = int32(len(kept))
		kept = append(kept, int32(i))
	}
	b := graph.NewBuilder(len(kept))
	// face neighbors + edge diagonals = 18-point stencil
	var offsets [][3]int
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				nz := abs(dx) + abs(dy) + abs(dz)
				if nz == 1 || nz == 2 {
					offsets = append(offsets, [3]int{dx, dy, dz})
				}
			}
		}
	}
	for z := 0; z < dims[2]; z++ {
		for y := 0; y < dims[1]; y++ {
			for x := 0; x < dims[0]; x++ {
				u := id(x, y, z)
				if !present[u] {
					continue
				}
				for _, o := range offsets {
					xx, yy, zz := x+o[0], y+o[1], z+o[2]
					if xx < 0 || yy < 0 || zz < 0 || xx >= dims[0] || yy >= dims[1] || zz >= dims[2] {
						continue
					}
					v := id(xx, yy, zz)
					if present[v] && v > u {
						b.AddEdge(int(newID[u]), int(newID[v]), 1)
					}
				}
			}
		}
	}
	return b.Build()
}

// genMDCutoff produces an apoa1-like molecular-dynamics interaction graph:
// clustered 3D points with a cutoff radius giving a dense-ish neighborhood
// (scaled-down average degree around 0.1 n).
func genMDCutoff(n int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	// Points in clusters (residues) placed in a slab, like a solvated
	// protein; cutoff tuned to ~0.1 n average degree.
	numClusters := n / 20
	if numClusters < 1 {
		numClusters = 1
	}
	cx := make([]float64, numClusters)
	cy := make([]float64, numClusters)
	cz := make([]float64, numClusters)
	for c := range cx {
		cx[c], cy[c], cz[c] = rng.Float64(), rng.Float64(), rng.Float64()*0.3
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	zs := make([]float64, n)
	for v := 0; v < n; v++ {
		c := rng.Intn(numClusters)
		xs[v] = cx[c] + rng.NormFloat64()*0.03
		ys[v] = cy[c] + rng.NormFloat64()*0.03
		zs[v] = cz[c] + rng.NormFloat64()*0.03
	}
	wantDeg := 0.10 * float64(n)
	// Effective volume is roughly 1*1*0.3 with clustering boost ~3x; start
	// from the uniform-slab estimate and let the exact degree float.
	vol := 0.3
	r := math.Cbrt(wantDeg * vol * 3.0 / (4.0 * math.Pi * float64(n) * 3.0))
	r2 := r * r
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy, dz := xs[u]-xs[v], ys[u]-ys[v], zs[u]-zs[v]
			if dx*dx+dy*dy+dz*dz <= r2 {
				b.AddEdge(u, v, 1)
			}
		}
	}
	return b.Build()
}

// genLattice produces a cage14-like regular sparse graph: a 3D lattice
// with face + edge-diagonal neighbors (average degree ~18, narrow spread),
// the fingerprint of DNA-electrophoresis transition matrices.
func genLattice(n int, rng *rand.Rand) *graph.Graph {
	side := int(math.Cbrt(float64(n)) + 0.999)
	id := func(x, y, z int) int { return (z*side+y)*side + x }
	total := side * side * side
	b := graph.NewBuilder(n)
	var offsets [][3]int
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				nz := abs(dx) + abs(dy) + abs(dz)
				if nz == 1 || nz == 2 {
					offsets = append(offsets, [3]int{dx, dy, dz})
				}
			}
		}
	}
	for z := 0; z < side; z++ {
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				u := id(x, y, z)
				if u >= n {
					continue
				}
				for _, o := range offsets {
					xx, yy, zz := x+o[0], y+o[1], z+o[2]
					if xx < 0 || yy < 0 || zz < 0 || xx >= side || yy >= side || zz >= side {
						continue
					}
					v := id(xx, yy, zz)
					if v < n && v > u {
						b.AddEdge(u, v, 1)
					}
				}
			}
		}
	}
	_ = total
	_ = rng
	return b.Build()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Fingerprint compares a generated analogue against the paper's dataset on
// scale-free characteristics: degree-spread ratio (max/avg) and density
// class.
type Fingerprint struct {
	Name            string
	V, E            int
	MinDeg, MaxDeg  int
	AvgDeg          float64
	PaperAvgDeg     float64
	DegSpread       float64 // max/avg of the analogue
	PaperDegSpread  float64 // max/avg of the paper dataset
	DensityFraction float64 // avgdeg / |V|
	PaperDensity    float64
}

// FingerprintOf computes the comparison record for a generated graph.
func FingerprintOf(info Info, g *graph.Graph) Fingerprint {
	s := graph.ComputeStats(g)
	f := Fingerprint{
		Name:           info.Name,
		V:              s.NumVertices,
		E:              s.NumEdges,
		MinDeg:         s.MinDegree,
		MaxDeg:         s.MaxDegree,
		AvgDeg:         s.AvgDegree,
		PaperAvgDeg:    info.PaperAvgDeg,
		PaperDegSpread: float64(info.PaperMaxDeg) / info.PaperAvgDeg,
		PaperDensity:   info.PaperAvgDeg / float64(info.PaperV),
	}
	if s.AvgDegree > 0 {
		f.DegSpread = float64(s.MaxDegree) / s.AvgDegree
	}
	if s.NumVertices > 0 {
		f.DensityFraction = s.AvgDegree / float64(s.NumVertices)
	}
	return f
}

// SortedRegistryNames returns names sorted alphabetically (for stable CLI
// help output).
func SortedRegistryNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}
