package datasets

import (
	"testing"

	"hyperbal/internal/graph"
)

func TestRegistryComplete(t *testing.T) {
	if len(Registry) != 5 {
		t.Fatalf("registry has %d datasets, want the 5 of Table 1", len(Registry))
	}
	want := []string{"xyce680s", "2DLipid", "auto", "apoa1-10", "cage14"}
	for i, name := range want {
		if Registry[i].Name != name {
			t.Fatalf("registry[%d] = %q, want %q (paper order)", i, Registry[i].Name, name)
		}
	}
}

func TestLookup(t *testing.T) {
	info, err := Lookup("auto")
	if err != nil {
		t.Fatal(err)
	}
	if info.PaperV != 448695 || info.PaperAvgDeg != 14.8 {
		t.Fatalf("auto info wrong: %+v", info)
	}
	if _, err := Lookup("nosuch"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestGenerateAllValidateAndScale(t *testing.T) {
	for _, info := range Registry {
		n := info.DefaultV / 4 // small for test speed
		g, err := Generate(info.Name, n, 1)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if got := g.NumVertices(); got < n/2 || got > n+n/2 {
			t.Fatalf("%s: generated %d vertices, want ~%d", info.Name, got, n)
		}
		if g.NumEdges() == 0 {
			t.Fatalf("%s: no edges", info.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, _ := Generate("xyce680s", 1000, 7)
	g2, _ := Generate("xyce680s", 1000, 7)
	s1, s2 := graph.ComputeStats(g1), graph.ComputeStats(g2)
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	g3, _ := Generate("xyce680s", 1000, 8)
	if graph.ComputeStats(g3) == s1 {
		t.Fatal("different seed produced identical stats (suspicious)")
	}
}

func TestGenerateDefaultSize(t *testing.T) {
	g, err := Generate("2DLipid", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := Lookup("2DLipid")
	if g.NumVertices() != info.DefaultV {
		t.Fatalf("default |V| = %d, want %d", g.NumVertices(), info.DefaultV)
	}
}

// Structural fingerprints: each family must land in the right density and
// degree-spread class, since the figures depend on these properties.
func TestFingerprints(t *testing.T) {
	type bounds struct {
		minAvg, maxAvg       float64 // analogue average degree range
		minSpread            float64 // min max/avg ratio (skew)
		maxSpread            float64
		densityLo, densityHi float64 // avgdeg/|V| range
	}
	cases := map[string]bounds{
		// sparse and highly skewed, like a circuit
		"xyce680s": {minAvg: 1.5, maxAvg: 5, minSpread: 5, maxSpread: 200, densityLo: 0, densityHi: 0.01},
		// very dense: avg degree a large fraction of |V|
		"2DLipid": {minAvg: 100, maxAvg: 500, minSpread: 1, maxSpread: 3, densityLo: 0.1, densityHi: 0.6},
		// medium, regular mesh
		"auto": {minAvg: 8, maxAvg: 20, minSpread: 1, maxSpread: 2.5, densityLo: 0, densityHi: 0.05},
		// dense-ish MD neighborhoods
		"apoa1-10": {minAvg: 50, maxAvg: 400, minSpread: 1, maxSpread: 6, densityLo: 0.02, densityHi: 0.4},
		// regular lattice, narrow spread
		"cage14": {minAvg: 12, maxAvg: 20, minSpread: 1, maxSpread: 2, densityLo: 0, densityHi: 0.05},
	}
	for _, info := range Registry {
		g, err := Generate(info.Name, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		s := graph.ComputeStats(g)
		var spread, density float64
		if s.AvgDegree > 0 {
			spread = float64(s.MaxDegree) / s.AvgDegree
		}
		if s.NumVertices > 0 {
			density = s.AvgDegree / float64(s.NumVertices)
		}
		b := cases[info.Name]
		if s.AvgDegree < b.minAvg || s.AvgDegree > b.maxAvg {
			t.Errorf("%s: avg degree %.1f outside [%g,%g]", info.Name, s.AvgDegree, b.minAvg, b.maxAvg)
		}
		if spread < b.minSpread || spread > b.maxSpread {
			t.Errorf("%s: degree spread %.1f outside [%g,%g]", info.Name, spread, b.minSpread, b.maxSpread)
		}
		if density < b.densityLo || density > b.densityHi {
			t.Errorf("%s: density %.4f outside [%g,%g]", info.Name, density, b.densityLo, b.densityHi)
		}
	}
}
