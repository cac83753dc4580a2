package hgp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/hypergraph"
)

// ghg2Fresh runs one ghg2 start on h from a freshly built shared start and
// returns its partition: the coarse solve's path for a single start.
func ghg2Fresh(h *hypergraph.Hypergraph, rng *rand.Rand, fixed []int32, t0, c0, c1 int64, maxNet int, ws *workspace) []int32 {
	s, _ := ghg2(ws.coarseStart(h, fixed, c0, c1, maxNet), rng, fixed, t0, ws.weightOrder(h), ws)
	return s.parts
}

// fitsWeight reports whether moving a vertex of weight w off side from
// keeps the destination under its cap, or rescues an over-cap source side
// without pushing the destination further over its cap than the source
// was.
//
// It is downward-closed in w, which is what lets fm2 select moves by
// prefix queries over the weight order. The destination test is monotone
// in w. The total overflow after the move is convex in w and equals the
// overflow before at w = 0, so the weights that strictly reduce it form an
// interval starting just above 0. And when w = 0 fails the destination
// test, the destination is already over its cap, every unit of weight
// adds a unit of overflow there, and no weight passes either test.
// Weights are non-negative.
func (s *bisectState) fitsWeight(from int32, w int64) bool {
	to := 1 - from
	if s.w[to]+w <= s.cap[to] {
		return true
	}
	// rescue: source side is over cap and the move strictly reduces the
	// total overflow.
	overBefore := over(s.w[0], s.cap[0]) + over(s.w[1], s.cap[1])
	overAfter := over(s.w[from]-w, s.cap[from]) + over(s.w[to]+w, s.cap[to])
	return overBefore > 0 && overAfter < overBefore
}

func over(w, cap int64) int64 {
	if w > cap {
		return w - cap
	}
	return 0
}

// TestMaxFitMatchesFitsWeight holds the closed-form limit to its
// specification. Over small side weights and caps, with either side under
// or over its cap and either side as the source, fitsWeight must be
// downward-closed in the moved weight (zero included) and maxFit must be
// the largest weight it accepts, or negative when it accepts none.
func TestMaxFitMatchesFitsWeight(t *testing.T) {
	for cap0 := int64(0); cap0 <= 6; cap0++ {
		for cap1 := int64(0); cap1 <= 6; cap1++ {
			for w0 := int64(0); w0 <= 9; w0++ {
				for w1 := int64(0); w1 <= 9; w1++ {
					s := bisectState{w: [2]int64{w0, w1}, cap: [2]int64{cap0, cap1}}
					for from := int32(0); from < 2; from++ {
						largest := int64(-1)
						for w := int64(0); w <= w0+w1+cap0+cap1+2; w++ {
							if !s.fitsWeight(from, w) {
								continue
							}
							if largest != w-1 {
								t.Fatalf("%+v from %d: fitsWeight accepts %d but not %d", s, from, w, w-1)
							}
							largest = w
						}
						got := s.maxFit(from)
						if largest < 0 && got >= 0 || largest >= 0 && got != largest {
							t.Fatalf("%+v from %d: maxFit = %d, largest fitting weight %d", s, from, got, largest)
						}
					}
				}
			}
		}
	}
}

// TestCoarseStartHandOff runs the coarse solve's starts at Parallelism 4
// on the coarsest level of each dataset analogue's first bisection and on
// oracle hypergraphs with fixed vertices. The state ghg2 hands to fm2, and
// the one fm2 leaves, must equal a fresh init and gains on the partition
// they hold, and the shared start must be unchanged after every start ran.
func TestCoarseStartHandOff(t *testing.T) {
	type instance struct {
		name       string
		h          *hypergraph.Hypergraph
		fixed      []int32
		t0, c0, c1 int64
		maxNet     int
	}
	opt := Options{}.WithDefaults()
	var cases []instance
	for _, ds := range datasets.Names() {
		coarsest, _ := firstBisectionCoarsest(t, ds, kernelBenchScale, 1)
		t0, c0, c1 := bisectCaps(coarsest, 0.5, 0.05)
		cases = append(cases, instance{ds, coarsest, fixedLabels(coarsest, nil), t0, c0, c1, MaxNetSize})
	}
	for i := 0; i < 60; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		h := oracleHG(rng)
		t0, c0, c1 := bisectCaps(h, oracleFraction[i%4], oracleEps[i/4%4])
		cases = append(cases, instance{fmt.Sprintf("instance %d", i), h, oracleSides(rng, h.NumVertices()), t0, c0, c1, oracleMaxNets[i%3]})
	}

	px := newParctx(4)
	for ci, c := range cases {
		ws := new(workspace)
		ord := ws.weightOrder(c.h)
		st := ws.coarseStart(c.h, c.fixed, c.c0, c.c1, c.maxNet)
		want := st.s
		want.parts = slices.Clone(st.s.parts)
		want.pins0 = slices.Clone(st.s.pins0)
		wantGains := slices.Clone(st.gains)
		checkExactState(t, c.name+" shared start", &st.s, st.gains)

		px.forEach(opt.InitialStarts, ws, func(i int, sws *workspace) {
			name := fmt.Sprintf("%s start %d", c.name, i)
			s, _ := ghg2(st, sws.startRNG(startSeed(int64(ci), i)), c.fixed, c.t0, ord, sws)
			checkExactState(t, name+" after ghg2", &s, sws.gains)
			if cut := fm2From(&s, c.fixed, opt.RefinePasses, ord, sws); cut != s.cut {
				t.Errorf("%s: fm2 returned cut %d, its state holds %d", name, cut, s.cut)
			}
			checkExactState(t, name+" after fm2", &s, sws.gains)
		})

		if !slices.Equal(st.s.parts, want.parts) || !slices.Equal(st.s.pins0, want.pins0) ||
			!slices.Equal(st.gains, wantGains) || st.s.w != want.w || st.s.cut != want.cut || st.s.cap != want.cap {
			t.Errorf("%s: the starts changed the shared start", c.name)
		}
	}
}

// checkExactState reports whether s and the gains g equal a fresh init
// and gains on s's partition.
func checkExactState(t *testing.T, name string, s *bisectState, g []int64) {
	t.Helper()
	var fresh bisectState
	fresh.init(s.h, s.parts, s.cap[0], s.cap[1], s.maxNetSize, nil)
	switch {
	case !slices.Equal(s.pins0, fresh.pins0):
		t.Errorf("%s: pin counts differ from a fresh init", name)
	case s.w != fresh.w:
		t.Errorf("%s: side weights %v, fresh init %v", name, s.w, fresh.w)
	case s.cut != fresh.cut:
		t.Errorf("%s: cut %d, fresh init %d", name, s.cut, fresh.cut)
	case !slices.Equal(g, fresh.gains(nil)):
		t.Errorf("%s: gains differ from fresh ones", name)
	}
}
