//go:build !race

package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
)

// TestMemoHitBuildsNothing: a full epoch that hits the memo decodes only
// its frame's bytes and their hash — no hypergraph, no fingerprint, no
// migration plan. On the benchmark's serving input (1 200 vertices, a
// 9.4 kB frame) a hit allocates under 40 kB per request, through the
// whole handler, where decoding and building the hypergraph alone took
// 77.7 kB; and its binary_decode time, which on a miss includes the
// leader's build, is at least 3x below a miss's. Excluded under -race, as
// are the other allocation guards: the detector allocates on its own.
func TestMemoHitBuildsNothing(t *testing.T) {
	s := New(Config{SessionTTL: -1})
	defer s.Close()
	h0, h1, _ := laneHypergraphs(t, 1200)
	create := AppendCreateRequestBinary(nil, WireConfig{K: 8, Alpha: 10, Seed: 1}, h0)
	newSession := func() string {
		t.Helper()
		return answer(t, "create", serveBinary(s, http.MethodPost, "/v1/sessions", create), http.StatusCreated).SessionID
	}
	decode := obsCodecNs.With("binary_decode")
	median := func(xs []int64) int64 { slices.Sort(xs); return xs[len(xs)/2] }

	// Misses: fresh sessions, each submitting its own drift of h0. The
	// first one primes the memo with epoch 1 of h1.
	var missNs []int64
	for i, h := 0, h1; i < 9; i, h = i+1, weightDrift(h, 1) {
		path := "/v1/sessions/" + newSession() + "/epochs"
		before := decode.Sum()
		res := answer(t, "miss", serveBinary(s, http.MethodPost, path, AppendEpochRequestBinary(nil, h, nil, 1)), http.StatusOK).Result
		missNs = append(missNs, decode.Sum()-before)
		if res.Cached {
			t.Fatal("a distinct epoch hit the memo")
		}
	}

	const hits = 50
	body := AppendEpochRequestBinary(nil, h1, nil, 1)
	paths := make([]string, hits)
	for i := range paths {
		paths[i] = "/v1/sessions/" + newSession() + "/epochs"
	}
	recs := make([]*httptest.ResponseRecorder, hits)
	hitNs := make([]int64, hits)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, path := range paths {
		start := decode.Sum()
		recs[i] = serveBinary(s, http.MethodPost, path, body)
		hitNs[i] = decode.Sum() - start
	}
	runtime.ReadMemStats(&after)
	for _, rec := range recs {
		if !answer(t, "hit", rec, http.StatusOK).Result.Cached {
			t.Fatal("a replayed epoch missed the memo")
		}
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / hits; per >= 40<<10 {
		t.Errorf("a memo hit allocates %d B per request, want < 40 kB", per)
	}
	if m, h := median(missNs), median(hitNs); h*3 > m {
		t.Errorf("binary_decode per request: hit %d ns, miss %d ns; want the hit at least 3x below", h, m)
	}
}
