package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"hyperbal/internal/mpi"
	"hyperbal/internal/obs"
)

// TestFaultDelayScheduleIsPerServer: Config.Fault's schedule is keyed by
// the server's own job count. Two servers share one seed; server A's k-th
// job must draw the delay a fresh server draws for its k-th job, whether
// or not server B ran jobs in between and whether or not the shared
// metrics registry was reset. Pre-fix the job index was read from
// process-global registry counters, so in-process replicas shifted each
// other's schedules and obs.Default().Reset() rewound them.
func TestFaultDelayScheduleIsPerServer(t *testing.T) {
	cfg := Config{SessionTTL: -1, Fault: &mpi.FaultPlan{Seed: 42, MaxDelay: 5 * time.Millisecond}}
	draw := func(s *Server) time.Duration {
		t.Helper()
		d, ok := s.nextFaultDelay()
		if !ok {
			t.Fatal("no fault delay configured")
		}
		return d
	}

	ref := New(cfg)
	defer ref.Close()
	want := make([]time.Duration, 4)
	for k := range want {
		want[k] = draw(ref)
	}
	if slices.Min(want) == slices.Max(want) {
		t.Fatalf("reference schedule %v does not vary with the job index", want)
	}

	a, b := New(cfg), New(cfg)
	defer a.Close()
	defer b.Close()
	ts := httptest.NewServer(b.Handler())
	defer ts.Close()
	// bServe runs a create and an epoch on B: two partitioning jobs that
	// also advance the process-global registry.
	bServe := func() {
		t.Helper()
		id := newSessionID()
		resp := postCreate(t, ts.Client(), ts.URL, id, binCreateBody(t))
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("B create: status %d", resp.StatusCode)
		}
		body := AppendEpochRequestBinary(nil, testHypergraph(t), nil, 1)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+id+"/epochs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ContentTypeBinary)
		resp, err = ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("B epoch: status %d", resp.StatusCode)
		}
	}

	got := []time.Duration{draw(a)}
	bServe()
	got = append(got, draw(a))
	obs.Default().Reset()
	got = append(got, draw(a))
	bServe()
	obs.Default().Reset()
	got = append(got, draw(a))
	if !slices.Equal(got, want) {
		t.Fatalf("A's delays %v with B's traffic and registry resets in between, want %v", got, want)
	}
}
