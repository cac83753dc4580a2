package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("test_ops_total") != c {
		t.Fatal("re-registration returned a different counter handle")
	}

	g := r.Gauge("test_depth")
	g.Set(7)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge after Set(7) = %d, want 7", got)
	}

	h := r.Histogram("test_latency_ns", []int64{10, 100, 1000})
	for _, v := range []int64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 5555 {
		t.Fatalf("histogram count=%d sum=%d, want 4/5555", h.Count(), h.Sum())
	}
	for i, want := range []int64{1, 1, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_metric")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name did not panic")
		}
	}()
	r.Gauge("test_metric")
}

func TestLabelsAndVecs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "method", "a")
	c.Add(2)
	snap := r.Snapshot()
	if got := snap.Counters[`test_total{method="a"}`]; got != 2 {
		t.Fatalf("labeled counter = %d, want 2", got)
	}

	cv := r.CounterVec("vec_total", "method")
	cv.With("x").Add(3)
	if cv.With("x") != cv.With("x") {
		t.Fatal("CounterVec.With is not cached")
	}

	hv := r.HistogramVec("vec_ns", "level", []int64{10, 100})
	hv.At(0).Observe(5)
	hv.At(3).Observe(50)
	if hv.At(3) != hv.With("3") {
		t.Fatal("HistogramVec.At and With disagree")
	}
	snap = r.Snapshot()
	if h := snap.Histograms[`vec_ns{level="3"}`]; h.Count != 1 || h.Sum != 50 {
		t.Fatalf("vec_ns{level=3} = %+v, want count 1 sum 50", h)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total")
	hv := r.HistogramVec("conc_ns", "level", []int64{1, 10, 100})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				hv.At(i % 4).Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("concurrent counter = %d, want %d", got, workers*per)
	}
	var total int64
	for i := 0; i < 4; i++ {
		total += hv.At(i).Count()
	}
	if total != workers*per {
		t.Fatalf("concurrent histogram samples = %d, want %d", total, workers*per)
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total")
	h := r.Histogram("alloc_ns", DurationBounds)
	hv := r.HistogramVec("alloc_vec_ns", "level", DurationBounds)
	hv.At(2) // warm the index cache
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		h.Observe(12345)
		hv.At(2).Observe(77)
	}); n != 0 {
		t.Fatalf("hot path allocates %v per op, want 0", n)
	}
}

func TestPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("out_total").Add(3)
	r.Gauge("out_depth").Set(-2)
	h := r.Histogram("out_ns", []int64{10, 100}, "level", "0")
	h.Observe(5)
	h.Observe(500)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE out_total counter",
		"out_total 3",
		"# TYPE out_depth gauge",
		"out_depth -2",
		"# TYPE out_ns histogram",
		`out_ns_bucket{level="0",le="10"} 1`,
		`out_ns_bucket{level="0",le="100"} 1`,
		`out_ns_bucket{level="0",le="+Inf"} 2`,
		`out_ns_sum{level="0"} 505`,
		`out_ns_count{level="0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE out_ns histogram") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", out)
	}
}

func TestJSONSnapshotRoundtrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("json_total").Add(9)
	r.Histogram("json_ns", []int64{10}).Observe(4)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["json_total"] != 9 {
		t.Fatalf("roundtrip counter = %d, want 9", snap.Counters["json_total"])
	}
	h := snap.Histograms["json_ns"]
	if h.Count != 1 || h.Sum != 4 || len(h.Buckets) != 2 {
		t.Fatalf("roundtrip histogram = %+v", h)
	}
}

func TestSchemaCheck(t *testing.T) {
	r := NewRegistry()
	r.Counter("sch_ops_total").Add(1)
	r.Counter("sch_zero_total")
	r.Histogram("sch_stage_ns", []int64{10}, "level", "0").Observe(25)
	snap := r.Snapshot()

	good := Schema{
		Counters:          []string{"sch_ops_total", "sch_zero_total"},
		NonZeroCounters:   []string{"sch_ops_total"},
		Histograms:        []string{"sch_stage_ns"},
		NonZeroHistograms: []string{"sch_stage_ns"}, // family match against labeled series
	}
	if err := CheckSnapshot(snap, good); err != nil {
		t.Fatalf("good schema rejected: %v", err)
	}

	bad := Schema{
		NonZeroCounters:   []string{"sch_zero_total", "sch_missing_total"},
		NonZeroHistograms: []string{"sch_missing_ns"},
	}
	err := CheckSnapshot(snap, bad)
	if err == nil {
		t.Fatal("bad schema accepted")
	}
	for _, want := range []string{"sch_zero_total", "sch_missing_total", "sch_missing_ns"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("violation report missing %q: %v", want, err)
		}
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reset_total")
	c.Add(5)
	h := r.Histogram("reset_ns", []int64{10})
	h.Observe(3)
	r.Reset()
	if c.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("reset left values: c=%d count=%d sum=%d", c.Load(), h.Count(), h.Sum())
	}
	c.Inc() // handle still valid
	if r.Snapshot().Counters["reset_total"] != 1 {
		t.Fatal("handle dead after Reset")
	}
}

func TestHandlerAndServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("http_total").Add(42)
	srv := httptest.NewServer(NewMux(r))
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s -> %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "http_total 42") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	if out := get("/metrics.json"); !strings.Contains(out, `"http_total": 42`) {
		t.Fatalf("/metrics.json missing counter:\n%s", out)
	}
	if out := get("/metrics?format=json"); !strings.Contains(out, `"http_total": 42`) {
		t.Fatalf("/metrics?format=json missing counter:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("pprof cmdline empty")
	}

	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "http_total 42") {
		t.Fatalf("Serve /metrics missing counter:\n%s", body)
	}
}

func TestObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("since_ns", DurationBounds)
	start := time.Now()
	h.ObserveSince(start)
	if h.Count() != 1 || h.Sum() < 0 {
		t.Fatalf("ObserveSince count=%d sum=%d", h.Count(), h.Sum())
	}
}
