package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"testing"
	"time"

	"hyperbal/internal/core"
	"hyperbal/internal/obs"
	"hyperbal/internal/server"
)

// testRun is a small pass: 4 sessions x 2 epochs on a 200-vertex analogue.
func testRun(addr string) loadRun {
	return loadRun{
		addr: addr, sessions: 4, epochs: 2,
		names: []string{"xyce680s"}, n: 200, k: 4, alpha: 100,
		m: core.HypergraphRepart, dynamic: "weights", seed: 1,
		timeout: 30 * time.Second, retries: 1,
	}
}

// TestRunLoadPasses holds the smoke driver to its contract: each pass CI
// runs ends in a true verdict against a healthy in-process balancerd, with
// every op counted ok and the scenario's counters where it asserts them.
func TestRunLoadPasses(t *testing.T) {
	local := func(name string) int64 { return obs.Default().Counter(name).Load() }
	cases := []struct {
		name  string
		setup func(rc *loadRun)
		after func(t *testing.T, ops int64)
	}{
		{name: "plain-binary"},
		{
			name: "delta-drift-warm-schema",
			setup: func(rc *loadRun) {
				rc.useDelta, rc.warm, rc.distinct = true, true, true
				rc.checkSchema = "../../internal/server/testdata/serve_schema.json"
			},
			after: func(t *testing.T, ops int64) {
				if d := local("server_delta_epochs_total"); d == 0 {
					t.Error("no epoch was served as a delta")
				}
			},
		},
		{
			name:  "concurrent-identical",
			setup: func(rc *loadRun) { rc.barrier = true },
			after: func(t *testing.T, ops int64) {
				if l := local("server_singleflight_leaders_total"); l <= 0 || l >= ops {
					t.Errorf("singleflight leaders = %d, want in (0, %d)", l, ops)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := server.New(server.Config{})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			rc := testRun(ts.URL)
			if tc.setup != nil {
				tc.setup(&rc)
			}
			if !runLoad(rc) {
				t.Fatal("runLoad verdict false against a healthy server")
			}
			ops := int64(rc.sessions * (rc.epochs + 1))
			if ok, dropped := lgEpochsOK.Load(), lgDropped.Load(); ok != ops || dropped != 0 {
				t.Errorf("ops ok/dropped = %d/%d, want %d/0", ok, dropped, ops)
			}
			if tc.after != nil {
				tc.after(t, ops)
			}
		})
	}
}

// TestRunLoadAgainstGateway: loadgen tells a gateway from a replica by
// its /healthz body. In one process the gateway and its replica share one
// obs registry, so counter values cannot show which one -addr names. A
// plain pass through the gateway passes; a concurrent-identical pass there
// fails before any op, because singleflight counters are per replica and
// 0 leaders would pass it vacuously.
func TestRunLoadAgainstGateway(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	replica := httptest.NewServer(srv.Handler())
	defer replica.Close()
	gw, err := server.NewGateway(server.GatewayConfig{Replicas: []string{replica.URL}, HealthInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	if isGateway(replica.URL) || !isGateway(ts.URL) {
		t.Fatalf("isGateway: replica %v, gateway %v; want false, true", isGateway(replica.URL), isGateway(ts.URL))
	}
	rc := testRun(ts.URL)
	if !runLoad(rc) {
		t.Fatal("runLoad verdict false through a healthy gateway")
	}
	ops := int64(rc.sessions * (rc.epochs + 1))
	if ok, dropped := lgEpochsOK.Load(), lgDropped.Load(); ok != ops || dropped != 0 {
		t.Errorf("ops ok/dropped = %d/%d, want %d/0", ok, dropped, ops)
	}
	rc.barrier = true
	if runLoad(rc) {
		t.Fatal("concurrent-identical verdict true through a gateway")
	}
	if ok := lgEpochsOK.Load(); ok != 0 {
		t.Errorf("%d ops ran; a concurrent-identical pass through a gateway must fail before any", ok)
	}
}

// TestRunLoadFailsOnServerError: a server answering 500 drops every create,
// and the verdict must say so.
func TestRunLoadFailsOnServerError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	rc := testRun(ts.URL)
	if runLoad(rc) {
		t.Fatal("runLoad verdict true against a server answering 500")
	}
	if ok, dropped := lgEpochsOK.Load(), lgDropped.Load(); ok != 0 || dropped != int64(rc.sessions) {
		t.Errorf("ops ok/dropped = %d/%d, want 0/%d", ok, dropped, rc.sessions)
	}
}

// TestReplicaKillNeedsDeliveredSignal: every op served is not enough for
// the replica-kill drill; a SIGTERM that never reached the replica (pid
// gone, or the run over before -kill-after) fails the pass, and so does a
// delivered one that no op noticed (no retarget or retry).
func TestReplicaKillNeedsDeliveredSignal(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	gone := exec.Command(os.Args[0], "-test.run=^$")
	if err := gone.Run(); err != nil {
		t.Fatal(err)
	}
	// A bystander process takes the SIGTERM: delivered, but the server the
	// sessions talk to never drains.
	bystander := exec.Command("sleep", "30")
	if err := bystander.Start(); err != nil {
		t.Fatal(err)
	}
	defer bystander.Wait()
	defer bystander.Process.Kill()
	for name, set := range map[string]func(rc *loadRun){
		"pid-gone":   func(rc *loadRun) { rc.killPid, rc.think = gone.Process.Pid, 20*time.Millisecond },
		"too-late":   func(rc *loadRun) { rc.killPid, rc.killAfter = os.Getpid(), time.Hour },
		"no-handoff": func(rc *loadRun) { rc.killPid, rc.think = bystander.Process.Pid, 20*time.Millisecond },
	} {
		rc := testRun(ts.URL)
		set(&rc)
		if runLoad(rc) {
			t.Errorf("%s: verdict true though the drill saw no handoff", name)
		}
		if dropped := lgDropped.Load(); dropped != 0 {
			t.Errorf("%s: %d ops dropped, want the signal to be the only failure", name, dropped)
		}
	}
}
