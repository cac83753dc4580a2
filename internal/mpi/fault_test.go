package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestWatchdogReportsDeadlock(t *testing.T) {
	// Two ranks each receive from the other without anyone sending: a
	// textbook deadlock. The watchdog must name both blocked ranks.
	start := time.Now()
	_, err := RunWith(2, Options{Watchdog: 150 * time.Millisecond}, func(c *Comm) error {
		c.Recv(1-c.Rank(), 42)
		return nil
	})
	if err == nil {
		t.Fatal("expected a DeadlockError, got nil")
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected DeadlockError, got %T: %v", err, err)
	}
	if dl.Deadline != 150*time.Millisecond {
		t.Fatalf("deadline = %v", dl.Deadline)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked ranks = %+v, want both", dl.Blocked)
	}
	for _, op := range dl.Blocked {
		if op.Op != "recv" || op.Tag != 42 || op.Peer != 1-op.Rank {
			t.Fatalf("blocked op %+v, want recv(peer=%d, tag=42)", op, 1-op.Rank)
		}
		if op.For < 150*time.Millisecond {
			t.Fatalf("blocked for %v, below the deadline", op.For)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to fire on a 150ms deadline", elapsed)
	}
}

func TestWatchdogIgnoresBusyRanks(t *testing.T) {
	// One rank computes (sleeps) well past the deadline while its peer
	// waits in Recv; the watchdog must not fire, because the busy rank can
	// still unblock the world — exactly what happens here.
	_, err := RunWith(2, Options{Watchdog: 50 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(300 * time.Millisecond) // "compute"
			c.Send(1, 1, int64(7))
		} else {
			if got := c.Recv(0, 1).(int64); got != 7 {
				return fmt.Errorf("got %d", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("watchdog fired on a live world: %v", err)
	}
}

func TestCrashPropagates(t *testing.T) {
	// Rank 2 dies at its 7th substrate operation (mid-allreduce-round); the
	// world must surface both the crash and the resulting stall as a clean
	// error well within the deadline, never a hang.
	start := time.Now()
	_, err := RunWith(4, Options{
		Watchdog: 200 * time.Millisecond,
		Fault:    &FaultPlan{Crash: map[int]int{2: 7}},
	}, func(c *Comm) error {
		for i := 0; i < 100; i++ {
			Allreduce(c, int64(i), SumInt64)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected crash to surface as an error")
	}
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("expected CrashError in %v", err)
	}
	if crash.Rank != 2 || crash.Step != 7 {
		t.Fatalf("crash = %+v", crash)
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected the stalled peers to be reported as a DeadlockError in %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("crash handling took %v", elapsed)
	}
}

func TestCrashArmsDefaultWatchdog(t *testing.T) {
	opt := Options{Fault: &FaultPlan{Crash: map[int]int{0: 1}}}.normalized()
	if opt.Watchdog != DefaultWatchdog {
		t.Fatalf("watchdog = %v, want %v", opt.Watchdog, DefaultWatchdog)
	}
}

// chaosPlans is a spread of distinct injected schedules used by the
// determinism tests here and mirrored by the chaos tests in phg/pgp/harness.
func chaosPlans() []*FaultPlan {
	return []*FaultPlan{
		{Seed: 1, MaxDelay: 200 * time.Microsecond},
		{Seed: 2, Reorder: true},
		{Seed: 3, MaxDelay: 100 * time.Microsecond, Reorder: true, DelayRanks: []int{0, 2}},
	}
}

// Property: every collective matches its serial reference under injected
// delay + reordering, for arbitrary world sizes and inputs.
func TestQuickCollectivesMatchSerialUnderFault(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		vals := make([]int64, n)
		var sum int64
		maxv := int64(-1 << 62)
		for i := range vals {
			vals[i] = int64(rng.Intn(2000) - 1000)
			sum += vals[i]
			if vals[i] > maxv {
				maxv = vals[i]
			}
		}
		plan := &FaultPlan{Seed: seed, MaxDelay: 50 * time.Microsecond, Reorder: seed%2 == 0}
		ok := true
		check := func(cond bool) {
			if !cond {
				ok = false
			}
		}
		_, err := RunWith(n, Options{Fault: plan, Watchdog: 30 * time.Second}, func(c *Comm) error {
			r := c.Rank()
			check(Allreduce(c, vals[r], SumInt64) == sum)
			check(Allreduce(c, vals[r], MaxInt64) == maxv)
			all := Allgather(c, vals[r])
			for i := range all {
				check(all[i] == vals[i])
			}
			sl := AllreduceSlice(c, []int64{vals[r], -vals[r]}, SumInt64)
			check(sl[0] == sum && sl[1] == -sum)
			return nil
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !ok {
			t.Logf("seed %d: collective mismatch (reproduce with FaultPlan{Seed: %d, ...})", seed, seed)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReorderedTagStreamsMatch(t *testing.T) {
	// Under Reorder the receiver does MPI-style tag matching: it can drain
	// tag 2 before tag 1 even though the sends interleaved, and within each
	// (src,tag) stream order is still FIFO.
	for _, plan := range chaosPlans() {
		plan := &FaultPlan{Seed: plan.Seed, Reorder: true, MaxDelay: plan.MaxDelay}
		_, err := RunWith(2, Options{Fault: plan, Watchdog: 10 * time.Second}, func(c *Comm) error {
			const per = 25
			if c.Rank() == 0 {
				for i := 0; i < per; i++ {
					c.Send(1, 1, int64(i))
					c.Send(1, 2, int64(100+i))
				}
				return nil
			}
			for i := 0; i < per; i++ { // drain tag 2 first
				if got := c.Recv(0, 2).(int64); got != int64(100+i) {
					return fmt.Errorf("tag 2 message %d out of order: %d", i, got)
				}
			}
			for i := 0; i < per; i++ {
				if got := c.Recv(0, 1).(int64); got != int64(i) {
					return fmt.Errorf("tag 1 message %d out of order: %d", i, got)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", plan.Seed, err)
		}
	}
}

func TestSplitUnderFault(t *testing.T) {
	for _, plan := range chaosPlans() {
		_, err := RunWith(6, Options{Fault: plan, Watchdog: 10 * time.Second}, func(c *Comm) error {
			sub := c.Split(c.Rank()%2, c.Rank())
			sum := Allreduce(sub, int64(c.Rank()), SumInt64)
			want := int64(0 + 2 + 4)
			if c.Rank()%2 == 1 {
				want = 1 + 3 + 5
			}
			if sum != want {
				return fmt.Errorf("rank %d: sub sum %d, want %d", c.Rank(), sum, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", plan.Seed, err)
		}
	}
}

func TestTracingEventsAndStats(t *testing.T) {
	var mu sync.Mutex
	var collectives, p2p int
	stats, err := RunWith(4, Options{
		Watchdog: 10 * time.Second,
		OnEvent: func(e Event) {
			mu.Lock()
			defer mu.Unlock()
			if e.Peer == -1 {
				collectives++
			} else {
				p2p++
			}
		},
	}, func(c *Comm) error {
		if c.Rank() == 3 {
			time.Sleep(50 * time.Millisecond) // make the first allreduce stall measurable
		}
		Allreduce(c, 0, SumInt64)
		Allreduce(c, int64(c.Rank()), SumInt64)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two allreduces entered by each of 4 ranks; the gathers
	// and bcasts inside Allreduce must not be double counted.
	if got := stats.Collectives.Load(); got != 8 {
		t.Fatalf("Collectives = %d, want 8", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if collectives != 8 {
		t.Fatalf("collective events = %d, want 8", collectives)
	}
	if p2p == 0 {
		t.Fatal("no point-to-point events observed")
	}
	if stats.MaxStallDuration() < 20*time.Millisecond {
		t.Fatalf("MaxStall = %v, expected the first allreduce to stall ~50ms", stats.MaxStallDuration())
	}
}

func TestDeterministicScheduleAcrossRuns(t *testing.T) {
	// The same FaultPlan must inject the same schedule: traffic counters
	// (and thus the injected coin flips) are identical run to run.
	run := func() (int64, int64) {
		plan := &FaultPlan{Seed: 99, Reorder: true, MaxDelay: 20 * time.Microsecond}
		stats, err := RunWith(4, Options{Fault: plan, Watchdog: 10 * time.Second}, func(c *Comm) error {
			for i := 0; i < 5; i++ {
				Allreduce(c, int64(c.Rank()+i), SumInt64)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Messages.Load(), stats.Bytes.Load()
	}
	m1, b1 := run()
	m2, b2 := run()
	if m1 != m2 || b1 != b2 {
		t.Fatalf("schedule not reproducible: (%d,%d) vs (%d,%d)", m1, b1, m2, b2)
	}
}

func TestPayloadBytesKinds(t *testing.T) {
	// Struct shapes mirroring what phg/pgp actually ship: fixed-size bid
	// and proposal records, and a variable-size migration payload.
	type bid struct { // phg's matchBid / pgp's moveProposal shape
		A int32
		B int32
		C int64
	}
	type payload struct { // migrate's VertexPayload shape
		ID   int32
		Data []byte
	}
	type nested struct {
		P  *int64
		BS []bid
	}
	seven := int64(7)
	cases := []struct {
		name string
		data any
		want int64
	}{
		{"nil", nil, 0},
		{"int", int(5), 8},
		{"int64", int64(5), 8},
		{"int32", int32(5), 4},
		{"uint16", uint16(5), 2},
		{"bool", true, 1},
		{"float64", 3.14, 8},
		{"float32", float32(3.14), 4},
		{"string", "hello", 5},
		{"bytes", []byte("abcd"), 4},
		{"int32-slice", []int32{1, 2, 3}, 12},
		{"int64-slice", []int64{1, 2, 3}, 24},
		{"float64-slice", []float64{1, 2}, 16},
		{"nil-typed-slice", []int64(nil), 0},
		{"bool-slice", []bool{true, false, true}, 3},
		{"int-slice", []int{1, 2}, 16},
		{"minloc", MinLoc{Key: 1, Rank: 2}, 16},
		{"bid-struct", bid{}, 16},
		{"bid-slice", []bid{{}, {}, {}}, 48},
		{"bid-slice-slice", [][]bid{{{}, {}}, {{}}}, 48},
		{"payload", payload{ID: 1, Data: []byte("abcde")}, 9},
		{"payload-slice", []payload{{Data: []byte("ab")}, {Data: nil}}, 10},
		{"nil-pointer", (*int64)(nil), 0},
		{"pointer", &seven, 8},
		{"nested", nested{P: &seven, BS: []bid{{}}}, 24},
		{"array", [3]int32{1, 2, 3}, 12},
		{"map-opaque", map[int]int{1: 2}, 8},
	}
	for _, tc := range cases {
		if got := payloadBytes(tc.data); got != tc.want {
			t.Errorf("payloadBytes(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestPayloadBytesAccountedOnWire(t *testing.T) {
	// End-to-end: struct-slice traffic lands in Stats at packed size.
	type bid struct {
		V int32
		G int32
		W int64
	}
	stats, err := RunStats(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []bid{{1, 2, 3}, {4, 5, 6}})
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Bytes.Load(); got != 32 {
		t.Fatalf("bytes = %d, want 32 (2 × 16-byte bids)", got)
	}
	if got := stats.Messages.Load(); got != 1 {
		t.Fatalf("messages = %d", got)
	}
}
