package mpinet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"hyperbal/internal/mpi"
)

func init() {
	RegisterJob("test.sum", func(c *mpi.Comm, payload []byte) ([]byte, error) {
		v, _ := binary.Varint(payload)
		total := mpi.Allreduce(c, v+int64(c.Rank()), mpi.SumInt64)
		return binary.AppendVarint(nil, total), nil
	})
	RegisterJob("test.rounds", func(c *mpi.Comm, payload []byte) ([]byte, error) {
		// A few Allreduce rounds with think time, so a test can kill a
		// worker mid-round.
		var total int64
		for i := 0; i < 40; i++ {
			total = mpi.Allreduce(c, int64(c.Rank()+i), mpi.SumInt64)
			time.Sleep(10 * time.Millisecond)
		}
		return binary.AppendVarint(nil, total), nil
	})
	RegisterJob("test.bulk", func(c *mpi.Comm, payload []byte) ([]byte, error) {
		// Frames on both sides of the one-byte/two-byte length boundary.
		for _, n := range []int{1, 15, 16, 300, 5000} {
			if got := mpi.AllreduceSlice(c, make([]int64, n), mpi.SumInt64); len(got) != n {
				return nil, fmt.Errorf("AllreduceSlice returned %d of %d elements", len(got), n)
			}
		}
		return nil, nil
	})
	RegisterJob("test.fail", func(c *mpi.Comm, payload []byte) ([]byte, error) {
		if c.Rank() == 1 {
			return nil, fmt.Errorf("synthetic job failure on rank 1")
		}
		return nil, nil
	})
}

// startWorkers boots n workers on loopback and returns their addresses
// plus the Worker handles (for kill drills).
func startWorkers(t *testing.T, n int) ([]string, []*Worker) {
	t.Helper()
	addrs := make([]string, n)
	ws := make([]*Worker, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(ln)
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
		ws[i] = w
	}
	return addrs, ws
}

func TestRunWorldSum(t *testing.T) {
	addrs, _ := startWorkers(t, 3)
	payload := binary.AppendVarint(nil, 100)
	res, err := RunWorld(context.Background(), "test.sum", payload, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := binary.Varint(res.Root())
	want := int64(3*100 + 0 + 1 + 2)
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	for _, r := range res.Ranks {
		if r.Messages == 0 && r.Rank != 0 {
			t.Errorf("rank %d reported zero messages", r.Rank)
		}
	}
}

func TestRunWorldSingleRank(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	payload := binary.AppendVarint(nil, 5)
	res, err := RunWorld(context.Background(), "test.sum", payload, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := binary.Varint(res.Root()); got != 5 {
		t.Fatalf("size-1 sum = %d, want 5", got)
	}
}

func TestRunWorldJobError(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	_, err := RunWorld(context.Background(), "test.fail", nil, addrs, Options{RecvTimeout: 5 * time.Second})
	if err == nil {
		t.Fatal("expected an error from the failing job")
	}
}

func TestRunWorldUnknownJob(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	_, err := RunWorld(context.Background(), "test.nope", nil, addrs, Options{RecvTimeout: 5 * time.Second})
	if err == nil || !errors.Is(err, errors.Unwrap(err)) && err == nil {
		t.Fatal("expected an error for an unregistered job")
	}
}

// A worker torn down mid-round must surface as a structured CrashError at
// the coordinator (via its peers' dropped mesh connections), not a hang.
func TestRunWorldWorkerDeath(t *testing.T) {
	addrs, ws := startWorkers(t, 3)
	go func() {
		time.Sleep(120 * time.Millisecond)
		ws[2].Close()
	}()
	start := time.Now()
	_, err := RunWorld(context.Background(), "test.rounds", nil, addrs, Options{
		RecvTimeout: 10 * time.Second,
		DialTimeout: 5 * time.Second,
	})
	if err == nil {
		t.Fatal("expected an error after killing worker 2")
	}
	var ce *mpi.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v does not wrap *mpi.CrashError", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("crash took %v to surface (hang?)", elapsed)
	}
}

// Every byte one rank's writers put on the mesh is a byte a peer's reader
// consumed: once a world is fully torn down, the tx and rx byte (and
// frame) counters have grown by the same amount.
func TestMeshBytesTxEqualsRx(t *testing.T) {
	var ws []*Worker
	var addrs []string
	served := make(chan error, 2)
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(ln)
		go func() { served <- w.Serve() }()
		ws, addrs = append(ws, w), append(addrs, w.Addr())
	}
	tx0, rx0 := obsBytesTx.Load(), obsBytesRx.Load()
	ftx0, frx0 := obsFramesTx.Load(), obsFramesRx.Load()
	_, err := RunWorld(context.Background(), "test.bulk", nil, addrs, Options{RecvTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Serve returns only after every connection handler — and with it every
	// mesh reader and writer — has exited, so the counters are final.
	for _, w := range ws {
		w.Close()
	}
	for range ws {
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	}
	tx, rx := obsBytesTx.Load()-tx0, obsBytesRx.Load()-rx0
	ftx, frx := obsFramesTx.Load()-ftx0, obsFramesRx.Load()-frx0
	if tx == 0 || tx != rx || ftx != frx {
		t.Fatalf("mesh counters: %d bytes in %d frames sent, %d bytes in %d frames received", tx, ftx, rx, frx)
	}
}
