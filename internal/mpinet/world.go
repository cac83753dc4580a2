package mpinet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hyperbal/internal/mpi"
)

// RankResult is one rank's report: its traffic counters (this rank's
// share of what an in-process world would accumulate in its shared Stats)
// and the job's output bytes.
type RankResult struct {
	Rank         int
	Messages     int64
	Bytes        int64
	Collectives  int64
	BlockedSends int64
	MaxStall     time.Duration
	Payload      []byte
}

// WorldResult collects every rank of a finished world, in rank order.
type WorldResult struct {
	Ranks []RankResult
}

// Root returns rank 0's payload — by convention the job's answer.
func (w *WorldResult) Root() []byte {
	if len(w.Ranks) == 0 {
		return nil
	}
	return w.Ranks[0].Payload
}

// RunWorld launches job as an SPMD world with one rank per worker address
// and waits for completion. It is the network analogue of mpi.RunStats:
// the coordinator ships a launch frame to each worker, the workers mesh
// up among themselves and run the registered job, and each reports back
// on its control connection.
//
// A worker process dying mid-run surfaces as an error wrapping
// *mpi.CrashError naming the dead rank (detected authoritatively by its
// control connection dropping, and independently by its peers' mesh
// connections dropping) — never as a hang: every wait is bounded by
// opt.RecvTimeout and dialTimeout.
func RunWorld(ctx context.Context, job string, payload []byte, workers []string, opt Options) (*WorldResult, error) {
	n := len(workers)
	if n < 1 {
		return nil, fmt.Errorf("mpinet: RunWorld needs at least one worker")
	}
	if n > maxAddrCount {
		return nil, fmt.Errorf("mpinet: %d workers exceeds the limit %d", n, maxAddrCount)
	}
	opt = opt.withDefaults()
	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, fmt.Errorf("mpinet: world id: %w", err)
	}
	worldID := hex.EncodeToString(idb[:])

	conns := make([]net.Conn, n)
	defer func() {
		// Closing the control connections is the global-completion signal
		// the workers hold their mesh open for.
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for r := 0; r < n; r++ {
		c, err := net.DialTimeout("tcp", workers[r], dialTimeout)
		if err != nil {
			return nil, fmt.Errorf("mpinet: dial worker %d at %s: %w", r, workers[r], err)
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		conns[r] = c
	}
	for r := 0; r < n; r++ {
		l := launchBody{
			WorldID:     worldID,
			Rank:        r,
			Size:        n,
			Job:         job,
			Addrs:       workers,
			RecvTimeout: opt.RecvTimeout,
			Jitter:      opt.Jitter,
			JitterSeed:  opt.JitterSeed,
			Payload:     payload,
		}
		if _, err := conns[r].Write(appendControl(nil, frameLaunch, l)); err != nil {
			return nil, fmt.Errorf("mpinet: launch rank %d at %s: %w (%w)",
				r, workers[r], err, &mpi.CrashError{Rank: r})
		}
	}

	// Cancel support: ctx done closes every control connection, which
	// unblocks the collectors and (via EOF) releases the workers.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			for _, c := range conns {
				c.Close()
			}
		case <-watchDone:
		}
	}()

	res := &WorldResult{Ranks: make([]RankResult, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res.Ranks[r], errs[r] = collectRank(conns[r], r, workers[r], opt)
		}(r)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A dead worker usually takes its peers down with secondary crash
	// reports; prefer the structured crash naming the dead rank.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var ce *mpi.CrashError
		if errors.As(err, &ce) {
			return nil, err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return res, nil
}

// collectRank reads one rank's result or error frame from its control
// connection. A dropped connection is the authoritative crash signal for
// that rank: the worker process died before reporting.
func collectRank(conn net.Conn, rank int, addr string, opt Options) (RankResult, error) {
	out := RankResult{Rank: rank}
	// The worker's own failure paths are all bounded (mesh dial timeout,
	// receive timeout); this deadline only guards against a fully wedged
	// worker process.
	conn.SetReadDeadline(time.Now().Add(dialTimeout + opt.RecvTimeout + 30*time.Second))
	br := getReader(conn)
	defer putReader(br)
	kind, body, _, err := readFrame(br)
	if err != nil {
		return out, fmt.Errorf("mpinet: worker %s control connection lost: %v: %w",
			addr, err, &mpi.CrashError{Rank: rank})
	}
	switch kind {
	case frameResult:
		var res RankResult
		if err := parseControl(body, &res); err != nil {
			return out, fmt.Errorf("mpinet: rank %d result: %w", rank, err)
		}
		res.Rank = rank // the coordinator's numbering is authoritative
		return res, nil
	case frameError:
		var e errorBody
		if err := parseControl(body, &e); err != nil {
			return out, fmt.Errorf("mpinet: rank %d error frame: %w", rank, err)
		}
		switch e.Kind {
		case errKindCrash:
			return out, fmt.Errorf("mpinet: rank %d reported: %s: %w",
				rank, e.Msg, &mpi.CrashError{Rank: e.Rank, Step: e.Step})
		case errKindStall:
			return out, fmt.Errorf("mpinet: rank %d reported: %s: %w",
				rank, e.Msg, &mpi.DeadlockError{Deadline: opt.RecvTimeout})
		default:
			return out, fmt.Errorf("mpinet: rank %d failed: %s", rank, e.Msg)
		}
	default:
		return out, fmt.Errorf("mpinet: unexpected frame kind %d on control connection of rank %d", kind, rank)
	}
}
