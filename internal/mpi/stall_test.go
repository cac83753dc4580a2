package mpi

import (
	"testing"
	"time"
)

// Regression: MaxStall used to be recorded only when the world ran with a
// watchdog or OnEvent hook (RunWith); a plain RunStats caller always read
// 0. Stall time must be recorded unconditionally.
func TestMaxStallRecordedWithoutWatchdog(t *testing.T) {
	const nap = 20 * time.Millisecond
	stats, err := RunStats(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 7) // blocks until rank 1 wakes up
		} else {
			time.Sleep(nap)
			c.Send(0, 7, int32(1))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.MaxStallDuration(); got < nap/2 {
		t.Fatalf("MaxStall = %v under plain RunStats, want >= %v (blocked recv must be recorded without a watchdog)", got, nap/2)
	}
}

// DefaultChanCap bounds the per-pair send buffer, and sends that hit the
// bound count in Stats.BlockedSends.
func TestChanCapBoundsBlockedSends(t *testing.T) {
	const msgs = DefaultChanCap + 8
	stats, err := RunStats(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Outrun the receiver: past DefaultChanCap messages, at least
			// one of these sends must block until rank 1 drains.
			for i := 0; i < msgs; i++ {
				c.Send(1, 3, int32(i))
			}
		} else {
			time.Sleep(10 * time.Millisecond)
			for i := 0; i < msgs; i++ {
				if got := c.Recv(0, 3).(int32); got != int32(i) {
					t.Errorf("recv %d: got %d", i, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.BlockedSends.Load(); got < 1 {
		t.Fatalf("BlockedSends = %d with DefaultChanCap+8 sends to a slow receiver, want >= 1", got)
	}
	if got := stats.MaxStallDuration(); got <= 0 {
		t.Fatalf("MaxStall = %v after blocked sends, want > 0", got)
	}
}

// The default capacity keeps small bursts unblocked.
func TestDefaultChanCapUnchanged(t *testing.T) {
	stats, err := RunStats(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				c.Send(1, 1, int32(i))
			}
		} else {
			time.Sleep(5 * time.Millisecond)
			for i := 0; i < 100; i++ {
				c.Recv(0, 1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.BlockedSends.Load(); got != 0 {
		t.Fatalf("BlockedSends = %d for a 100-message burst under the default capacity, want 0", got)
	}
}
