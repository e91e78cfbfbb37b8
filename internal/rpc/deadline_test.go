package rpc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// closedWithin reports whether ch closes within d.
func closedWithin(ch <-chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	default:
	}
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

// TestDeadlineReportsBeforeDone: the deadline is there before anything
// calls Done, and Err agrees with it even if Done is never called.
func TestDeadlineReportsBeforeDone(t *testing.T) {
	start := time.Now()
	dl := WithTimeout(context.Background(), 200*time.Millisecond)
	defer dl.Release()
	at, ok := dl.Deadline()
	if !ok || at.Before(start.Add(200*time.Millisecond)) || at.After(time.Now().Add(200*time.Millisecond)) {
		t.Fatalf("Deadline() = %v, %v; want 200ms from %v", at, ok, start)
	}
	if dl.done != nil || dl.timer != nil {
		t.Fatal("Deadline or Err armed the timer before any Done")
	}
	if err := dl.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	time.Sleep(time.Until(at))
	if err := dl.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline, Done never called = %v", err)
	}
	if !closedWithin(dl.Done(), 0) {
		t.Fatal("Done after an expired Err is not closed")
	}
}

// TestDeadlineDoneClosesAtDeadline: the first Done arms the timer, which
// closes Done at the deadline.
func TestDeadlineDoneClosesAtDeadline(t *testing.T) {
	dl := WithTimeout(context.Background(), 200*time.Millisecond)
	defer dl.Release()
	done := dl.Done()
	if closedWithin(done, 5*time.Millisecond) {
		t.Fatal("Done closed well before the deadline")
	}
	if err := dl.Err(); err != nil {
		t.Fatalf("Err while Done is open = %v", err)
	}
	if !closedWithin(done, 5*time.Second) {
		t.Fatal("Done did not close at the deadline")
	}
	if err := dl.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after Done closed = %v", err)
	}
}

// TestDeadlineFollowsParent: cancelling the parent closes Done (armed
// before or after the cancel) and Err reports the parent's error.
func TestDeadlineFollowsParent(t *testing.T) {
	for _, armFirst := range []bool{true, false} {
		parent, cancel := context.WithCancel(context.Background())
		dl := WithTimeout(parent, time.Hour)
		if armFirst {
			dl.Done()
		}
		cancel()
		if !closedWithin(dl.Done(), 5*time.Second) {
			t.Fatalf("armFirst=%v: Done did not close on parent cancel", armFirst)
		}
		if err := dl.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("armFirst=%v: Err after parent cancel = %v", armFirst, err)
		}
		dl.Release()
	}
}

// TestDeadlineRelease: Release ends the context with context.Canceled,
// stops the timer, and does not overwrite an earlier expiry.
func TestDeadlineRelease(t *testing.T) {
	dl := WithTimeout(context.Background(), time.Hour)
	done := dl.Done()
	dl.Release()
	if !closedWithin(done, 0) || !errors.Is(dl.Err(), context.Canceled) {
		t.Fatalf("after Release: Err = %v", dl.Err())
	}
	if dl.timer.Stop() {
		t.Fatal("Release left the timer running")
	}

	expired := WithTimeout(context.Background(), -time.Second)
	if err := expired.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err of an expired context = %v", err)
	}
	expired.Release()
	if err := expired.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Release overwrote the expiry: Err = %v", err)
	}
}

// TestDeadlineDerivedCancelFires: a context.WithCancel derived from a
// Deadline still ends at the Deadline's deadline, and carries its values.
func TestDeadlineDerivedCancelFires(t *testing.T) {
	type key struct{}
	dl := WithTimeout(context.WithValue(context.Background(), key{}, "v"), 20*time.Millisecond)
	defer dl.Release()
	child, cancel := context.WithCancel(dl)
	defer cancel()
	if child.Value(key{}) != "v" {
		t.Fatal("derived context lost the parent's value")
	}
	if _, ok := child.Deadline(); !ok {
		t.Fatal("derived context has no deadline")
	}
	if !closedWithin(child.Done(), 5*time.Second) {
		t.Fatal("derived WithCancel did not fire at the deadline")
	}
	if err := child.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("derived Err = %v", err)
	}
}

// TestDeadlineConcurrent: Done, Err, Release, the timer and a parent
// cancel race freely; afterwards Done is closed and Err is set.
func TestDeadlineConcurrent(t *testing.T) {
	for range 50 {
		parent, cancel := context.WithCancel(context.Background())
		dl := WithTimeout(parent, time.Millisecond)
		var wg sync.WaitGroup
		for _, fn := range []func(){
			func() { <-dl.Done() },
			func() { dl.Err() },
			func() { dl.Err(); dl.Done() },
			cancel,
			dl.Release,
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn()
			}()
		}
		wg.Wait()
		if !closedWithin(dl.Done(), 0) || dl.Err() == nil {
			t.Fatalf("after the race: Done closed %v, Err %v", closedWithin(dl.Done(), 0), dl.Err())
		}
	}
}
