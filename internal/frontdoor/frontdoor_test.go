package frontdoor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
)

func TestBucketSustainedRate(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBucket(10, time.Second) // 10 tokens, window 1s => cap 10, fill 1
	admitted := 0
	// Walk 10 simulated seconds in 10ms steps, taking greedily.
	for step := 0; step < 1000; step++ {
		now = now.Add(10 * time.Millisecond)
		if _, ok := b.Take(now, 1); ok {
			admitted++
		}
	}
	// Sustained rate must settle at ~10/s over 10s (plus the initial fill).
	if admitted < 95 || admitted > 110 {
		t.Fatalf("admitted %d ops over 10s at 10 ops/s, want ~100", admitted)
	}
}

func TestBucketRetryAfter(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBucket(100, time.Second) // fill starts at 10
	b.Force(now, 60)                 // 50 tokens of debt
	d, ok := b.Take(now, 1)
	if ok {
		t.Fatal("bucket in debt admitted a take")
	}
	// 51 tokens short at 100/s => ~510ms.
	if d < 400*time.Millisecond || d > 700*time.Millisecond {
		t.Fatalf("retry-after %v, want ~510ms", d)
	}
	// After the hinted wait the take must succeed.
	if _, ok := b.Take(now.Add(d), 1); !ok {
		t.Fatal("take refused after waiting the hinted retry-after")
	}
}

func TestBucketOversizedTake(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBucket(10, time.Second) // cap 10
	// A 25-token op exceeds capacity; it must be admitted once the bucket
	// is full, not starved forever.
	b.last = now
	now = now.Add(time.Minute) // refill to cap
	if _, ok := b.Take(now, 25); !ok {
		t.Fatal("oversized take refused at full bucket")
	}
	if b.fill >= 0 {
		t.Fatalf("oversized take should leave debt, fill=%v", b.fill)
	}
}

func TestThrottlerPerTenantIsolation(t *testing.T) {
	th := NewThrottler(Limits{OpsPerSec: 5, Window: time.Second})
	now := time.Unix(0, 0)
	th.SetClock(func() time.Time { return now })
	// Drain tenant A.
	var errA error
	for i := 0; i < 50 && errA == nil; i++ {
		errA = th.Admit("a")
	}
	if errA == nil {
		t.Fatal("tenant a never throttled")
	}
	if !errors.Is(errA, ErrThrottled) {
		t.Fatalf("throttle error %v does not match ErrThrottled", errA)
	}
	// Tenant B is untouched.
	if err := th.Admit("b"); err != nil {
		t.Fatalf("tenant b throttled by a's debt: %v", err)
	}
}

func TestThrottlerBytesDebt(t *testing.T) {
	th := NewThrottler(Limits{BytesPerSec: 1000, Window: time.Second})
	now := time.Unix(0, 0)
	th.SetClock(func() time.Time { return now })
	if err := th.Admit("a"); err != nil {
		t.Fatalf("fresh tenant refused: %v", err)
	}
	th.ChargeBytes("a", 5000) // deep debt
	err := th.Admit("a")
	if err == nil {
		t.Fatal("tenant in bytes debt admitted")
	}
	ra, ok := RetryAfterFromError(err)
	if !ok || ra <= 0 {
		t.Fatalf("no retry-after on %v", err)
	}
	now = now.Add(ra + 10*time.Millisecond)
	if err := th.Admit("a"); err != nil {
		t.Fatalf("still refused after hinted wait: %v", err)
	}
}

// TestRetryAfterSurvivesTextWire sends a wrapped throttle refusal over a
// real TCP wire: the caller must read back the exact retry-after (it rides
// the rpc status, not the message text), and non-throttle errors, local or
// remote, must carry none.
func TestRetryAfterSurvivesTextWire(t *testing.T) {
	orig := &ThrottledError{RetryAfter: 1250 * time.Millisecond}
	srv := rpc.NewServer()
	srv.Register("read", func(context.Context, rpc.Message) (rpc.Message, error) {
		return rpc.Message{}, fmt.Errorf("provider 3: read 17: %w (replica on provider 3)", orig)
	})
	srv.Register("plain", func(context.Context, rpc.Message) (rpc.Message, error) {
		return rpc.Message{}, errors.New("plain failure")
	})
	lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	conn, err := rpc.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	_, remote := conn.Call(context.Background(), "read", rpc.Message{})
	ra, ok := RetryAfterFromError(remote)
	if !ok {
		t.Fatalf("retry-after lost across the wire: %v", remote)
	}
	if ra != orig.RetryAfter {
		t.Fatalf("retry-after %v, want %v", ra, orig.RetryAfter)
	}
	if !errors.Is(remote, ErrThrottled) {
		t.Fatalf("remote refusal %v does not match ErrThrottled", remote)
	}
	// Typed path too.
	ra, ok = RetryAfterFromError(fmt.Errorf("wrapped: %w", orig))
	if !ok || ra != orig.RetryAfter {
		t.Fatalf("typed retry-after %v ok=%v", ra, ok)
	}
	// Non-throttle errors carry nothing.
	_, plain := conn.Call(context.Background(), "plain", rpc.Message{})
	for _, e := range []error{errors.New("plain failure"), plain} {
		if _, ok := RetryAfterFromError(e); ok {
			t.Fatalf("false positive on unrelated error %v", e)
		}
	}
}

func TestGroupCoalesces(t *testing.T) {
	var g Group[string, int]
	var execs atomic.Int32

	const K = 32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, K)
	sharedCount := atomic.Int32{}
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := g.Do("k", func() (int, error) {
				<-gate // hold the flight open until everyone joined
				execs.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	// Let every goroutine reach Do, then release the leader.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
	// Every caller but the leader joined as a waiter.
	if n := sharedCount.Load(); n != K-1 {
		t.Fatalf("%d callers shared the flight, want %d", n, K-1)
	}
	// A later call must execute fresh (no caching).
	_, shared, _ := g.Do("k", func() (int, error) { execs.Add(1); return 7, nil })
	if shared || execs.Load() != 2 {
		t.Fatal("flight result cached past completion")
	}
}

// A leader learns whether its result went to anyone else: exclusive only
// when no waiter joined, and never for a waiter.
func TestGroupExclusive(t *testing.T) {
	var g Group[string, int]
	if _, shared, exclusive, _ := g.DoExclusive("k", func() (int, error) { return 1, nil }); shared || !exclusive {
		t.Fatalf("lone leader: shared %v exclusive %v, want false true", shared, exclusive)
	}
	gate := make(chan struct{})
	type res struct{ shared, exclusive bool }
	leader, waiter := make(chan res, 1), make(chan res, 1)
	go func() {
		_, s, e, _ := g.DoExclusive("k", func() (int, error) { <-gate; return 2, nil })
		leader <- res{s, e}
	}()
	for g.Pending("k") != 1 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		_, s, e, _ := g.DoExclusive("k", func() (int, error) { return 3, nil })
		waiter <- res{s, e}
	}()
	for g.Pending("k") != 2 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if r := <-leader; r.shared || r.exclusive {
		t.Fatalf("leader with a waiter: shared %v exclusive %v, want false false", r.shared, r.exclusive)
	}
	if r := <-waiter; !r.shared || r.exclusive {
		t.Fatalf("waiter: shared %v exclusive %v, want true false", r.shared, r.exclusive)
	}
}

func TestGroupErrorNotCached(t *testing.T) {
	var g Group[int, string]
	boom := errors.New("boom")
	_, _, err := g.Do(1, func() (string, error) { return "", boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, shared, err := g.Do(1, func() (string, error) { return "ok", nil })
	if err != nil || shared || v != "ok" {
		t.Fatalf("second Do: %v %v %v", v, shared, err)
	}
}

func TestWaiterPacesToRate(t *testing.T) {
	w := NewWaiter(Limits{OpsPerSec: 100, Window: time.Second})
	now := time.Unix(0, 0)
	w.mu.Lock()
	w.now = func() time.Time { return now }
	w.sleep = func(_ context.Context, d time.Duration) error {
		now = now.Add(d)
		return nil
	}
	w.mu.Unlock()
	start := now
	for i := 0; i < 200; i++ {
		if _, err := w.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := now.Sub(start)
	// 200 ops at 100/s with 10% initial fill: ~1.9s of simulated waiting.
	if elapsed < 1500*time.Millisecond || elapsed > 2500*time.Millisecond {
		t.Fatalf("200 ops took %v simulated, want ~1.9s", elapsed)
	}
	// Cancellation surfaces.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w.mu.Lock()
	w.sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	w.ops.fill = -1000
	w.mu.Unlock()
	if _, err := w.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Wait returned %v", err)
	}
}
