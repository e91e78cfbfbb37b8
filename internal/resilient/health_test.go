package resilient

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
)

// advanceConn succeeds every call and moves the fake clock forward by d,
// so the wrapping Conn observes a latency of exactly d per call.
type advanceConn struct {
	clk *fakeClock
	d   time.Duration
}

func (c *advanceConn) Call(context.Context, string, rpc.Message) (rpc.Message, error) {
	c.clk.advance(c.d)
	return rpc.Message{Meta: []byte("ok")}, nil
}
func (c *advanceConn) Addr() string { return "advance" }
func (c *advanceConn) Close() error { return nil }

// flapConn fails every other call and advances the fake clock past any
// cooldown, so a wrapping breaker flaps open/closed on every call.
type flapConn struct {
	clk   *fakeClock
	step  time.Duration
	mu    sync.Mutex
	calls int
}

func (c *flapConn) Call(context.Context, string, rpc.Message) (rpc.Message, error) {
	c.clk.advance(c.step)
	c.mu.Lock()
	i := c.calls
	c.calls++
	c.mu.Unlock()
	if i%2 == 0 {
		return rpc.Message{}, errNet
	}
	return rpc.Message{Meta: []byte("ok")}, nil
}
func (c *flapConn) Addr() string { return "flap" }
func (c *flapConn) Close() error { return nil }

func TestScoreFreshConnIsHealthy(t *testing.T) {
	clk := newFakeClock()
	c := Wrap(&scriptConn{}, opts(clk))
	if got := c.Score(); got != 1 {
		t.Fatalf("fresh conn Score() = %v, want 1 (unknown is not unhealthy)", got)
	}
	if got := c.LatencyPercentile(0.95); got != 0 {
		t.Fatalf("fresh conn LatencyPercentile = %v, want 0", got)
	}
}

func TestScoreFoldsErrorRate(t *testing.T) {
	clk := newFakeClock()
	c := Wrap(&scriptConn{}, opts(clk))
	for i := 0; i < 8; i++ {
		c.health.observe(clk.Now(), 0, false)
	}
	s := c.Score()
	if s >= 1 || s <= 0 {
		t.Fatalf("Score() after an error run = %v, want in (0,1)", s)
	}
	// A clean run recovers the score.
	for i := 0; i < 64; i++ {
		c.health.observe(clk.Now(), time.Millisecond, true)
	}
	if s2 := c.Score(); s2 <= s || s2 < 0.9 {
		t.Fatalf("Score() after recovery = %v (was %v), want ~1", s2, s)
	}
}

func TestScoreFoldsBreakerState(t *testing.T) {
	clk := newFakeClock()
	o := opts(clk)
	o.Threshold = 2
	o.Cooldown = time.Second
	c := Wrap(&scriptConn{}, o)
	now := clk.Now()
	c.breaker.onFailure(now)
	c.breaker.onFailure(now) // opens
	if got := c.Score(); got != 0 {
		t.Fatalf("Score() with open breaker = %v, want 0", got)
	}
	clk.advance(2 * time.Second) // cooldown elapsed: a probe would be admitted
	if got := c.Score(); got <= 0 || got > 0.3 {
		t.Fatalf("Score() with open-past-cooldown breaker = %v, want in (0, 0.3]", got)
	}
	c.breaker.onSuccess()
	if got := c.Score(); got <= 0.9 {
		t.Fatalf("Score() after breaker re-close = %v, want ~1", got)
	}
}

func TestScoreRanksGraySlowNodeBelowFleet(t *testing.T) {
	clk := newFakeClock()
	conns := WrapAll([]rpc.Conn{&scriptConn{}, &scriptConn{}, &scriptConn{}}, opts(clk))
	rcs := make([]*Conn, len(conns))
	for i, c := range conns {
		rcs[i] = c.(*Conn)
	}
	// Two healthy members at 1ms, one gray member at 20ms.
	for i := 0; i < 32; i++ {
		rcs[0].health.observe(clk.Now(), time.Millisecond, true)
		rcs[1].health.observe(clk.Now(), time.Millisecond, true)
		rcs[2].health.observe(clk.Now(), 20*time.Millisecond, true)
	}
	if s := rcs[0].Score(); s != 1 {
		t.Fatalf("at-median member Score() = %v, want 1", s)
	}
	gray := rcs[2].Score()
	if gray > 0.1 || gray <= 0 {
		t.Fatalf("20x-slower member Score() = %v, want ~0.05", gray)
	}
}

// cancelConn advances the clock then fails with context.Canceled, exactly
// as a hedge-loser leg does when the winning leg cancels it mid-flight.
type cancelConn struct {
	clk *fakeClock
	d   time.Duration
}

func (c *cancelConn) Call(context.Context, string, rpc.Message) (rpc.Message, error) {
	c.clk.advance(c.d)
	return rpc.Message{}, fmt.Errorf("call: %w", context.Canceled)
}
func (c *cancelConn) Addr() string { return "cancel" }
func (c *cancelConn) Close() error { return nil }

func TestCancelledCallRecordsNoHealthSignal(t *testing.T) {
	clk := newFakeClock()
	c := Wrap(&cancelConn{clk: clk, d: 3 * time.Millisecond}, opts(clk))
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		if _, err := c.Call(ctx, "op", rpc.Message{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	// Every cancelled leg took 3ms of wall time, but none of that is the
	// provider's answer time: recording it would let a fleet of hedge
	// winners mask a gray-slow provider's true latency.
	if got := c.LatencyPercentile(0.95); got != 0 {
		t.Fatalf("LatencyPercentile after cancelled calls = %v, want 0 (no samples)", got)
	}
	if got := c.Score(); got != 1 {
		t.Fatalf("Score after cancelled calls = %v, want 1 (no evidence either way)", got)
	}

	// Nor may a cancelled call reset the breaker's failure streak the way
	// an authoritative answer does.
	o := opts(clk)
	o.Threshold = 2
	c2 := Wrap(&cancelConn{clk: clk, d: time.Millisecond}, o)
	c2.breaker.onFailure(clk.Now())
	if _, err := c2.Call(ctx, "op", rpc.Message{}); !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if opened := c2.breaker.onFailure(clk.Now()); !opened {
		t.Fatal("failure streak was reset by an interleaved cancelled call")
	}

	// A cancelled half-open probe must release the probe slot: a probe
	// that never reports back would otherwise hold it forever and the
	// breaker would shed every future call against the provider.
	o2 := opts(clk)
	o2.Threshold = 1
	o2.Cooldown = time.Second
	c3 := Wrap(&cancelConn{clk: clk, d: time.Millisecond}, o2)
	c3.breaker.onFailure(clk.Now()) // opens
	clk.advance(2 * time.Second)
	if _, err := c3.Call(ctx, "op", rpc.Message{}); !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if !c3.breaker.healthy(clk.Now()) {
		t.Fatal("cancelled half-open probe wedged the breaker (slot never released)")
	}
}

func TestLatencyPercentileOrdering(t *testing.T) {
	var h health
	base := time.Unix(1000, 0)
	for i := 1; i <= latWindow; i++ {
		h.observe(base, time.Duration(i)*time.Millisecond, true)
	}
	p50, p99 := h.percentile(0.50), h.percentile(0.99)
	if p50 <= 0 || p99 <= 0 || p50 > p99 {
		t.Fatalf("p50 %v, p99 %v: want 0 < p50 <= p99", p50, p99)
	}
	if p99 < 60*time.Millisecond {
		t.Fatalf("p99 %v, want near the top of the 1..64ms window", p99)
	}
	// The ring keeps only the newest latWindow samples.
	for i := 0; i < latWindow; i++ {
		h.observe(base, time.Second, true)
	}
	if got := h.percentile(0); got != time.Second {
		t.Fatalf("min after ring turnover = %v, want 1s", got)
	}
}

// Satellite (-race): concurrent SetStateListener swaps during breaker
// transitions must be safe — notifyState snapshots the listener under its
// own lock while transitions fire from many goroutines.
func TestStateListenerConcurrentSwapRace(t *testing.T) {
	clk := newFakeClock()
	o := opts(clk)
	o.Threshold = 1
	o.MaxAttempts = 1
	o.Cooldown = time.Second
	// Alternate failure/success while advancing the clock past the
	// cooldown each call, so every failure opens the breaker and every
	// success closes it again — a transition per call.
	c := Wrap(&flapConn{clk: clk, step: 2 * time.Second}, o)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.SetStateListener(func(addr, state string) {
					_ = addr + state
				})
				c.SetStateListener(nil)
			}
		}(g)
	}
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		_, _ = c.Call(ctx, "op", rpc.Message{}) // alternates fail/ok → open/close storm
	}
	close(stop)
	wg.Wait()
}
