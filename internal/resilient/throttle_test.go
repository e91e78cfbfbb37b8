package resilient

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/rpc"
)

func throttled(d time.Duration) error {
	return &frontdoor.ThrottledError{RetryAfter: d}
}

// TestThrottlePacesOnRetryAfter pins the pacing contract: a throttle refusal
// is retried after the server-chosen pause (not exponential backoff) and the
// call ultimately succeeds.
func TestThrottlePacesOnRetryAfter(t *testing.T) {
	clk := newFakeClock()
	o := opts(clk)
	sc := &scriptConn{errs: []error{throttled(50 * time.Millisecond), throttled(80 * time.Millisecond)}}
	c := Wrap(sc, o)

	resp, err := c.Call(context.Background(), "evostore.read_segments", rpc.Message{})
	if err != nil {
		t.Fatalf("call failed despite retry budget: %v", err)
	}
	if string(resp.Meta) != "ok" {
		t.Fatalf("unexpected response %q", resp.Meta)
	}
	want := []time.Duration{50 * time.Millisecond, 80 * time.Millisecond}
	clk.mu.Lock()
	sleeps := append([]time.Duration(nil), clk.sleeps...)
	clk.mu.Unlock()
	if len(sleeps) != len(want) || sleeps[0] != want[0] || sleeps[1] != want[1] {
		t.Errorf("sleeps = %v, want the server-directed %v", sleeps, want)
	}
	if got := o.Registry.Counter("rpc.throttle_backoff").Load(); got != 2 {
		t.Errorf("rpc.throttle_backoff = %d, want 2", got)
	}
}

// TestThrottleNeverTripsBreaker: refusals are authoritative answers, so even
// a run of them longer than the breaker threshold must leave it closed — an
// open breaker would turn pacing into a synthetic outage.
func TestThrottleNeverTripsBreaker(t *testing.T) {
	clk := newFakeClock()
	o := opts(clk)
	o.Threshold = 2
	errs := make([]error, 6)
	for i := range errs {
		errs[i] = throttled(10 * time.Millisecond)
	}
	c := Wrap(&scriptConn{errs: errs}, o)

	_, err := c.Call(context.Background(), "evostore.read_segments", rpc.Message{})
	if err == nil {
		t.Fatal("call succeeded with every attempt throttled")
	}
	if !errors.Is(err, frontdoor.ErrThrottled) {
		t.Fatalf("exhausted call lost the typed throttle error: %v", err)
	}
	if _, ok := frontdoor.RetryAfterFromError(err); !ok {
		t.Fatalf("exhausted call lost the retry-after hint: %v", err)
	}
	if st := c.BreakerState(); st != "closed" {
		t.Errorf("breaker %s after throttle run, want closed", st)
	}
	if got := o.Registry.Counter("rpc.breaker_shed").Load(); got != 0 {
		t.Errorf("breaker shed %d calls during throttling", got)
	}
}

// TestThrottleRetryAfterClamped bounds pathological hints: a huge retry-after
// sleeps at most 5s, a zero one at least 1ms.
func TestThrottleRetryAfterClamped(t *testing.T) {
	clk := newFakeClock()
	o := opts(clk)
	sc := &scriptConn{errs: []error{throttled(30 * time.Second), throttled(0)}}
	c := Wrap(sc, o)
	if _, err := c.Call(context.Background(), "evostore.read_segments", rpc.Message{}); err != nil {
		t.Fatal(err)
	}
	clk.mu.Lock()
	sleeps := append([]time.Duration(nil), clk.sleeps...)
	clk.mu.Unlock()
	if len(sleeps) != 2 || sleeps[0] != 5*time.Second || sleeps[1] != time.Millisecond {
		t.Errorf("sleeps = %v, want [5s 1ms]", sleeps)
	}
}

// TestThrottleSurvivesRemoteFlattening: the hint must survive the TCP
// transport, where a provider's wrapped refusal arrives as a remote error
// whose status carries the retry-after.
func TestThrottleSurvivesRemoteFlattening(t *testing.T) {
	srv := rpc.NewServer()
	srv.Register("read", func(context.Context, rpc.Message) (rpc.Message, error) {
		return rpc.Message{}, fmt.Errorf("provider 0: read 7: %w", throttled(40*time.Millisecond))
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
	if !rpc.IsRemote(remote) {
		t.Fatalf("test setup: %v is not a remote error", remote)
	}

	clk := newFakeClock()
	c := Wrap(&scriptConn{errs: []error{remote}}, opts(clk))
	if _, err := c.Call(context.Background(), "evostore.read_segments", rpc.Message{}); err != nil {
		t.Fatal(err)
	}
	clk.mu.Lock()
	defer clk.mu.Unlock()
	if len(clk.sleeps) != 1 || clk.sleeps[0] != 40*time.Millisecond {
		t.Errorf("sleeps = %v, want [40ms]", clk.sleeps)
	}
}
