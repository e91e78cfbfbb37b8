// Package resilient hardens the EvoStore RPC path against a misbehaving
// fabric. The paper's evaluation assumes a healthy Slingshot network; a
// production deployment does not get that luxury, and the client's Load
// fans one model read out across every provider holding an owner group —
// one slow or dead provider stalls the whole read. This package wraps any
// rpc.Conn with three layers of protection:
//
//   - Per-call default deadlines: a call arriving without a context
//     deadline gets a bounded one per attempt, so a dead socket fails fast
//     instead of hanging a fan-out.
//   - Bounded retries with exponential backoff + jitter, attempted only
//     for errors rpc.IsTransient classifies as retryable AND operations
//     the Retryable policy admits. proto.Retryable admits idempotent ops
//     plus the mutating ops that carry a request ID for provider-side
//     dedup (IncRef/DecRef/Retire/StoreModel), so a retry can never
//     double-execute a refcount change.
//   - A per-provider circuit breaker: after Threshold consecutive
//     transport failures the breaker opens and calls are shed immediately
//     with rpc.ErrUnavailable; after Cooldown one probe call is let
//     through (half-open) and its outcome closes or re-opens the breaker.
//   - Throttle-aware pacing: a front-door admission refusal carrying a
//     retry-after hint (see the frontdoor package) is retried after the
//     server-chosen pause instead of exponential backoff, and counts as a
//     breaker success — a provider refusing authoritatively is healthy,
//     and opening the breaker on throttling would turn pacing into an
//     outage.
//
// Paper counterpart: none — this is the productionization layer the
// ROADMAP's north star asks for on top of the paper's Mercury/Thallium
// stack. Retry/backoff/breaker behaviour follows standard datacenter RPC
// practice (e.g. gRPC retry policy, Hystrix-style breakers).
//
// Contracts: Conn is safe for concurrent use. Time is injected via Clock
// so tests can drive backoff and cooldown deterministically. All state
// transitions and retries are counted in a metrics.Registry.
package resilient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/metrics"
	"repro/internal/rpc"
)

// Clock abstracts time for deterministic tests.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Options tunes the middleware. The zero value gets sane defaults.
type Options struct {
	// DefaultTimeout is the per-attempt deadline applied when the caller's
	// context has none. Default 10s; negative disables.
	DefaultTimeout time.Duration
	// MaxAttempts is the total number of tries, including the first.
	// Default 3; values < 1 mean 1 (no retries).
	MaxAttempts int
	// BackoffBase is the sleep before the first retry; each further retry
	// doubles it, capped at BackoffMax. Defaults 5ms / 500ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Jitter spreads each backoff uniformly over [1-Jitter, 1+Jitter].
	// Default 0.2; negative disables jitter (deterministic backoff).
	Jitter float64
	// Retryable decides per RPC name whether a transient failure may be
	// retried. nil admits every name (use proto.Retryable for EvoStore's
	// idempotency-aware policy).
	Retryable func(name string) bool
	// Threshold is the number of consecutive transient failures that opens
	// the circuit breaker. Default 5; negative disables the breaker.
	Threshold int
	// Cooldown is how long an open breaker sheds calls before letting one
	// probe through. Default 1s.
	Cooldown time.Duration
	// Registry counts retries and breaker transitions; nil uses
	// metrics.Default.
	Registry *metrics.Registry
	// Clock and Seed inject time and jitter randomness for tests.
	Clock Clock
	Seed  int64
}

func (o Options) withDefaults() Options {
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 10 * time.Second
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 5 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 500 * time.Millisecond
	}
	if o.Jitter == 0 {
		o.Jitter = 0.2
	}
	if o.Threshold == 0 {
		o.Threshold = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = time.Second
	}
	if o.Registry == nil {
		o.Registry = metrics.Default
	}
	if o.Clock == nil {
		o.Clock = realClock{}
	}
	return o
}

// Conn is an rpc.Conn hardened with deadlines, retries and a circuit
// breaker. Wrap one around each provider connection.
type Conn struct {
	inner rpc.Conn
	opts  Options

	mu      sync.Mutex
	rng     *rand.Rand
	breaker breaker

	health health
	fleet  *fleet // shared by WrapAll siblings; nil for a lone Wrap

	listenMu sync.Mutex
	listener func(addr, state string)

	retries, shed            *metrics.Counter
	opened, halfOpen, closed *metrics.Counter
	throttled                *metrics.Counter
}

// SetStateListener installs fn to be called — synchronously, off the
// breaker lock — whenever the breaker transitions to "open" or back to
// "closed". The anti-entropy repairer hooks this to wake immediately when
// a provider recovers from an outage, instead of waiting out its sweep
// interval. One listener per Conn; a later call replaces the earlier one.
func (c *Conn) SetStateListener(fn func(addr, state string)) {
	c.listenMu.Lock()
	c.listener = fn
	c.listenMu.Unlock()
}

func (c *Conn) notifyState(state string) {
	c.listenMu.Lock()
	fn := c.listener
	c.listenMu.Unlock()
	if fn != nil {
		fn(c.inner.Addr(), state)
	}
}

// Wrap hardens conn with o. Each wrapped connection has its own breaker,
// matching the per-provider failure domain of the deployment.
func Wrap(conn rpc.Conn, o Options) *Conn {
	o = o.withDefaults()
	reg := o.Registry
	return &Conn{
		inner:     conn,
		opts:      o,
		rng:       rand.New(rand.NewSource(o.Seed)),
		breaker:   breaker{threshold: o.Threshold, cooldown: o.Cooldown},
		retries:   reg.Counter("rpc.retries"),
		shed:      reg.Counter("rpc.breaker_shed"),
		opened:    reg.Counter("rpc.breaker_open"),
		halfOpen:  reg.Counter("rpc.breaker_half_open"),
		closed:    reg.Counter("rpc.breaker_close"),
		throttled: reg.Counter("rpc.throttle_backoff"),
	}
}

// WrapAll hardens every connection of a deployment with the same options
// (but independent breakers and RNG streams, offset by index so provider
// schedules differ). The wrapped connections share a fleet view, so each
// member's Score() can compare its latency against the fleet median.
func WrapAll(conns []rpc.Conn, o Options) []rpc.Conn {
	fl := &fleet{conns: make([]*Conn, len(conns))}
	out := make([]rpc.Conn, len(conns))
	for i, c := range conns {
		oi := o
		oi.Seed = o.Seed + int64(i)
		rc := Wrap(c, oi)
		rc.fleet = fl
		fl.conns[i] = rc
		out[i] = rc
	}
	return out
}

// backoff returns the jittered sleep before retry number retry (0-based).
func (c *Conn) backoff(retry int) time.Duration {
	d := c.opts.BackoffBase << uint(retry)
	if d > c.opts.BackoffMax || d <= 0 { // <=0 catches shift overflow
		d = c.opts.BackoffMax
	}
	j := c.opts.Jitter
	if j <= 0 {
		return d
	}
	c.mu.Lock()
	f := 1 - j + 2*j*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// Call implements rpc.Conn: breaker check, per-attempt deadline, bounded
// retries with backoff on transient errors of retryable operations. A
// front-door throttle refusal (frontdoor.RetryAfterFromError) is treated as
// pacing, not failure: the server-chosen retry-after replaces the
// exponential backoff and the breaker records a success, since an
// authoritative refusal proves the provider healthy.
func (c *Conn) Call(ctx context.Context, name string, req rpc.Message) (rpc.Message, error) {
	retryable := c.opts.Retryable == nil || c.opts.Retryable(name)
	var lastErr error
	// throttleWait, when set, replaces the next retry's exponential backoff
	// with the server-directed pause from the previous attempt's refusal.
	var throttleWait time.Duration
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			d := c.backoff(attempt - 1)
			if throttleWait > 0 {
				d, throttleWait = throttleWait, 0
			}
			if err := c.opts.Clock.Sleep(ctx, d); err != nil {
				return rpc.Message{}, err
			}
		}
		state, admitted := c.breaker.admit(c.opts.Clock.Now())
		if !admitted {
			c.shed.Inc()
			// Shedding is not a provider failure; return without counting
			// it against the breaker, and without burning retries waiting
			// out a cooldown the backoff cannot outlast. Keep the last
			// transport error visible when this call's own failures
			// tripped the breaker mid-retry.
			if lastErr != nil {
				return rpc.Message{}, fmt.Errorf("%w: %s (last error: %v)", rpc.ErrUnavailable, c.inner.Addr(), lastErr)
			}
			return rpc.Message{}, fmt.Errorf("%w: %s", rpc.ErrUnavailable, c.inner.Addr())
		}
		if state == stateHalfOpen {
			c.halfOpen.Inc()
		}

		resp, err := c.attempt(ctx, name, req)
		if ra, ok := frontdoor.RetryAfterFromError(err); ok {
			// Throttled: the provider is reachable and answering, so the
			// breaker must not accumulate failures (an open breaker would
			// turn pacing into an outage). Honor the server's retry-after
			// (clamped) instead of exponential backoff.
			if c.breaker.onSuccess() {
				c.closed.Inc()
				c.notifyState("closed")
			}
			c.throttled.Inc()
			lastErr = err
			if !retryable {
				break
			}
			throttleWait = clampRetryAfter(ra)
			continue
		}
		if err == nil || !rpc.IsTransient(err) {
			if err != nil && errors.Is(err, context.Canceled) {
				// The caller gave up mid-flight (a hedge winner cancelling
				// its losers, a user abandoning a request). That says
				// nothing about the provider, so it must neither reset the
				// breaker's failure streak nor count against it — but if
				// this call was the half-open probe, the slot must be
				// released or the breaker wedges shut.
				c.breaker.onAbandoned()
				return resp, err
			}
			// Success, or the handler answered authoritatively: the
			// provider is reachable either way.
			if c.breaker.onSuccess() {
				c.closed.Inc()
				c.notifyState("closed")
			}
			return resp, err
		}
		if c.breaker.onFailure(c.opts.Clock.Now()) {
			c.opened.Inc()
			c.notifyState("open")
		}
		lastErr = err
		if !retryable {
			break
		}
	}
	return rpc.Message{}, lastErr
}

// clampRetryAfter bounds a server-provided retry-after to a sane pause: a
// floor keeps a zero hint from becoming a busy-loop, a ceiling keeps one
// deep-in-debt bucket from parking a call for its entire refill window.
func clampRetryAfter(d time.Duration) time.Duration {
	const floor, ceil = time.Millisecond, 5 * time.Second
	if d < floor {
		return floor
	}
	if d > ceil {
		return ceil
	}
	return d
}

// attempt runs one try under the per-attempt deadline (DefaultTimeout when
// the caller's context has none) and feeds its outcome into the
// connection's health observations: every attempt updates the error EWMA,
// completed round trips (success or authoritative answer) update the
// latency window. Caller-cancelled attempts record nothing — they carry
// no information about the provider.
func (c *Conn) attempt(ctx context.Context, name string, req rpc.Message) (rpc.Message, error) {
	if _, has := ctx.Deadline(); !has {
		if d := c.opts.DefaultTimeout; d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
	}
	start := c.opts.Clock.Now()
	resp, err := c.inner.Call(ctx, name, req)
	now := c.opts.Clock.Now()
	if err != nil && errors.Is(err, context.Canceled) {
		// Cancelled by the caller: the round trip never finished, so the
		// elapsed time measures the caller's patience, not the provider.
		// Recording it would pollute a gray-slow provider's latency window
		// with fast-looking samples (every hedge that wins against it
		// cancels a leg here) and mask exactly the slowness hedging is
		// meant to expose.
		return resp, err
	}
	completed := err == nil || !rpc.IsTransient(err)
	c.health.observe(now, now.Sub(start), completed)
	return resp, err
}

// Addr implements rpc.Conn.
func (c *Conn) Addr() string { return c.inner.Addr() }

// Close implements rpc.Conn.
func (c *Conn) Close() error { return c.inner.Close() }

// BreakerState reports the current breaker state (for tests and
// introspection): "closed", "open" or "half-open".
func (c *Conn) BreakerState() string { return c.breaker.stateName() }

// Healthy reports whether the breaker would admit a call right now without
// shedding it: true while closed or once an open breaker's cooldown has
// elapsed (a probe would be admitted). Replica selection uses this to skip
// a partitioned provider instead of waiting out its open breaker.
func (c *Conn) Healthy() bool { return c.breaker.healthy(c.opts.Clock.Now()) }

var _ rpc.Conn = (*Conn)(nil)
