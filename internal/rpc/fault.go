package rpc

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
)

// FaultConfig describes the failure behaviour a FaultConn injects. All
// probabilities are in [0,1] and are drawn from a private RNG seeded with
// Seed, so a given seed reproduces the exact same failure schedule —
// table stakes for debugging a resilience test.
type FaultConfig struct {
	// Seed initializes the RNG. Equal seeds give equal schedules.
	Seed int64
	// DropRequest is the probability a call fails before reaching the
	// wrapped connection (the request was lost: the handler never ran).
	DropRequest float64
	// DropResponse is the probability a call executes on the wrapped
	// connection but its response is discarded and an error returned (the
	// reply was lost: the handler DID run). This is the failure mode that
	// makes blind retries of non-idempotent operations unsafe.
	DropResponse float64
	// Delay (± DelayJitter) is added to every surviving call.
	Delay       time.Duration
	DelayJitter time.Duration
	// Registry counts injected faults; nil uses metrics.Default.
	Registry *metrics.Registry
}

// SlowProfile describes a gray-failed node: alive, answering, but slow.
// While installed via SetSlow, every surviving call's injected delay is
// multiplied by Factor, inflated by Extra (± Jitter, from the same seeded
// RNG as the drop schedule), and bulk payload bytes are charged against
// BandwidthBps on both legs — the request's bulk before the wrapped call,
// the response's bulk after it. All of it is context-cancellable: a call
// whose deadline expires mid-delay stops paying immediately.
type SlowProfile struct {
	// Factor multiplies the configured base Delay (1 = unchanged). The
	// canonical gray failure is Factor 10–50: well under any timeout,
	// far over the fleet median.
	Factor float64
	// Extra is a flat additional per-call latency.
	Extra time.Duration
	// Jitter widens Extra by a uniform draw from [-Jitter, +Jitter].
	Jitter time.Duration
	// BandwidthBps throttles bulk frame bytes (0 = unconstrained),
	// modeling a degraded NIC that still carries small control frames
	// at tolerable speed but crawls through segment payloads.
	BandwidthBps float64
}

// FaultConn wraps a Conn with configurable fault injection: request drops,
// response drops, added delay, a hard partition switch, and a gray-failure
// slow-node mode. Tests and evostore-bench use it to exercise the
// resilience middleware against a misbehaving fabric. All injected
// failures classify as transient and wrap ErrInjected. Payloads pass
// through untouched — a vectored bulk payload (Message.BulkVec) reaches
// the wrapped connection with the exact same slice headers, and fault
// decisions never depend on payload shape (only on payload *length*, in
// slow mode's bandwidth model), so flat and vectored frames are
// dropped/delayed on identical schedules.
type FaultConn struct {
	inner Conn
	cfg   FaultConfig

	mu          sync.Mutex
	rng         *rand.Rand
	partitioned bool
	slow        *SlowProfile

	drops, respDrops, partitionRejects, slowCalls *metrics.Counter
}

// WithFaults wraps conn. A zero config injects nothing (but the partition
// switch still works).
func WithFaults(conn Conn, cfg FaultConfig) *FaultConn {
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.Default
	}
	return &FaultConn{
		inner:            conn,
		cfg:              cfg,
		rng:              rand.New(rand.NewSource(cfg.Seed)),
		drops:            reg.Counter("fault.drop_request"),
		respDrops:        reg.Counter("fault.drop_response"),
		partitionRejects: reg.Counter("fault.partition_reject"),
		slowCalls:        reg.Counter("fault.slow_call"),
	}
}

// SetPartitioned switches the hard partition: while set, every call fails
// immediately, as if the provider fell off the fabric.
func (f *FaultConn) SetPartitioned(on bool) {
	f.mu.Lock()
	f.partitioned = on
	f.mu.Unlock()
}

// SetSlow installs (or, with nil, clears) the gray-failure profile. The
// change applies to subsequent calls; in-flight delays are unaffected.
func (f *FaultConn) SetSlow(p *SlowProfile) {
	f.mu.Lock()
	f.slow = p
	f.mu.Unlock()
}

// Slow reports whether a gray-failure profile is installed.
func (f *FaultConn) Slow() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slow != nil
}

// faultPlan is one call's drawn fault decisions.
type faultPlan struct {
	partitioned, dropReq, dropResp bool
	delay                          time.Duration
	slow                           bool
	bandwidthBps                   float64
}

// roll draws the per-call fault decisions under one lock so concurrent
// callers see a deterministic interleaving-independent marginal rate.
func (f *FaultConn) roll() faultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.partitioned {
		return faultPlan{partitioned: true}
	}
	var p faultPlan
	p.dropReq = f.cfg.DropRequest > 0 && f.rng.Float64() < f.cfg.DropRequest
	p.dropResp = !p.dropReq && f.cfg.DropResponse > 0 && f.rng.Float64() < f.cfg.DropResponse
	p.delay = f.cfg.Delay
	if f.cfg.DelayJitter > 0 {
		p.delay += time.Duration(f.rng.Int63n(int64(2*f.cfg.DelayJitter))) - f.cfg.DelayJitter
	}
	if s := f.slow; s != nil {
		p.slow = true
		if s.Factor > 1 {
			p.delay = time.Duration(float64(p.delay) * s.Factor)
		}
		p.delay += s.Extra
		if s.Jitter > 0 {
			p.delay += time.Duration(f.rng.Int63n(int64(2*s.Jitter))) - s.Jitter
		}
		p.bandwidthBps = s.BandwidthBps
	}
	if p.delay < 0 {
		p.delay = 0
	}
	return p
}

// bulkDelay is the time n bulk bytes take at the plan's bandwidth.
func (p faultPlan) bulkDelay(n int) time.Duration {
	if p.bandwidthBps <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / p.bandwidthBps * float64(time.Second))
}

// Call implements Conn.
func (f *FaultConn) Call(ctx context.Context, name string, req Message) (Message, error) {
	plan := f.roll()
	if plan.partitioned {
		f.partitionRejects.Inc()
		return Message{}, fmt.Errorf("%w: %s partitioned", ErrInjected, f.inner.Addr())
	}
	if plan.slow {
		f.slowCalls.Inc()
	}
	if err := sleepCtx(ctx, plan.delay+plan.bulkDelay(req.BulkLen())); err != nil {
		return Message{}, err
	}
	if plan.dropReq {
		f.drops.Inc()
		return Message{}, fmt.Errorf("%w: request to %s dropped", ErrInjected, f.inner.Addr())
	}
	resp, err := f.inner.Call(ctx, name, req)
	if plan.dropResp && err == nil {
		f.respDrops.Inc()
		return Message{}, fmt.Errorf("%w: response from %s dropped", ErrInjected, f.inner.Addr())
	}
	if err == nil {
		if serr := sleepCtx(ctx, plan.bulkDelay(resp.BulkLen())); serr != nil {
			return Message{}, serr
		}
	}
	return resp, err
}

// Addr implements Conn.
func (f *FaultConn) Addr() string { return f.inner.Addr() }

// Close implements Conn.
func (f *FaultConn) Close() error { return f.inner.Close() }

var _ Conn = (*FaultConn)(nil)
