// Package frontdoor is the multi-tenant admission layer in front of the
// EvoStore data path. It supplies the three mechanisms that keep a
// model-hub access pattern — many clients pulling the same hot lineages —
// from melting a provider:
//
//   - Singleflight coalescing (Group): concurrent identical reads collapse
//     into one execution whose result every waiter shares. The client uses
//     it to issue one provider round trip per hot owner-group; the provider
//     uses it to execute one KV read for duplicate requests arriving from
//     distinct clients.
//   - Token-bucket throttling (Bucket, Throttler): per-tenant ops/s and
//     bytes/s admission buckets following kopia's blob/throttling shape —
//     capacity is rate × a sliding window (default 60s) and a fresh bucket
//     starts at a fractional fill so a cold tenant cannot burst a full
//     window's budget at once. Rejections are a ThrottledError whose
//     retry-after hint crosses the wire as the argument of
//     rpc.StatusThrottled (RetryAfterFromError reads it on either side),
//     so the resilience middleware can pace retries without tripping its
//     circuit breaker: a throttled provider is healthy, just busy.
//   - Local pacing (Waiter): the same buckets used cooperatively — a caller
//     that knows its budget charges it and sleeps until it is out of debt.
//     The repairer paces migration payload with one.
//
// Beyond the standard library the package imports only rpc, for the
// status its refusals cross the wire with, so every layer above rpc
// (resilient, client, provider) can import it without cycles.
package frontdoor

import (
	"context"
	"sync"
	"time"

	"repro/internal/rpc"
)

// Window is the default token-bucket accounting window: bucket capacity is
// rate × Window seconds. A long window lets legitimate bursts (one model's
// segments arriving back to back) through while still capping the
// sustained rate; the value follows kopia's throttlingWindow.
const Window = 60 * time.Second

// InitialFill is the fraction of capacity a fresh bucket starts with, so a
// brand-new (or long-idle, freshly pruned) tenant gets a useful burst but
// not a whole window's budget in one shot. Follows kopia's
// throttleBucketInitialFill.
const InitialFill = 0.1

// --- token bucket --------------------------------------------------------------

// Bucket is a token bucket: capacity rate×window tokens, refilled
// continuously at rate tokens/second. Not safe for concurrent use; the
// Throttler and Waiter wrap it with their own locks.
type Bucket struct {
	rate float64 // tokens per second
	cap  float64 // rate * window seconds
	fill float64 // current tokens; may go negative (debt) via Force
	last time.Time
}

// NewBucket builds a bucket admitting rate tokens/second over window
// (<= 0 selects Window). rate <= 0 returns nil: an absent bucket admits
// everything.
func NewBucket(rate float64, window time.Duration) *Bucket {
	if rate <= 0 {
		return nil
	}
	if window <= 0 {
		window = Window
	}
	c := rate * window.Seconds()
	f := c * InitialFill
	// A fresh bucket always affords one op: without the floor, a small
	// rate × window product would refuse a brand-new tenant's first
	// request, which reads as an outage rather than pacing.
	if f < 1 {
		f = 1
		if f > c {
			f = c
		}
	}
	return &Bucket{rate: rate, cap: c, fill: f}
}

// advance refills for the time elapsed since the last event, capped at
// capacity.
func (b *Bucket) advance(now time.Time) {
	if !b.last.IsZero() {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.fill += dt * b.rate
			if b.fill > b.cap {
				b.fill = b.cap
			}
		}
	}
	b.last = now
}

// Take tries to take n tokens at time now. On success it returns (0,
// true). On refusal it returns how long the caller should wait before the
// tokens will be available. A request larger than the whole capacity is
// admitted once the bucket is full and pushes the fill negative, so a
// single oversized op cannot be starved forever yet still pays its cost
// against future admissions.
func (b *Bucket) Take(now time.Time, n float64) (time.Duration, bool) {
	if b == nil || n <= 0 {
		return 0, true
	}
	b.advance(now)
	need := n
	if need > b.cap {
		need = b.cap
	}
	if b.fill >= need {
		b.fill -= n
		return 0, true
	}
	d := time.Duration((need - b.fill) / b.rate * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d, false
}

// refund returns tokens a refused admission attempt took, capped at
// capacity. A refused request performs no work, so it must not consume
// budget: without the refund, a client retrying against one exhausted
// dimension silently drains the other, turning a bytes-debt pause into an
// ops outage.
func (b *Bucket) refund(n float64) {
	if b == nil || n <= 0 {
		return
	}
	b.fill += n
	if b.fill > b.cap {
		b.fill = b.cap
	}
}

// Force takes n tokens unconditionally, letting the fill go negative. Used
// to charge costs only known after the fact (response bytes): the op
// already happened, so the debt is settled by throttling what follows.
// Debt is clamped at one full window (-cap): the tenant pays for at most
// one window of history, so a single huge response delays it by a bounded
// interval instead of forever, and the clamp is what keeps a later Resize
// from carrying an unbounded debt into a smaller bucket.
func (b *Bucket) Force(now time.Time, n float64) {
	if b == nil || n <= 0 {
		return
	}
	b.advance(now)
	b.fill -= n
	if b.fill < -b.cap {
		b.fill = -b.cap
	}
}

// Resize re-rates the bucket at time now, preserving the accumulated fill
// — debt included — clamped to the new capacity bounds [-cap, cap]. It
// returns the bucket to use afterwards: nil when rate disables the
// dimension, a fresh bucket when b was nil. Preserving fill across a
// limit change is the point: replacing the bucket wholesale would forgive
// every tenant's outstanding byte debt (rewarding whoever was deepest in
// the red) or, worse, carry a debt larger than the new capacity that the
// shrunken refill rate takes near-forever to pay off.
func (b *Bucket) Resize(now time.Time, rate float64, window time.Duration) *Bucket {
	if rate <= 0 {
		return nil
	}
	nb := NewBucket(rate, window)
	if b == nil {
		return nb
	}
	b.advance(now)
	f := b.fill
	if f > nb.cap {
		f = nb.cap
	}
	if f < -nb.cap {
		f = -nb.cap
	}
	nb.fill = f
	nb.last = now
	return nb
}

// --- per-tenant throttler ------------------------------------------------------

// Limits configures a Throttler: per-tenant sustained rates. Zero rates
// leave that dimension unthrottled.
type Limits struct {
	OpsPerSec   float64       // read operations per second per tenant
	BytesPerSec float64       // response payload bytes per second per tenant
	Window      time.Duration // accounting window; 0 selects Window (60s)
}

// enabled reports whether any dimension is limited.
func (l Limits) enabled() bool { return l.OpsPerSec > 0 || l.BytesPerSec > 0 }

// maxTenants bounds the per-tenant bucket map; beyond it, buckets idle for
// more than a window are pruned. Protects the provider from a tenant-ID
// cardinality attack without an eviction policy worth tuning.
const maxTenants = 4096

type tenantBuckets struct {
	ops   *Bucket
	bytes *Bucket
	seen  time.Time
}

// Throttler applies per-tenant admission Limits. Safe for concurrent use.
// The zero tenant ID ("") is a tenant like any other, so anonymous clients
// share one budget instead of escaping throttling.
type Throttler struct {
	limits Limits
	now    func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantBuckets
}

// NewThrottler builds a throttler; nil when no dimension is limited, and a
// nil *Throttler admits everything, so callers can hold one pointer and
// skip the feature test.
func NewThrottler(l Limits) *Throttler {
	if !l.enabled() {
		return nil
	}
	return &Throttler{limits: l, now: time.Now, tenants: make(map[string]*tenantBuckets)}
}

// SetClock injects a time source (tests).
func (t *Throttler) SetClock(now func() time.Time) {
	if t != nil && now != nil {
		t.now = now
	}
}

func (t *Throttler) bucketsFor(tenant string, now time.Time) *tenantBuckets {
	tb := t.tenants[tenant]
	if tb == nil {
		if len(t.tenants) >= maxTenants {
			w := t.limits.Window
			if w <= 0 {
				w = Window
			}
			for id, old := range t.tenants {
				if now.Sub(old.seen) > w {
					delete(t.tenants, id)
				}
			}
		}
		tb = &tenantBuckets{
			ops:   NewBucket(t.limits.OpsPerSec, t.limits.Window),
			bytes: NewBucket(t.limits.BytesPerSec, t.limits.Window),
		}
		t.tenants[tenant] = tb
	}
	tb.seen = now
	return tb
}

// bytesProbe is the token charge Admit and Wait place against the bytes
// bucket up front: near-zero, so it refuses only while the bucket is in
// debt (real byte costs are only known after the response is built and
// are charged by ChargeBytes).
const bytesProbe = 0.0001

// Admit charges one operation against tenant's ops bucket and verifies the
// bytes bucket is out of debt. On refusal it returns a *ThrottledError
// carrying the longer retry-after of the two dimensions, and refunds
// whatever the granted dimension took — a refused request consumes no
// budget, so retries paced by the hint find the ops bucket where they
// left it instead of drained. Response bytes are charged after the fact
// with ChargeBytes, since a read's size is only known once it has been
// served.
func (t *Throttler) Admit(tenant string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	tb := t.bucketsFor(tenant, now)
	opsWait, opsOK := tb.ops.Take(now, 1)
	bytesWait, bytesOK := tb.bytes.Take(now, bytesProbe)
	if opsOK && bytesOK {
		return nil
	}
	if opsOK {
		tb.ops.refund(1)
	}
	if bytesOK {
		tb.bytes.refund(bytesProbe)
	}
	wait := opsWait
	if bytesWait > wait {
		wait = bytesWait
	}
	return &ThrottledError{RetryAfter: wait}
}

// SetLimits replaces the throttler's limits in place, resizing every live
// tenant's buckets while preserving their fill and debt (clamped to the
// new capacity — see Bucket.Resize). Returns false when l disables
// throttling entirely; the caller should then drop the throttler (a nil
// *Throttler admits everything).
func (t *Throttler) SetLimits(l Limits) bool {
	if t == nil || !l.enabled() {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.limits = l
	for _, tb := range t.tenants {
		tb.ops = tb.ops.Resize(now, l.OpsPerSec, l.Window)
		tb.bytes = tb.bytes.Resize(now, l.BytesPerSec, l.Window)
	}
	return true
}

// ChargeBytes debits n response bytes against tenant's bytes bucket,
// possibly into debt — the next Admit then refuses until the debt refills.
func (t *Throttler) ChargeBytes(tenant string, n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.bucketsFor(tenant, now).bytes.Force(now, float64(n))
}

// --- local pacing ---------------------------------------------------------------

// Waiter is the cooperative form of throttling: it sleeps locally until
// its own budget admits an operation. Safe for concurrent use.
type Waiter struct {
	mu    sync.Mutex
	ops   *Bucket
	bytes *Bucket
	now   func() time.Time
	// sleep is swappable for tests.
	sleep func(ctx context.Context, d time.Duration) error
}

// NewWaiter builds a waiter from l; nil when no dimension is
// limited (a nil *Waiter admits everything immediately).
func NewWaiter(l Limits) *Waiter {
	if !l.enabled() {
		return nil
	}
	return &Waiter{
		ops:   NewBucket(l.OpsPerSec, l.Window),
		bytes: NewBucket(l.BytesPerSec, l.Window),
		now:   time.Now,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	}
}

// Wait blocks until one operation is admitted (both buckets out of debt)
// or ctx is done. It returns ctx's error on cancellation and the number of
// sleeps it needed (0 = admitted immediately) otherwise.
func (w *Waiter) Wait(ctx context.Context) (int, error) {
	if w == nil {
		return 0, nil
	}
	waits := 0
	for {
		w.mu.Lock()
		now := w.now()
		opsWait, opsOK := w.ops.Take(now, 1)
		bytesWait, bytesOK := w.bytes.Take(now, bytesProbe)
		if opsOK && bytesOK {
			w.mu.Unlock()
			return waits, nil
		}
		// Same refund contract as Throttler.Admit: a sleep iteration that
		// admitted nothing must not burn an op token per lap, or the loop
		// itself lengthens the wait it is sitting out.
		if opsOK {
			w.ops.refund(1)
		}
		if bytesOK {
			w.bytes.refund(bytesProbe)
		}
		w.mu.Unlock()
		d := opsWait
		if bytesWait > d {
			d = bytesWait
		}
		waits++
		if err := w.sleep(ctx, d); err != nil {
			return waits, err
		}
	}
}

// ChargeBytes debits n received bytes, possibly into debt.
func (w *Waiter) ChargeBytes(n int) {
	if w == nil || n <= 0 {
		return
	}
	w.mu.Lock()
	w.bytes.Force(w.now(), float64(n))
	w.mu.Unlock()
}

// --- typed throttle refusal ----------------------------------------------------

// ErrThrottled is the sentinel every ThrottledError matches with
// errors.Is, for callers that only care about the class.
var ErrThrottled = rpc.NewCoded(rpc.StatusThrottled, "frontdoor: throttled")

// ThrottledError is an admission refusal carrying how long the caller
// should back off. The resilience middleware treats it as a pacing signal:
// sleep RetryAfter and retry, without counting the refusal against the
// provider's circuit breaker (the provider answered; it is healthy).
type ThrottledError struct{ RetryAfter time.Duration }

func (e *ThrottledError) Error() string {
	return "frontdoor: throttled, retry after " + e.RetryAfter.String()
}

// Is matches ErrThrottled.
func (e *ThrottledError) Is(target error) bool { return target == ErrThrottled }

// WireStatus sends the refusal as rpc.StatusThrottled with the retry-after
// as its argument.
func (e *ThrottledError) WireStatus() (rpc.Status, uint64) {
	return rpc.StatusThrottled, uint64(e.RetryAfter)
}

// RetryAfterFromError extracts the retry-after hint from a throttle
// refusal, local or remote — both carry it in their rpc status. (0, false)
// for anything else, including nil.
func RetryAfterFromError(err error) (time.Duration, bool) {
	st, arg := rpc.StatusOf(err)
	return time.Duration(arg), st == rpc.StatusThrottled
}
