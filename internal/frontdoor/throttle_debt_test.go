package frontdoor

import (
	"testing"
	"time"
)

// TestBucketSubWindowDebtFloorsHint pins the busy-loop guard: a debt so
// small it refills in under a millisecond must still hint a non-zero
// retry-after (floored at 1ms). A zero hint would make pacing callers
// retry in a hot loop — the hint exists to prevent exactly that.
func TestBucketSubWindowDebtFloorsHint(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBucket(1e6, time.Second) // 1M tokens/s: 1 token refills in 1µs
	b.Force(now, b.fill+1)           // 1 token of debt
	d, ok := b.Take(now, 1)
	if ok {
		t.Fatal("bucket in debt admitted a take")
	}
	if d < time.Millisecond {
		t.Fatalf("sub-window debt hinted %v, want >= 1ms floor", d)
	}
	// The floored hint survives the text wire as a positive duration.
	if ra, ok := RetryAfterFromError(&ThrottledError{RetryAfter: d}); !ok || ra < time.Millisecond {
		t.Fatalf("hint %v degraded across the error: %v %v", d, ra, ok)
	}
}

// TestBucketForceDebtClamped pins the debt bound: charging far more than
// one window's budget leaves at most one window of debt (-cap), so the
// tenant's penalty is bounded at ~two windows of silence, not proportional
// to a single anomalous response.
func TestBucketForceDebtClamped(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBucket(100, time.Second) // cap 100
	b.Force(now, 1e9)
	if b.fill != -b.cap {
		t.Fatalf("debt after huge Force = %v, want clamp at -cap (%v)", b.fill, -b.cap)
	}
	d, ok := b.Take(now, 1)
	if ok {
		t.Fatal("deep-debt bucket admitted a take")
	}
	if max := 3 * time.Second; d > max {
		t.Fatalf("retry-after %v exceeds the bounded penalty (%v)", d, max)
	}
}

// TestBucketResizePreservesDebt pins the shrink/grow contract: fill and
// debt carry across a resize, clamped to the new capacity bounds, and the
// nil transitions (disable, fresh-enable) behave.
func TestBucketResizePreservesDebt(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBucket(100, time.Second) // cap 100
	b.Force(now, b.fill+50)          // 50 tokens of debt

	// Shrink: debt survives, clamped to the smaller -cap.
	small := b.Resize(now, 10, time.Second) // cap 10
	if small.fill != -10 {
		t.Errorf("debt across shrink = %v, want clamp at -10", small.fill)
	}
	if _, ok := small.Take(now, 1); ok {
		t.Error("shrunken bucket forgave the debt")
	}

	// Grow: the debt carries exactly.
	big := small.Resize(now, 1000, time.Second)
	if big.fill != -10 {
		t.Errorf("debt across grow = %v, want -10", big.fill)
	}

	// Surplus clamps down to the new, smaller capacity.
	full := NewBucket(100, time.Second)
	full.last = now
	full.advance(now.Add(time.Minute)) // refill to cap 100
	if got := full.Resize(now.Add(time.Minute), 5, time.Second); got.fill != got.cap {
		t.Errorf("surplus across shrink = %v, want clamp at cap %v", got.fill, got.cap)
	}

	// rate <= 0 disables the dimension; a nil bucket resizes to a fresh one.
	if b.Resize(now, 0, time.Second) != nil {
		t.Error("Resize to rate 0 did not disable the bucket")
	}
	var nilB *Bucket
	if fresh := nilB.Resize(now, 10, time.Second); fresh == nil || fresh.fill <= 0 {
		t.Errorf("nil bucket resize = %+v, want fresh bucket", fresh)
	}
}

// TestThrottlerSetLimitsPreservesDebt pins the mid-flight limit change: a
// tenant deep in byte debt stays refused after the bucket shrinks — the
// debt is not forgiven by the swap — and resumes once the (new, slower)
// refill pays it off.
func TestThrottlerSetLimitsPreservesDebt(t *testing.T) {
	th := NewThrottler(Limits{BytesPerSec: 1000, Window: time.Second})
	now := time.Unix(0, 0)
	th.SetClock(func() time.Time { return now })
	if err := th.Admit("a"); err != nil {
		t.Fatalf("fresh tenant refused: %v", err)
	}
	th.ChargeBytes("a", 500) // into debt

	if !th.SetLimits(Limits{BytesPerSec: 100, Window: time.Second}) {
		t.Fatal("SetLimits with live limits returned false")
	}
	err := th.Admit("a")
	if err == nil {
		t.Fatal("shrinking the bucket forgave the tenant's debt")
	}
	ra, ok := RetryAfterFromError(err)
	if !ok || ra <= 0 {
		t.Fatalf("refusal carries no usable hint: %v", err)
	}
	// The clamped debt (≥ -cap = -100) refills at the NEW 100 B/s rate
	// within ~a window, bounded — not the old debt at the old rate.
	if ra > 2*time.Second {
		t.Errorf("retry-after %v not bounded by the new window", ra)
	}
	now = now.Add(ra + 10*time.Millisecond)
	if err := th.Admit("a"); err != nil {
		t.Fatalf("still refused after hinted wait: %v", err)
	}

	// Disabling throttling entirely is the caller's job: SetLimits says no.
	if th.SetLimits(Limits{}) {
		t.Error("SetLimits with zero limits returned true")
	}
	var nilTh *Throttler
	if nilTh.SetLimits(Limits{OpsPerSec: 1}) {
		t.Error("nil throttler SetLimits returned true")
	}
}

// TestAdmitRefusalDoesNotBurnOps pins the refund contract: an Admit
// refused on byte debt must not consume an op token, or retries paced by
// the hint find the ops bucket drained and the refusal cascades across
// dimensions.
func TestAdmitRefusalDoesNotBurnOps(t *testing.T) {
	th := NewThrottler(Limits{OpsPerSec: 1, BytesPerSec: 100, Window: time.Second})
	now := time.Unix(0, 0)
	th.SetClock(func() time.Time { return now })
	if err := th.Admit("a"); err != nil {
		t.Fatalf("fresh tenant refused: %v", err)
	}
	th.ChargeBytes("a", 1000) // clamped to -cap = -100

	// One second later the ops bucket is full again (cap 1) while the
	// bytes bucket has just barely paid off its debt to exactly zero —
	// still refusing the probe. Hammer Admit: every refusal would burn the
	// single op token without the refund.
	now = now.Add(time.Second)
	for i := 0; i < 10; i++ {
		if err := th.Admit("a"); err == nil {
			t.Fatal("tenant admitted while bytes bucket at zero")
		}
	}
	// 2ms later the probe clears. The op token must still be there.
	now = now.Add(2 * time.Millisecond)
	if err := th.Admit("a"); err != nil {
		t.Fatalf("refused after debt cleared — refusals burned the op budget: %v", err)
	}
}
