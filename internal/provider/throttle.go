package provider

import "repro/internal/frontdoor"

// SetThrottle arms the provider's front-door admission control: every
// segment read is charged against its tenant's token buckets (ops on
// admission, bytes after the response is sized) and refused with a typed
// retry-after error once a bucket runs dry. Zero limits disarm the front
// door. Safe to call while serving; in-flight reads finish under the
// throttler they were admitted by.
//
// Re-arming an already-armed provider resizes the live throttler in place,
// so tenants keep their accumulated fill and outstanding byte debt across
// a limit change: swapping in a fresh throttler would forgive every debt
// (letting a shrink reward exactly the tenants being reined in) and grant
// each returning tenant a fresh burst allowance.
func (p *Provider) SetThrottle(l frontdoor.Limits) {
	if p.throttle.Load().SetLimits(l) {
		return // resized in place; readers keep the same pointer
	}
	p.throttle.Store(frontdoor.NewThrottler(l))
}
