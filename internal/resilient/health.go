package resilient

import (
	"math"
	"sort"
	"sync"
	"time"
)

// This file is the gray-failure half of the package: the breaker sees a
// provider as up or down, but a provider can be alive, answering, and 20×
// slower than its peers (Huang et al., "Gray Failure", HotOS 2017). Each
// Conn therefore tracks its observed call latencies and error rate and
// folds them — together with the breaker state and the fleet's median
// latency — into a continuous health score in [0,1] that replica
// selection and hedging can rank on, instead of the breaker's binary
// Healthy().

const (
	// latWindow is how many recent latency samples a connection keeps for
	// percentile queries. Small and fixed: percentiles answer "how is this
	// provider doing right now", not "over its lifetime".
	latWindow = 64
	// errAlpha is the EWMA weight of one attempt's failure indicator; at
	// 1/16 a provider needs a sustained error run to look unhealthy and
	// ~16 clean calls to look healthy again.
	errAlpha = 1.0 / 16
	// errHalfLife time-decays the error EWMA between observations: a
	// provider demoted by an error burst stops receiving traffic (ranking
	// routes around it), so without time decay nothing would ever
	// rehabilitate it on a read-only workload.
	errHalfLife = 10 * time.Second
	// grayLatencyFactor and grayLatencyMargin gate the latency penalty:
	// a member is penalized only when its p50 exceeds both
	// grayLatencyFactor times the fleet median and the median plus the
	// absolute margin. Gray failure means an order of magnitude, not
	// scheduler noise — without the gate, microsecond-scale in-proc
	// deployments would demote healthy replicas on jitter.
	grayLatencyFactor = 3
	grayLatencyMargin = 250 * time.Microsecond
)

// health is one connection's latency/error observation state.
type health struct {
	mu       sync.Mutex
	ring     [latWindow]time.Duration
	n        int // filled entries, <= latWindow
	next     int // ring write cursor
	errRate  float64
	errTouch time.Time       // last errRate update, for time decay
	sorted   []time.Duration // cached sort of the ring; nil when dirty
}

// decayLocked folds the time elapsed since the last update into errRate.
func (h *health) decayLocked(now time.Time) {
	if !h.errTouch.IsZero() {
		if dt := now.Sub(h.errTouch); dt > 0 {
			h.errRate *= math.Exp2(-float64(dt) / float64(errHalfLife))
		}
	}
	h.errTouch = now
}

// observe records one attempt at time now. Latency is recorded only for
// completed round trips (ok with d > 0) so timed-out attempts can't drag
// the percentile toward whatever deadline cut them off; the error EWMA
// sees every attempt.
func (h *health) observe(now time.Time, d time.Duration, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.decayLocked(now)
	fail := 0.0
	if !ok {
		fail = 1
	}
	h.errRate = h.errRate*(1-errAlpha) + errAlpha*fail
	if ok && d > 0 {
		h.ring[h.next] = d
		h.next = (h.next + 1) % latWindow
		if h.n < latWindow {
			h.n++
		}
		h.sorted = nil
	}
}

// percentile returns the p-quantile (p in [0,1]) of the recorded latency
// window, or 0 when no samples exist yet.
func (h *health) percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	if h.sorted == nil {
		h.sorted = append(h.sorted[:0], h.ring[:h.n]...)
		sort.Slice(h.sorted, func(i, j int) bool { return h.sorted[i] < h.sorted[j] })
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	idx := int(p * float64(h.n-1))
	return h.sorted[idx]
}

// errorRate returns the EWMA failure rate in [0,1] as of time now,
// applying time decay without mutating state.
func (h *health) errorRate(now time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.errTouch.IsZero() {
		if dt := now.Sub(h.errTouch); dt > 0 {
			return h.errRate * math.Exp2(-float64(dt)/float64(errHalfLife))
		}
	}
	return h.errRate
}

// fleet is the shared view WrapAll gives its connections so each can
// compare its own latency against the deployment's median. The member
// slice is fixed at construction; only the members' internal state
// changes, under their own locks.
type fleet struct {
	conns []*Conn
}

// medianLatency returns the median of the members' p50 latencies,
// counting only members with samples; 0 when none have any.
func (f *fleet) medianLatency() time.Duration {
	if f == nil {
		return 0
	}
	meds := make([]time.Duration, 0, len(f.conns))
	for _, c := range f.conns {
		if m := c.health.percentile(0.50); m > 0 {
			meds = append(meds, m)
		}
	}
	if len(meds) == 0 {
		return 0
	}
	sort.Slice(meds, func(i, j int) bool { return meds[i] < meds[j] })
	return meds[len(meds)/2]
}

// Score folds breaker state, recent error rate, and latency relative to
// the fleet median into one continuous health score in [0,1]:
//
//	1.0  closed breaker, no recent errors, near the fleet median
//	↓    scaled down by the (time-decaying) error EWMA and, once a
//	     member's p50 clears the gray gate (grayLatencyFactor times the
//	     fleet median plus grayLatencyMargin), by median/own-p50 — a 20×
//	     outlier scores ~0.05 of its error-free base
//	0.5× base while half-open (one unproven probe), 0.25× while open past
//	     cooldown (a probe would be admitted), hard 0 while open and shedding
//
// A connection with no samples and a closed breaker scores 1: unknown is
// not unhealthy. Replica selection ranks healthy replicas by this score
// and hedging scales its delay with it.
func (c *Conn) Score() float64 {
	now := c.opts.Clock.Now()
	var base float64
	switch state, admitting := c.breaker.snapshot(now); state {
	case stateClosed:
		base = 1
	case stateHalfOpen:
		base = 0.5
	default: // open
		if !admitting {
			return 0
		}
		base = 0.25
	}
	s := base * (1 - c.health.errorRate(now))
	if own := c.health.percentile(0.50); own > 0 {
		med := c.fleet.medianLatency()
		if med > 0 && own > grayLatencyFactor*med && own-med > grayLatencyMargin {
			s *= float64(med) / float64(own)
		}
	}
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// LatencyPercentile returns the p-quantile of this connection's recent
// completed-call latencies (0 when no samples exist yet). Hedged reads
// derive their hedge delay from the p95.
func (c *Conn) LatencyPercentile(p float64) time.Duration {
	return c.health.percentile(p)
}

// ErrorRate returns the connection's EWMA attempt-failure rate in [0,1],
// time-decayed to the present.
func (c *Conn) ErrorRate() float64 { return c.health.errorRate(c.opts.Clock.Now()) }
