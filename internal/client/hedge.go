package client

import (
	"context"
	"sync"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/rpc"
)

// Hedged reads (Dean & Barroso, "The Tail at Scale", CACM 2013): instead
// of waiting for a gray-slow primary to finish or time out before failing
// over, a read that has not answered within a hedge delay launches a
// second copy against the next-best replica and takes whichever answers
// first. The hedge delay is derived from the primary's own observed p95
// (resilient.Conn.LatencyPercentile) and shortened when its health score is low,
// so a struggling primary is hedged sooner; a token budget caps the extra
// request volume so hedging can never melt a fleet that is slow because
// it is overloaded. Replica failover semantics are unchanged — a
// transiently failed leg launches the next replica immediately and is not
// charged against the hedge budget.

// scoreReporter is the shape of resilient.Conn.Score, asserted without
// importing the package: any conn exposing Score() participates in
// score-ranked replica ordering and score-scaled hedge delays; conns
// without it count as score 1 (fully healthy).
type scoreReporter interface {
	Score() float64
}

// latencyReporter is the shape of resilient.Conn.LatencyPercentile.
type latencyReporter interface {
	LatencyPercentile(p float64) time.Duration
}

const (
	// defaultHedgeBudget is the hedges-per-second budget when
	// WithHedgedReads is given a non-positive one.
	defaultHedgeBudget = 50
	// hedgeWindow is the budget bucket's refill window: short, so a burst
	// of slowness gets prompt hedges but sustained slowness converges to
	// the steady-state rate.
	hedgeWindow = time.Second
	// hedgeDelayFloor bounds the adaptive delay from below: hedging
	// microseconds after launch would race every healthy read.
	hedgeDelayFloor = 500 * time.Microsecond
	// fallbackHedgeDelay is used before the primary has latency samples.
	fallbackHedgeDelay = 2 * time.Millisecond
	// hedgeQuantile is the observed quantile the adaptive delay starts
	// from: hedge only the slowest ~5% of reads.
	hedgeQuantile = 0.95
)

// hedger holds the hedging configuration and budget for one Client.
type hedger struct {
	delay time.Duration // fixed hedge delay; 0 derives it per call

	mu     sync.Mutex
	bucket *frontdoor.Bucket
}

// WithHedgedReads enables hedged reads. delay is the pause before a read
// is duplicated to the next-best replica; 0 derives it per call from the
// primary's observed p95 latency, scaled down by its health score.
// budgetPerSec caps hedge launches per second fleet-wide on this client
// (<= 0: a conservative default); reads beyond the budget simply stay
// un-hedged.
func WithHedgedReads(delay time.Duration, budgetPerSec float64) Option {
	return func(c *Client) {
		if budgetPerSec <= 0 {
			budgetPerSec = defaultHedgeBudget
		}
		c.hedge = &hedger{
			delay:  delay,
			bucket: frontdoor.NewBucket(budgetPerSec, hedgeWindow),
		}
	}
}

// admit charges one hedge against the budget, reporting whether the
// hedge may launch.
func (h *hedger) admit() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.bucket.Take(time.Now(), 1)
	return ok
}

// delayFor picks the hedge delay before duplicating a read in flight on
// conn to next (the replica the hedge would go to; nil when unknown).
func (h *hedger) delayFor(conn, next rpc.Conn) time.Duration {
	d := h.delay
	if d <= 0 {
		if lr, ok := conn.(latencyReporter); ok {
			d = lr.LatencyPercentile(hedgeQuantile)
		}
		// A gray-slow primary's own p95 is exactly what hedging routes
		// around, so it must not set the wait: clamp to twice what the
		// hedge target typically needs. Against a healthy primary the
		// clamp is inert (2x its sibling's p95 exceeds its own p95), so
		// only the slowest ~5% of healthy reads still hedge.
		if next != nil {
			if lr, ok := next.(latencyReporter); ok {
				if np := lr.LatencyPercentile(hedgeQuantile); np > 0 && (d <= 0 || 2*np < d) {
					d = 2 * np
				}
			}
		}
		if d <= 0 {
			d = fallbackHedgeDelay
		}
	}
	if sr, ok := conn.(scoreReporter); ok {
		// A primary already known to be struggling is hedged sooner: the
		// delay scales from 100% of base at score 1 down to 25% at 0.
		if s := sr.Score(); s < 1 {
			d = time.Duration(float64(d) * (0.25 + 0.75*s))
		}
	}
	if d < hedgeDelayFloor {
		d = hedgeDelayFloor
	}
	return d
}

// hedgeRace feeds readPass the legs of one hedged pass over a replica
// order, in the order they answer. It decides only when the next replica
// is launched: at once when the leg just handed out failed (plain failover,
// free of charge), or when the hedge timer fires while legs are still
// pending and the budget admits (a hedge). What a leg's answer means is
// readPass's business.
type hedgeRace struct {
	c      *Client
	ctx    context.Context // cancelled by stop, abandoning legs still in flight
	cancel context.CancelFunc
	name   string
	req    rpc.Message
	order  []int

	results            chan readLeg // buffered for every leg: an abandoned leg never blocks
	timer              *time.Timer  // the hedge clock, restarted at every launch
	launched, inflight int
}

func (c *Client) startRace(ctx context.Context, name string, order []int, req rpc.Message) *hedgeRace {
	r := &hedgeRace{c: c, name: name, req: req, order: order, results: make(chan readLeg, len(order))}
	r.ctx, r.cancel = context.WithCancel(ctx)
	return r
}

// launch starts the next replica's leg and restarts the hedge clock for it.
func (r *hedgeRace) launch(asHedge bool) {
	leg := readLeg{idx: r.launched, pi: r.order[r.launched], hedge: asHedge}
	r.launched++
	r.inflight++
	conn := r.c.conns[leg.pi]
	go func() {
		leg.resp, leg.err = conn.Call(r.ctx, r.name, r.req)
		r.results <- leg
	}()
	var next rpc.Conn // the replica the next hedge would duplicate to
	if r.launched < len(r.order) {
		next = r.c.conns[r.order[r.launched]]
	}
	r.arm(r.c.hedge.delayFor(conn, next))
}

func (r *hedgeRace) arm(d time.Duration) {
	if r.timer == nil {
		r.timer = time.NewTimer(d)
		return
	}
	if !r.timer.Stop() {
		select {
		case <-r.timer.C:
		default:
		}
	}
	r.timer.Reset(d)
}

// next returns the next leg to answer; ok is false once every replica has
// been launched and has answered. The first call launches the primary.
// Every later call means readPass judged the previous leg a failover-able
// failure, so its replacement launches immediately and is not charged
// against the hedge budget.
func (r *hedgeRace) next() (leg readLeg, ok bool) {
	if r.launched < len(r.order) {
		r.launch(false)
	}
	for r.inflight > 0 {
		var fire <-chan time.Time
		if r.launched < len(r.order) {
			fire = r.timer.C
		}
		select {
		case leg = <-r.results:
			r.inflight--
			return leg, true
		case <-fire:
			if r.c.hedge.admit() {
				r.c.hedgedReads.Inc()
				r.launch(true)
			} else {
				// Budget exhausted: leave the in-flight legs to run, but
				// check back — budget refills within the window.
				r.c.hedgeRefused.Inc()
				r.arm(hedgeWindow / 4)
			}
		}
	}
	return readLeg{}, false
}

// stop ends the race: legs still in flight (a sibling won, or answered
// authoritatively) are cancelled and counted.
func (r *hedgeRace) stop() {
	if r.inflight > 0 {
		r.c.hedgeCancelled.Add(uint64(r.inflight))
	}
	r.cancel()
	r.timer.Stop()
}
