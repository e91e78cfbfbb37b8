package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/rpc"
)

// Replica placement: a model's replica set comes from the client's active
// placement table (internal/placement). The default epoch-0 table places
// exactly like the paper's static scheme — home provider = id mod N plus
// the next R-1 successors — so R=1 interoperates bit-for-bit with
// pre-replication binaries; later epochs use rendezvous hashing over the
// surviving member list. Every client and provider of a deployment must
// agree on R and converge on the same epoch (see placement.go).
//
// Writes (StoreModel, IncRef, DecRef, Retire) fan out to every replica in
// parallel, all carrying the same ReqID: each replica's dedup table
// independently absorbs retries, so a retried fan-out leg can never
// double-apply a refcount change. A write succeeds only when every replica
// accepted it, which keeps replicas bit-identical and makes any single
// replica authoritative for reads. Mid-migration the fan-out covers the
// union of both epochs' sets, and a leg rejected by a replica still
// catching up on the model counts as deferred, not failed — its delta is
// journaled on the members that hold the model and replayed by the
// rebalancer.
//
// Reads (GetMeta, ReadSegments) try one replica at a time, preferring the
// new epoch's set and falling back to previous-epoch owners mid-migration,
// failing over to the next on a transient error. Replica order is
// breaker-aware: replicas whose resilient.Conn breaker is open are tried
// last, so a partitioned provider is skipped without waiting out its
// cooldown. Remote (application) errors are authoritative and never fail
// over — with all-replica writes, "not found" on one replica means "not
// found" everywhere — with two exceptions handled in readCall: a
// wrong-epoch rejection updates the client's table and re-resolves, and a
// catching-up replica's "not migrated" miss fails over to an owner that
// has the model.

// Option configures a Client beyond its connection list.
type Option func(*Client)

// WithReplicas sets the N-way replication factor R (default 1: the paper's
// single-homed placement). R is clamped to the deployment size. All clients
// and tools of one deployment must use the same R.
func WithReplicas(r int) Option {
	return func(c *Client) {
		if r > 1 {
			c.replicas = r
		}
	}
}

// WithPlacement pins the client's initial placement table instead of the
// epoch-0 table over all connections — for deployments whose member list
// is sparse (spare providers awaiting a join) or already past epoch 0.
// Overrides WithReplicas. Member indices must address connections.
func WithPlacement(t *placement.Table) Option {
	return func(c *Client) { c.explicit = t }
}

// WithRegistry routes the client's replication counters (read failovers,
// breaker-skipped replicas) to reg instead of metrics.Default.
func WithRegistry(reg *metrics.Registry) Option {
	return func(c *Client) { c.reg = reg }
}

// healthReporter mirrors resilient.HealthReporter without importing the
// package: any conn exposing Healthy() participates in breaker-aware
// replica ordering; conns without it are assumed healthy.
type healthReporter interface {
	Healthy() bool
}

// Replicas returns the active replication factor (the table's, clamped to
// its member count).
func (c *Client) Replicas() int { return c.place.Load().Cur.R() }

// ReplicaSet returns the provider indices holding id's metadata and
// segments under the current epoch, preferred (home) first.
func (c *Client) ReplicaSet(id ownermap.ModelID) []int {
	return c.place.Load().ReplicaSet(id)
}

// readOrder is the placement read order (current epoch's set first, then
// previous-epoch owners mid-migration) reordered so replicas behind an
// open breaker sort last, and — when the connections report continuous
// health scores (resilient.ScoreReporter) — the healthy class ranked by
// score, best first. Scores are snapshotted once before sorting, so a
// breaker flapping mid-rank cannot feed the sort an inconsistent
// comparator. The sort is stable and equal-scoring replicas keep
// placement order, so a fleet with no latency skew still prefers the home
// provider. The partition is likewise stable: when every replica is
// behind an open breaker, the unhealthy tail preserves placement order,
// so the home provider is still dialed first and a full outage degrades
// to the same preference order as a healthy cluster rather than an
// arbitrary one (pinned by TestReadOrderAllBreakersOpen).
func (c *Client) readOrder(id ownermap.ModelID) []int {
	set := c.place.Load().ReadOrder(id)
	if len(set) == 1 {
		return set
	}
	ordered := make([]int, 0, len(set))
	var skipped []int
	for _, pi := range set {
		if h, ok := c.conns[pi].(healthReporter); ok && !h.Healthy() {
			skipped = append(skipped, pi)
			continue
		}
		ordered = append(ordered, pi)
	}
	if len(skipped) > 0 {
		c.breakerSkips.Add(uint64(len(skipped)))
	}
	if len(ordered) > 1 {
		type scored struct {
			pi    int
			score float64
		}
		ranked := make([]scored, len(ordered))
		any := false
		for i, pi := range ordered {
			ranked[i] = scored{pi: pi, score: 1}
			if s, ok := c.conns[pi].(scoreReporter); ok {
				ranked[i].score = s.Score()
				any = true
			}
		}
		if any {
			preferred := ordered[0]
			sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })
			for i := range ranked {
				ordered[i] = ranked[i].pi
			}
			if ordered[0] != preferred {
				// The placement-preferred replica was outranked: the read
				// routes around a degraded-but-breaker-closed provider.
				c.scoreDemotes.Inc()
			}
		}
	}
	return append(ordered, skipped...)
}

// readCall performs a read with replica failover: replicas are tried in
// score-ranked, breaker-aware preference order; transient failures move
// on to the next replica, remote errors and caller cancellation return
// immediately (see readPass; WithHedgedReads lets a pass race a budgeted
// hedge against a slow primary instead of strictly serializing).
// Two placement-shaped rejections bend those rules: a catching-up
// replica's "not migrated" miss fails over (a previous-epoch owner has
// the model), and a wrong-epoch rejection refreshes the client's table
// and — if that changed where the model lives — re-resolves the whole
// read, so a stale client self-updates instead of failing.
func (c *Client) readCall(ctx context.Context, name string, id ownermap.ModelID, req rpc.Message) (rpc.Message, error) {
	for attempt := 0; ; attempt++ {
		st := c.place.Load()
		order := c.readOrder(id)
		o := c.readPass(ctx, name, order, req)
		if o.err == nil {
			if o.stale {
				// A replica rejected us as stale even though another
				// answered: re-sync now so the next call resolves right
				// the first time.
				c.refreshPlacement(ctx)
			}
			return o.resp, nil
		}
		if o.final {
			return rpc.Message{}, o.err
		}
		if o.stale && attempt < placementRetries {
			if c.refreshPlacement(ctx) || c.place.Load() != st {
				continue
			}
		}
		// A pass where some replica was shed (rpc.ErrUnavailable) may have
		// lost a race with breaker recovery: a half-open breaker admits a
		// single probe, so a concurrent read failing over to the same
		// recovering replica is shed even though the provider is answering
		// its probe right now. The replica set is not dead — pause long
		// enough for the probe to settle and run the pass again, bounded so
		// a genuine full outage still fails fast.
		if attempt < shedRetries && errors.Is(o.err, rpc.ErrUnavailable) {
			c.shedRetries.Inc()
			t := time.NewTimer(shedRetryPause)
			select {
			case <-ctx.Done():
				t.Stop()
				return rpc.Message{}, ctx.Err()
			case <-t.C:
			}
			continue
		}
		return rpc.Message{}, o.err
	}
}

// shedRetries bounds how many times one read re-runs its replica pass
// after losing a breaker-probe race; shedRetryPause gives the in-flight
// probe time to settle (and an open breaker time to pass more of its
// cooldown) between passes.
const (
	shedRetries    = 3
	shedRetryPause = time.Millisecond
)

// readOutcome is the result of one pass over a replica order.
type readOutcome struct {
	resp rpc.Message
	err  error
	// final marks an authoritative failure (remote answer or caller
	// cancellation): readCall must not re-resolve placement and retry.
	final bool
	// stale records a wrong-epoch rejection seen during the pass, even a
	// successful one.
	stale bool
}

// readLeg is one replica's answer within a pass.
type readLeg struct {
	idx, pi int  // position in the order, provider index
	hedge   bool // launched by the hedge timer rather than as primary or failover
	resp    rpc.Message
	err     error
}

// readPass makes one pass over a replica order. Without hedging the legs
// run one at a time on the calling goroutine; with it (WithHedgedReads,
// more than one replica) they come from a hedgeRace, where a timer may put
// a second leg in flight beside a slow one (hedge.go). Either way every
// leg's outcome is judged here and only here: a success ends the pass, a
// wrong-epoch rejection is remembered for readCall, a catching-up replica's
// miss or a transient failure moves on to the next replica, and anything
// else is an authoritative answer that ends the read.
func (c *Client) readPass(ctx context.Context, name string, order []int, req rpc.Message) readOutcome {
	var race *hedgeRace // nil: sequential
	if c.hedge != nil && len(order) > 1 {
		race = c.startRace(ctx, name, order, req)
		defer race.stop()
	}
	var failed []error
	stale := false
	for i := 0; race != nil || i < len(order); i++ {
		var leg readLeg
		if race == nil {
			leg = readLeg{idx: i, pi: order[i]}
			leg.resp, leg.err = c.conns[leg.pi].Call(ctx, name, req)
		} else {
			var ok bool
			if leg, ok = race.next(); !ok {
				break
			}
		}
		if leg.err == nil {
			if leg.hedge {
				c.hedgeWon.Inc()
			} else if leg.idx > 0 {
				c.failovers.Inc()
			}
			return readOutcome{resp: leg.resp, stale: stale}
		}
		if errors.Is(leg.err, placement.ErrWrongEpoch) {
			stale = true
		} else if !errors.Is(leg.err, placement.ErrNotMigrated) && !rpc.IsTransient(leg.err) {
			// Authoritative handler answer, or the caller gave up:
			// replicas are write-synchronized, so no other replica
			// would say better.
			return readOutcome{err: fmt.Errorf("provider %d: %w", leg.pi, leg.err), final: true, stale: stale}
		}
		failed = append(failed, fmt.Errorf("replica on provider %d: %w", leg.pi, leg.err))
	}
	return readOutcome{err: errors.Join(failed...), stale: stale}
}

// PartialMutateError reports a replicated mutation that some replicas
// accepted and others rejected. The write is durable on Succeeded but the
// replica set has diverged; the caller decides whether that is fatal
// (strict mode: undo and fail) or repairable (partial-writes mode: queue
// the model for anti-entropy repair and carry on). Succeeded/Failed hold
// provider indices; Errs is parallel to Failed.
type PartialMutateError struct {
	Op        string
	Model     ownermap.ModelID
	Succeeded []int
	Failed    []int
	Errs      []error
}

// Error names the op, the model, and each failed replica with its cause.
func (e *PartialMutateError) Error() string {
	msg := fmt.Sprintf("client: %s %d: accepted on provider(s) %v but failed on", e.Op, e.Model, e.Succeeded)
	for i, pi := range e.Failed {
		msg += fmt.Sprintf(" %d(%v)", pi, e.Errs[i])
	}
	return msg
}

// Unwrap exposes the per-leg causes to errors.Is / errors.As.
func (e *PartialMutateError) Unwrap() []error { return e.Errs }

// Transient reports whether every failed leg was transient (outage-shaped:
// timeouts, dead transports, open breakers). Only then is the divergence
// the kind the repairer converges; a remote application error on one leg
// while a sibling accepted means the replicas disagreed about state, which
// repair must not paper over.
func (e *PartialMutateError) Transient() bool {
	for _, err := range e.Errs {
		if !rpc.IsTransient(err) {
			return false
		}
	}
	return true
}

// mutateCall fans a mutating request out to every replica of id —
// mid-migration, to the union of both epochs' replica sets — retrying the
// whole fan-out after a wrong-epoch rejection taught the client a newer
// table that changes where the model lives. The request bytes (including
// the ReqID) are shared, so each replica deduplicates retries
// independently and a re-fanned leg can never double-apply.
func (c *Client) mutateCall(ctx context.Context, name string, id ownermap.ModelID, req rpc.Message) (rpc.Message, error) {
	for attempt := 0; ; attempt++ {
		st := c.place.Load()
		resp, err := c.mutateOnce(ctx, name, id, st, req)
		if err == nil {
			return resp, nil
		}
		if !errors.Is(err, placement.ErrWrongEpoch) || attempt >= placementRetries {
			return resp, err
		}
		if !c.refreshPlacement(ctx) && c.place.Load() == st {
			// Nothing newer to learn: the rejection stands.
			return resp, err
		}
	}
}

// mutateOnce runs one fan-out over st's write set. All replicas must
// accept for a nil error, with one placement-shaped exception: legs
// rejected by replicas still catching up on this model's migration count
// as deferred, and if every failed leg was deferred while at least one
// replica accepted, the mutation succeeds — the delta is journaled on the
// accepting members and the rebalancer's converge pass replays it onto
// the stragglers (the model is also queued for in-process repair). A mix
// of real outcomes returns the first successful response alongside a
// *PartialMutateError naming both camps (legs are deterministic, so all
// successful responses agree); deferred legs inside such a mix are marked
// transient so partial-writes acceptance still applies during a combined
// outage and migration. A total failure returns every leg's error joined
// and annotated with its provider.
func (c *Client) mutateOnce(ctx context.Context, name string, id ownermap.ModelID, st *placement.State, req rpc.Message) (rpc.Message, error) {
	set := st.WriteSet(id)
	if len(set) == 1 {
		return c.conns[set[0]].Call(ctx, name, req)
	}
	resps := make([]rpc.Message, len(set))
	errs := make([]error, len(set))
	var wg sync.WaitGroup
	for i, pi := range set {
		wg.Add(1)
		go func(i, pi int) {
			defer wg.Done()
			resps[i], errs[i] = c.conns[pi].Call(ctx, name, req)
		}(i, pi)
	}
	wg.Wait()
	firstOK := -1
	var succeeded, failedAt []int
	var failed []error
	deferredOnly := true
	for i, err := range errs {
		if err != nil {
			leg := fmt.Errorf("replica on provider %d: %w", set[i], err)
			if errors.Is(err, placement.ErrNotMigrated) {
				leg = rpc.MarkTransient(leg)
			} else {
				deferredOnly = false
			}
			failedAt = append(failedAt, set[i])
			failed = append(failed, leg)
			continue
		}
		if firstOK < 0 {
			firstOK = i
		}
		succeeded = append(succeeded, set[i])
	}
	if len(failed) == 0 {
		return resps[0], nil
	}
	if firstOK >= 0 && deferredOnly {
		c.deferred.Inc()
		c.queueRepair(name, id)
		return resps[firstOK], nil
	}
	if firstOK < 0 {
		return rpc.Message{}, errors.Join(failed...)
	}
	return resps[firstOK], &PartialMutateError{
		Op: name, Model: id, Succeeded: succeeded, Failed: failedAt, Errs: failed,
	}
}
