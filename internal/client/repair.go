package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// Anti-entropy repair: the client-side half of the repair protocol in
// internal/proto/repair.go. With partial writes enabled (WithPartialWrites)
// a replicated mutation no longer requires every replica: if at least one
// replica accepts and every failed leg looks like an outage (transient),
// the write is reported as succeeded and the model is queued for repair.
// The Repairer — run periodically in-process (Run), woken the moment a
// provider's circuit breaker re-closes, or driven by hand via
// evostore-ctl repair — walks replica sets, compares per-model digests,
// and converges stragglers from their up-to-date siblings:
//
//  1. Pull every replica's repair state (digest, metadata, refcounts,
//     refcount-delta journal) — no payloads yet.
//  2. If all digests agree, done. Otherwise merge: take the union of the
//     replicas' journals by ReqID and push each replica the deltas it has
//     not seen, plus the retire tombstone and catalog metadata it lacks.
//     ReqIDs make the union well-defined: all fan-out legs of one logical
//     write share one ID, and provider journals absorb re-deliveries.
//  3. Replicas answer with the vertices whose payloads they now need;
//     those are pulled from a sibling that has them and applied.
//  4. Verify by digest. If any journal was trimmed (merge would be
//     unsound) or the merge did not converge, fall back to an absolute
//     push of an authority replica's full state.
//
// The convergence guarantee — every refcount delta that any replica
// accepted survives repair — holds as long as journals are not trimmed;
// trimming switches that model to the absolute fallback, which restores
// replica agreement but adopts the authority's view.

// WithPartialWrites lets replicated mutations succeed on a subset of
// replicas when the failed legs are transient (outage-shaped), queueing
// the model for anti-entropy repair instead of undoing the write. Off by
// default: the strict all-replicas contract stays unless a deployment
// opts into running a Repairer.
func WithPartialWrites() Option {
	return func(c *Client) { c.partialWrites = true }
}

// RepairTarget is one model queued for repair after a partial write.
type RepairTarget struct {
	Model ownermap.ModelID
	Op    string // the RPC whose fan-out was partial
}

// repairQueueCap bounds the partial-write queue. The queue is an
// accelerator, not the source of truth — RepairAll sweeps every model
// regardless — so dropping under pressure is safe.
const repairQueueCap = 1024

// acceptPartial reports whether err is a partial-write failure the
// repairer is guaranteed to converge: partial writes are enabled, at
// least one replica accepted, and every failed leg was transient. If so
// the model is queued for repair and the mutation counts as accepted.
func (c *Client) acceptPartial(op string, id ownermap.ModelID, err error) bool {
	if !c.partialWrites {
		return false
	}
	var pme *PartialMutateError
	if !errors.As(err, &pme) || !pme.Transient() {
		return false
	}
	c.partialAcc.Inc()
	c.queueRepair(op, id)
	return true
}

// queueRepair enqueues a model for the next repair pass (deduplicated;
// dropped under pressure — the queue accelerates RepairAll, it is not the
// source of truth).
func (c *Client) queueRepair(op string, id ownermap.ModelID) {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	if c.repairSeen[id] {
		return
	}
	if len(c.repairQ) >= repairQueueCap {
		c.repairDrops.Inc()
		return
	}
	c.repairSeen[id] = true
	c.repairQ = append(c.repairQ, RepairTarget{Model: id, Op: op})
}

// DrainRepairTargets returns and clears the models queued by accepted
// partial writes, oldest first.
func (c *Client) DrainRepairTargets() []RepairTarget {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	q := c.repairQ
	c.repairQ = nil
	c.repairSeen = make(map[ownermap.ModelID]bool)
	return q
}

// ErrReplicaUnhealthy marks a model whose repair was skipped because a
// replica sits behind an open breaker: repairing around a provider that
// is still down would do nothing but burn its cooldown probes. The
// repairer retries once the breaker re-closes (see Run).
var ErrReplicaUnhealthy = errors.New("replica behind an open breaker")

// stateNotifier mirrors resilient.Conn's SetStateListener without
// importing the package; connections lacking it simply cannot wake the
// repairer early.
type stateNotifier interface {
	SetStateListener(func(addr, state string))
}

// Repairer drives anti-entropy convergence over a client's deployment.
// Safe for concurrent use; repairs are convergent, so overlapping passes
// (a ticker sweep racing a manual evostore-ctl run) are harmless.
type Repairer struct {
	c *Client

	checked   *metrics.Counter // models whose replica digests were compared
	divergent *metrics.Counter // models found diverged
	repaired  *metrics.Counter // models converged by a repair pass
	skipped   *metrics.Counter // models skipped on an unhealthy replica
	absolute  *metrics.Counter // repairs that used the absolute fallback
	failures  *metrics.Counter // repair passes that errored
	moved     *metrics.Counter // payload bytes shipped between replicas by repair
}

// NewRepairer returns a Repairer over c's providers and metrics registry.
func NewRepairer(c *Client) *Repairer {
	return &Repairer{
		c:         c,
		checked:   c.reg.Counter("client.repair_checked"),
		divergent: c.reg.Counter("client.repair_diverged"),
		repaired:  c.reg.Counter("client.repair_converged"),
		skipped:   c.reg.Counter("client.repair_skip_unhealthy"),
		absolute:  c.reg.Counter("client.repair_absolute"),
		failures:  c.reg.Counter("client.repair_error"),
		moved:     c.reg.Counter("client.repair_payload_bytes"),
	}
}

// RepairStats summarizes one RepairAll sweep.
type RepairStats struct {
	Checked  int // replicated models examined
	Repaired int // models that needed and received repair
	Skipped  int // models skipped because a replica was unhealthy
}

// replicasHealthy reports whether every replica's connection would admit
// a call right now.
func (r *Repairer) replicasHealthy(set []int) bool {
	for _, pi := range set {
		if h, ok := r.c.conns[pi].(healthReporter); ok && !h.Healthy() {
			return false
		}
	}
	return true
}

// allConverged reports whether every digest agrees with the first.
// Converged is transitive over a fixed model, so pairwise against one
// pivot suffices.
func allConverged(ds []proto.ModelDigest) bool {
	for _, d := range ds[1:] {
		if !ds[0].Converged(d) {
			return false
		}
	}
	return true
}

// ModelDigests fetches id's digest from every replica, for introspection
// (evostore-ctl digest) and convergence assertions in tests and benches.
// The returned provider indices parallel the digests.
func (r *Repairer) ModelDigests(ctx context.Context, id ownermap.ModelID) ([]int, []proto.ModelDigest, error) {
	set := r.c.ReplicaSet(id)
	req := rpc.Message{Meta: proto.EncodeModelList([]ownermap.ModelID{id})}
	ds := make([]proto.ModelDigest, len(set))
	for i, pi := range set {
		resp, err := r.c.conns[pi].Call(ctx, proto.RPCDigest, req)
		if err != nil {
			return nil, nil, fmt.Errorf("client: digest %d on provider %d: %w", id, pi, err)
		}
		got, err := proto.DecodeDigests(resp.Meta)
		if err == nil && len(got) != 1 {
			err = fmt.Errorf("%d digests for 1 model", len(got))
		}
		if err != nil {
			return nil, nil, fmt.Errorf("client: digest %d on provider %d: %w", id, pi, err)
		}
		ds[i] = got[0]
	}
	return set, ds, nil
}

// RepairModel converges one model's replica set. It reports whether a
// repair was applied (false: already converged or unreplicated). Returns
// ErrReplicaUnhealthy without touching anything when a replica is behind
// an open breaker.
func (r *Repairer) RepairModel(ctx context.Context, id ownermap.ModelID) (bool, error) {
	return r.repairSet(ctx, id, r.c.ReplicaSet(id))
}

// repairSet is RepairModel over an explicit provider set — the rebalancer
// converges a migrating model across the union of both epochs' replica
// sets with the same machinery RepairModel applies to the current set.
func (r *Repairer) repairSet(ctx context.Context, id ownermap.ModelID, set []int) (bool, error) {
	if len(set) == 1 {
		return false, nil
	}
	if !r.replicasHealthy(set) {
		r.skipped.Inc()
		return false, fmt.Errorf("client: repair %d: %w", id, ErrReplicaUnhealthy)
	}
	r.checked.Inc()

	// Pull every replica's state, payloads excluded.
	pulls := make([]*proto.RepairPullResp, len(set))
	digests := make([]proto.ModelDigest, len(set))
	pullReq := rpc.Message{Meta: (&proto.RepairPullReq{Model: id}).Encode()}
	for i, pi := range set {
		resp, err := r.c.conns[pi].Call(ctx, proto.RPCRepairPull, pullReq)
		if err == nil {
			pulls[i], err = proto.DecodeRepairPullResp(resp.Meta)
		}
		if err != nil {
			r.failures.Inc()
			return false, fmt.Errorf("client: repair %d: pull from provider %d: %w", id, pi, err)
		}
		digests[i] = pulls[i].Digest
	}
	if allConverged(digests) {
		return false, nil
	}
	r.divergent.Inc()

	// A retire anywhere wins everywhere: Retire removes the catalog entry
	// before its DecRefs run, so a tombstone always postdates the store it
	// kills.
	anyRetired, trimmed := false, false
	var tombSeq uint64
	for _, d := range digests {
		if d.Retired {
			anyRetired = true
			if !d.Present && d.Seq > tombSeq {
				tombSeq = d.Seq
			}
		}
		if d.Trimmed {
			trimmed = true
		}
	}
	// Catalog authority: the replica holding the newest metadata. Moot
	// once retired — installing metadata a tombstone will reject is wasted
	// bytes.
	metaIdx := -1
	if !anyRetired {
		for i, d := range digests {
			if d.Present && (metaIdx < 0 || d.Seq > digests[metaIdx].Seq) {
				metaIdx = i
			}
		}
	}

	post := make([]proto.ModelDigest, len(set))
	runPass := func(build func(i int) *proto.RepairApplyReq) error {
		for i := range set {
			resp, err := r.apply(ctx, set[i], build(i), nil)
			if err == nil && len(resp.NeedPayload) > 0 {
				resp, err = r.fillPayloads(ctx, id, set, i, resp)
			}
			if err != nil {
				r.failures.Inc()
				return fmt.Errorf("client: repair %d: %w", id, err)
			}
			post[i] = resp.Digest
		}
		return nil
	}

	if !trimmed {
		// Merge: push each replica the union deltas its journal has not
		// seen. Union order is replica-then-append order; order does not
		// matter for the net effect (deltas commute up to the clamp).
		var union []proto.RefDelta
		inUnion := make(map[uint64]bool)
		for _, p := range pulls {
			for _, d := range p.Journal {
				if !inUnion[d.ReqID] {
					inUnion[d.ReqID] = true
					union = append(union, d)
				}
			}
		}
		if err := runPass(func(i int) *proto.RepairApplyReq {
			seen := make(map[uint64]bool, len(pulls[i].Journal))
			for _, d := range pulls[i].Journal {
				seen[d.ReqID] = true
			}
			var missing []proto.RefDelta
			for _, d := range union {
				if !seen[d.ReqID] {
					missing = append(missing, d)
				}
			}
			req := &proto.RepairApplyReq{Model: id, Tombstone: anyRetired, TombstoneSeq: tombSeq, Deltas: missing}
			if metaIdx >= 0 && !digests[i].Present {
				req.Meta = pulls[metaIdx].Meta
			}
			return req
		}); err != nil {
			return false, err
		}
		if allConverged(post) {
			r.repaired.Inc()
			return true, nil
		}
	}

	// Absolute fallback: adopt one authority replica's full state. Used
	// when a trimmed journal makes the merge unsound, or when a merge
	// pass failed to converge (which the journal invariants should make
	// impossible — the fallback keeps the guarantee unconditional).
	r.absolute.Inc()
	auth := authorityIndex(digests)
	ap := pulls[auth]
	if err := runPass(func(i int) *proto.RepairApplyReq {
		req := &proto.RepairApplyReq{
			Model: id, Tombstone: anyRetired, TombstoneSeq: tombSeq,
			ReplaceJournal:  true,
			JournalAppended: ap.Digest.Journal,
			Deltas:          ap.Journal,
			SetCounts:       ap.Counts,
		}
		if metaIdx >= 0 {
			req.Meta = pulls[metaIdx].Meta
		}
		return req
	}); err != nil {
		return false, err
	}
	if !allConverged(post) {
		r.failures.Inc()
		return true, fmt.Errorf("client: repair %d: replicas still diverged after absolute push", id)
	}
	r.repaired.Inc()
	return true, nil
}

// authorityIndex picks the replica whose state an absolute push adopts:
// the cataloged replica with the highest sequence number, else the
// replica whose journal has seen the most deltas; ties go to the lowest
// index.
func authorityIndex(ds []proto.ModelDigest) int {
	best := 0
	for i := 1; i < len(ds); i++ {
		b, d := ds[best], ds[i]
		switch {
		case d.Present != b.Present:
			if d.Present {
				best = i
			}
		case d.Present:
			if d.Seq > b.Seq {
				best = i
			}
		default:
			if d.Journal > b.Journal {
				best = i
			}
		}
	}
	return best
}

// apply pushes one RepairApply request at provider pi.
func (r *Repairer) apply(ctx context.Context, pi int, req *proto.RepairApplyReq, payloads [][]byte) (*proto.RepairApplyResp, error) {
	resp, err := r.c.conns[pi].Call(ctx, proto.RPCRepairApply, rpc.Message{Meta: req.Encode(), BulkVec: payloads})
	if err != nil {
		return nil, fmt.Errorf("apply on provider %d: %w", pi, err)
	}
	return proto.DecodeRepairApplyResp(resp.Meta)
}

// fillPayloads resolves a replica's NeedPayload list: pull the missing
// segments from a sibling that has them, apply, repeat until nothing is
// missing or no sibling can supply it. A payload no replica holds is not
// an error here — every replica then folds the same "missing" marker into
// its digest, and the convergence check has the final word.
func (r *Repairer) fillPayloads(ctx context.Context, id ownermap.ModelID, set []int, i int, last *proto.RepairApplyResp) (*proto.RepairApplyResp, error) {
	need := last.NeedPayload
	for j, pj := range set {
		if j == i || len(need) == 0 {
			continue
		}
		req := &proto.RepairPullReq{Model: id, WithPayloads: true, Vertices: need}
		msg, err := r.c.conns[pj].Call(ctx, proto.RPCRepairPull, rpc.Message{Meta: req.Encode()})
		if err != nil {
			return nil, fmt.Errorf("payload pull from provider %d: %w", pj, err)
		}
		pull, err := proto.DecodeRepairPullResp(msg.Meta)
		if err != nil {
			return nil, fmt.Errorf("payload pull from provider %d: %w", pj, err)
		}
		if len(pull.Segments) == 0 {
			continue // sibling has none of them either
		}
		payloads, err := proto.SplitBulkMsg(pull.Segments, msg)
		if err != nil {
			return nil, fmt.Errorf("payload pull from provider %d: %w", pj, err)
		}
		var moved uint64
		for _, p := range payloads {
			moved += uint64(len(p))
		}
		r.moved.Add(moved)
		resp, err := r.apply(ctx, set[i], &proto.RepairApplyReq{Model: id, Segments: pull.Segments}, payloads)
		if err != nil {
			return nil, err
		}
		last, need = resp, resp.NeedPayload
	}
	return last, nil
}

// listAll unions every provider's RepairModels listing. Providers that
// cannot answer are tolerated (their models still appear via replicas);
// only a total failure errors.
func (r *Repairer) listAll(ctx context.Context) ([]ownermap.ModelID, error) {
	results := rpc.Broadcast(ctx, r.c.conns, proto.RPCRepairList, rpc.Message{})
	seen := make(map[ownermap.ModelID]bool)
	var all []ownermap.ModelID
	var errs []error
	ok := 0
	for i, res := range results {
		ids, err := []ownermap.ModelID(nil), res.Err
		if err == nil {
			ids, err = proto.DecodeModelList(res.Resp.Meta)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("repair list on provider %d: %w", i, err))
			continue
		}
		ok++
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				all = append(all, id)
			}
		}
	}
	if ok == 0 && len(errs) > 0 {
		return nil, fmt.Errorf("client: repair list: %w", errors.Join(errs...))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all, nil
}

// sweep is the shared body of RepairAll and Check: list every model,
// pre-filter with one batched digest call per provider, then repair (or
// just report) the diverged ones.
func (r *Repairer) sweep(ctx context.Context, repair bool) (RepairStats, []ownermap.ModelID, error) {
	var st RepairStats
	ids, err := r.listAll(ctx)
	if err != nil {
		return st, nil, err
	}

	// One digest batch per provider covering every model it replicates.
	// A provider that cannot answer leaves its models "unknown", which
	// routes them through the full per-model path below.
	perProv := make(map[int][]ownermap.ModelID)
	for _, id := range ids {
		for _, pi := range r.c.ReplicaSet(id) {
			perProv[pi] = append(perProv[pi], id)
		}
	}
	type replicaModel struct {
		pi int
		id ownermap.ModelID
	}
	known := make(map[replicaModel]proto.ModelDigest)
	for pi, list := range perProv {
		resp, err := r.c.conns[pi].Call(ctx, proto.RPCDigest, rpc.Message{Meta: proto.EncodeModelList(list)})
		if err != nil {
			continue
		}
		ds, err := proto.DecodeDigests(resp.Meta)
		if err != nil || len(ds) != len(list) {
			continue
		}
		for i, id := range list {
			known[replicaModel{pi, id}] = ds[i]
		}
	}

	var diverged []ownermap.ModelID
	var errs []error
	for _, id := range ids {
		set := r.c.ReplicaSet(id)
		if len(set) == 1 {
			continue
		}
		if !r.replicasHealthy(set) {
			st.Skipped++
			continue
		}
		st.Checked++
		ds := make([]proto.ModelDigest, 0, len(set))
		for _, pi := range set {
			d, ok := known[replicaModel{pi, id}]
			if !ok {
				break
			}
			ds = append(ds, d)
		}
		if len(ds) == len(set) && allConverged(ds) {
			continue
		}
		diverged = append(diverged, id)
		if !repair {
			continue
		}
		did, err := r.RepairModel(ctx, id)
		switch {
		case errors.Is(err, ErrReplicaUnhealthy):
			st.Checked--
			st.Skipped++
		case err != nil:
			errs = append(errs, err)
		case did:
			st.Repaired++
		}
	}
	if len(errs) > 0 {
		return st, diverged, errors.Join(errs...)
	}
	return st, diverged, nil
}

// RepairAll sweeps the whole deployment once: models queued by partial
// writes are covered by the sweep, so the queue is drained up front.
// Models with an unhealthy replica are counted as skipped, not failed.
func (r *Repairer) RepairAll(ctx context.Context) (RepairStats, error) {
	r.c.DrainRepairTargets()
	st, _, err := r.sweep(ctx, true)
	return st, err
}

// Check reports the models whose replica sets have diverged, without
// repairing anything.
func (r *Repairer) Check(ctx context.Context) ([]ownermap.ModelID, error) {
	_, diverged, err := r.sweep(ctx, false)
	return diverged, err
}

// Run sweeps every interval until ctx is cancelled. Connections exposing
// SetStateListener (resilient.Conn) additionally wake the loop the moment
// a breaker re-closes — exactly when a provider has come back from the
// outage that made its writes partial. Sweep errors are recorded in the
// client.repair_error counter and retried on the next pass.
func (r *Repairer) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	wake := make(chan struct{}, 1)
	for _, conn := range r.c.conns {
		if sn, ok := conn.(stateNotifier); ok {
			sn.SetStateListener(func(_, state string) {
				if state != "closed" {
					return
				}
				select {
				case wake <- struct{}{}:
				default:
				}
			})
		}
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		case <-wake:
		}
		r.RepairAll(ctx) //nolint:errcheck // counted in client.repair_error; retried next pass
	}
}
