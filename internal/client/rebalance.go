package client

// Rebalancer drives a membership change end to end without failing a
// single request. A change is an epoch bump: given the next table (one
// member added or removed, same replication factor), the migration runs
// in five phases:
//
//  1. Arm. Push the dual view {Cur: next, Prev: old} to every provider
//     and install it locally. From here every client that touches the
//     deployment reads through both epochs (new set first, previous-epoch
//     owners as fallback) and writes through their union, so nothing is
//     lost or unreachable while data moves.
//  2. Migrate. List every model and converge each one whose replica set
//     changed across the union of its old and new sets, reusing the
//     anti-entropy machinery (digest comparison, journal union, payload
//     backfill): new owners receive metadata, refcounts and payloads;
//     tombstones propagate.
//  3. Converge. A second pass over a fresh listing closes the window in
//     which a write landed on an old owner after pass 2 pulled its state:
//     once pass 2 has installed a model on its new owners, later deltas
//     apply there directly, so any stragglers are deltas journaled on old
//     owners mid-pass-2 — which pass 3 replays — and stores routed by the
//     previous table while phase 1 was arming, which landed after pass
//     2's listing. After pass 3 the epochs agree on every listed model.
//  4. Commit. Push the single view {Cur: next} everywhere and install it
//     locally. Old owners now reject writes with the typed wrong-epoch
//     error, which makes stale clients self-update and retry; the ReqID
//     dedup tables absorb the repeats.
//  5. Evict. Re-list (covering models stored during the migration) and
//     drop every model copy from providers that left its replica set.
//     Eviction is safe: a post-commit write can only land on current
//     members, so an evicted copy cannot resurrect.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// Rebalancer migrates a deployment from one placement epoch to the next.
// One migration runs at a time per deployment; the phases are convergent,
// so a failed migration can be re-run with the same target table.
type Rebalancer struct {
	c *Client
	r *Repairer
}

// NewRebalancer returns a Rebalancer over c's providers.
func NewRebalancer(c *Client) *Rebalancer {
	return &Rebalancer{c: c, r: NewRepairer(c)}
}

// SetPayloadBudget bounds the migration's payload bandwidth to bytesPerSec
// (0 removes the bound): phase 2/3 data movement is paced against a token
// bucket so a rebalance cannot saturate the fabric foreground reads run
// on. Placement pushes, listings and digests are not budgeted — only
// payload bytes, which dominate.
func (b *Rebalancer) SetPayloadBudget(bytesPerSec float64) {
	b.r.SetPayloadBudget(bytesPerSec)
}

// RebalanceStats summarizes one completed migration.
type RebalanceStats struct {
	Epoch    uint64        // the epoch migrated to
	Models   int           // models listed at migration start
	Migrated int           // models whose replica set changed and were converged
	Evicted  int           // model copies dropped from departed owners
	Elapsed  time.Duration // wall-clock time for the whole migration
}

func (s *RebalanceStats) String() string {
	return fmt.Sprintf("epoch %d: %d models, %d migrated, %d copies evicted in %v",
		s.Epoch, s.Models, s.Migrated, s.Evicted, s.Elapsed.Round(time.Millisecond))
}

// ErrLostRace is what Rebalance refuses with when another migration moved
// the epoch first: one is already in progress, or next is no longer the
// successor of the live table. The caller re-syncs and re-plans.
var ErrLostRace = errors.New("lost the epoch race")

// Rebalance migrates the deployment to next. next must be the successor
// epoch of the client's current table (build it with Table.WithMember,
// WithoutMember or Next); re-running a migration that previously failed
// partway — the client is still dual on the same target — resumes it.
func (b *Rebalancer) Rebalance(ctx context.Context, next *placement.Table) (*RebalanceStats, error) {
	// One migration at a time per client: a controller cycle racing a
	// manual push serializes here, and the loser fails the successor-epoch
	// check below instead of double-arming the deployment.
	b.c.rebalanceMu.Lock()
	defer b.c.rebalanceMu.Unlock()

	start := time.Now()
	cur := b.c.Placement()
	old := cur.Cur
	switch {
	case next == nil:
		return nil, errors.New("client: rebalance: nil target table")
	case cur.Migrating() && next.Equal(cur.Cur):
		old = cur.Prev // resuming a failed migration to the same target
	case cur.Migrating():
		return nil, fmt.Errorf("client: rebalance: %w: migration to %v already in progress", ErrLostRace, cur.Cur)
	case next.Epoch != old.Epoch+1:
		return nil, fmt.Errorf("client: rebalance: %w: target %v is not the successor of %v", ErrLostRace, next, old)
	}
	dual := &placement.State{Cur: next, Prev: old}
	if err := b.c.checkState(dual); err != nil {
		return nil, fmt.Errorf("client: rebalance: %w", err)
	}

	// Phase 1: arm. Every member of either epoch must hold the dual view
	// before any data moves; non-members (spares, departed providers from
	// older epochs) are told best-effort so their guards stay current.
	if err := b.pushState(ctx, dual); err != nil {
		return nil, fmt.Errorf("client: rebalance: arming epoch %d: %w", next.Epoch, err)
	}
	if err := b.c.SetPlacementState(next, old); err != nil {
		return nil, fmt.Errorf("client: rebalance: %w", err)
	}

	// Phase 2: migrate every model whose replica set changed, across the
	// union of its old and new sets. Phase 3 is the second pass: it replays
	// any refcount deltas that were journaled on old owners while the first
	// pass was copying, and lists again for the models whose store, routed
	// by the previous table while the dual view was being armed, landed
	// after the first listing.
	var ids, moves []ownermap.ModelID
	for pass := 0; pass < 2; pass++ {
		var err error
		if ids, err = b.r.listAll(ctx); err != nil {
			return nil, fmt.Errorf("client: rebalance: %w", err)
		}
		moves = moves[:0]
		for _, id := range ids {
			if !equalInts(old.ReplicaSet(id), next.ReplicaSet(id)) {
				moves = append(moves, id)
			}
		}
		for _, id := range moves {
			if _, err := b.r.repairSet(ctx, id, dual.WriteSet(id)); err != nil {
				return nil, fmt.Errorf("client: rebalance: migrating model %d (pass %d): %w", id, pass+1, err)
			}
		}
	}

	// Phase 4: commit the new epoch everywhere.
	single := &placement.State{Cur: next}
	if err := b.pushState(ctx, single); err != nil {
		return nil, fmt.Errorf("client: rebalance: committing epoch %d: %w", next.Epoch, err)
	}
	if err := b.c.SetPlacementState(next, nil); err != nil {
		return nil, fmt.Errorf("client: rebalance: %w", err)
	}

	// Phase 5: evict. Re-list to cover models stored mid-migration; their
	// dual-mode writes also landed on old owners.
	post, err := b.r.listAll(ctx)
	if err != nil {
		return nil, fmt.Errorf("client: rebalance: %w", err)
	}
	evicted := 0
	for _, id := range post {
		newSet := next.ReplicaSet(id)
		for _, pi := range old.ReplicaSet(id) {
			if containsInt(newSet, pi) {
				continue
			}
			resp, err := b.c.conns[pi].Call(ctx, proto.RPCEvict, rpc.Message{Meta: proto.EncodeModelID(id)})
			if err != nil {
				return nil, fmt.Errorf("client: rebalance: evicting model %d from provider %d: %w", id, pi, err)
			}
			if dropped, err := proto.DecodeU64(resp.Meta); err == nil && dropped > 0 {
				evicted++
			}
		}
	}

	return &RebalanceStats{
		Epoch:    next.Epoch,
		Models:   len(ids),
		Migrated: len(moves),
		Evicted:  evicted,
		Elapsed:  time.Since(start),
	}, nil
}

// PushStateError reports a placement push that failed to reach every
// required member: after retries, the providers in Stragglers still do not
// hold the pushed state, while the rest of the deployment does. The
// migration must not proceed past this split — re-run Rebalance with the
// same target once the stragglers are reachable; the resume path converges
// them (providers treat re-pushes of the same or older epochs as no-ops).
type PushStateError struct {
	Epoch      uint64  // epoch of the state being pushed
	Stragglers []int   // required providers that never accepted it
	errs       []error // one failure per straggler, same order
}

func (e *PushStateError) Error() string {
	return fmt.Sprintf("placement push for epoch %d incomplete: providers %v still on the old state: %v",
		e.Epoch, e.Stragglers, errors.Join(e.errs...))
}

// Unwrap exposes the per-straggler failures to errors.Is/As.
func (e *PushStateError) Unwrap() []error { return e.errs }

// pushStateAttempts bounds how many rounds pushState retries required
// members that failed the broadcast before giving up with a typed error.
const pushStateAttempts = 4

// pushState installs st on every provider. Members of any epoch in st
// must accept (they enforce the write guard and serve the data being
// moved); pushes to non-member connections are best-effort.
//
// A partial push is the dangerous outcome: some members armed on the new
// state, others still guarding the old one, and writes splitting across
// the two views. Failed required members are therefore retried to
// convergence — installs are idempotent, providers ignore stale epochs —
// and if any still fail after pushStateAttempts rounds, the caller gets a
// *PushStateError naming them instead of a flat error join, so operators
// know exactly which providers hold the deployment back.
func (b *Rebalancer) pushState(ctx context.Context, st *placement.State) error {
	required := make(map[int]bool)
	for _, t := range []*placement.Table{st.Cur, st.Prev} {
		if t == nil {
			continue
		}
		for _, m := range t.Members {
			required[m] = true
		}
	}
	req := rpc.Message{Meta: placement.EncodeState(st)}
	results := rpc.Broadcast(ctx, b.c.conns, proto.RPCSetPlacement, req)
	failed := make(map[int]error)
	for i, r := range results {
		if r.Err != nil && required[i] {
			failed[i] = r.Err
		}
	}
	for attempt := 1; attempt < pushStateAttempts && len(failed) > 0; attempt++ {
		select {
		case <-time.After(time.Duration(attempt) * 5 * time.Millisecond):
		case <-ctx.Done():
			return b.pushStateError(st, failed)
		}
		for pi := range failed {
			if _, err := b.c.conns[pi].Call(ctx, proto.RPCSetPlacement, req); err != nil {
				failed[pi] = err
			} else {
				delete(failed, pi)
			}
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return b.pushStateError(st, failed)
}

func (b *Rebalancer) pushStateError(st *placement.State, failed map[int]error) error {
	e := &PushStateError{Epoch: st.Cur.Epoch}
	for pi := range failed {
		e.Stragglers = append(e.Stragglers, pi)
	}
	sort.Ints(e.Stragglers)
	for _, pi := range e.Stragglers {
		e.errs = append(e.errs, fmt.Errorf("provider %d: %w", pi, failed[pi]))
	}
	return e
}

// equalInts reports whether two int slices are element-wise equal.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// containsInt reports whether s contains v.
func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
