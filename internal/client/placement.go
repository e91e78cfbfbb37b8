package client

// Client-side placement management. The client holds one placement.State
// (the current-epoch table plus, mid-migration, the previous one) and
// keeps it current three ways: the rebalancer drives transitions directly
// (SetPlacementState), providers answer evostore.placement with their view
// (SyncPlacement), and a provider rejecting a request with ErrWrongEpoch
// sends the read/write paths into a re-sync before they retry
// (refreshPlacement) — so a stale client self-updates off its first
// rejection instead of failing.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// placementRetries bounds how often one logical call re-resolves its
// replica set after a wrong-epoch rejection. Two bumps can land
// back-to-back (drain then join); anything deeper than three is a
// misconfigured deployment, not a migration.
const placementRetries = 3

// Placement returns the client's active placement view.
func (c *Client) Placement() *placement.State { return c.place.Load() }

// PlacementTable returns the current-epoch table of the active view.
func (c *Client) PlacementTable() *placement.Table { return c.place.Load().Cur }

// SetPlacementState installs a placement view unconditionally after
// validating it. The rebalancer uses this to drive the arm → commit
// transitions, including the same-epoch dual→single commit that the
// monotone installState rule below would treat specially.
func (c *Client) SetPlacementState(cur, prev *placement.Table) error {
	st := &placement.State{Cur: cur, Prev: prev}
	if err := c.checkState(st); err != nil {
		return err
	}
	c.place.Store(st)
	return nil
}

// checkState rejects views the client cannot serve: no current table, or
// a member index with no connection behind it.
func (c *Client) checkState(st *placement.State) error {
	if st == nil || st.Cur == nil {
		return errors.New("placement view has no current table")
	}
	for _, t := range []*placement.Table{st.Cur, st.Prev} {
		if t == nil {
			continue
		}
		for _, m := range t.Members {
			if m >= len(c.conns) {
				return fmt.Errorf("placement member %d has no connection (client knows %d providers)", m, len(c.conns))
			}
		}
	}
	return nil
}

// installState adopts st if it postdates the active view: a higher
// current epoch always wins, and at equal epochs a committed (single)
// view supersedes the migrating (dual) one it concludes — providers only
// ever move single→dual with an epoch bump and dual→single within one.
// Reports whether the view changed.
func (c *Client) installState(st *placement.State) bool {
	if c.checkState(st) != nil {
		return false
	}
	for {
		old := c.place.Load()
		newer := st.Cur.Epoch > old.Cur.Epoch ||
			(st.Cur.Epoch == old.Cur.Epoch && old.Migrating() && !st.Migrating())
		if !newer {
			return false
		}
		if c.place.CompareAndSwap(old, st) {
			c.epochAdopts.Inc()
			return true
		}
	}
}

// SyncPlacement asks every provider for its placement view and adopts the
// newest one (highest current epoch; committed beats migrating within an
// epoch). Unreachable and unguarded providers are tolerated — only a
// total failure errors. Returns the view active after the sync.
func (c *Client) SyncPlacement(ctx context.Context) (*placement.State, error) {
	results := rpc.Broadcast(ctx, c.conns, proto.RPCPlacement, rpc.Message{})
	var best *placement.State
	var errs []error
	ok := 0
	for i, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("provider %d: %w", i, r.Err))
			continue
		}
		st, err := placement.DecodeState(r.Resp.Meta)
		if err != nil {
			errs = append(errs, fmt.Errorf("provider %d: %w", i, err))
			continue
		}
		ok++
		if st == nil || st.Cur == nil {
			continue // unguarded provider: no opinion
		}
		if best == nil || st.Cur.Epoch > best.Cur.Epoch ||
			(st.Cur.Epoch == best.Cur.Epoch && best.Migrating() && !st.Migrating()) {
			best = st
		}
	}
	if ok == 0 && len(errs) > 0 {
		return c.place.Load(), fmt.Errorf("client: placement sync: %w", errors.Join(errs...))
	}
	if best != nil {
		c.installState(best)
	}
	return c.place.Load(), nil
}

// refreshPlacement is the wrong-epoch recovery path: a full sync, which
// reaches at least the provider that just rejected the request and also
// recovers the dual view mid-migration. Reports whether the active view
// changed.
func (c *Client) refreshPlacement(ctx context.Context) bool {
	before := c.place.Load()
	_, _ = c.SyncPlacement(ctx) // a failed sync changes nothing: the rejection stands
	return c.place.Load() != before
}
