package provider

// Elastic placement: the provider-side state behind the epoch-versioned
// placement table (internal/placement). A provider holds at most one
// placement.State — the current table plus, mid-migration, the previous
// one — and three RPCs manage it: evostore.placement reads it,
// evostore.set_placement installs a newer one (the rebalancer arms the
// dual-epoch pair, then commits the single new epoch), and evostore.evict
// drops a model's state once the provider has left its replica set.

import (
	"context"
	"fmt"

	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// PlacementState returns the provider's active placement view (nil when
// the guard is disarmed).
func (p *Provider) PlacementState() *placement.State { return p.place.Load() }

// SetPlacementState installs a placement view. Epochs only move forward:
// a state whose current epoch is older than the installed one is ignored
// (the call is convergent — stale rebalancer retries and reordered pushes
// are no-ops), equal epochs replace (the dual→single commit of one
// migration shares its epoch), newer epochs replace unconditionally.
func (p *Provider) SetPlacementState(st *placement.State) error {
	if st == nil || st.Cur == nil {
		return fmt.Errorf("provider %d: set_placement: no current table", p.id)
	}
	for {
		old := p.place.Load()
		if old != nil && old.Cur != nil && st.Cur.Epoch < old.Cur.Epoch {
			return nil // stale push; the installed view is newer
		}
		if p.place.CompareAndSwap(old, st) {
			p.reg.Counter("provider.placement_epoch_install").Inc()
			p.notifyPlacement(st)
			return nil
		}
	}
}

// Evict drops every trace of id — catalog entry, refcounts, journal,
// tombstone, and stored segment payloads — after a migration moved the
// model elsewhere. It refuses while any active epoch still places id here
// (that state is live, not stale), and is a no-op on a model this provider
// holds nothing of. Returns the number of segment payload entries dropped.
func (p *Provider) Evict(id ownermap.ModelID) (uint64, error) {
	var dropped uint64
	err := p.commit("evict", id, p.evictable, func(c *change) error {
		delete(p.models, id)
		for v := range p.refs[id] {
			c.dels = append(c.dels, segKey{id, v})
		}
		dropped = uint64(len(c.dels))
		delete(p.refs, id)
		delete(p.journals, id)
		// The retiredOrder FIFO keeps a ghost entry (see capLocked).
		delete(p.retired, id)
		c.dirty |= dirtyAll
		return nil
	})
	if err != nil {
		return 0, err
	}
	if dropped > 0 {
		p.reg.Counter("provider.placement_evict").Inc()
	}
	return dropped, nil
}

// evictable is Evict's guard, the mirror of acceptsWrite: it admits only a
// model that no active epoch places on this provider.
func (p *Provider) evictable(id ownermap.ModelID) error {
	st := p.place.Load()
	if st == nil {
		return fmt.Errorf("provider %d: model %d: no placement table armed", p.id, id)
	}
	if st.Contains(p.id, id) {
		return fmt.Errorf("provider %d: model %d is still placed here in an active epoch", p.id, id)
	}
	return nil
}

// --- handlers ----------------------------------------------------------------

func (p *Provider) handlePlacement(_ context.Context, _ rpc.Message) (rpc.Message, error) {
	return rpc.Message{Meta: placement.EncodeState(p.place.Load())}, nil
}

func (p *Provider) handleSetPlacement(_ context.Context, req rpc.Message) (rpc.Message, error) {
	st, err := placement.DecodeState(req.Meta)
	if err != nil {
		return rpc.Message{}, fmt.Errorf("provider %d: set_placement: %w", p.id, err)
	}
	if err := p.SetPlacementState(st); err != nil {
		return rpc.Message{}, err
	}
	// Answer with the view now in force, so a stale pusher sees what won.
	return rpc.Message{Meta: placement.EncodeState(p.place.Load())}, nil
}

func (p *Provider) handleEvict(_ context.Context, req rpc.Message) (rpc.Message, error) {
	id, err := proto.DecodeModelID(req.Meta)
	if err != nil {
		return rpc.Message{}, fmt.Errorf("provider %d: evict: %w", p.id, err)
	}
	dropped, err := p.Evict(id)
	if err != nil {
		return rpc.Message{}, err
	}
	return rpc.Message{Meta: proto.EncodeU64(dropped)}, nil
}
