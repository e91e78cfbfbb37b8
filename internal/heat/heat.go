// Package heat closes the loop between access telemetry and placement:
// a Controller periodically aggregates the per-model EWMA read/write
// rates every provider exports on its Metrics RPC, detects skew — models
// far hotter or colder than the mean — and drives the client Rebalancer
// toward a placement whose per-model replica counts match the load. Hot
// models widen beyond the base replication factor so reads fan out; cold
// models pack down so capacity is not spent replicating dead weight.
//
// The controller is deliberately conservative:
//
//   - Decisions are hysteresis-shaped: a model must exceed HotFactor × the
//     mean heat to widen and fall below ColdFactor × the mean to pack, so
//     models near the mean never flap.
//   - A quiet deployment (total heat under MinTotalBps) plans no overrides
//     at all, and an existing override set decays back to the base table —
//     idle clusters converge to the plain placement rather than fossilizing
//     the last busy hour's layout.
//   - At most MaxChanges override changes ship per cycle; the rest wait for
//     the next one, bounding how much data any single epoch bump moves.
//   - Migration payload bytes are paced against BudgetBytesPerSec via the
//     front-door token-bucket machinery, so the background migration cannot
//     starve foreground traffic of fabric bandwidth.
//
// Losing a race to a concurrent manual rebalance (evostore-ctl placement)
// is a tolerated outcome, not an error: the controller re-syncs its view
// and re-plans against the winner's table on the next cycle.
package heat

import (
	"context"
	"errors"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/proto"
)

// Defaults for Config fields left zero.
const (
	DefaultInterval    = 5 * time.Second
	DefaultHotFactor   = 4.0
	DefaultColdFactor  = 0.25
	DefaultMaxChanges  = 32
	DefaultMinTotalBps = 1.0
)

// Config tunes a Controller. The zero value is usable: every field has a
// default, and a zero PackTo disables packing (widening only).
type Config struct {
	// Interval between controller cycles (default 5s).
	Interval time.Duration
	// HotFactor: a model widens when its heat exceeds HotFactor × mean
	// (default 4).
	HotFactor float64
	// ColdFactor: a model packs when its heat falls below ColdFactor ×
	// mean (default 0.25). Models between the factors keep the base count.
	ColdFactor float64
	// WidenTo is the replica count for hot models; 0 means base R + 1.
	WidenTo int
	// PackTo is the replica count for cold models; 0 disables packing.
	PackTo int
	// MinTotalBps is the quiet floor: when the deployment's total heat is
	// below it, the plan is "no overrides" (default 1 B/s).
	MinTotalBps float64
	// MaxChanges bounds how many models change override per cycle
	// (default 32).
	MaxChanges int
	// BudgetBytesPerSec paces migration payload bytes; 0 leaves the
	// migration unpaced.
	BudgetBytesPerSec float64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.HotFactor <= 0 {
		c.HotFactor = DefaultHotFactor
	}
	if c.ColdFactor <= 0 {
		c.ColdFactor = DefaultColdFactor
	}
	if c.MaxChanges <= 0 {
		c.MaxChanges = DefaultMaxChanges
	}
	if c.MinTotalBps <= 0 {
		c.MinTotalBps = DefaultMinTotalBps
	}
	return c
}

// Controller drives heat-based rebalancing over one client's deployment.
// Run it from exactly one place per deployment; a second controller (or a
// concurrent manual rebalance) is safe but one of the two loses each epoch
// race and re-plans.
type Controller struct {
	c   *client.Client
	reb *client.Rebalancer
	cfg Config

	cycles     *metrics.Counter // controller cycles completed
	rebalances *metrics.Counter // epoch bumps this controller won
	lostRaces  *metrics.Counter // cycles that lost the epoch race and re-synced
	widened    *metrics.Counter // models widened above base R (cumulative)
	packed     *metrics.Counter // models packed below base R (cumulative)
}

// New builds a controller over c. reg defaults to the client's registry
// semantics: counters land in metrics.Default unless the client was built
// with its own registry — pass reg explicitly to keep bench runs isolated.
func New(c *client.Client, cfg Config, reg *metrics.Registry) *Controller {
	if reg == nil {
		reg = metrics.Default
	}
	ctl := &Controller{
		c:          c,
		reb:        client.NewRebalancer(c),
		cfg:        cfg.withDefaults(),
		cycles:     reg.Counter("heat.cycles"),
		rebalances: reg.Counter("heat.rebalances"),
		lostRaces:  reg.Counter("heat.lost_race"),
		widened:    reg.Counter("heat.widened"),
		packed:     reg.Counter("heat.packed"),
	}
	ctl.reb.SetPayloadBudget(cfg.BudgetBytesPerSec)
	return ctl
}

// Aggregate folds per-provider heat samples into one total per model
// (read + write bytes/sec summed across every provider holding a
// replica). Nil sample slices — unreachable or pre-heat providers — are
// skipped.
func Aggregate(heats [][]proto.ModelHeat) map[ownermap.ModelID]float64 {
	total := make(map[ownermap.ModelID]float64)
	for _, samples := range heats {
		for _, h := range samples {
			total[h.Model] += h.ReadBps + h.WriteBps
		}
	}
	return total
}

// Plan is the pure decision function: given the current table and the
// aggregated per-model heat, it returns the override set the table should
// converge to. Deterministic (iteration order is sorted by model ID) and
// side-effect free, so it unit-tests without a cluster.
//
// The returned map is the FULL desired override set, not a delta; compare
// against cur.Overrides (after normalization) to decide whether an epoch
// bump is warranted. MaxChanges is enforced against that comparison:
// models are admitted hottest-first for widening and coldest-first for
// packing until the change budget is spent.
func Plan(cfg Config, cur *placement.Table, heat map[ownermap.ModelID]float64) map[ownermap.ModelID]int {
	cfg = cfg.withDefaults()
	total := 0.0
	for _, h := range heat {
		total += h
	}
	if total < cfg.MinTotalBps || len(heat) == 0 {
		return nil // quiet deployment: decay to the base table
	}
	mean := total / float64(len(heat))

	widenTo := cfg.WidenTo
	if widenTo <= 0 {
		widenTo = cur.R() + 1
	}

	ids := make([]ownermap.ModelID, 0, len(heat))
	for id := range heat {
		ids = append(ids, id)
	}
	// Hottest first: when the change budget truncates the plan, the most
	// skewed models win the slots.
	sort.Slice(ids, func(i, j int) bool {
		if heat[ids[i]] != heat[ids[j]] {
			return heat[ids[i]] > heat[ids[j]]
		}
		return ids[i] < ids[j]
	})

	desired := make(map[ownermap.ModelID]int)
	// Overrides for models with no measurable heat anymore are dropped
	// (not carried), so a model that cooled off returns to base placement.
	changes := 0
	budget := func(id ownermap.ModelID, want int) bool {
		if cur.Overrides[id] == want || (want == cur.R() && cur.Overrides[id] == 0) {
			return true // no change: free
		}
		if changes >= cfg.MaxChanges {
			// Keep the current override instead: an unfunded change must
			// not silently revert the model to base.
			if r, ok := cur.Overrides[id]; ok {
				desired[id] = r
			}
			return false
		}
		changes++
		return true
	}
	for _, id := range ids {
		h := heat[id]
		switch {
		case h > cfg.HotFactor*mean:
			if budget(id, widenTo) {
				desired[id] = widenTo
			}
		case cfg.PackTo > 0 && h < cfg.ColdFactor*mean:
			if budget(id, cfg.PackTo) {
				desired[id] = cfg.PackTo
			}
		default:
			// Mid-band heat earns the base count: dropping an existing
			// override is the hysteresis exit, and it costs change budget
			// like any other move.
			if r, ok := cur.Overrides[id]; ok && changes >= cfg.MaxChanges {
				desired[id] = r
			} else if _, ok := cur.Overrides[id]; ok {
				changes++
			}
		}
	}
	// Models that had an override but no longer appear in the heat map
	// cooled below the floor: drop their overrides within budget.
	cooled := make([]ownermap.ModelID, 0)
	for id := range cur.Overrides {
		if _, measured := heat[id]; !measured {
			cooled = append(cooled, id)
		}
	}
	sort.Slice(cooled, func(i, j int) bool { return cooled[i] < cooled[j] })
	for _, id := range cooled {
		if changes >= cfg.MaxChanges {
			desired[id] = cur.Overrides[id]
		} else {
			changes++
		}
	}
	if len(desired) == 0 {
		return nil
	}
	return desired
}

// Step runs one controller cycle: snapshot heat, plan, and — when the
// plan differs from the live table — drive one epoch bump through the
// Rebalancer. Losing the epoch race to a concurrent rebalance is not an
// error: the view is re-synced and the next cycle re-plans.
func (ctl *Controller) Step(ctx context.Context) error {
	ctl.cycles.Inc()
	_, heats, _ := ctl.c.Metrics(ctx) // per-provider errors tolerated: plan on what answered
	agg := Aggregate(heats)

	cur := ctl.c.Placement().Cur
	desired := Plan(ctl.cfg, cur, agg)
	if equalOverrides(cur.Overrides, normalizedLike(cur, desired)) {
		return nil // plan matches the live table: no epoch bump
	}

	next := cur.NextOverrides(desired)
	_, err := ctl.reb.Rebalance(ctx, next)
	if err != nil {
		if errors.Is(err, client.ErrLostRace) {
			ctl.lostRaces.Inc()
			if _, serr := ctl.c.SyncPlacement(ctx); serr != nil {
				return serr
			}
			return nil
		}
		return err
	}
	ctl.rebalances.Inc()
	base := next.R()
	for _, r := range next.Overrides {
		if r > base {
			ctl.widened.Inc()
		} else if r < base {
			ctl.packed.Inc()
		}
	}
	return nil
}

// Run loops Step every Interval until ctx is done. Step errors are
// counted and swallowed — a controller must outlive transient provider
// failures — except ctx cancellation, which ends the loop.
func (ctl *Controller) Run(ctx context.Context) {
	tick := time.NewTicker(ctl.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if err := ctl.Step(ctx); err != nil && errors.Is(err, context.Canceled) {
				return
			}
		}
	}
}

// equalOverrides compares two override maps.
func equalOverrides(a, b map[ownermap.ModelID]int) bool {
	if len(a) != len(b) {
		return false
	}
	for id, r := range a {
		if b[id] != r {
			return false
		}
	}
	return true
}

// normalizedLike normalizes desired the way cur's successor table would,
// so "plan equals live overrides" compares like with like.
func normalizedLike(cur *placement.Table, desired map[ownermap.ModelID]int) map[ownermap.ModelID]int {
	return cur.WithOverrides(desired).Overrides
}
