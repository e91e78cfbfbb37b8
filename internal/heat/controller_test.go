package heat_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/heat"
	"repro/internal/metrics"
	"repro/internal/model"
)

// benchModel is a small fixed architecture the controller tests store.
func benchModel(t testing.TB) *model.Flat {
	t.Helper()
	flat, err := model.Flatten(model.Sequential("heat", 8,
		model.Dense{In: 8, Out: 8, Activation: "relu", UseBias: true},
		model.Dense{In: 8, Out: 4},
	))
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

// TestControllerWidensHotModel drives the full loop against an embedded
// deployment: a zipf-shaped workload makes one model far hotter than the
// rest, a controller Step reads the exported heat, bumps the epoch with a
// widened replica set for the hot model and a packed set for the cold
// ones, and the deployment stays consistent throughout.
func TestControllerWidensHotModel(t *testing.T) {
	// SegCacheBytes < 0 disables the client's segment cache so repeat
	// loads actually reach providers and register as read heat.
	repo, err := core.Open(core.Options{Providers: 4, Replicas: 2, SegCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	ctx := context.Background()
	flat := benchModel(t)

	var ids []core.ModelID
	for i := 0; i < 8; i++ {
		id, err := repo.Store(ctx, flat, model.Materialize(flat, uint64(i+1)), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	hot := ids[0]
	for i := 0; i < 60; i++ {
		if _, _, err := repo.Load(ctx, hot); err != nil {
			t.Fatal(err)
		}
	}

	reg := metrics.NewRegistry()
	ctl := heat.New(repo.Client(), heat.Config{PackTo: 1}, reg)
	if err := ctl.Step(ctx); err != nil {
		t.Fatalf("controller step: %v", err)
	}

	tbl := repo.PlacementTable()
	if tbl.Epoch != 1 {
		t.Fatalf("epoch after step = %d, want 1 (heat table = %v)", tbl.Epoch, tbl)
	}
	if got := tbl.ReplicasFor(hot); got != 3 {
		t.Errorf("hot model replica count = %d, want widened to 3 (overrides %v)", got, tbl.Overrides)
	}
	widened, packed := 0, 0
	for _, r := range tbl.Overrides {
		if r > tbl.R() {
			widened++
		} else if r < tbl.R() {
			packed++
		}
	}
	if widened != 1 {
		t.Errorf("widened %d models, want exactly the hot one (overrides %v)", widened, tbl.Overrides)
	}
	if packed == 0 {
		t.Errorf("no cold model packed (overrides %v)", tbl.Overrides)
	}
	if got := reg.Counter("heat.rebalances").Load(); got != 1 {
		t.Errorf("heat.rebalances = %d, want 1", got)
	}

	// A second step with unchanged heat plans the same overrides and does
	// not burn another epoch. (Run before the verification loads below —
	// those add read heat of their own and may legitimately re-plan.)
	if err := ctl.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if got := repo.PlacementTable().Epoch; got != 1 {
		t.Errorf("idle re-step bumped epoch to %d", got)
	}

	// Every model still loads after the migration.
	for _, id := range ids {
		if _, _, err := repo.Load(ctx, id); err != nil {
			t.Errorf("load %d after rebalance: %v", id, err)
		}
	}
}

// TestControllerRacesManualRebalance is the -race check for concurrent
// placement transitions: controller cycles run against a manual membership
// rebalance on the same deployment. Exactly one epoch bump wins each race
// (the loser either re-plans or reports a lost race), no request fails,
// and the deployment converges to a single consistent epoch.
func TestControllerRacesManualRebalance(t *testing.T) {
	repo, err := core.Open(core.Options{Providers: 3, SpareProviders: 1, Replicas: 2, SegCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	ctx := context.Background()
	flat := benchModel(t)

	var ids []core.ModelID
	for i := 0; i < 6; i++ {
		id, err := repo.Store(ctx, flat, model.Materialize(flat, uint64(i+1)), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	hot := ids[0]
	for i := 0; i < 40; i++ {
		if _, _, err := repo.Load(ctx, hot); err != nil {
			t.Fatal(err)
		}
	}

	reg := metrics.NewRegistry()
	ctl := heat.New(repo.Client(), heat.Config{PackTo: 1}, reg)

	var (
		wg          sync.WaitGroup
		manualWins  atomic.Int64
		loadFails   atomic.Int64
		controllerE atomic.Value
	)
	// Controller cycles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := ctl.Step(ctx); err != nil {
				controllerE.Store(err)
				return
			}
		}
	}()
	// Manual operator rebalance: join the spare (the evostore-ctl
	// placement path). Losing the epoch race to the controller is legal;
	// winning must move the epoch exactly once.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := repo.Rebalance(ctx, []int{0, 1, 2, 3}); err == nil {
			manualWins.Add(1)
		} else if !errors.Is(err, client.ErrLostRace) {
			controllerE.Store(err)
		}
	}()
	// Foreground reads throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, _, err := repo.Load(ctx, ids[i%len(ids)]); err != nil {
				loadFails.Add(1)
			}
		}
	}()
	wg.Wait()

	if e := controllerE.Load(); e != nil {
		t.Fatalf("racing rebalances surfaced a hard error: %v", e)
	}
	if n := loadFails.Load(); n != 0 {
		t.Errorf("%d foreground reads failed during racing rebalances", n)
	}

	// Every provider and the client agree on one final epoch, nothing is
	// left mid-migration, and the epoch moved once per winning rebalance.
	st := repo.Client().Placement()
	if st.Migrating() {
		t.Fatalf("deployment left mid-migration: %v", st)
	}
	wins := manualWins.Load() + int64(reg.Counter("heat.rebalances").Load())
	if wins == 0 {
		t.Fatal("neither the controller nor the manual rebalance ever won")
	}
	if got := int64(st.Cur.Epoch); got != wins {
		t.Errorf("final epoch %d != %d winning rebalances — a bump was lost or duplicated", got, wins)
	}
	for i, p := range repo.Providers() {
		pst := p.PlacementState()
		if pst.Migrating() || pst.Cur.Epoch != st.Cur.Epoch {
			t.Errorf("provider %d state %v disagrees with client epoch %d", i, pst, st.Cur.Epoch)
		}
	}
	for _, id := range ids {
		if _, _, err := repo.Load(ctx, id); err != nil {
			t.Errorf("load %d after races: %v", id, err)
		}
	}
}
