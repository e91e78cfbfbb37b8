package main

// The scenarios. Each is a script over harness.go: open a deployment, seed
// it, break something, assert its own contract, and — for everything built
// on core.Repository — return through env.check. Each has two sizes, full
// and -smoke, written as constants where they are used.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/frontdoor"
	"repro/internal/graph"
	"repro/internal/heat"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/resilient"
	"repro/internal/rpc"
)

// scenario is one entry of the dispatch table; `check` and the tests run
// the whole table.
type scenario struct {
	name   string
	breaks string // what it breaks, for the banner and usage
	run    func(config) error
}

var scenarios = []scenario{
	{"faults", "10% request and 10% response drops on one provider, then a partition of it", runFaults},
	{"repair", "one replica partitioned away mid-workload under partial writes, healed, one repair pass", runRepair},
	{"rebalance", "one provider drained and a spare joined under live reads and writes", runRebalance},
	{"restart", "kill -9 of one provider on a real LSM directory mid-workload, restart on the same directory", runRestart},
	{"autobalance", "zipfian heat skew with the heat controller migrating under live reads", runAutobalance},
	{"storm", "rolling 20x slow nodes, a flapping partition and a kill/restart under zipfian reads, unhedged then hedged", runStorm},
	{"frontdoor", "zipfian fan-in from several TCP clients, then a noisy tenant against a throttled provider", runFrontdoor},
	{"dedup", "a fine-tune lineage stored raw and then in content-addressed chunks", runDedup},
}

// runFaults drives store/load/retire through a fabric that drops requests
// and responses on one provider: every operation must complete despite the
// drops, the breaker must shed and recover around a partition, and check's
// drain proves no retried IncRef/DecRef executed twice. With -replicas R>1
// the partition phase is the kill-one-provider availability check: every
// read must complete via replica failover.
func runFaults(cfg config) error {
	const providers = 4
	victim := cfg.rng().Intn(providers)
	e, err := open(cfg, core.Options{
		Providers: providers,
		Replicas:  max(cfg.replicas, 1),
		Faults: func(i int) *rpc.FaultConfig {
			if i != victim {
				return nil
			}
			return &rpc.FaultConfig{DropRequest: 0.1, DropResponse: 0.1}
		},
		Resilience: &resilient.Options{
			MaxAttempts: 10,
			BackoffBase: time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
			// High enough that random drops never trip the breaker (p^12
			// is negligible); a real partition still trips it within two
			// calls.
			Threshold: 12,
			Cooldown:  50 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	defer e.close()
	ctx := context.Background()

	if err := e.seed(cfg.size(32, 12), true); err != nil {
		return err
	}
	if e.derived == 0 {
		return fmt.Errorf("no model was stored derived: the inherited-DecRef path would go unexercised")
	}
	if err := e.loadAll("through the faulty fabric"); err != nil {
		return err
	}
	ids := e.live()
	e.logf("stored and loaded %d models (%d derived) through drops on provider %d\n", len(ids), e.derived, victim)

	// A load touches the model's replicas plus those of every model it
	// inherits a segment from, so classify by the full owner lineage.
	var depends, independent []core.ModelID
	for _, id := range ids {
		meta, err := e.repo.GetMeta(ctx, id)
		if err != nil {
			return err
		}
		dep := slices.Contains(e.repo.ReplicaSet(id), victim)
		for _, g := range meta.OwnerMap.Owners() {
			dep = dep || slices.Contains(e.repo.ReplicaSet(g.Owner), victim)
		}
		if dep {
			depends = append(depends, id)
		} else {
			independent = append(independent, id)
		}
	}

	fc := e.repo.FaultConns()[victim]
	fc.SetPartitioned(true)
	if e.repo.Replicas() > 1 {
		if err := e.loadAll("with one provider partitioned (replicated reads must fail over)"); err != nil {
			return err
		}
		e.logf("replicated reads: %d/%d loads served via failover during the partition (%d touch the dead provider)\n",
			len(ids), len(ids), len(depends))
	} else {
		failed := 0
		for _, id := range depends {
			if _, _, err := e.repo.Load(ctx, id); err != nil {
				failed++
			}
		}
		for _, id := range independent {
			if _, _, err := e.repo.Load(ctx, id); err != nil {
				return fmt.Errorf("load %d on healthy providers during partition: %w", id, err)
			}
		}
		e.logf("partition: %d/%d loads depending on the dead provider failed fast, %d/%d on healthy providers succeeded\n",
			failed, len(depends), len(independent), len(independent))
	}
	fc.SetPartitioned(false)
	if err := e.awaitHealed(); err != nil {
		return err
	}
	if err := e.loadAll("after healing the partition"); err != nil {
		return err
	}
	// Response drops make the provider execute DecRefs whose replies are
	// lost; ReqID dedup must stop the retries from decrementing twice, or
	// the drain below fails.
	return e.check()
}

// runRepair is the anti-entropy convergence scenario: one replica is
// partitioned away mid-workload while partial writes keep every store,
// retire and load succeeding; the partition heals and ONE repair pass must
// leave check nothing to find — every replica set bit-identical, and a
// full drain, so no refcount delta was lost in the outage.
func runRepair(cfg config) error {
	r := max(cfg.replicas, 2)
	providers := max(4, r+1)
	victim := cfg.rng().Intn(providers)
	e, err := open(cfg, core.Options{
		Providers:     providers,
		Replicas:      r,
		PartialWrites: true,
		// Wrappers with no random faults: only the partition switch is used.
		Faults: func(int) *rpc.FaultConfig { return &rpc.FaultConfig{} },
		Resilience: &resilient.Options{
			MaxAttempts: 4,
			BackoffBase: time.Millisecond,
			BackoffMax:  10 * time.Millisecond,
			Threshold:   3,
			Cooldown:    50 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	defer e.close()

	// Healthy writes first, so the outage has inherited state to damage.
	n := cfg.size(32, 10)
	if err := e.seed(n/2, false); err != nil {
		return err
	}
	fc := e.repo.FaultConns()[victim]
	fc.SetPartitioned(true)
	e.logf("stored %d models healthy; partitioned provider %d and continuing\n", n/2, victim)

	// Every operation must still succeed: legs on the dead provider are
	// recorded as partial writes for the repairer, not failed. The retire's
	// tombstone and DecRef deltas reach only the survivors.
	if err := e.seed(n-n/2, true); err != nil {
		return fmt.Errorf("during the outage: %w", err)
	}
	if err := e.retire(e.live()[0]); err != nil {
		return fmt.Errorf("during the outage: %w", err)
	}
	if err := e.loadAll("during the outage"); err != nil {
		return err
	}
	partials := e.count("client.partial_write")
	e.logf("outage workload: %d stores (%d derived), 1 retire, %d loads, %d partial writes accepted\n",
		n-n/2, e.derived, len(e.live()), partials)
	if partials == 0 {
		return fmt.Errorf("no partial writes were recorded with a replica down")
	}

	fc.SetPartitioned(false)
	if err := e.awaitHealed(); err != nil {
		return err
	}
	rs, err := e.repo.RepairAll(context.Background())
	if err != nil {
		return fmt.Errorf("repair pass: %w", err)
	}
	e.logf("healed; repair pass: checked=%d repaired=%d skipped=%d\n", rs.Checked, rs.Repaired, rs.Skipped)
	return e.check()
}

// runRebalance is the elasticity scenario: a deployment serves live reads
// and writes while one provider is drained out of the placement table
// (epoch bump + migration + eviction) and a spare is joined in (second
// bump). Contract: zero failed requests throughout — reads and writes ride
// the dual-epoch union while data moves; the drained provider ends up
// holding nothing; and check passes under the final table, so two epoch
// changes lost no refcount delta. It also re-proves the compatibility
// golden: the epoch-0 table places exactly like the paper's static modulo.
func runRebalance(cfg config) error {
	r := max(cfg.replicas, 2)
	// Draining one member must leave at least R survivors plus one, so the
	// migration has somewhere to put the moved replicas.
	providers := max(4, r+2)
	if err := goldenEpochZero(providers, []int{1, r}); err != nil {
		return err
	}
	e, err := open(cfg, core.Options{Providers: providers, SpareProviders: 1, Replicas: r})
	if err != nil {
		return err
	}
	defer e.close()
	ctx := context.Background()
	if err := e.seed(cfg.size(64, 10), true); err != nil {
		return err
	}

	// Live workload across both migrations: two readers and one writer. The
	// first migration waits for the first live store, or at smoke size both
	// could finish before the workload is scheduled at all.
	var stop atomic.Bool
	var wg sync.WaitGroup
	var reads readStats
	var writes int
	var writeErr error
	writing := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		reads = e.readers(2, false, func(int) bool { return stop.Load() })
	}()
	go func() {
		defer wg.Done()
		for !stop.Load() && writeErr == nil {
			writeErr = e.seed(1, false)
			writes++
			if writes == 1 {
				close(writing)
			}
		}
	}()
	halt := func() { stop.Store(true); wg.Wait() }
	defer halt()
	<-writing

	drained := cfg.rng().Intn(providers)
	var members []int
	for _, m := range e.repo.PlacementTable().Members {
		if m != drained {
			members = append(members, m)
		}
	}
	join := append(append([]int(nil), members...), providers) // the spare's ID
	for _, step := range [][]int{members, join} {
		stats, err := e.repo.Rebalance(ctx, step)
		if err != nil {
			return fmt.Errorf("rebalance to members %v: %w", step, err)
		}
		e.logf("%s: %s\n", e.repo.PlacementTable(), stats)
		if st := e.repo.Providers()[drained].Stats(); st.Models != 0 || st.Segments != 0 {
			return fmt.Errorf("drained provider %d still holds %d models / %d segments", drained, st.Models, st.Segments)
		}
	}
	halt()
	if reads.fails != 0 || writeErr != nil {
		return fmt.Errorf("%d/%d reads and a store failed across the migrations (want 0); first read error: %v, store error: %v",
			reads.fails, reads.fails+len(reads.lats), reads.err, writeErr)
	}
	e.logf("workload: %d reads and %d stores across both migrations, 0 failures; drained provider %d holds nothing\n",
		len(reads.lats), writes, drained)
	return e.check()
}

// goldenEpochZero asserts the epoch-0 table places exactly like the
// paper's static scheme — home = id mod N, replicas on the next R-1
// successors — for every requested replication factor.
func goldenEpochZero(n int, factors []int) error {
	for _, r := range factors {
		t := placement.New(n, r)
		rr := min(r, n)
		for id := 0; id < 4096; id++ {
			got := t.ReplicaSet(ownermap.ModelID(id))
			if len(got) != rr {
				return fmt.Errorf("epoch-0 golden: n=%d r=%d id=%d: got %d replicas, want %d", n, r, id, len(got), rr)
			}
			for k := 0; k < rr; k++ {
				if want := (id + k) % n; got[k] != want {
					return fmt.Errorf("epoch-0 golden: n=%d r=%d id=%d replica %d: got provider %d, want %d (static modulo)",
						n, r, id, k, got[k], want)
				}
			}
		}
	}
	return nil
}

// runRestart is the crash-recovery scenario: providers run on real LSM
// directories with the durable catalog, one is killed -9 mid-workload
// (endpoint unbound, store abandoned unflushed — the buffered WAL tail is
// lost exactly as on a process kill), the workload continues with zero
// failed requests via partial writes and read failover, and the provider
// reopens the SAME directory: the manifest is validated, the catalog
// journal replays, and one repair pass converges the replica sets.
//
// The headline assertion is the divergence tail: because the reopened
// catalog still knows everything written before the kill, the repairer
// must move only the bytes of the models written DURING the outage — a
// provider that lost its catalog would instead be re-pushed its entire
// pre-crash share, which busts the byte budget.
func runRestart(cfg config) error {
	r := max(cfg.replicas, 2)
	providers := max(4, r+1)
	victim := cfg.rng().Intn(providers)
	const outage = 4 // models stored while the provider is down

	root, err := os.MkdirTemp("", "evostore-restart-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	// Real durable backends: a small flush threshold so the run exercises
	// SSTable flushes, WAL rotation and reopen-time replay, not just an
	// in-memory memtable. Each directory is stamped with its identity
	// manifest, as evostore-server does; the reopen validates it.
	dir := func(i int) string { return filepath.Join(root, fmt.Sprintf("p%d", i)) }
	openLSM := func(i int) (*kvstore.LSMKV, error) {
		return kvstore.OpenLSM(dir(i), kvstore.LSMOptions{FlushBytes: 64 << 10})
	}
	stores := make([]*kvstore.LSMKV, providers)
	for i := range stores {
		if stores[i], err = openLSM(i); err != nil {
			return fmt.Errorf("opening store %d: %w", i, err)
		}
		err = kvstore.SaveManifest(dir(i), &kvstore.Manifest{
			FormatVersion: kvstore.ManifestFormatVersion,
			ProviderID:    uint32(i),
			Features:      []string{kvstore.FeatureDurableCatalog, kvstore.FeatureValueLogs},
		})
		if err != nil {
			return fmt.Errorf("writing manifest %d: %w", i, err)
		}
	}
	e, err := open(cfg, core.Options{
		Providers:      providers,
		Replicas:       r,
		PartialWrites:  true,
		DurableCatalog: true,
		Backend:        func(i int) kvstore.KV { return stores[i] },
	})
	if err != nil {
		return err
	}
	defer e.close()
	ctx := context.Background()
	onVictim := func(ids []core.ModelID) (n int) {
		for _, id := range ids {
			if slices.Contains(e.repo.ReplicaSet(id), victim) {
				n++
			}
		}
		return n
	}

	// Healthy writes — the pre-crash state the catalog must carry across
	// the kill. All from-scratch models of one architecture, so per-model
	// payload bytes are uniform and the budget below is exact.
	if err := e.seed(cfg.size(32, 10), false); err != nil {
		return err
	}
	pre := e.live()
	preOnVictim := onVictim(pre)
	statsPre, err := e.repo.Stats(ctx)
	if err != nil {
		return err
	}
	perModel := statsPre.SegmentBytes / uint64(len(pre)*r) // bytes per replica copy
	e.logf("stored %d models healthy (%d involve provider %d; %d payload bytes per replica copy)\n",
		len(pre), preOnVictim, victim, perModel)

	// kill -9. Every catalog mutation ends in an fsync, so the durable
	// state is exactly what the provider acknowledged.
	if err := e.repo.KillProvider(victim); err != nil {
		return err
	}
	stores[victim] = nil // abandoned; reopened below

	// The workload continues through the outage with ZERO failed requests.
	// The retire's tombstone reaches only survivors and must be replayed
	// onto the restarted provider by repair, not resurrected.
	if err := e.seed(outage, false); err != nil {
		return fmt.Errorf("during the outage: %w", err)
	}
	outOnVictim := onVictim(e.live()[len(pre):])
	retired := pre[0]
	if err := e.retire(retired); err != nil {
		return fmt.Errorf("during the outage: %w", err)
	}
	if err := e.loadAll("during the outage"); err != nil {
		return err
	}
	partials := e.count("client.partial_write")
	e.logf("killed provider %d; outage workload: %d stores, 1 retire, %d loads, 0 failures, %d partial writes accepted\n",
		victim, outage, len(e.live()), partials)
	if partials == 0 {
		return fmt.Errorf("no partial writes were recorded with a provider down")
	}

	// Restart on the same directory. Manifest first — identity and format
	// must check out before the store is touched.
	m, err := kvstore.LoadManifest(dir(victim))
	if err != nil {
		return fmt.Errorf("reopening manifest: %w", err)
	}
	if m == nil || m.ProviderID != uint32(victim) {
		return fmt.Errorf("manifest at %s: got %+v, want provider %d", dir(victim), m, victim)
	}
	if stores[victim], err = openLSM(victim); err != nil {
		return fmt.Errorf("reopening store %d: %w", victim, err)
	}
	st := e.repo.Providers()[(victim+1)%providers].PlacementState()
	if err := e.repo.RestartProvider(victim, stores[victim], st); err != nil {
		return err
	}
	// The replayed catalog must hold the pre-crash era. (The outage-retired
	// model may still be among them until repair delivers its tombstone.)
	replayed := e.repo.Providers()[victim].Stats().Models
	e.logf("restarted provider %d: manifest ok (format %d, epoch %d), catalog replayed %d models\n",
		victim, m.FormatVersion, m.PlacementEpoch, replayed)
	if replayed < uint64(preOnVictim) {
		return fmt.Errorf("catalog replay lost models: %d cataloged, want >= %d pre-crash models", replayed, preOnVictim)
	}

	// One repair pass converges the divergence tail — and ONLY the tail.
	// Budget: the models stored during the outage whose replica set
	// includes the restarted provider, plus one model and 25% of slack
	// (repair never pushes payload for tombstoned models, but allow for
	// the retired one). A lost catalog would instead re-push all
	// preOnVictim models and blow this.
	movedBefore := e.count("client.repair_payload_bytes")
	rs, err := e.repo.RepairAll(ctx)
	if err != nil {
		return fmt.Errorf("repair pass: %w", err)
	}
	moved := e.count("client.repair_payload_bytes") - movedBefore
	budget := uint64(outOnVictim+1) * perModel * 5 / 4
	e.logf("repair pass: checked=%d repaired=%d; moved %d payload bytes (budget %d: %d outage models on provider %d)\n",
		rs.Checked, rs.Repaired, moved, budget, outOnVictim, victim)
	if moved > budget {
		return fmt.Errorf("repair moved %d bytes, over the %d-byte divergence-tail budget: the reopened catalog did not carry the pre-crash era",
			moved, budget)
	}
	if preOnVictim > 0 && moved >= uint64(preOnVictim)*perModel {
		return fmt.Errorf("repair moved %d bytes >= the provider's whole pre-crash share (%d): catalog replay was ineffective",
			moved, uint64(preOnVictim)*perModel)
	}
	if d := e.repo.Providers()[victim].Digest(retired); d.Present {
		return fmt.Errorf("retired model %d resurrected on restarted provider %d", retired, victim)
	}
	if err := e.check(); err != nil {
		return err
	}
	for i, s := range stores {
		if err := s.Close(); err != nil {
			return fmt.Errorf("closing store %d: %w", i, err)
		}
	}
	return nil
}

// runAutobalance is the heat-driven rebalancing scenario: a zipfian read
// workload concentrates heat on a few models, and the internal/heat
// controller must react — widening the hot models' replica sets and
// packing the cold ones — while the workload keeps running. Contract:
//
//   - the controller bumps the epoch at least once, with at least one model
//     widened above the base R (the hottest among them) and one packed;
//   - zero failed requests throughout — reads ride the dual-epoch union
//     while the controller's migration moves data;
//   - migration payload bytes stay within the token bucket's hard bound
//     (rate × elapsed plus one burst window);
//   - (timing) the controller phase's p99 stays within 20% of the
//     no-migration baseline, plus a 2ms floor for timer noise.
func runAutobalance(cfg config) error {
	const workers, budget = 2, 8e6 // migration payload budget, bytes/sec
	r := max(cfg.replicas, 2)
	// The client segment cache would absorb the repeat reads that make a
	// model hot; disable it so heat reaches the providers.
	e, err := open(cfg, core.Options{Providers: max(4, r+1), Replicas: r, SegCacheBytes: -1})
	if err != nil {
		return err
	}
	defer e.close()
	ctx := context.Background()
	if err := e.seed(cfg.size(32, 16), false); err != nil {
		return err
	}
	perWorker := cfg.size(2000, 600) / workers

	// Both phases read the same zipfian pattern, so the latency comparison
	// is like for like; the baseline also skews the EWMA heat, so the
	// controller has signal from its first cycle.
	base := e.readers(workers, true, untilCount(perWorker))
	e.logf("baseline: %d reads, p50 %.2fms p99 %.2fms, %d fails\n", len(base.lats), base.p(0.5), base.p(0.99), base.fails)

	ctl := heat.New(e.repo.Client(), heat.Config{PackTo: 1, BudgetBytesPerSec: budget}, e.reg)
	start := time.Now()
	stop := make(chan struct{})
	var ctlErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctlErr == nil {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				ctlErr = ctl.Step(ctx)
			}
		}
	}()
	with := e.readers(workers, true, untilCount(perWorker))
	close(stop)
	wg.Wait()
	if ctlErr == nil && e.repo.PlacementTable().Epoch == 0 {
		// A smoke-size read phase can finish before the first controller
		// tick; the EWMA heat survives the phase, so one explicit step still
		// exercises the full plan → rebalance → migrate path.
		ctlErr = ctl.Step(ctx)
	}
	if ctlErr != nil {
		return fmt.Errorf("controller step: %w", ctlErr)
	}
	elapsed := time.Since(start)
	moved := e.count("client.repair_payload_bytes")

	tbl := e.repo.PlacementTable()
	widened, packed := 0, 0
	for _, n := range tbl.Overrides {
		if n > tbl.R() {
			widened++
		} else if n < tbl.R() {
			packed++
		}
	}
	e.logf("controller: %d reads, p50 %.2fms p99 %.2fms, %d fails; %s, %d widened, %d packed, %s migrated (heat.rebalances=%d lost_race=%d)\n",
		len(with.lats), with.p(0.5), with.p(0.99), with.fails, tbl, widened, packed, metrics.HumanBytes(int64(moved)),
		e.count("heat.rebalances"), e.count("heat.lost_race"))

	if base.fails != 0 || with.fails != 0 {
		return fmt.Errorf("%d baseline + %d controller-phase reads failed (want 0); first: %v %v", base.fails, with.fails, base.err, with.err)
	}
	if tbl.Epoch < 1 {
		return fmt.Errorf("controller never rebalanced: still at %s", tbl)
	}
	if widened < 1 {
		return fmt.Errorf("no model widened above R=%d under a zipfian workload: %s", tbl.R(), tbl)
	}
	if packed < 1 {
		return fmt.Errorf("no cold model packed with PackTo=1: %s", tbl)
	}
	if hot := e.live()[0]; len(tbl.ReplicaSet(hot)) <= r {
		return fmt.Errorf("hottest model %d still has %d replicas (want > %d)", hot, len(tbl.ReplicaSet(hot)), r)
	}
	if limit := base.p(0.99)*1.2 + 2.0; cfg.timing && with.p(0.99) > limit {
		return fmt.Errorf("controller-phase p99 %.2fms exceeds %.2fms (baseline %.2fms + 20%% + 2ms)", with.p(0.99), limit, base.p(0.99))
	}
	// The bucket's capacity is rate × frontdoor.Window.
	if bound := budget * (elapsed.Seconds() + frontdoor.Window.Seconds()); float64(moved) > bound {
		return fmt.Errorf("migration moved %d payload bytes, over the budget bound %.0f (%g B/s for %.2fs + one window)",
			moved, bound, budget, elapsed.Seconds())
	}
	if err := e.loadAll("under the rebalanced table"); err != nil {
		return err
	}
	return e.check()
}

// stormHedgeBudget caps the hedged storm run's hedge launches per second.
const stormHedgeBudget = 400

// stormPhases is what one storm deployment lifetime measured.
type stormPhases struct {
	healthy, storm readStats
	hedgesHealthy  uint64        // hedge launches in the healthy phase
	hedges         uint64        // hedge launches over both phases
	elapsed        time.Duration // both phases' wall clock, for the budget bound
}

// stormRun is one deployment lifetime: seed, measure a healthy zipfian
// baseline, then run the same reads through a scripted failure storm —
// rolling 20x slow-node episodes, a flapping partition, and one provider
// kill+restart, on providers drawn from the seed. The script keeps at most
// one provider hard-down at any moment, so with R>=2 every model always has
// a responsive replica and zero failed reads is an achievable contract.
func stormRun(cfg config, episode time.Duration, hedged bool) (*stormPhases, error) {
	r := max(cfg.replicas, 2)
	providers := max(5, r+2)
	kvs := make([]kvstore.KV, providers)
	for i := range kvs {
		kvs[i] = kvstore.NewMemKV(16)
	}
	e, err := open(cfg, core.Options{
		Providers:      providers,
		Replicas:       r,
		SegCacheBytes:  -1, // repeat reads must reach the fabric, not the cache
		DurableCatalog: true,
		Backend:        func(i int) kvstore.KV { return kvs[i] },
		// Every connection gets a ~1ms injected base delay: the "healthy"
		// fabric latency the gray multiplier inflates, far enough above
		// scheduler noise for the percentile comparison to mean something.
		Faults: func(int) *rpc.FaultConfig {
			return &rpc.FaultConfig{Delay: time.Millisecond, DelayJitter: 200 * time.Microsecond}
		},
		Resilience: &resilient.Options{
			DefaultTimeout: 2 * time.Second,
			MaxAttempts:    1, // replica failover beats in-place retries here
			Threshold:      5,
			// The breaker must be able to probe and re-close within the
			// settle gap the script leaves between failure modes.
			Cooldown: episode / 4,
		},
		HedgedReads: hedged,
		HedgeBudget: stormHedgeBudget,
	})
	if err != nil {
		return nil, err
	}
	defer e.close()
	if err := e.seed(24, false); err != nil {
		return nil, err
	}

	const workers = 3
	start := time.Now()
	res := &stormPhases{healthy: e.readers(workers, true, untilTime(2*episode))}
	res.hedgesHealthy = e.count("client.hedged_read")

	faults := e.repo.FaultConns()
	order := cfg.rng().Perm(providers) // who is slow, who flaps, who is killed
	slow := &rpc.SlowProfile{Factor: 20, Jitter: 200 * time.Microsecond, BandwidthBps: 16 << 20}
	gray := func(pi int) {
		faults[pi].SetSlow(slow)
		time.Sleep(episode)
		faults[pi].SetSlow(nil)
	}
	var schedErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, pi := range order[:3] {
			gray(pi)
		}
		for k := 0; k < 4; k++ { // down/up twice per episode
			faults[order[3]].SetPartitioned(true)
			time.Sleep(episode / 4)
			faults[order[3]].SetPartitioned(false)
			time.Sleep(episode / 4)
		}
		// Settle gap: the flapped provider's breaker may still be open;
		// give it a cooldown's worth of probes to re-close before taking a
		// possible replica-set neighbour down, or a set spanning both would
		// briefly have no responsive member.
		time.Sleep(episode / 2)
		// Kill+restart on the surviving backend; the durable catalog
		// replays and clients reconnect mid-workload.
		if schedErr = e.repo.KillProvider(order[4]); schedErr != nil {
			return
		}
		time.Sleep(episode)
		if schedErr = e.repo.RestartProvider(order[4], kvs[order[4]], nil); schedErr != nil {
			return
		}
		// One more gray episode keeps pressure on while the revived
		// provider warms back into the ranking.
		gray(order[0])
	}()
	res.storm = e.readers(workers, true, untilTime(8*episode))
	wg.Wait()
	if schedErr != nil {
		return nil, fmt.Errorf("storm schedule: %w", schedErr)
	}
	res.hedges, res.elapsed = e.count("client.hedged_read"), time.Since(start)

	e.logf("hedged=%t: healthy p50 %.2fms p99 %.2fms | storm p50 %.2fms p99 %.2fms, %d fails, %d failovers, %d breaker skips, %d score demotions, %d hedges (%d won, %d cancelled, %d refused)\n",
		hedged, res.healthy.p(0.5), res.healthy.p(0.99), res.storm.p(0.5), res.storm.p(0.99), res.healthy.fails+res.storm.fails,
		e.count("client.read_failover"), e.count("client.replica_breaker_skip"), e.count("client.score_demote"),
		res.hedges, e.count("client.hedge_won"), e.count("client.hedge_cancelled"), e.count("client.hedge_refused"))
	if res.healthy.fails != 0 || res.storm.fails != 0 {
		return nil, fmt.Errorf("failed reads despite the one-good-replica invariant: healthy %d, storm %d (hedged=%t); first: %v %v",
			res.healthy.fails, res.storm.fails, hedged, res.healthy.err, res.storm.err)
	}
	if err := e.awaitHealed(); err != nil {
		return nil, err
	}
	if err := e.loadAll("after the storm"); err != nil {
		return nil, err
	}
	return res, e.check()
}

// runStorm is the gray-failure scenario: the same scripted storm runs twice
// — plain sequential failover, then score-ranked replica ordering plus
// hedged reads — and the hedged run must hold its read tail. Contract:
//
//   - zero failed reads in every phase of both runs;
//   - hedging engaged in the storm (launches > 0), never in the unhedged
//     run, and stayed within its token budget's hard bound: rate x elapsed
//     plus one 1s refill window, plus the fresh bucket's bootstrap token;
//   - (timing) the hedged storm p99 stays within 2x the hedged healthy
//     baseline plus an episode-scaled slack, though one provider is 20x
//     slow through most of the storm;
//   - (timing) hedging pays for itself: the hedged storm p99 is below half
//     the unhedged one.
func runStorm(cfg config) error {
	episode := time.Duration(cfg.size(400, 100)) * time.Millisecond
	unhedged, err := stormRun(cfg, episode, false)
	if err != nil {
		return err
	}
	hedged, err := stormRun(cfg, episode, true)
	if err != nil {
		return err
	}
	if unhedged.hedges != 0 {
		return fmt.Errorf("unhedged run recorded %d hedge launches (want 0)", unhedged.hedges)
	}
	if hedged.hedges == hedged.hedgesHealthy {
		return fmt.Errorf("hedging never engaged during the storm (want > 0 hedge launches)")
	}
	if bound := stormHedgeBudget*(hedged.elapsed.Seconds()+1.0) + 1; float64(hedged.hedges) > bound {
		return fmt.Errorf("hedge volume %d exceeds the budget bound %.0f (%d/s for %.2fs + one window)",
			hedged.hedges, bound, stormHedgeBudget, hedged.elapsed.Seconds())
	}
	// After each fault onset the score and latency quantiles need a fixed
	// wall-time's worth of samples to steer away from the newly-slow
	// provider, so that ramp's share of the storm-phase quantiles grows as
	// episodes shrink: scale the slack inversely (5ms at 400ms episodes).
	slack := 5.0 * float64(400*time.Millisecond) / float64(episode)
	if limit := hedged.healthy.p(0.99)*2 + slack; cfg.timing && hedged.storm.p(0.99) > limit {
		return fmt.Errorf("hedged storm p99 %.2fms exceeds %.2fms (healthy %.2fms x2 + %.1fms)",
			hedged.storm.p(0.99), limit, hedged.healthy.p(0.99), slack)
	}
	if cfg.timing && hedged.storm.p(0.99) >= unhedged.storm.p(0.99)/2 {
		return fmt.Errorf("hedged storm p99 %.2fms is not below half the unhedged %.2fms",
			hedged.storm.p(0.99), unhedged.storm.p(0.99))
	}
	cfg.logf("contract holds: 0 failed reads in all phases, %d hedges within budget (unhedged storm p99 %.2fms, hedged %.2fms)\n",
		hedged.hedges, unhedged.storm.p(0.99), hedged.storm.p(0.99))
	return nil
}

// lineageRun is what one dedup lineage deployment measured.
type lineageRun struct {
	logical, stored, restored int64
	restore                   time.Duration
}

// lineage stores one base model and then `steps` sequential fine-tunes
// through the core API — LCP query, prefix transfer, fingerprint diff,
// derived store — each touching a rotating half of the layers and
// rewriting one contiguous, chunk-aligned 5% run inside each touched
// tensor (blockPerturb). It then restores every model and verifies the
// weights bit-identical: a wrong chunk reassembly fails the scenario.
// Layers are 256x256 at both sizes, so every weight tensor spans four
// 64 KiB chunks and an update leaves at least three of them alone.
func lineage(cfg config, opts core.Options) (*lineageRun, error) {
	const touchFrac, changeFrac, dim = 0.5, 0.05, 256
	steps, nLayers := cfg.size(10, 4), cfg.size(16, 8)
	e, err := open(cfg, opts)
	if err != nil {
		return nil, err
	}
	defer e.close()
	ctx := context.Background()
	layers := make([]model.Layer, nLayers)
	for i := range layers {
		layers[i] = model.Dense{In: dim, Out: dim, UseBias: true}
	}
	if e.flat, err = model.Flatten(model.Sequential("lineage", dim, layers...)); err != nil {
		return nil, err
	}

	res := &lineageRun{}
	ws := model.Materialize(e.flat, e.weightSeed())
	var paramVs []graph.VertexID // the Input vertex carries no parameters
	for v := range ws {
		if len(ws[v]) > 0 {
			paramVs = append(paramVs, graph.VertexID(v))
		}
	}
	touch := max(1, int(touchFrac*float64(len(paramVs))))
	id, err := e.repo.Store(ctx, e.flat, ws, 0.9)
	if err != nil {
		return nil, err
	}
	want := map[core.ModelID]model.WeightSet{id: ws.Clone()}
	e.track(id, false)
	res.logical = ws.SizeBytes()
	for step := 1; step <= steps; step++ {
		anc, found, err := e.repo.BestAncestorRecent(ctx, e.flat)
		if err != nil {
			return nil, fmt.Errorf("lineage step %d: %w", step, err)
		}
		if !found {
			return nil, fmt.Errorf("lineage step %d: no ancestor found", step)
		}
		cur := model.Materialize(e.flat, 1) // placeholder shapes; the prefix overwrites
		if err := e.repo.TransferPrefix(ctx, e.flat, cur, anc); err != nil {
			return nil, fmt.Errorf("lineage step %d: %w", step, err)
		}
		for i := 0; i < touch; i++ {
			v := paramVs[(step*touch+i)%len(paramVs)]
			for ti, t := range cur[v] {
				blockPerturb(t.Data, changeFrac, uint64(cfg.seed)<<48^uint64(step)<<32^uint64(v)<<8^uint64(ti))
			}
		}
		if id, err = e.repo.StoreDerived(ctx, e.flat, cur, 0.9, anc, nil); err != nil {
			return nil, fmt.Errorf("lineage step %d: %w", step, err)
		}
		want[id] = cur.Clone()
		e.track(id, true)
		res.logical += cur.SizeBytes()
	}
	st, err := e.repo.Stats(ctx)
	if err != nil {
		return nil, err
	}
	res.stored = int64(st.SegmentBytes)

	// One untimed warm-up pass: the raw and chunked runs share a process, and
	// whichever goes first would otherwise absorb the allocator and
	// page-fault warm-up. Then several timed passes from a freshly
	// collected heap: one pass takes ~10 ms warm, short enough for a single
	// GC pause to dominate.
	if err := e.loadAll("(lineage warm-up)"); err != nil {
		return nil, err
	}
	runtime.GC()
	ids := e.live()
	got := make([]model.WeightSet, len(ids))
	start := time.Now()
	for pass := 0; pass < 3; pass++ {
		for i, id := range ids {
			if _, got[i], err = e.repo.Load(ctx, id); err != nil {
				return nil, fmt.Errorf("restoring model %d: %w", id, err)
			}
			res.restored += got[i].SizeBytes()
		}
	}
	res.restore = time.Since(start)
	for i, id := range ids {
		if !got[i].Equal(want[id]) {
			return nil, fmt.Errorf("model %d restored with wrong weights", id)
		}
	}
	return res, e.check()
}

// blockPerturb XORs one contiguous run of frac·len(data) bytes (at least
// one) starting at a seed-chosen multiple of the chunk size: the
// block-local update a fine-tune makes when it touches one region of a
// tensor, chunk-local like bench/gen.go's perturbSparse. The run lies in
// one 64 KiB chunk of the stored segment, shifted only by the segment
// header.
func blockPerturb(data []byte, frac float64, seed uint64) {
	x := (seed ^ seed>>31) * 0x9e3779b97f4a7c15
	blocks := max(1, len(data)/dedup.DefaultChunkSize)
	lo := int(x>>33) % blocks * dedup.DefaultChunkSize
	hi := min(len(data), lo+max(1, int(frac*float64(len(data)))))
	for i := lo; i < hi; i++ {
		data[i] ^= byte(x>>8) | 1 // never a no-op
	}
}

// runDedup stores the same lineage twice — raw (structural dedup only) and
// with content-addressed chunks (core.Options.Dedup) — on identical
// logical writes, so the stored-bytes ratio is the capacity chunk sharing
// adds and the restore ratio its read-path cost. Contract: every restored
// model bit-identical in both runs; a ratio above 1.1x at smoke size and
// at least 2x at full size; and (timing) a restore slowdown <= 2x.
//
// Chunks are shared within one provider's store only, so every provider
// holds the whole lineage here (Providers = Replicas): the ratio is what
// chunk sharing saves, not where placement happened to put each child.
// Spread over 4 single-homed providers the same lineage measures 1.85x
// at full size, because a child homed away from the ancestor segment it
// changed shares none of that segment's chunks.
func runDedup(cfg config) error {
	r := max(cfg.replicas, 1)
	opts := core.Options{Providers: r, Replicas: r}
	raw, err := lineage(cfg, opts)
	if err != nil {
		return fmt.Errorf("raw lineage run: %w", err)
	}
	opts.Dedup = true
	ded, err := lineage(cfg, opts)
	if err != nil {
		return fmt.Errorf("chunked lineage run: %w", err)
	}
	mbps := func(r *lineageRun) float64 { return float64(r.restored) / 1e6 / r.restore.Seconds() }
	ratio := float64(raw.stored) / float64(ded.stored)
	slowdown := mbps(raw) / mbps(ded)
	tbl := metrics.NewTable("Metric", "raw", "chunks")
	tbl.Add("stored bytes", raw.stored, ded.stored)
	tbl.Add("logical/stored", fmt.Sprintf("%.2fx", float64(raw.logical)/float64(raw.stored)),
		fmt.Sprintf("%.2fx", float64(ded.logical)/float64(ded.stored)))
	tbl.Add("restore MB/s", fmt.Sprintf("%.0f", mbps(raw)), fmt.Sprintf("%.0f", mbps(ded)))
	tbl.Render(cfg.out)
	cfg.logf("dedup ratio %.2fx, restore slowdown %.2fx\n", ratio, slowdown)
	switch {
	case cfg.smoke && ratio <= 1.1:
		return fmt.Errorf("dedup ratio %.2fx not above the 1.1x smoke target", ratio)
	case !cfg.smoke && ratio < 2:
		return fmt.Errorf("dedup ratio %.2fx below the 2x target", ratio)
	}
	if cfg.timing && slowdown > 2 {
		return fmt.Errorf("restore slowdown %.2fx above the 2x target", slowdown)
	}
	return nil
}
