package main

// The scenario harness. Every scenario in scenarios.go is a short script
// over the pieces here: one embedded deployment (open → env), one seeded
// workload (seed, readers), one wait-until-healed poll, and one invariant
// checker (check) that every core.Repository scenario returns through.
// Nothing here is wall-clock sensitive except the latencies readers
// records; which provider fails, what the fault RNGs draw and what the
// zipfian readers pick all derive from the one -seed, and a failure prints
// the line that replays it.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/rpc"
)

// config is one scenario invocation.
type config struct {
	seed     int64
	smoke    bool // the CI size; each scenario has exactly two sizes
	replicas int  // 0 = the scenario's default
	// timing also evaluates the wall-clock ratio contract (storm's hedged
	// p99 bound). The CLI sets it; the test binary
	// does not, so tier-1 asserts only what a loaded host cannot make flake.
	timing bool
	out    io.Writer
}

// scenarioFlags parses the three flags every scenario (and `check`) takes.
func scenarioFlags(name string, args []string, smoke bool) config {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	small := fs.Bool("smoke", smoke, "CI-size run (seconds)")
	seed := fs.Int64("seed", 1, "seed of the fault schedule, the victim choice and the read pattern")
	replicas := fs.Int("replicas", 0, "N-way replication factor (0 = the scenario's default)")
	fs.Parse(args)
	return config{seed: *seed, smoke: *small, replicas: *replicas, timing: true, out: os.Stdout}
}

// execute runs one scenario and stamps a failure with what replays it.
func execute(sc scenario, cfg config) error {
	cfg.logf("\n=== %s: %s ===\n", sc.name, sc.breaks)
	if err := sc.run(cfg); err != nil {
		return fmt.Errorf("%w (scenario=%s seed=%d smoke=%t)", err, sc.name, cfg.seed, cfg.smoke)
	}
	return nil
}

func (c config) logf(format string, args ...any) { fmt.Fprintf(c.out, format, args...) }

// size picks between a scenario's two sizes.
func (c config) size(full, smoke int) int {
	if c.smoke {
		return smoke
	}
	return full
}

// rng is the scenario's own random stream: victim provider, storm order.
func (c config) rng() *rand.Rand { return rand.New(rand.NewSource(c.seed)) }

// clientCounters is where core.Open's client counts: Open builds it without
// client.WithRegistry, so unlike faults and resilience the client.*
// counters of an embedded deployment cannot be pointed at env.reg. count
// reads them as growth since open, which is exact as long as deployments
// do not overlap in time — scenarios, `check` and the tests run them one
// after another.
var clientCounters = metrics.Default

// env is one embedded deployment under test.
type env struct {
	cfg  config
	opts core.Options
	repo *core.Repository
	reg  *metrics.Registry // fault and resilience counters of this deployment only
	base map[string]uint64 // clientCounters at open
	flat *model.Flat       // what seed stores

	mu      sync.Mutex
	ids     []core.ModelID // live models in store order; ids[0] is zipf rank 0
	derived int            // how many of them were stored as LCP children
	weights uint64         // next model.Materialize seed
}

// open builds the deployment. Fault RNG seeds and every counter registry an
// option can carry are filled in here, so scripts state only the fault
// rates and retry policy they are about.
func open(cfg config, opts core.Options) (*env, error) {
	e := &env{cfg: cfg, reg: metrics.NewRegistry(), base: clientCounters.Snapshot(), weights: uint64(cfg.seed) << 20}
	if faults := opts.Faults; faults != nil {
		opts.Faults = func(i int) *rpc.FaultConfig {
			fc := faults(i)
			if fc != nil {
				fc.Seed, fc.Registry = cfg.seed+int64(i), e.reg
			}
			return fc
		}
	}
	if opts.Resilience != nil {
		ro := *opts.Resilience
		ro.Registry = e.reg
		opts.Resilience = &ro
	}
	flat, err := model.Flatten(model.Sequential("bench", 8,
		model.Dense{In: 8, Out: 8, Activation: "relu", UseBias: true},
		model.Dense{In: 8, Out: 8, Activation: "relu"},
		model.Dense{In: 8, Out: 4},
	))
	if err != nil {
		return nil, err
	}
	e.flat, e.opts = flat, opts
	if e.repo, err = core.Open(opts); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() { e.repo.Close() }

func (e *env) logf(format string, args ...any) { e.cfg.logf(format, args...) }

// count is a counter's value for this deployment alone.
func (e *env) count(name string) uint64 {
	if strings.HasPrefix(name, "client.") {
		return clientCounters.Counter(name).Load() - e.base[name]
	}
	return e.reg.Counter(name).Load()
}

// live returns a copy of the live ID set.
func (e *env) live() []core.ModelID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.ids)
}

func (e *env) stored() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.ids)
}

// track records a stored model; weightSeed hands out fresh tensor contents.
func (e *env) track(id core.ModelID, derived bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ids = append(e.ids, id)
	if derived {
		e.derived++
	}
}

func (e *env) weightSeed() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.weights++
	return e.weights
}

// seed stores n models of e.flat. With derived set every second model is an
// LCP child — best ancestor, prefix transfer, a mutated head so the child
// owns a vertex, StoreDerived — so that retires and migrations later move
// and DecRef inherited cross-provider tensors, not only self-owned ones. A
// failed ancestor query is an error: silently storing from scratch instead
// would skip the very path the drain check exists for.
func (e *env) seed(n int, derived bool) error {
	ctx := context.Background()
	last := graph.VertexID(e.flat.Graph.NumVertices() - 1)
	for i := 0; i < n; i++ {
		ws := model.Materialize(e.flat, e.weightSeed())
		var anc *core.Ancestor
		if derived && e.stored()%2 == 1 {
			a, found, err := e.repo.BestAncestor(ctx, e.flat)
			if err != nil {
				return fmt.Errorf("ancestor query for model %d: %w", i, err)
			}
			if found {
				anc = a
			}
		}
		var id core.ModelID
		var err error
		if anc != nil {
			if err := e.repo.TransferPrefix(ctx, e.flat, ws, anc); err != nil {
				return fmt.Errorf("transfer for model %d: %w", i, err)
			}
			ws[last] = model.Materialize(e.flat, e.weightSeed())[last]
			id, err = e.repo.StoreDerived(ctx, e.flat, ws, 0.5, anc, nil)
		} else {
			id, err = e.repo.Store(ctx, e.flat, ws, 0.5)
		}
		if err != nil {
			return fmt.Errorf("store model %d: %w", i, err)
		}
		e.track(id, anc != nil)
	}
	return nil
}

// retire retires one model mid-scenario and drops it from the live set.
func (e *env) retire(id core.ModelID) error {
	if _, err := e.repo.Retire(context.Background(), id); err != nil {
		return fmt.Errorf("retire %d: %w", id, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ids = slices.DeleteFunc(e.ids, func(x core.ModelID) bool { return x == id })
	return nil
}

// loadAll reads every live model once, in order; what labels the error.
func (e *env) loadAll(what string) error {
	for _, id := range e.live() {
		if _, _, err := e.repo.Load(context.Background(), id); err != nil {
			return fmt.Errorf("load %d %s: %w", id, what, err)
		}
	}
	return nil
}

// readStats summarises one read workload. Percentiles are
// metrics.Percentile over the successful operations, in milliseconds — the
// one definition of "p99" in this binary.
type readStats struct {
	lats  []float64 // ascending
	fails int
	err   error // the first failure
}

func (s readStats) p(q float64) float64 { return metrics.Percentile(s.lats, q) }

// zipfS is the skew of every zipfian read pattern: rank 0 takes the bulk.
const zipfS = 1.4

// pool is the closed-loop worker pool behind every read workload: worker w
// calls op(w, rank) with rank drawn from [0,n) — zipfian from a generator
// seeded seed+w, or round-robin — until until(done) says stop, where done
// counts that worker's operations so far.
func pool(seed int64, workers, n int, zipf bool, until func(done int) bool, op func(w, rank int) error) readStats {
	var mu sync.Mutex
	var out readStats
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pick := func(i int) int { return (i + w) % n }
			if zipf {
				z := rand.NewZipf(rand.New(rand.NewSource(seed+int64(w))), zipfS, 1, uint64(n-1))
				pick = func(int) int { return int(z.Uint64()) }
			}
			var local readStats
			for i := 0; !until(i); i++ {
				start := time.Now()
				if err := op(w, pick(i)); err != nil {
					local.fails++
					if local.err == nil {
						local.err = err
					}
					continue
				}
				local.lats = append(local.lats, time.Since(start).Seconds()*1e3)
			}
			mu.Lock()
			defer mu.Unlock()
			out.lats = append(out.lats, local.lats...)
			out.fails += local.fails
			if out.err == nil {
				out.err = local.err
			}
		}(w)
	}
	wg.Wait()
	sort.Float64s(out.lats)
	return out
}

// readers runs Load workers over the models live when it starts.
func (e *env) readers(workers int, zipf bool, until func(done int) bool) readStats {
	ids := e.live()
	return pool(e.cfg.seed, workers, len(ids), zipf, until, func(_, rank int) error {
		_, _, err := e.repo.Load(context.Background(), ids[rank])
		return err
	})
}

// untilTime stops a pool after d; untilCount after n operations per worker.
func untilTime(d time.Duration) func(int) bool {
	deadline := time.Now().Add(d)
	return func(int) bool { return time.Now().After(deadline) }
}

func untilCount(n int) func(int) bool { return func(done int) bool { return done >= n } }

// awaitHealed waits for every breaker to close after a partition heals or a
// provider restarts. Stats broadcasts to all providers and fails while any
// leg is shed, whereas loads would be answered by surviving replicas.
func (e *env) awaitHealed() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := e.repo.Stats(context.Background())
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deployment did not recover after healing: %w", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// check is the invariant checker every core.Repository scenario ends in,
// with all faults cleared and all providers up:
//
//   - no replica set is diverged (the repairer's own audit);
//   - independently of the repairer's digest RPCs, the digests read
//     straight off the provider structs have converged across every
//     replica set of every cataloged model: they hash the catalog entry,
//     the refcounts and each stored segment's length, not its bytes;
//   - after retiring everything the deployment holds 0 models, 0 segments
//     and 0 live refs — one lost or doubled IncRef/DecRef delta, one leaked
//     retire leg, leaves something behind — and, unless the catalog is
//     durable (its cat/ tombstones and journals are KV bytes too), 0
//     segment bytes, which also proves dedup chunk refs drained.
func (e *env) check() error {
	ctx := context.Background()
	diverged, err := e.repo.RepairCheck(ctx)
	if err != nil {
		return fmt.Errorf("check: divergence audit: %w", err)
	}
	if len(diverged) != 0 {
		return fmt.Errorf("check: replica sets still diverged: %v", diverged)
	}
	all, err := e.repo.ListModels(ctx)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	provs := e.repo.Providers()
	for _, id := range all {
		set := e.repo.ReplicaSet(id)
		d0 := provs[set[0]].Digest(id)
		for _, pi := range set[1:] {
			if di := provs[pi].Digest(id); !d0.Converged(di) {
				return fmt.Errorf("check: model %d: replica %d digest %+v != replica %d digest %+v",
					id, set[0], d0, pi, di)
			}
		}
	}
	for _, id := range all {
		if _, err := e.repo.Retire(ctx, id); err != nil {
			return fmt.Errorf("check: retire %d: %w", id, err)
		}
	}
	st, err := e.repo.Stats(ctx)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if st.Models != 0 || st.Segments != 0 || st.LiveRefs != 0 || (!e.opts.DurableCatalog && st.SegmentBytes != 0) {
		return fmt.Errorf("check: refcount drift: repository did not drain: %+v", *st)
	}
	e.logf("check: %d models with converged replica digests (catalog entry, refcounts, segment lengths), retired, drained to zero\n", len(all))
	e.reg.Render(e.cfg.out)
	return nil
}
