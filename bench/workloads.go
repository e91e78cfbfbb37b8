package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/archgen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// scale sizes the workloads. fullScale is what BENCHMARK.json measures; the
// smoke test shrinks it.
type scale struct {
	modelBytes int64 // parameter bytes of one restore/derive model
	layers     int   // its parameter layers
	coldModels int   // restore-cold: independent models stored
	lineage    int   // restore-hot: models in the fine-tune chain
	population int   // derive: live models kept (aged evolution)
	// derive set-up continues until every provider has run this many full
	// compactions, so the window starts in steady state.
	setupCompactions int
	catalog          int // lcp-query: architectures stored
	queries          int // lcp-query: distinct query architectures, cycled
	spotCheckEvery   int // lcp-query: every n-th query is checked against graph.LCP
}

// With these sizes restore-cold holds 160 MiB, 2.5 times the client's
// 64 MiB segment cache, and restore-hot holds about 26 MiB of distinct
// segments, well inside it.
var fullScale = scale{
	modelBytes: 4 << 20, layers: 16,
	coldModels: 40, lineage: 12,
	population: 32, setupCompactions: 1,
	catalog: 2000, queries: 512, spotCheckEvery: 50,
}

var workloadWhy = map[string]string{
	"restore-cold": "40 independent 4 MiB models, 2.5x the client cache, read cyclically: every byte crosses rpc, provider, dedup and kvstore; the cache never hits",
	"restore-hot":  "one 12-model fine-tune lineage that fits the client cache, read zipfian after a warm pass: the client's cache and tensor decode do the work",
	"derive":       "the NAS worker loop, writes beside reads: best ancestor, transfer, store derived, retire the oldest beyond 32 live; flushes and compactions in the window",
	"lcp-query":    "2000 stored architectures, BestAncestor for unseen ones: metadata only, so kvstore and dedup move no bytes",
}

var workloadNames = []string{"restore-cold", "restore-hot", "derive", "lcp-query"}

// samples is what one client's closed loop collects.
type samples struct {
	primary   []float64 // ms: Load, StoreDerived or BestAncestor, by workload
	transfer  []float64 // ms: TransferPrefix (derive only)
	done      []float64 // s since the window began at which each primary sample's iteration ended
	attempted int       // iterations started
	failed    int       // iterations with an error or a failed verification
	readBytes int64     // logical weight bytes returned by verified reads
	putBytes  int64     // logical weight bytes of new segments stored
}

// workload is one named input set. Its methods see only the generated
// models and drive the deployment through core.Repository.
type workload interface {
	// setup populates the deployment; it is everything before the first
	// timed operation.
	setup(ctx context.Context, e *env) error
	// iterate runs one closed-loop iteration of client c. A returned error
	// counts the iteration as failed.
	iterate(ctx context.Context, e *env, c int, s *samples) error
	// liveBytes is the logical weight bytes of the models now live.
	liveBytes() int64
	// finish runs the end-of-run checks.
	finish(ctx context.Context, e *env) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "restore-cold":
		return &restoreCold{}, nil
	case "restore-hot":
		return &restoreHot{}, nil
	case "derive":
		return &derive{}, nil
	case "lcp-query":
		return &lcpQuery{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// env is what a workload runs against.
type env struct {
	d    *deployment
	sc   scale
	seed int64
}

// timed runs one core.Repository call, returns its latency in ms and, when
// tracing, records it as a core span whose op ID the conn spans inherit.
func (e *env) timed(ctx context.Context, name string, fn func(context.Context) error) (float64, error) {
	done := func() {}
	if e.d.rec != nil {
		ctx, done = e.d.rec.withOp(ctx, name)
	}
	t0 := time.Now()
	err := fn(ctx)
	ms := float64(time.Since(t0)) / 1e6
	done()
	return ms, err
}

// eachClient runs fn once per client goroutine and waits for all of them.
func eachClient(fn func(c int) error) error {
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func uniformModel(sc scale) (*model.Flat, error) {
	return archgen.Uniform(archgen.UniformOptions{TotalBytes: sc.modelBytes, Layers: sc.layers, SharedFraction: 1})
}

// loadVerified is the restore workloads' iteration: Load, then compare the
// returned weights with the fingerprint recorded at store time.
func loadVerified(ctx context.Context, e *env, id core.ModelID, want uint32, s *samples) error {
	var ws model.WeightSet
	ms, err := e.timed(ctx, "Load", func(ctx context.Context) (err error) {
		_, ws, err = e.d.repo.Load(ctx, id)
		return err
	})
	if err != nil {
		return err
	}
	if got := fingerprint(ws); got != want {
		return fmt.Errorf("load %d: fingerprint %08x, stored %08x", id, got, want)
	}
	s.primary = append(s.primary, ms)
	s.readBytes += ws.SizeBytes()
	return nil
}

// --- restore-cold ----------------------------------------------------------

type restoreCold struct {
	ids   []core.ModelID
	fps   []uint32
	order []int // a seeded order of the models; client c cycles through the c-th share of it
	bytes int64
	next  [numClients]int
}

func (w *restoreCold) setup(ctx context.Context, e *env) error {
	f, err := uniformModel(e.sc)
	if err != nil {
		return err
	}
	n := e.sc.coldModels
	w.ids, w.fps = make([]core.ModelID, n), make([]uint32, n)
	w.bytes = int64(n) * f.TotalParamBytes()
	err = eachClient(func(c int) error {
		for i := c; i < n; i += numClients {
			ws := model.Materialize(f, uint64(e.seed)<<20|uint64(i))
			id, err := e.d.repo.Store(ctx, f, ws, 0)
			if err != nil {
				return err
			}
			w.ids[i], w.fps[i] = id, fingerprint(ws)
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.order = newRand(e.seed, 0).Perm(n)
	return e.d.settle()
}

func (w *restoreCold) iterate(ctx context.Context, e *env, c int, s *samples) error {
	// Each client cycles through its own share, so a model comes round again
	// only after every other model has been read: more than the cache holds.
	share := len(w.order) / numClients
	i := w.order[c*share+w.next[c]%share]
	w.next[c]++
	return loadVerified(ctx, e, w.ids[i], w.fps[i], s)
}

func (w *restoreCold) liveBytes() int64                   { return w.bytes }
func (w *restoreCold) finish(context.Context, *env) error { return nil }

// --- restore-hot -----------------------------------------------------------

type restoreHot struct {
	ids   []core.ModelID // in lineage order
	fps   []uint32
	rank  []int // popularity rank → model: a seeded order
	bytes int64
	zipf  [numClients]*rand.Zipf
}

// zipfS is the popularity skew of restore-hot.
const zipfS = 1.1

func (w *restoreHot) setup(ctx context.Context, e *env) error {
	f, err := uniformModel(e.sc)
	if err != nil {
		return err
	}
	r := newRand(e.seed, 1)
	ws := model.Materialize(f, uint64(e.seed))
	id, err := e.d.repo.Store(ctx, f, ws, 0)
	if err != nil {
		return err
	}
	w.ids, w.fps = []core.ModelID{id}, []uint32{fingerprint(ws)}
	for len(w.ids) < e.sc.lineage {
		anc, found, err := e.d.repo.BestAncestorRecent(ctx, f)
		if err != nil || !found {
			return fmt.Errorf("lineage step %d: no ancestor: %v", len(w.ids), err)
		}
		ws = make(model.WeightSet, len(f.Leaves))
		if err := e.d.repo.TransferPrefix(ctx, f, ws, anc); err != nil {
			return err
		}
		perturbDense(f, ws, r)
		if id, err = e.d.repo.StoreDerived(ctx, f, ws, float64(len(w.ids)), anc, nil); err != nil {
			return err
		}
		w.ids, w.fps = append(w.ids, id), append(w.fps, fingerprint(ws))
	}
	w.bytes = int64(len(w.ids)) * f.TotalParamBytes()
	w.rank = newRand(e.seed, 2).Perm(len(w.ids))
	for c := range w.zipf {
		w.zipf[c] = newZipf(e.seed, 10+c, len(w.ids), zipfS)
	}
	if err := e.d.settle(); err != nil {
		return err
	}
	// The warm pass: one untimed Load of every model fills the cache.
	var warm samples
	for i, id := range w.ids {
		if err := loadVerified(ctx, e, id, w.fps[i], &warm); err != nil {
			return err
		}
	}
	return nil
}

func (w *restoreHot) iterate(ctx context.Context, e *env, c int, s *samples) error {
	i := w.rank[w.zipf[c].Uint64()]
	return loadVerified(ctx, e, w.ids[i], w.fps[i], s)
}

func (w *restoreHot) liveBytes() int64                   { return w.bytes }
func (w *restoreHot) finish(context.Context, *env) error { return nil }

// --- derive ----------------------------------------------------------------

// derive gives each client its own lineage: the clients' architectures share
// only their first half, so a client's longest common prefix is always with
// its own models and BestAncestorRecent returns the one it stored last.
// (With one shared lineage a client can be handed the model the other is
// still storing, whose segments are not readable yet; see README.md.)
type derive struct {
	clients [numClients]deriveClient
}

type deriveClient struct {
	f    *model.Flat
	rng  *rand.Rand
	live []core.ModelID // oldest first
	fps  map[core.ModelID]uint32
}

func (w *derive) setup(ctx context.Context, e *env) error {
	// Fill the population with the loop the window measures, and keep going
	// until every store has been through flushes and a full compaction.
	return eachClient(func(c int) error {
		cl := &w.clients[c]
		var err error
		cl.f, err = archgen.Uniform(archgen.UniformOptions{
			TotalBytes: e.sc.modelBytes, Layers: e.sc.layers, Variant: uint64(c), SharedFraction: 0.5})
		if err != nil {
			return err
		}
		cl.rng = newRand(e.seed, 20+c)
		cl.fps = make(map[core.ModelID]uint32)
		ws := model.Materialize(cl.f, uint64(e.seed)<<8|uint64(c))
		id, err := e.d.repo.Store(ctx, cl.f, ws, 0)
		if err != nil {
			return err
		}
		cl.live, cl.fps[id] = append(cl.live, id), fingerprint(ws)
		var s samples
		for !w.steady(e, c) {
			if err := w.iterate(ctx, e, c, &s); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *derive) steady(e *env, c int) bool {
	if len(w.clients[c].live) < e.sc.population/numClients {
		return false
	}
	for _, n := range e.d.compactions() {
		if n < e.sc.setupCompactions {
			return false
		}
	}
	return true
}

func (w *derive) iterate(ctx context.Context, e *env, c int, s *samples) error {
	cl := &w.clients[c]
	var anc *core.Ancestor
	var found bool
	_, err := e.timed(ctx, "BestAncestorRecent", func(ctx context.Context) (err error) {
		anc, found, err = e.d.repo.BestAncestorRecent(ctx, cl.f)
		return err
	})
	if err != nil || !found {
		return fmt.Errorf("best ancestor: found=%v: %v", found, err)
	}
	ws := make(model.WeightSet, len(cl.f.Leaves))
	transferMs, err := e.timed(ctx, "TransferPrefix", func(ctx context.Context) error {
		return e.d.repo.TransferPrefix(ctx, cl.f, ws, anc)
	})
	if err != nil {
		return err
	}
	// The ancestor has the client's own architecture, so the prefix is the
	// whole model and the transferred weights must be the ancestor's.
	want, ok := cl.fps[anc.Meta.Model]
	if got := fingerprint(ws); !ok || got != want {
		return fmt.Errorf("transfer from %d: fingerprint %08x, stored %08x (known %v)", anc.Meta.Model, got, want, ok)
	}
	perturbSparse(cl.f, ws, cl.rng)
	var id core.ModelID
	storeMs, err := e.timed(ctx, "StoreDerived", func(ctx context.Context) (err error) {
		id, err = e.d.repo.StoreDerived(ctx, cl.f, ws, 0, anc, nil)
		return err
	})
	if err != nil {
		return err
	}
	cl.live, cl.fps[id] = append(cl.live, id), fingerprint(ws)
	if len(cl.live) > e.sc.population/numClients {
		old := cl.live[0]
		cl.live = cl.live[1:]
		delete(cl.fps, old)
		if _, err := e.timed(ctx, "Retire", func(ctx context.Context) error {
			_, err := e.d.repo.Retire(ctx, old)
			return err
		}); err != nil {
			return err
		}
	}
	s.primary = append(s.primary, storeMs)
	s.transfer = append(s.transfer, transferMs)
	s.readBytes += ws.SizeBytes()
	s.putBytes += cl.f.TotalParamBytes() / 2 // half the layers are rewritten
	return nil
}

func (w *derive) liveBytes() int64 {
	var n int64
	for c := range w.clients {
		n += int64(len(w.clients[c].live)) * w.clients[c].f.TotalParamBytes()
	}
	return n
}

// finish checks that no replica set diverged, then retires every model and
// checks that reference counting frees every segment.
func (w *derive) finish(ctx context.Context, e *env) error {
	diverged, err := e.d.repo.RepairCheck(ctx)
	if err != nil {
		return fmt.Errorf("repair check: %w", err)
	}
	if len(diverged) > 0 {
		return fmt.Errorf("repair check: %d models diverged: %v", len(diverged), diverged)
	}
	for c := range w.clients {
		for _, id := range w.clients[c].live {
			if _, err := e.d.repo.Retire(ctx, id); err != nil {
				return fmt.Errorf("retire %d: %w", id, err)
			}
		}
		w.clients[c].live = nil
	}
	st, err := e.d.repo.Stats(ctx)
	if err != nil {
		return err
	}
	if st.Models != 0 || st.Segments != 0 {
		return fmt.Errorf("after retiring everything: %d models and %d segments remain", st.Models, st.Segments)
	}
	return nil
}

// --- lcp-query -------------------------------------------------------------

type lcpQuery struct {
	queries []*model.Flat
	want    map[int]int // query index → longest common prefix over the catalog
	bytes   int64
	next    [numClients]int
}

func (w *lcpQuery) setup(ctx context.Context, e *env) error {
	cat, err := archgen.Catalog(e.seed, e.sc.catalog, archgen.SpaceOptions{})
	if err != nil {
		return err
	}
	sizes := make([]int64, numClients)
	err = eachClient(func(c int) error {
		for i := c; i < len(cat); i += numClients {
			ws := model.Materialize(cat[i], uint64(i))
			if _, err := e.d.repo.Store(ctx, cat[i], ws, 0); err != nil {
				return err
			}
			sizes[c] += ws.SizeBytes()
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, n := range sizes {
		w.bytes += n
	}
	if w.queries, err = archgen.Catalog(e.seed+1, e.sc.queries, archgen.SpaceOptions{}); err != nil {
		return err
	}
	w.want = make(map[int]int)
	for qi := 0; qi < len(w.queries); qi += e.sc.spotCheckEvery {
		best := 0
		for _, a := range cat {
			best = max(best, graph.LCPSize(w.queries[qi].Graph, a.Graph))
		}
		w.want[qi] = best
	}
	return e.d.settle()
}

func (w *lcpQuery) iterate(ctx context.Context, e *env, c int, s *samples) error {
	n := len(w.queries)
	qi := (c*n/numClients + w.next[c]) % n
	w.next[c]++
	var anc *core.Ancestor
	var found bool
	ms, err := e.timed(ctx, "BestAncestor", func(ctx context.Context) (err error) {
		anc, found, err = e.d.repo.BestAncestor(ctx, w.queries[qi])
		return err
	})
	if err != nil {
		return err
	}
	if want, check := w.want[qi]; check {
		got := 0
		if found {
			got = len(anc.Prefix)
		}
		if got != want {
			return fmt.Errorf("query %d: prefix of %d vertices, graph.LCP over the catalog finds %d", qi, got, want)
		}
	}
	s.primary = append(s.primary, ms)
	return nil
}

func (w *lcpQuery) liveBytes() int64                   { return w.bytes }
func (w *lcpQuery) finish(context.Context, *env) error { return nil }
