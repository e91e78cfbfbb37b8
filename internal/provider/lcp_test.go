package provider

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/archgen"
	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/proto"
)

// storeMeta stores a metadata-only model: its owner map names the model
// itself and no segment is shipped.
func storeMeta(p *Provider, id ownermap.ModelID, seq uint64, quality float64, g *graph.Compact) error {
	return p.StoreModel(&proto.StoreModelReq{Model: id, Seq: seq, Quality: quality, Graph: g,
		OwnerMap: ownermap.New(id, seq, g.NumVertices())}, nil)
}

// catalogGraphs returns the graphs of archgen.Catalog(seed, n).
func catalogGraphs(tb testing.TB, seed int64, n int) []*graph.Compact {
	tb.Helper()
	cat, err := archgen.Catalog(seed, n, archgen.SpaceOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	gs := make([]*graph.Compact, n)
	for i, f := range cat {
		gs[i] = f.Graph
	}
	return gs
}

// shareProvider is provider 0 of a four-provider deployment at R=3 holding
// every model of gs whose replica set includes it (model i+1 has gs[i]) —
// the tracked lcp-query deployment — with qualities drawn from three
// values, so ties reach the tie rules. A query naming proto.TableName(0)
// scans its home share, a quarter of the catalog.
func shareProvider(tb testing.TB, gs []*graph.Compact, seed int64) *Provider {
	tb.Helper()
	p := New(0, kvstore.NewMemKV(4))
	p.SetMetricsRegistry(metrics.NewRegistry())
	p.SetPlacement(4, 3)
	t := placement.New(4, 3)
	r := rand.New(rand.NewSource(seed))
	for i, g := range gs {
		id := ownermap.ModelID(i + 1)
		quality := float64(r.Intn(3)) / 2
		if !slices.Contains(t.ReplicaSet(id), 0) {
			continue
		}
		if err := storeMeta(p, id, uint64(i+1), quality, g); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// exhaustiveLCP answers q with graph.LCP against every entry of the share p
// scans for it, read straight from the catalog: the models not storing and
// not excluded, of which p is home under homeTable's table when there is
// one.
func exhaustiveLCP(p *Provider, q *proto.LCPQueryReq) (*proto.ModelMeta, []graph.VertexID) {
	homes := p.homeTable(q)
	p.mu.RLock()
	defer p.mu.RUnlock()
	var best *proto.ModelMeta
	var bestPrefix []graph.VertexID
	for id, m := range p.models {
		if m.storing.Load() || slices.Contains(q.Exclude, id) || (homes != nil && homes.Home(id) != p.id) {
			continue
		}
		prefix := graph.LCP(q.Graph, m.entry.Graph)
		if len(prefix) > 0 && (best == nil || proto.LCPBeats(len(prefix), m.entry, len(bestPrefix), best, q.PreferRecent)) {
			best, bestPrefix = m.entry, prefix
		}
	}
	return best, bestPrefix
}

// agree reports how the indexed LCPQuery and exhaustiveLCP differ on q, or
// "" when they give the same winner and prefix.
func agree(p *Provider, q *proto.LCPQueryReq) string {
	res := p.LCPQuery(q)
	want, prefix := exhaustiveLCP(p, q)
	switch {
	case want == nil && res.Found():
		return fmt.Sprintf("found model %d, the exhaustive scan finds none", res.Meta.Model)
	case want == nil:
		return ""
	case !res.Found():
		return fmt.Sprintf("found none, the exhaustive scan finds model %d", want.Model)
	case res.Meta.Model != want.Model || !slices.Equal(res.Prefix, prefix):
		return fmt.Sprintf("found model %d with a %d-vertex prefix, the exhaustive scan model %d with %d",
			res.Meta.Model, len(res.Prefix), want.Model, len(prefix))
	}
	return ""
}

// The bound-ordered scan gives the exhaustive scan's winner and prefix on
// archgen catalogs, under both tie rules and with models excluded.
func TestLCPQueryMatchesExhaustiveScan(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := shareProvider(t, catalogGraphs(t, seed, 400), seed)
		r := rand.New(rand.NewSource(seed))
		for qi, g := range catalogGraphs(t, seed+100, 40) {
			for _, recent := range []bool{false, true} {
				q := &proto.LCPQueryReq{Graph: g, PreferRecent: recent, Table: proto.TableName(0)}
				winner, _ := exhaustiveLCP(p, q)
				excludes := [][]ownermap.ModelID{nil, {ownermap.ModelID(1 + r.Intn(400))}}
				if winner != nil {
					// The winner and a few others, as a caller whose winners
					// were retired after the scan asks again.
					excludes = append(excludes, []ownermap.ModelID{winner.Model,
						ownermap.ModelID(1 + r.Intn(400)), ownermap.ModelID(1 + r.Intn(400))})
				}
				for _, ex := range excludes {
					q.Exclude = ex
					if diff := agree(p, q); diff != "" {
						t.Fatalf("seed %d query %d PreferRecent=%v exclude %v: %s", seed, qi, recent, ex, diff)
					}
				}
			}
		}
	}
}

// On the tracked lcp-query catalog, the bound order computes an exact
// prefix for at most a quarter of the share it considers.
func TestLCPBoundOrderPrunes(t *testing.T) {
	p := shareProvider(t, catalogGraphs(t, 1, 2000), 1)
	for _, g := range catalogGraphs(t, 2, 512) {
		p.LCPQuery(&proto.LCPQueryReq{Graph: g, Table: proto.TableName(0)})
	}
	scanned := p.reg.Counter("provider.lcp_scanned").Load()
	exact := p.reg.Counter("provider.lcp_exact").Load()
	share := uint64(0)
	for _, id := range p.ListModels() {
		if placement.New(4, 3).Home(id) == 0 {
			share++
		}
	}
	if share < 400 || scanned != 512*share {
		t.Fatalf("scanned %d entries over a %d-model share, want 512 queries of the ~500-model share", scanned, share)
	}
	if exact*4 > scanned {
		t.Errorf("%d exact prefixes for %d scanned entries (%.1f%%), want at most 25%%",
			exact, scanned, 100*float64(exact)/float64(scanned))
	}
	t.Logf("%d exact prefixes for %d scanned entries (%.1f%%)", exact, scanned, 100*float64(exact)/float64(scanned))
}

// hookKV runs put, when set, before every Put and fails it with put's error.
type hookKV struct {
	kvstore.KV
	put func(key string) error
}

func (h *hookKV) Put(key string, value []byte) error {
	if h.put != nil {
		if err := h.put(key); err != nil {
			return err
		}
	}
	return h.KV.Put(key, value)
}

// Every change to the models a query may answer with is seen by the next
// query: after each mutation the snapshot-backed LCPQuery agrees with an
// exhaustive scan of the catalog as it is now. A query runs before every
// mutation too, so a snapshot a mutation failed to invalidate is served.
func TestLCPShareSnapshotInvalidation(t *testing.T) {
	// Model k is the chain (1, 10+k, 20+k): querying its graph finds it
	// whole while it is answerable, and a one-vertex prefix of another
	// model otherwise.
	modelGraph := func(k ownermap.ModelID) *graph.Compact {
		return chainGraph(1, 10+uint64(k), 20+uint64(k))
	}
	kv := &hookKV{KV: kvstore.NewMemKV(4)}
	p, err := NewDurable(0, kv)
	if err != nil {
		t.Fatal(err)
	}
	// Each check asks every model under one table name before the next,
	// starting with the name the last check ended with: a snapshot a
	// mutation failed to invalidate is then served for every model, not
	// replaced as soon as another table is asked for.
	check := func(step string) {
		t.Helper()
		for _, table := range []uint64{proto.TableName(1), 0, proto.TableName(0), proto.TableName(1)} {
			for k := ownermap.ModelID(1); k <= 12; k++ {
				q := &proto.LCPQueryReq{Graph: modelGraph(k), Table: table}
				if diff := agree(p, q); diff != "" {
					t.Fatalf("after %s, query for model %d naming table %d: %s", step, k, table, diff)
				}
			}
		}
	}
	store := func(k ownermap.ModelID) error {
		req, segs := storeReq(k, uint64(k), 0.5, modelGraph(k))
		return p.StoreModel(req, segs)
	}
	segsOf := func(k ownermap.ModelID) string { return fmt.Sprintf("seg/%016x/", uint64(k)) }

	check("open")
	for k := ownermap.ModelID(1); k <= 4; k++ {
		if err := store(k); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("store %d", k))
	}

	// A store in progress is hidden, then shown once it finishes.
	entered, gate := make(chan struct{}), make(chan struct{})
	kv.put = func(key string) error {
		if strings.HasPrefix(key, segsOf(5)) {
			select {
			case <-entered:
			default:
				close(entered)
			}
			<-gate
		}
		return nil
	}
	stored := make(chan error, 1)
	go func() { stored <- store(5) }()
	<-entered
	check("store 5 in progress")
	if _, err := p.Retire(3); err != nil { // rebuilds the snapshot mid-store
		t.Fatal(err)
	}
	check("retire 3 during store 5")
	close(gate)
	if err := <-stored; err != nil {
		t.Fatal(err)
	}
	check("store 5 finished")

	// A store whose payloads fail leaves its entry, readable by repair.
	kv.put = func(key string) error {
		if strings.HasPrefix(key, segsOf(6)) {
			return errors.New("disk full")
		}
		return nil
	}
	if err := store(6); err == nil {
		t.Fatal("store 6 succeeded with failing payload writes")
	}
	kv.put = nil
	check("store 6 failed")

	if _, err := p.Retire(2); err != nil {
		t.Fatal(err)
	}
	check("retire 2")

	// Placement install: home = id mod 4, one replica.
	old := placement.New(4, 1)
	p.SetPlacement(4, 1)
	check("placement install")
	if _, err := p.Evict(1); err != nil {
		t.Fatal(err)
	}
	check("evict 1")

	meta := &proto.ModelMeta{Model: 8, Seq: 8, Quality: 0.5, Graph: modelGraph(8), OwnerMap: ownermap.New(8, 8, 3)}
	if _, err := p.RepairApply(&proto.RepairApplyReq{Model: 8, Meta: meta.Encode()}, nil); err != nil {
		t.Fatal(err)
	}
	check("repair_apply install 8")
	if _, err := p.RepairApply(&proto.RepairApplyReq{Model: 4, Tombstone: true, TombstoneSeq: 4}, nil); err != nil {
		t.Fatal(err)
	}
	check("repair_apply tombstone 4")

	// Arm a migration that drains provider 3, then commit it.
	next, err := old.WithoutMember(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetPlacementState(&placement.State{Cur: next, Prev: old}); err != nil {
		t.Fatal(err)
	}
	check("placement arm")
	if err := p.SetPlacementState(&placement.State{Cur: next}); err != nil {
		t.Fatal(err)
	}
	check("placement commit")

	if p, err = NewDurable(0, kv); err != nil {
		t.Fatal(err)
	}
	check("reopen")
	if len(p.ListModels()) == 0 {
		t.Fatal("the reopened provider holds no models")
	}
}

// Queries from several goroutines at once, under both tie rules, with and
// without exclusions and naming tables that select different snapshots,
// each agree with an exhaustive scan: the pooled scanners and the shared
// snapshots keep no state between concurrent queries.
func TestLCPQueryConcurrent(t *testing.T) {
	p := shareProvider(t, catalogGraphs(t, 1, 400), 1)
	queries := catalogGraphs(t, 101, 40)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 120; i++ {
				q := &proto.LCPQueryReq{Graph: queries[r.Intn(len(queries))], PreferRecent: r.Intn(2) == 0}
				if r.Intn(2) == 0 {
					q.Table = proto.TableName(0)
				}
				if r.Intn(2) == 0 {
					q.Exclude = []ownermap.ModelID{ownermap.ModelID(1 + r.Intn(400)), ownermap.ModelID(1 + r.Intn(400))}
				}
				if diff := agree(p, q); diff != "" {
					errs <- fmt.Sprintf("goroutine %d query %d: %s", w, i, diff)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// A returned prefix is the caller's own: later queries, which reuse the
// scanner that computed it, leave it as it was. Model 9's graph has two
// roots, and a query that misses the first finds the prefix [1 2], which
// differs from model 1's in every slot they share.
func TestLCPQueryPrefixOwned(t *testing.T) {
	twoRoots := func(first uint64) *graph.Compact {
		b := graph.NewBuilder(3)
		for _, sig := range []uint64{first, 51, 52} {
			b.AddVertex(graph.Vertex{ConfigSig: sig, ParamBytes: 8})
		}
		b.AddEdge(1, 2)
		return b.Build()
	}
	p := New(0, kvstore.NewMemKV(4))
	if err := storeMeta(p, 1, 1, 0.5, chainGraph(1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := storeMeta(p, 9, 9, 0.5, twoRoots(50)); err != nil {
		t.Fatal(err)
	}
	res := p.LCPQuery(&proto.LCPQueryReq{Graph: chainGraph(1, 2, 3, 4)})
	want := []graph.VertexID{0, 1, 2, 3}
	if !res.Found() || res.Meta.Model != 1 || !slices.Equal(res.Prefix, want) {
		t.Fatalf("query for model 1's graph found %+v", res)
	}
	later := p.LCPQuery(&proto.LCPQueryReq{Graph: twoRoots(99)})
	if !later.Found() || later.Meta.Model != 9 || !slices.Equal(later.Prefix, []graph.VertexID{1, 2}) {
		t.Fatalf("query missing model 9's first root found %+v", later)
	}
	if !slices.Equal(res.Prefix, want) {
		t.Errorf("the prefix changed to %v after a later query, want %v", res.Prefix, want)
	}
}
