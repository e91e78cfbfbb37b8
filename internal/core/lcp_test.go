package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/archgen"
	"repro/internal/client"
	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ownermap"
	"repro/internal/placement"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/rpc"
)

// lcpDeployment is four in-process providers at R=3 behind fault and
// call-counting wrappers, with one registry for all providers' counters, so
// provider.lcp_scanned is the sum over the deployment.
type lcpDeployment struct {
	provs  []*provider.Provider
	faults []*rpc.FaultConn
	conns  []rpc.Conn
	reg    *metrics.Registry

	mu    sync.Mutex
	calls map[string]int

	live map[ownermap.ModelID]*proto.ModelMeta
}

func newLCPDeployment(t *testing.T, providers, replicas int) *lcpDeployment {
	t.Helper()
	d := &lcpDeployment{reg: metrics.NewRegistry(), calls: make(map[string]int), live: make(map[ownermap.ModelID]*proto.ModelMeta)}
	net := rpc.NewInprocNet()
	for i := 0; i < providers; i++ {
		p := provider.New(i, kvstore.NewMemKV(4))
		p.SetPlacement(providers, replicas)
		p.SetMetricsRegistry(d.reg)
		srv := rpc.NewServer()
		p.Register(srv)
		addr := fmt.Sprintf("p%d", i)
		if err := net.Listen(addr, srv); err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		fc := rpc.WithFaults(c, rpc.FaultConfig{Registry: d.reg})
		d.provs = append(d.provs, p)
		d.faults = append(d.faults, fc)
		d.conns = append(d.conns, countingConn{Conn: fc, mu: &d.mu, calls: d.calls})
	}
	return d
}

// scanned is the number of catalog entries the providers have scanned so
// far, summed over the deployment.
func (d *lcpDeployment) scanned() uint64 { return d.reg.Counter("provider.lcp_scanned").Load() }

// queryCalls is the number of lcp_query calls made so far, failed ones
// included.
func (d *lcpDeployment) queryCalls() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls[proto.RPCLCPQuery]
}

// fullScan is the reference answer: the longest prefix any live model
// shares with q, and the model proto.LCPBeats picks among those (nil when
// no live model shares a vertex with q).
func (d *lcpDeployment) fullScan(q *model.Flat, preferRecent bool) (int, *proto.ModelMeta) {
	var best *proto.ModelMeta
	bestSize := 0
	for _, m := range d.live {
		n := graph.LCPSize(q.Graph, m.Graph)
		if n > 0 && (best == nil || proto.LCPBeats(n, m, bestSize, best, preferRecent)) {
			best, bestSize = m, n
		}
	}
	return bestSize, best
}

// check runs every query through repo, under both tie-break rules, and
// compares each answer with the full scan: the same prefix size and the
// same winning model. It returns the catalog entries scanned and lcp_query
// calls made per query; every query in one check makes the same number.
func (d *lcpDeployment) check(t *testing.T, state string, repo *Repository, queries []*model.Flat) (scanned uint64, calls int) {
	t.Helper()
	ctx := context.Background()
	first := true
	for qi, q := range queries {
		for _, recent := range []bool{false, true} {
			s0, c0 := d.scanned(), d.queryCalls()
			query := repo.BestAncestor
			if recent {
				query = repo.BestAncestorRecent
			}
			anc, found, err := query(ctx, q)
			if err != nil {
				t.Fatalf("%s: query %d: %v", state, qi, err)
			}
			s, c := d.scanned()-s0, d.queryCalls()-c0
			if !first && (s != scanned || c != calls) {
				t.Fatalf("%s: query %d scanned %d entries in %d calls, query 0 %d in %d", state, qi, s, c, scanned, calls)
			}
			scanned, calls, first = s, c, false

			var gotID, wantID ownermap.ModelID // 0: nothing found
			gotSize, wantSize := 0, 0
			if found {
				gotID, gotSize = anc.Meta.Model, len(anc.Prefix)
			}
			if n, want := d.fullScan(q, recent); want != nil {
				wantID, wantSize = want.Model, n
			}
			if gotID != wantID || gotSize != wantSize {
				t.Fatalf("%s: query %d (recent=%v): model %d sharing %d vertices, full scan model %d sharing %d",
					state, qi, recent, gotID, gotSize, wantID, wantSize)
			}
		}
	}
	return scanned, calls
}

// storeCatalog stores fs through repo and records them as live.
func (d *lcpDeployment) storeCatalog(t *testing.T, repo *Repository, fs []*model.Flat) {
	t.Helper()
	for i, f := range fs {
		id, err := repo.Store(context.Background(), f, model.Materialize(f, uint64(i+1)), float64(i%7)/7)
		if err != nil {
			t.Fatal(err)
		}
		if d.live[id], err = repo.GetMeta(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
}

// BestAncestor's collective scan, in which each provider answers only for
// the models it is home for, must find what a scan of the whole live
// catalog finds, in every state a deployment passes through: healthy, with
// a provider cut off, mid-rebalance, and queried by a client one epoch
// behind. Healthy and mid-rebalance queries scan every live model exactly
// once, in one round; a query whose fallback round cannot run fails.
func TestBestAncestorMatchesFullScan(t *testing.T) {
	const providers, replicas = 4, 3
	ctx := context.Background()
	d := newLCPDeployment(t, providers, replicas)
	repo := Attach(d.conns, client.WithReplicas(replicas))
	stale := Attach(d.conns, client.WithReplicas(replicas)) // never learns a newer epoch

	cat, err := archgen.Catalog(11, 48, archgen.SpaceOptions{MaxCells: 6})
	if err != nil {
		t.Fatal(err)
	}
	d.storeCatalog(t, repo, cat[:40])
	for id := range d.live {
		if id%9 == 0 {
			if _, err := repo.Retire(ctx, id); err != nil {
				t.Fatal(err)
			}
			delete(d.live, id)
		}
	}
	unseen, err := archgen.Catalog(12, 8, archgen.SpaceOptions{MaxCells: 6})
	if err != nil {
		t.Fatal(err)
	}
	queries := append(unseen, cat...) // every stored architecture, retired ones included

	live := func() uint64 { return uint64(len(d.live)) }
	if s, c := d.check(t, "healthy", repo, queries); s != live() || c != providers {
		t.Errorf("healthy: scanned %d entries in %d calls, want each of %d live models once in %d calls", s, c, live(), providers)
	}

	// A partitioned provider's home share goes unscanned in the first
	// round, so the three that answered scan all they hold in a second.
	const cut = 2
	var fallback uint64
	for id := range d.live {
		rs := repo.PlacementTable().ReplicaSet(id)
		if rs[0] != cut {
			fallback++ // its home's first-round answer
		}
		for _, pi := range rs {
			if pi != cut {
				fallback++
			}
		}
	}
	d.faults[cut].SetPartitioned(true)
	if s, c := d.check(t, "partitioned", repo, queries); s != fallback || c != 2*providers-1 {
		t.Errorf("partitioned: scanned %d entries in %d calls, want %d in a round of %d and a fallback round of %d",
			s, c, fallback, providers, providers-1)
	}
	d.faults[cut].SetPartitioned(false)

	// A leg that hangs until the deadline leaves no time for the fallback
	// round: the query fails rather than answer without the hung
	// provider's home share.
	d.faults[cut].SetSlow(&rpc.SlowProfile{Extra: time.Hour})
	c0 := d.queryCalls()
	hung, cancel := context.WithTimeout(ctx, time.Second)
	if _, found, err := repo.BestAncestor(hung, queries[0]); !errors.Is(err, context.DeadlineExceeded) || found {
		t.Errorf("hung leg: found=%v err=%v, want context.DeadlineExceeded", found, err)
	}
	cancel()
	if c := d.queryCalls() - c0; c != 2*providers-1 {
		t.Errorf("hung leg: %d calls, want a round of %d and a fallback round of %d", c, providers, providers-1)
	}
	d.faults[cut].SetSlow(nil)

	// Arm a drain of provider 1 by hand and stop there: nothing has moved,
	// and the models stored while armed go to both epochs' replica sets.
	old := repo.PlacementTable()
	next, err := old.WithoutMember(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.provs {
		if err := p.SetPlacementState(&placement.State{Cur: next, Prev: old}); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Client().SetPlacementState(next, old); err != nil {
		t.Fatal(err)
	}
	d.storeCatalog(t, repo, cat[40:])
	if s, c := d.check(t, "armed", repo, queries); s != live() || c != providers {
		t.Errorf("armed: scanned %d entries in %d calls, want %d in %d calls", s, c, live(), providers)
	}

	// Finish the migration: commit and evict.
	if _, err := repo.Rebalancer().Rebalance(ctx, next); err != nil {
		t.Fatal(err)
	}
	if s, c := d.check(t, "committed", repo, queries); s != live() || c != providers {
		t.Errorf("committed: scanned %d entries in %d calls, want %d in %d calls", s, c, live(), providers)
	}
	// A client still at epoch 0 names a table no provider holds as its
	// complete one, so every provider scans all it holds.
	if s, _ := d.check(t, "stale client", stale, queries); s <= live() {
		t.Errorf("stale client: scanned %d entries, want more than the %d live models", s, live())
	}
}
