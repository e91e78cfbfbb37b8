package client

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

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

// elasticCluster is an in-process deployment whose member list is smaller
// than its connection list: providers members..members+spares-1 run and
// are dialed but start outside the placement table, as join targets.
type elasticCluster struct {
	cli   *Client
	provs []*provider.Provider
	net   *rpc.InprocNet
	reg   *metrics.Registry
}

func newElasticCluster(t testing.TB, members, spares, r int) *elasticCluster {
	t.Helper()
	ec := &elasticCluster{net: rpc.NewInprocNet(), reg: metrics.NewRegistry()}
	total := members + spares
	conns := make([]rpc.Conn, total)
	for i := 0; i < total; i++ {
		p := provider.New(i, kvstore.NewMemKV(8))
		p.SetPlacement(members, r)
		srv := rpc.NewServer()
		p.Register(srv)
		addr := fmt.Sprintf("p%d", i)
		if err := ec.net.Listen(addr, srv); err != nil {
			t.Fatal(err)
		}
		c, err := ec.net.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		ec.provs = append(ec.provs, p)
		conns[i] = c
	}
	ec.cli = New(conns, WithPlacement(placement.New(members, r)), WithRegistry(ec.reg))
	return ec
}

// dialClient opens an independent client over the same providers — a
// second process of the deployment, free to hold a stale placement table.
func (ec *elasticCluster) dialClient(t testing.TB, tbl *placement.Table) *Client {
	t.Helper()
	conns := make([]rpc.Conn, len(ec.provs))
	for i := range conns {
		c, err := ec.net.Dial(fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	return New(conns, WithPlacement(tbl), WithRegistry(metrics.NewRegistry()))
}

func (ec *elasticCluster) store(t testing.TB, cli *Client, id ownermap.ModelID) {
	t.Helper()
	f := flatten(t, 4)
	if err := cli.Store(context.Background(), metaFor(f, id, uint64(id), 0.5),
		segsFor(f, model.Materialize(f, uint64(id)))); err != nil {
		t.Fatalf("store %d: %v", id, err)
	}
}

// assertConverged pulls id's digest from every provider of its current
// replica set and requires bit-identical agreement.
func (ec *elasticCluster) assertConverged(t testing.TB, id ownermap.ModelID) {
	t.Helper()
	set := ec.cli.ReplicaSet(id)
	base := ec.provs[set[0]].Digest(id)
	for _, pi := range set[1:] {
		if d := ec.provs[pi].Digest(id); !base.Converged(d) {
			t.Errorf("model %d diverged across %v: provider %d %+v vs provider %d %+v",
				id, set, set[0], base, pi, d)
		}
	}
}

// TestRebalanceDrainJoinUnderLoad runs the full elasticity cycle — drain
// one member, then join the spare — while reader and writer goroutines
// hammer the deployment. Not one request may fail, and afterwards every
// model must be bit-identical across its new replica set with the drained
// provider empty. Run with -race this is also the epoch-bump data-race
// check: the workload's placement lookups race the rebalancer's installs.
func TestRebalanceDrainJoinUnderLoad(t *testing.T) {
	ec := newElasticCluster(t, 3, 1, 2)
	ctx := context.Background()

	seeds := []ownermap.ModelID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for _, id := range seeds {
		ec.store(t, ec.cli, id)
	}

	var nextID atomic.Uint64
	nextID.Store(100)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ownermap.ModelID(nextID.Add(1))
				f := flatten(t, 4)
				if err := ec.cli.Store(ctx, metaFor(f, id, uint64(id), 0.5),
					segsFor(f, model.Materialize(f, uint64(id)))); err != nil {
					errc <- fmt.Errorf("worker %d: store %d: %w", w, id, err)
					return
				}
				seed := seeds[i%len(seeds)]
				if _, err := ec.cli.Load(ctx, seed); err != nil {
					errc <- fmt.Errorf("worker %d: load %d: %w", w, seed, err)
					return
				}
			}
		}(w)
	}

	reb := NewRebalancer(ec.cli)
	drain, err := ec.cli.PlacementTable().WithoutMember(1)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := reb.Rebalance(ctx, drain)
	if err != nil {
		t.Fatalf("drain rebalance: %v", err)
	}
	if st1.Epoch != 1 || st1.Migrated == 0 {
		t.Errorf("drain stats = %v", st1)
	}
	join, err := ec.cli.PlacementTable().WithMember(3)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := reb.Rebalance(ctx, join)
	if err != nil {
		t.Fatalf("join rebalance: %v", err)
	}
	if st2.Epoch != 2 || st2.Migrated == 0 {
		t.Errorf("join stats = %v", st2)
	}

	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The drained provider left every replica set in epoch 1 and was never
	// re-added: eviction must have emptied it completely.
	if s := ec.provs[1].Stats(); s.Models != 0 || s.Segments != 0 {
		t.Errorf("drained provider still holds %d models / %d segments", s.Models, s.Segments)
	}
	// Every model — seeds and the ones stored mid-migration — must be
	// bit-identical across its new replica set, which includes the joiner.
	ids, err := ec.cli.ListModels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < len(seeds) {
		t.Fatalf("only %d models survived", len(ids))
	}
	joinerUsed := false
	for _, id := range ids {
		set := ec.cli.ReplicaSet(id)
		if containsInt(set, 1) {
			t.Fatalf("model %d still placed on drained provider: %v", id, set)
		}
		if containsInt(set, 3) {
			joinerUsed = true
		}
		ec.assertConverged(t, id)
	}
	if !joinerUsed {
		t.Error("joined provider 3 appears in no replica set")
	}
}

// TestStaleClientSelfUpdates is the old-epoch-client vs new-epoch-provider
// direction of the epoch race: a client still on epoch 0 must recover from
// its first wrong-epoch rejection — on both the read and the write path —
// by adopting the provider-carried table and retrying, with zero failed
// requests surfacing.
func TestStaleClientSelfUpdates(t *testing.T) {
	ec := newElasticCluster(t, 4, 0, 2)
	ctx := context.Background()
	epoch0 := ec.cli.PlacementTable()

	// Model 1's epoch-0 set is {1, 2}; draining provider 1 moves it.
	ec.store(t, ec.cli, 1)
	drain, err := epoch0.WithoutMember(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRebalancer(ec.cli).Rebalance(ctx, drain); err != nil {
		t.Fatal(err)
	}

	// Read path: the stale reader dials provider 1 first (its epoch-0
	// home), gets the wrong-epoch rejection, adopts, and succeeds.
	reader := ec.dialClient(t, epoch0)
	if _, err := reader.GetMeta(ctx, 1); err != nil {
		t.Fatalf("stale reader failed: %v", err)
	}
	if got := reader.PlacementTable().Epoch; got != 1 {
		t.Errorf("reader still on epoch %d", got)
	}

	// Write path: a fresh stale client fans a store over the epoch-0 set of
	// model 5 — {1, 2} — which includes the departed provider 1, forcing a
	// wrong-epoch rejection on that leg.
	writer := ec.dialClient(t, epoch0)
	ec.store(t, writer, 5)
	if got := writer.PlacementTable().Epoch; got != 1 {
		t.Errorf("writer still on epoch %d", got)
	}
	if _, err := ec.cli.GetMeta(ctx, 5); err != nil {
		t.Errorf("model stored by stale client unreadable: %v", err)
	}
	ec.assertConverged(t, 5)
}

// TestMutationDeferredDuringMigration is the new-epoch-provider vs
// not-yet-migrated-model direction: with the dual view armed but the data
// not yet moved, a refcount mutation hits a catching-up replica that does
// not hold the model. The leg must defer (not fail), the mutation must
// succeed, and the resumed migration must replay the journaled delta so
// the new replica set converges on the post-mutation counts.
func TestMutationDeferredDuringMigration(t *testing.T) {
	ec := newElasticCluster(t, 4, 0, 2)
	ctx := context.Background()
	ec.store(t, ec.cli, 1) // epoch-0 set {1, 2}

	cur := ec.cli.PlacementTable()
	next, err := cur.WithoutMember(2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(next.ReplicaSet(1), cur.ReplicaSet(1)) {
		t.Fatal("test premise broken: draining member 2 did not move model 1")
	}
	// Arm the dual view by hand — the rebalancer's phase 1 without its
	// migration phases, freezing the deployment mid-transition.
	dual := &placement.State{Cur: next, Prev: cur}
	for _, p := range ec.provs {
		if err := p.SetPlacementState(dual); err != nil {
			t.Fatal(err)
		}
	}
	if err := ec.cli.SetPlacementState(next, cur); err != nil {
		t.Fatal(err)
	}

	if _, errs := ec.cli.refGroups(ctx, proto.RPCIncRef, []proto.RefGroup{{Owner: 1, Vertices: []graph.VertexID{0, 1}}}); errs[0] != nil {
		t.Fatalf("inc_ref during migration: %v", errs[0])
	}
	if got := ec.reg.Counter("client.migration_deferred").Load(); got == 0 {
		t.Error("no leg deferred — the catching-up replica accepted or failed instead")
	}

	// Resume the migration (the client is dual on the same target) and
	// verify the deferred delta reached the new owners.
	if _, err := NewRebalancer(ec.cli).Rebalance(ctx, next); err != nil {
		t.Fatalf("resumed rebalance: %v", err)
	}
	ec.assertConverged(t, 1)
}

// TestClientEpochZeroGolden pins the client-level compatibility proof: the
// default (epoch-0) table places every model exactly where the legacy
// modulo scheme did, for R=1 and R>1.
func TestClientEpochZeroGolden(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 8} {
		for _, r := range []int{1, 2, 3} {
			if r > n {
				continue
			}
			cli := New(make([]rpc.Conn, n), WithReplicas(r))
			for id := 0; id < 512; id++ {
				home := id % n
				want := make([]int, r)
				for i := range want {
					want[i] = (home + i) % n
				}
				if got := cli.ReplicaSet(ownermap.ModelID(id)); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d R=%d: ReplicaSet(%d) = %v, want %v", n, r, id, got, want)
				}
				if got := cli.HomeProvider(ownermap.ModelID(id)); got != home {
					t.Fatalf("n=%d: HomeProvider(%d) = %d, want %d", n, id, got, home)
				}
			}
		}
	}
}

// unhealthyConn is a connection whose breaker reports a fixed health
// state; it never carries a call.
type unhealthyConn struct{ healthy bool }

func (u *unhealthyConn) Call(context.Context, string, rpc.Message) (rpc.Message, error) {
	return rpc.Message{}, rpc.ErrUnavailable
}
func (u *unhealthyConn) Addr() string  { return "test" }
func (u *unhealthyConn) Close() error  { return nil }
func (u *unhealthyConn) Healthy() bool { return u.healthy }

// TestReadOrderAllBreakersOpen pins the unhealthy-tail ordering: when
// every replica sits behind an open breaker, the read order must degrade
// to exactly the placement order — home provider first — not an arbitrary
// permutation of the unhealthy set.
func TestReadOrderAllBreakersOpen(t *testing.T) {
	conns := make([]rpc.Conn, 4)
	for i := range conns {
		conns[i] = &unhealthyConn{healthy: false}
	}
	cli := New(conns, WithReplicas(3), WithRegistry(metrics.NewRegistry()))

	// Model 6: home 2, placement order [2 3 0].
	if got := cli.readOrder(6); !reflect.DeepEqual(got, []int{2, 3, 0}) {
		t.Errorf("all breakers open: readOrder(6) = %v, want placement order [2 3 0]", got)
	}

	// Mixed health: healthy replicas lead in placement order, the open
	// breaker sorts last.
	conns[2] = &unhealthyConn{healthy: false}
	conns[3] = &unhealthyConn{healthy: true}
	conns[0] = &unhealthyConn{healthy: true}
	cli = New(conns, WithReplicas(3), WithRegistry(metrics.NewRegistry()))
	if got := cli.readOrder(6); !reflect.DeepEqual(got, []int{3, 0, 2}) {
		t.Errorf("mixed health: readOrder(6) = %v, want [3 0 2]", got)
	}
}
