package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/rpc"
)

// downConn simulates a crashed provider: while down, every call fails
// transiently without reaching it — the shape of a killed process or a
// partitioned link as the retry layer reports it.
type downConn struct {
	rpc.Conn
	down atomic.Bool
}

func (c *downConn) Call(ctx context.Context, name string, req rpc.Message) (rpc.Message, error) {
	if c.down.Load() {
		return rpc.Message{}, rpc.MarkTransient(fmt.Errorf("replica down"))
	}
	return c.Conn.Call(ctx, name, req)
}

// Healthy mirrors what a resilient.Conn's breaker would report once the
// outage trips it: the repairer must skip, and read failover must demote,
// the dead replica.
func (c *downConn) Healthy() bool { return !c.down.Load() }

// downCluster is a 2-provider deployment with R=2 (every model on both)
// where provider 1 can be killed and healed at will.
func downCluster(t testing.TB, opts ...Option) ([]*provider.Provider, *Client, *downConn) {
	t.Helper()
	var d *downConn
	wrap := map[int]func(rpc.Conn) rpc.Conn{
		1: func(c rpc.Conn) rpc.Conn { d = &downConn{Conn: c}; return d },
	}
	provs, cli := newHookCluster(t, 2, wrap, append([]Option{WithReplicas(2)}, opts...)...)
	return provs, cli, d
}

// TestMutatePartialErrorTyped pins the satellite bugfix: a replicated
// mutation that lands on some replicas but not others must come back as a
// typed *PartialMutateError naming both camps, not a flat errors.Join the
// caller cannot act on.
func TestMutatePartialErrorTyped(t *testing.T) {
	provs, cli, d := downCluster(t)
	ctx := context.Background()
	f := flatten(t, 4)
	if err := cli.Store(ctx, metaFor(f, 2, 1, 0.5), segsFor(f, model.Materialize(f, 1))); err != nil {
		t.Fatal(err)
	}

	d.down.Store(true)
	_, errs := cli.refGroups(ctx, proto.RPCIncRef, []proto.RefGroup{{Owner: 2, Vertices: []graph.VertexID{0}}})
	err := errs[0]
	if err == nil {
		t.Fatal("partial IncRef succeeded in strict mode")
	}
	var pme *PartialMutateError
	if !errors.As(err, &pme) {
		t.Fatalf("error is %T (%v), want *PartialMutateError", err, err)
	}
	if pme.Op != proto.RPCIncRef || pme.Model != 2 {
		t.Errorf("Op/Model = %s/%d, want %s/2", pme.Op, pme.Model, proto.RPCIncRef)
	}
	if len(pme.Succeeded) != 1 || pme.Succeeded[0] != 0 {
		t.Errorf("Succeeded = %v, want [0]", pme.Succeeded)
	}
	if len(pme.Failed) != 1 || pme.Failed[0] != 1 {
		t.Errorf("Failed = %v, want [1]", pme.Failed)
	}
	if !pme.Transient() {
		t.Error("all legs failed transiently but Transient() = false")
	}
	if len(pme.Errs) != 1 || !rpc.IsTransient(pme.Errs[0]) {
		t.Errorf("Errs = %v, want one transient cause", pme.Errs)
	}
	// Strict mode queues nothing.
	if q := cli.DrainRepairTargets(); len(q) != 0 {
		t.Errorf("strict-mode partial queued repair targets: %+v", q)
	}
	// The surviving replica did apply the pin — exactly the divergence the
	// typed error is for.
	if got := provs[0].RefCount(2, 0); got != 2 {
		t.Errorf("accepted replica refcount = %d, want 2", got)
	}
}

// TestPartialWriteAcceptedQueuedAndRepaired is the end-to-end tentpole
// path in miniature: kill a replica, write through the outage with
// partial writes on, heal, repair, and require bit-identical digests.
func TestPartialWriteAcceptedQueuedAndRepaired(t *testing.T) {
	reg := metrics.NewRegistry()
	provs, cli, d := downCluster(t, WithPartialWrites(), WithRegistry(reg))
	ctx := context.Background()
	f := flatten(t, 4)

	d.down.Store(true)
	if err := cli.Store(ctx, metaFor(f, 2, 1, 0.5), segsFor(f, model.Materialize(f, 1))); err != nil {
		t.Fatalf("partial store not accepted: %v", err)
	}
	if _, err := provs[0].GetMeta(2); err != nil {
		t.Fatalf("surviving replica lost the model: %v", err)
	}
	if _, err := provs[1].GetMeta(2); err == nil {
		t.Fatal("down replica somehow has the model")
	}
	if got := reg.Counter("client.partial_write").Load(); got == 0 {
		t.Error("client.partial_write counter untouched")
	}
	q := cli.DrainRepairTargets()
	if len(q) != 1 || q[0].Model != 2 || q[0].Op != proto.RPCStoreModel {
		t.Fatalf("repair queue = %+v, want model 2 via store_model", q)
	}

	rep := NewRepairer(cli)
	// While the replica is down, repair must skip, not thrash.
	if _, err := rep.RepairModel(ctx, 2); !errors.Is(err, ErrReplicaUnhealthy) {
		t.Fatalf("repair against a down replica: %v, want ErrReplicaUnhealthy", err)
	}

	d.down.Store(false)
	if diverged, err := rep.Check(ctx); err != nil || len(diverged) != 1 || diverged[0] != 2 {
		t.Fatalf("Check = %v, %v; want [2]", diverged, err)
	}
	st, err := rep.RepairAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repaired != 1 {
		t.Errorf("RepairStats.Repaired = %d, want 1", st.Repaired)
	}
	_, ds, err := rep.ModelDigests(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !allConverged(ds) {
		t.Fatalf("digests still diverged after repair: %+v", ds)
	}
	// The healed replica serves the real bytes, not just a matching hash.
	meta1, err := provs[1].GetMeta(2)
	if err != nil {
		t.Fatalf("healed replica has no catalog entry: %v", err)
	}
	if meta1.Seq != 1 {
		t.Errorf("healed replica seq = %d, want 1", meta1.Seq)
	}
	table, parts, err := provs[1].ReadSegments(2, meta1.OwnerMap.Owners()[0].Vertices)
	if err != nil {
		t.Fatalf("healed replica cannot serve segments: %v", err)
	}
	want := segsFor(f, model.Materialize(f, 1))
	for i, ref := range table {
		if !bytes.Equal(parts[i], want[ref.Vertex]) {
			t.Fatalf("vertex %d repaired with wrong bytes", ref.Vertex)
		}
	}
	// A second sweep finds nothing to do.
	if diverged, err := rep.Check(ctx); err != nil || len(diverged) != 0 {
		t.Fatalf("post-repair Check = %v, %v; want clean", diverged, err)
	}
}

// TestPartialWriteRemoteErrorNotAccepted: a replica that *rejected* the
// write (application error) is a real disagreement, not an outage —
// partial-writes mode must still fail the mutation.
func TestPartialWriteRemoteErrorNotAccepted(t *testing.T) {
	provs, cli, _ := downCluster(t, WithPartialWrites())
	ctx := context.Background()
	f := flatten(t, 4)

	// Pre-plant model 2 on provider 1 under a different ReqID: the fan-out
	// store will land on provider 0 and be rejected as "already stored" on
	// provider 1 — a remote, permanent error.
	om := ownermap.New(2, 1, f.Graph.NumVertices())
	var table []proto.SegmentRef
	var segs [][]byte
	for v, s := range segsFor(f, model.Materialize(f, 1)) {
		table = append(table, proto.SegmentRef{Vertex: graph.VertexID(v), Length: uint32(len(s))})
		segs = append(segs, s)
	}
	pre := &proto.StoreModelReq{Model: 2, Seq: 1, Quality: 0.5, Graph: f.Graph, OwnerMap: om, Segments: table, ReqID: 999}
	if err := provs[1].StoreModel(pre, segs); err != nil {
		t.Fatal(err)
	}

	err := cli.Store(ctx, metaFor(f, 2, 1, 0.5), segsFor(f, model.Materialize(f, 1)))
	if err == nil {
		t.Fatal("store with a rejecting replica was accepted as partial")
	}
	var pme *PartialMutateError
	if !errors.As(err, &pme) {
		t.Fatalf("error is %T (%v), want *PartialMutateError", err, err)
	}
	if pme.Transient() {
		t.Error("remote rejection classified transient")
	}
	if q := cli.DrainRepairTargets(); len(q) != 0 {
		t.Errorf("rejected write queued repair targets: %+v", q)
	}
}

// TestRepairConvergenceUnderLoad kills a replica in the middle of a
// concurrent workload — stores, a lineage pin, a retirement — heals it,
// and requires every model's replica digests to converge with zero lost
// refcount deltas. Run with -race: partial acceptance, the repair queue
// and overlapping repair passes all run concurrently here.
func TestRepairConvergenceUnderLoad(t *testing.T) {
	provs, cli, d := downCluster(t, WithPartialWrites())
	ctx := context.Background()
	f := flatten(t, 4)

	// Healthy phase: a base model (lineage ancestor) and a victim for the
	// mid-outage retirement, fully replicated.
	for _, id := range []ownermap.ModelID{2, 4} {
		if err := cli.Store(ctx, metaFor(f, id, uint64(id), 0.5), segsFor(f, model.Materialize(f, uint64(id)))); err != nil {
			t.Fatal(err)
		}
	}

	// Outage: provider 1 dies mid-workload. Every op below must succeed
	// anyway — that is the partial-write contract.
	d.down.Store(true)
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for _, id := range []ownermap.ModelID{5, 6, 7, 8, 9, 10} {
		wg.Add(1)
		go func(id ownermap.ModelID) {
			defer wg.Done()
			if err := cli.Store(ctx, metaFor(f, id, uint64(id), 0.5), segsFor(f, model.Materialize(f, uint64(id)))); err != nil {
				errCh <- fmt.Errorf("store %d during outage: %w", id, err)
			}
		}(id)
	}
	wg.Add(2)
	go func() { // derived store: pins base 2's vertex 0 through the outage
		defer wg.Done()
		meta := derivedChildMeta(t, f, 2, 3)
		if err := cli.Store(ctx, meta, segsFor(f, model.Materialize(f, 2))); err != nil {
			errCh <- fmt.Errorf("derived store during outage: %w", err)
		}
	}()
	go func() { // retirement: tombstone + decrements through the outage
		defer wg.Done()
		if _, err := cli.Retire(ctx, 4); err != nil {
			errCh <- fmt.Errorf("retire during outage: %w", err)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Heal, then converge — two overlapping passes, because repair is
	// convergent and a ticker sweep may race a manual one in production.
	d.down.Store(false)
	rep := NewRepairer(cli)
	var rwg sync.WaitGroup
	repErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			if _, err := rep.RepairAll(ctx); err != nil {
				repErr <- err
			}
		}()
	}
	rwg.Wait()
	close(repErr)
	for err := range repErr {
		t.Fatal(err)
	}

	// Every model: digests bit-identical across the replica set, straight
	// from the providers (not through the repairer's own RPCs).
	for _, id := range []ownermap.ModelID{2, 3, 4, 5, 6, 7, 8, 9, 10} {
		d0, d1 := provs[0].Digest(id), provs[1].Digest(id)
		if !d0.Converged(d1) {
			t.Errorf("model %d diverged after repair:\n  p0: %+v\n  p1: %+v", id, d0, d1)
		}
	}
	// Zero lost refcount deltas: the base keeps exactly its own pin plus
	// the child's, on both replicas.
	for pi, p := range provs {
		if got := p.RefCount(2, 0); got != 2 {
			t.Errorf("provider %d: base vertex 0 refcount = %d, want 2", pi, got)
		}
	}
	// The retired model is gone everywhere.
	for pi, p := range provs {
		if _, err := p.GetMeta(4); err == nil {
			t.Errorf("provider %d still catalogs retired model 4", pi)
		}
	}
	// And a full load of the lineage child still reconstructs the right
	// bytes after repair.
	got, err := cli.Load(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := segsFor(f, model.Materialize(f, 2))
	for v := 1; v < f.Graph.NumVertices(); v++ {
		if !bytes.Equal(got.Segments[v], want[v]) {
			t.Fatalf("child vertex %d corrupted", v)
		}
	}
}
