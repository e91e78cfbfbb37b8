package client

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/resilient"
	"repro/internal/rpc"
)

// newReplicatedCluster builds an n-provider in-process deployment with
// R-way replication: every provider's placement guard is armed, every
// connection carries fault injection plus the resilience middleware with a
// live breaker (threshold 2, short cooldown), and the client is configured
// with WithReplicas — the full stack the kill-one-provider availability
// check runs against.
func newReplicatedCluster(t testing.TB, n, r int) *faultCluster {
	t.Helper()
	fc := &faultCluster{reg: metrics.NewRegistry()}
	net := rpc.NewInprocNet()
	conns := make([]rpc.Conn, n)
	for i := 0; i < n; i++ {
		p := provider.New(i, kvstore.NewMemKV(8))
		p.SetPlacement(n, r)
		srv := rpc.NewServer()
		p.Register(srv)
		addr := string(rune('a' + i))
		if err := net.Listen(addr, srv); err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		f := rpc.WithFaults(c, rpc.FaultConfig{Registry: fc.reg})
		fc.provs = append(fc.provs, p)
		fc.faults = append(fc.faults, f)
		conns[i] = f
	}
	conns = resilient.WrapAll(conns, resilient.Options{
		DefaultTimeout: time.Second,
		MaxAttempts:    2, // fail over fast instead of retrying a dead replica
		BackoffBase:    time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
		Threshold:      2,
		Cooldown:       60 * time.Millisecond,
		Retryable:      proto.Retryable,
		Registry:       fc.reg,
	})
	fc.cli = New(conns, WithReplicas(r), WithRegistry(fc.reg))
	return fc
}

func TestReplicaSetPlacement(t *testing.T) {
	// Placement is pure arithmetic on the deployment size; no RPCs happen.
	conns := make([]rpc.Conn, 4)
	cases := []struct {
		r    int
		id   ownermap.ModelID
		want []int
	}{
		{1, 6, []int{2}},
		{3, 5, []int{1, 2, 3}},
		{3, 6, []int{2, 3, 0}}, // wraps around the deployment
		{3, 7, []int{3, 0, 1}},
		{9, 1, []int{1, 2, 3, 0}}, // R clamps to the deployment size
	}
	for _, tc := range cases {
		cli := New(conns, WithReplicas(tc.r))
		if got := cli.ReplicaSet(tc.id); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("R=%d ReplicaSet(%d) = %v, want %v", tc.r, tc.id, got, tc.want)
		}
		if tc.r <= len(conns) && cli.Replicas() != max(tc.r, 1) {
			t.Errorf("R=%d Replicas() = %d", tc.r, cli.Replicas())
		}
	}
}

func TestReplicatedWritesLandOnAllReplicas(t *testing.T) {
	fc := newReplicatedCluster(t, 3, 2)
	ctx := context.Background()

	// Model 1 → replica set {1, 2}; provider 0 must hold nothing.
	f := flatten(t, 4)
	if err := fc.cli.Store(ctx, metaFor(f, 1, 1, 0.5), segsFor(f, model.Materialize(f, 1))); err != nil {
		t.Fatal(err)
	}
	for _, pi := range []int{1, 2} {
		if _, err := fc.provs[pi].GetMeta(1); err != nil {
			t.Errorf("replica provider %d missing model 1: %v", pi, err)
		}
	}
	if _, err := fc.provs[0].GetMeta(1); err == nil {
		t.Error("provider 0 holds model 1 outside its replica set")
	}

	// The catalog lists each model once despite R physical copies.
	ids, err := fc.cli.ListModels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Errorf("ListModels = %v, want [1]", ids)
	}
}

// TestReplicatedReadFailover is the kill-one-provider availability check:
// with R=3 over 3 providers and one of them partitioned, every read must
// complete through the surviving replicas with zero client-visible errors,
// the failover must show up in the metrics counters, and once the breaker
// opens the dead replica must be skipped rather than waited out. After the
// heal the deployment retires everything and must drain to zero on every
// replica.
func TestReplicatedReadFailover(t *testing.T) {
	fc := newReplicatedCluster(t, 3, 3)
	ctx := context.Background()

	// base 3 → home provider 0, child 4 → home provider 1; with R=3 both
	// live everywhere.
	storeDerived(t, fc.cli, 3, 4)
	fc.faults[0].SetPartitioned(true)

	for round := 0; round < 5; round++ {
		for _, id := range []ownermap.ModelID{3, 4} {
			meta, err := fc.cli.GetMeta(ctx, id)
			if err != nil {
				t.Fatalf("GetMeta(%d) round %d with provider 0 partitioned: %v", id, round, err)
			}
			if meta.Model != id {
				t.Fatalf("GetMeta(%d) returned model %d", id, meta.Model)
			}
			data, err := fc.cli.Load(ctx, id)
			if err != nil {
				t.Fatalf("Load(%d) round %d with provider 0 partitioned: %v", id, round, err)
			}
			if len(data.Segments) != data.Meta.Graph.NumVertices() {
				t.Fatalf("Load(%d): %d segments", id, len(data.Segments))
			}
		}
	}
	if got := fc.reg.Counter("client.read_failover").Load(); got == 0 {
		t.Error("no read failovers recorded despite a partitioned home provider")
	}
	// The partitioned provider must get routed around, either by the
	// breaker opening (replica_breaker_skip) or — now that replicas are
	// score-ranked — by its error-rate score demoting it before the
	// breaker ever accumulates enough consecutive failures to open.
	skips := fc.reg.Counter("client.replica_breaker_skip").Load()
	demotes := fc.reg.Counter("client.score_demote").Load()
	if skips+demotes == 0 {
		t.Errorf("partitioned replica never reordered: breaker_skip=%d score_demote=%d", skips, demotes)
	}

	// Writes need every replica: they must fail while one is down ...
	f := flatten(t, 4)
	if err := fc.cli.Store(ctx, metaFor(f, 5, 1, 0.4), segsFor(f, model.Materialize(f, 5))); err == nil {
		t.Fatal("store succeeded with a replica partitioned (all-replica writes must fail)")
	}

	// ... and work again after the heal, once the breaker re-closes.
	fc.faults[0].SetPartitioned(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := fc.cli.Stats(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("provider 0 did not recover after healing the partition")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Retire fan-out drains every replica: no refcount drift anywhere.
	for _, id := range []ownermap.ModelID{4, 3} {
		if _, err := fc.cli.Retire(ctx, id); err != nil {
			t.Fatalf("Retire(%d) after heal: %v", id, err)
		}
	}
	for pi, p := range fc.provs {
		st := p.Stats()
		if st.Models != 0 || st.Segments != 0 || st.LiveRefs != 0 {
			t.Errorf("provider %d did not drain: %+v", pi, *st)
		}
	}
}

// TestReplicatedRefcountsStayIdentical stores a derived model under R=2
// and checks the inherited pin is identical on both replicas of the base:
// fan-out with a shared ReqID must keep the copies bit-for-bit in sync.
func TestReplicatedRefcountsStayIdentical(t *testing.T) {
	fc := newReplicatedCluster(t, 4, 2)
	ctx := context.Background()

	// base 2 → {2, 3}, child 3 → {3, 0}; the child pins base's vertex 0 on
	// both of base's replicas.
	storeDerived(t, fc.cli, 2, 3)
	for _, pi := range []int{2, 3} {
		if got := fc.provs[pi].RefCount(2, 0); got != 2 {
			t.Errorf("provider %d: base vertex 0 refcount = %d, want 2", pi, got)
		}
	}

	// Retiring the child releases the pin on both replicas symmetrically.
	if _, err := fc.cli.Retire(ctx, 3); err != nil {
		t.Fatal(err)
	}
	for _, pi := range []int{2, 3} {
		if got := fc.provs[pi].RefCount(2, 0); got != 1 {
			t.Errorf("provider %d: base vertex 0 refcount = %d after retire, want 1", pi, got)
		}
	}
}

// shedConn fails with the breaker's shed error until its gate count is
// consumed, then answers — the shape of a recovering replica whose single
// half-open probe slot a concurrent read just took.
type shedConn struct {
	sheds int
	calls int
}

func (c *shedConn) Call(context.Context, string, rpc.Message) (rpc.Message, error) {
	c.calls++
	if c.calls <= c.sheds {
		return rpc.Message{}, fmt.Errorf("%w: shed-test", rpc.ErrUnavailable)
	}
	return rpc.Message{Meta: []byte("ok")}, nil
}
func (c *shedConn) Addr() string { return "shed" }
func (c *shedConn) Close() error { return nil }

// A read whose every replica failed transiently, with at least one
// failure being a breaker shed, retries the pass briefly instead of
// failing: the shed replica may be mid-recovery with its single probe
// slot taken by a concurrent read.
func TestReadRetriesAfterBreakerProbeRace(t *testing.T) {
	reg := metrics.NewRegistry()
	down := &hedgeTestConn{err: rpc.ErrInjected, score: -1} // hard down, transient
	recovering := &shedConn{sheds: 2}
	cli := New([]rpc.Conn{down, recovering}, WithReplicas(2), WithRegistry(reg))

	resp, err := cli.readCall(context.Background(), "op", ownermap.ModelID(0), rpc.Message{})
	if err != nil {
		t.Fatalf("read failed despite the shed clearing within the retry budget: %v", err)
	}
	if string(resp.Meta) != "ok" {
		t.Fatalf("resp = %q", resp.Meta)
	}
	if n := reg.Counter("client.shed_retry").Load(); n != 2 {
		t.Fatalf("client.shed_retry = %d, want 2", n)
	}

	// A genuinely dead set still fails once the bounded retries run out.
	reg2 := metrics.NewRegistry()
	cli2 := New([]rpc.Conn{&hedgeTestConn{err: rpc.ErrInjected, score: -1}, &shedConn{sheds: 1 << 30}},
		WithReplicas(2), WithRegistry(reg2))
	if _, err := cli2.readCall(context.Background(), "op", ownermap.ModelID(0), rpc.Message{}); err == nil {
		t.Fatal("read succeeded against a dead replica set")
	} else if !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("err = %v, want wrapped rpc.ErrUnavailable", err)
	}
	if n := reg2.Counter("client.shed_retry").Load(); n != shedRetries {
		t.Fatalf("client.shed_retry = %d, want %d (bounded)", n, shedRetries)
	}
}

// healthyConn answers at once and reports perfect health, so a read never
// leaves the preferred replica.
type healthyConn struct{}

func (healthyConn) Call(context.Context, string, rpc.Message) (rpc.Message, error) {
	return rpc.Message{}, nil
}
func (healthyConn) Addr() string   { return "healthy" }
func (healthyConn) Close() error   { return nil }
func (healthyConn) Healthy() bool  { return true }
func (healthyConn) Score() float64 { return 1 }

// The replica pass is shared with hedged reads, but a client that never
// asked for hedging must not pay for it: per read, readCall allocates no
// more than the strictly sequential pass it replaced did — measured at
// that commit with this test: 1 at R=1 (the replica order), 6 at R=3 (the
// order, its health partition and its score ranking).
func TestUnhedgedReadCallAllocs(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		replicas int
		max      float64
	}{{1, 1}, {3, 6}} {
		conns := make([]rpc.Conn, 4)
		for i := range conns {
			conns[i] = healthyConn{}
		}
		cli := New(conns, WithReplicas(tc.replicas), WithRegistry(metrics.NewRegistry()))
		got := testing.AllocsPerRun(200, func() {
			if _, err := cli.readCall(ctx, "op", ownermap.ModelID(1), rpc.Message{}); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("R=%d: %.0f allocs per unhedged readCall, want at most %.0f", tc.replicas, got, tc.max)
		}
	}
}
