package provider

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// gateKV wraps a KV and blocks every Get until the gate channel closes, so a
// test can pile up concurrent readers behind one storage access.
type gateKV struct {
	kvstore.KV
	gate <-chan struct{}
}

func (g *gateKV) Get(key string) ([]byte, bool, error) {
	<-g.gate
	return g.KV.Get(key)
}

func TestProviderThrottleIsolation(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	reg := metrics.NewRegistry()
	p.SetMetricsRegistry(reg)
	g := chainGraph(1, 2)
	req, segs := storeReq(3, 1, 0.5, g)
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	// 2 ops/s over a 1s window: capacity 2 ops, initial fill 1 op.
	p.SetThrottle(frontdoor.Limits{OpsPerSec: 2, Window: time.Second})

	read := func(tenant string) error {
		rq := &proto.ReadSegmentsReq{Owner: 3, Vertices: []graph.VertexID{0}, Tenant: tenant}
		_, err := p.handleReadSegments(context.Background(), rpc.Message{Meta: rq.Encode()})
		return err
	}

	if err := read("noisy"); err != nil {
		t.Fatalf("first read throttled: %v", err)
	}
	var throttledErr error
	for i := 0; i < 8; i++ {
		if err := read("noisy"); err != nil {
			throttledErr = err
			break
		}
	}
	if throttledErr == nil {
		t.Fatal("noisy tenant never throttled at 2 ops/s")
	}
	if !errors.Is(throttledErr, frontdoor.ErrThrottled) {
		t.Fatalf("throttled error not typed: %v", throttledErr)
	}
	if d, ok := frontdoor.RetryAfterFromError(throttledErr); !ok || d <= 0 {
		t.Fatalf("no retry-after in %v", throttledErr)
	}
	// The quiet tenant's bucket is untouched by the noisy one.
	if err := read("quiet"); err != nil {
		t.Fatalf("quiet tenant collaterally throttled: %v", err)
	}
	if got := reg.Counter("provider.throttled").Load(); got == 0 {
		t.Error("provider.throttled counter never incremented")
	}

	// Disarming re-admits everyone.
	p.SetThrottle(frontdoor.Limits{})
	for i := 0; i < 32; i++ {
		if err := read("noisy"); err != nil {
			t.Fatalf("read throttled after disarm: %v", err)
		}
	}
}

// TestThrottleAdmitsBeforeRead pins where admission runs: when a read
// arrives, before it executes. A tenant's reads parked in the store have
// already spent its budget, so its next read is refused at the door while
// they are still in flight, and another tenant's parked read completes.
func TestThrottleAdmitsBeforeRead(t *testing.T) {
	gate := make(chan struct{})
	kv := &gateKV{KV: kvstore.NewMemKV(4), gate: gate}
	p := New(0, kv)
	p.SetMetricsRegistry(metrics.NewRegistry())
	g := chainGraph(1, 2)
	req, segs := storeReq(3, 1, 0.5, g)
	if err := p.StoreModel(req, segs); err != nil {
		t.Fatal(err)
	}
	p.SetThrottle(frontdoor.Limits{OpsPerSec: 1, Window: time.Second})

	rq := func(tenant string) rpc.Message {
		q := &proto.ReadSegmentsReq{Owner: 3, Vertices: []graph.VertexID{0}, Tenant: tenant}
		return rpc.Message{Meta: q.Encode()}
	}

	// Tenant A's read is in flight, parked on the gated KV.
	done := make(chan error, 1)
	go func() {
		_, err := p.handleReadSegments(context.Background(), rq("a"))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)

	// Tenant B exhausts its bucket: the drain reads park behind the gate
	// too, but their admission is charged up front. Then B issues the
	// read A has in flight — it must be refused at the door.
	var drain sync.WaitGroup
	for i := 0; i < 4; i++ {
		drain.Add(1)
		go func() {
			defer drain.Done()
			q := &proto.ReadSegmentsReq{Owner: 99, Vertices: []graph.VertexID{0}, Tenant: "b"}
			p.handleReadSegments(context.Background(), rpc.Message{Meta: q.Encode()})
		}()
	}
	time.Sleep(10 * time.Millisecond)
	_, err := p.handleReadSegments(context.Background(), rq("b"))
	if err == nil || !errors.Is(err, frontdoor.ErrThrottled) {
		t.Fatalf("exhausted tenant admitted while its reads were in flight: err=%v", err)
	}

	close(gate)
	drain.Wait()
	if err := <-done; err != nil {
		t.Fatalf("in-flight read failed: %v", err)
	}
}

// TestSetThrottlePreservesDebtAcrossLimitChange pins the re-arm contract:
// shrinking a live throttle keeps each tenant's outstanding byte debt
// (clamped to the new capacity) instead of handing out a fresh throttler
// whose empty ledger forgives exactly the tenants being reined in.
func TestSetThrottlePreservesDebtAcrossLimitChange(t *testing.T) {
	p := New(0, kvstore.NewMemKV(4))
	p.SetThrottle(frontdoor.Limits{BytesPerSec: 1000, Window: time.Second})
	th := p.throttle.Load()
	if th == nil {
		t.Fatal("throttle not armed")
	}
	now := time.Unix(0, 0)
	th.SetClock(func() time.Time { return now })
	if err := th.Admit("hog"); err != nil {
		t.Fatal(err)
	}
	th.ChargeBytes("hog", 5000) // deep debt, clamped to one window

	p.SetThrottle(frontdoor.Limits{BytesPerSec: 100, Window: time.Second})
	if got := p.throttle.Load(); got != th {
		t.Fatal("limit change replaced the throttler instead of resizing in place")
	}
	if err := th.Admit("hog"); err == nil {
		t.Fatal("shrinking the throttle forgave the tenant's byte debt")
	}

	// Zero limits disarm entirely.
	p.SetThrottle(frontdoor.Limits{})
	if p.throttle.Load() != nil {
		t.Error("zero limits left the throttle armed")
	}
}
