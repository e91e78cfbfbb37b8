package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/model"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/rpc"
)

// hookConn intercepts named RPCs before they reach the wrapped connection,
// so tests can fail (and observe) exactly one call site.
type hookConn struct {
	rpc.Conn
	hook func(name string) error // non-nil return fails the call
}

func (c *hookConn) Call(ctx context.Context, name string, req rpc.Message) (rpc.Message, error) {
	if c.hook != nil {
		if err := c.hook(name); err != nil {
			return rpc.Message{}, err
		}
	}
	return c.Conn.Call(ctx, name, req)
}

// newHookCluster builds an n-provider in-process deployment and returns
// the raw connections (for selective wrapping) plus the provider handles
// (for refcount assertions). wrap maps provider index → conn decorator
// (nil = passthrough).
func newHookCluster(t testing.TB, n int, wrap map[int]func(rpc.Conn) rpc.Conn, opts ...Option) ([]*provider.Provider, *Client) {
	t.Helper()
	net := rpc.NewInprocNet()
	provs := make([]*provider.Provider, n)
	conns := make([]rpc.Conn, n)
	for i := 0; i < n; i++ {
		provs[i] = provider.New(i, kvstore.NewMemKV(8))
		srv := rpc.NewServer()
		provs[i].Register(srv)
		addr := fmt.Sprintf("p%d", i)
		if err := net.Listen(addr, srv); err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if w := wrap[i]; w != nil {
			c = w(c)
		}
		conns[i] = c
	}
	return provs, New(conns, opts...)
}

// derivedChildMeta builds metadata for child inheriting base's vertex 0
// (every other vertex is child-owned).
func derivedChildMeta(t testing.TB, f *model.Flat, base, child ownermap.ModelID) *proto.ModelMeta {
	t.Helper()
	baseMap := ownermap.New(base, 1, f.Graph.NumVertices())
	om, err := ownermap.Derive(baseMap, child, 2, f.Graph.NumVertices(), []graph.VertexID{0})
	if err != nil {
		t.Fatal(err)
	}
	return &proto.ModelMeta{Model: child, Seq: 2, Quality: 0.6, Graph: f.Graph, OwnerMap: om}
}

// TestStoreRollbackAfterCancel reproduces the refcount leak of a store
// whose consolidated write fails together with the caller's context: the
// rollback DecRefs must run detached from the dead context, or the pins
// taken by the preceding IncRefs leak forever.
func TestStoreRollbackAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrap := map[int]func(rpc.Conn) rpc.Conn{
		1: func(c rpc.Conn) rpc.Conn {
			return &hookConn{Conn: c, hook: func(name string) error {
				if name == proto.RPCStoreModel {
					// The caller's deadline fires exactly as the bulk write
					// fails: the rollback must still go through.
					cancel()
					return fmt.Errorf("injected store failure")
				}
				return nil
			}}
		},
	}
	provs, cli := newHookCluster(t, 2, wrap)

	// base 2 → provider 0, child 3 → provider 1.
	f := flatten(t, 4)
	ws := model.Materialize(f, 1)
	if err := cli.Store(ctx, metaFor(f, 2, 1, 0.5), segsFor(f, ws)); err != nil {
		t.Fatal(err)
	}
	if got := provs[0].RefCount(2, 0); got != 1 {
		t.Fatalf("base vertex 0 refcount before derived store = %d, want 1", got)
	}

	meta := derivedChildMeta(t, f, 2, 3)
	err := cli.Store(ctx, meta, segsFor(f, model.Materialize(f, 2)))
	if err == nil {
		t.Fatal("store with failing StoreModel succeeded")
	}
	if got := provs[0].RefCount(2, 0); got != 1 {
		t.Fatalf("base vertex 0 refcount after failed store = %d, want 1 (pin leaked: rollback ran on a canceled context)", got)
	}
}

// TestRetirePartialFailureRunsAllLegs verifies a retire with one failing
// DecRef leg still decrements every other owner group, and that the error
// names exactly the leaked owners.
func TestRetirePartialFailureRunsAllLegs(t *testing.T) {
	wrap := map[int]func(rpc.Conn) rpc.Conn{
		0: func(c rpc.Conn) rpc.Conn {
			return &hookConn{Conn: c, hook: func(name string) error {
				if name == proto.RPCDecRef {
					return fmt.Errorf("injected dec_ref failure")
				}
				return nil
			}}
		},
	}
	provs, cli := newHookCluster(t, 2, wrap)
	ctx := context.Background()

	// base 2 → provider 0, child 3 → provider 1 (inherits base's vertex 0).
	f := flatten(t, 4)
	n := f.Graph.NumVertices()
	if err := cli.Store(ctx, metaFor(f, 2, 1, 0.5), segsFor(f, model.Materialize(f, 1))); err != nil {
		t.Fatal(err)
	}
	meta := derivedChildMeta(t, f, 2, 3)
	if err := cli.Store(ctx, meta, segsFor(f, model.Materialize(f, 2))); err != nil {
		t.Fatal(err)
	}

	freed, err := cli.Retire(ctx, 3)
	if err == nil {
		t.Fatal("retire with failing DecRef leg succeeded")
	}
	var pe *PartialRetireError
	if !errors.As(err, &pe) {
		t.Fatalf("retire error is %T (%v), want *PartialRetireError", err, err)
	}
	if len(pe.Leaked) != 1 || pe.Leaked[0].Owner != 2 {
		t.Fatalf("leaked owners = %+v, want exactly owner 2", pe.Leaked)
	}
	if !strings.Contains(err.Error(), "2(") {
		t.Errorf("error does not name the leaked owner: %v", err)
	}
	// The healthy leg (child's own vertices on provider 1) must have run.
	if int(freed) != n-1 {
		t.Errorf("freed = %d, want %d (the child-owned vertices)", freed, n-1)
	}
	for v := 1; v < n; v++ {
		if got := provs[1].RefCount(3, graph.VertexID(v)); got != 0 {
			t.Errorf("child vertex %d refcount = %d after retire, want 0 (leg skipped)", v, got)
		}
	}
	// The leaked pin is visible: base vertex 0 still carries the child's ref.
	if got := provs[0].RefCount(2, 0); got != 2 {
		t.Errorf("base vertex 0 refcount = %d, want 2 (the reported leak)", got)
	}
}

// TestStoreRejectsOversizedSegment lowers the wire limit and verifies a
// too-large segment fails the store up front — before any pins are taken —
// instead of silently truncating its length to uint32.
func TestStoreRejectsOversizedSegment(t *testing.T) {
	old := maxSegmentBytes
	maxSegmentBytes = 64
	defer func() { maxSegmentBytes = old }()

	provs, cli := newHookCluster(t, 2, nil)
	ctx := context.Background()

	f := flatten(t, 4)
	if err := cli.Store(ctx, metaFor(f, 2, 1, 0.5), segsFor(f, model.Materialize(f, 1))); err == nil {
		t.Fatal("store with oversized segment succeeded")
	} else if !strings.Contains(err.Error(), "wire limit") {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := len(provs[0].ListModels()); got != 0 {
		t.Fatalf("oversized store left %d models behind", got)
	}

	// A derived store with an oversized self-owned segment must fail before
	// pinning the ancestor: validation precedes the IncRefs.
	maxSegmentBytes = old
	if err := cli.Store(ctx, metaFor(f, 2, 1, 0.5), segsFor(f, model.Materialize(f, 1))); err != nil {
		t.Fatal(err)
	}
	maxSegmentBytes = 64
	meta := derivedChildMeta(t, f, 2, 3)
	if err := cli.Store(ctx, meta, segsFor(f, model.Materialize(f, 2))); err == nil {
		t.Fatal("derived store with oversized segment succeeded")
	}
	if got := provs[0].RefCount(2, 0); got != 1 {
		t.Errorf("base vertex 0 refcount = %d after rejected store, want 1 (validation must precede pinning)", got)
	}
}
