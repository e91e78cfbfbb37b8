package client

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ownermap"
	"repro/internal/provider"
	"repro/internal/rpc"
)

// ownershipCluster is one MemKV provider, whose reads return the store's
// own memory, reached over TCP or the in-process fabric. cli reads through
// a gateConn; other stores models cli has never touched.
type ownershipCluster struct {
	cli, other *Client
	gc         *gateConn
	f          *model.Flat
	want       map[ownermap.ModelID][][]byte // what each model was stored with
}

func newOwnershipCluster(t *testing.T, tcp bool) *ownershipCluster {
	t.Helper()
	p := provider.New(0, kvstore.NewMemKV(8))
	srv := rpc.NewServer()
	p.Register(srv)
	var raw rpc.Conn
	if tcp {
		lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		pool := rpc.NewPool(addr, 4, rpc.DialTCP)
		t.Cleanup(func() { pool.Close() })
		raw = pool
	} else {
		net := rpc.NewInprocNet()
		if err := net.Listen("a", srv); err != nil {
			t.Fatal(err)
		}
		var err error
		if raw, err = net.Dial("a"); err != nil {
			t.Fatal(err)
		}
	}
	gc := &gateConn{Conn: raw, gate: make(chan struct{})}
	return &ownershipCluster{
		cli:   New([]rpc.Conn{gc}, WithRegistry(metrics.NewRegistry())),
		other: New([]rpc.Conn{raw}, WithRegistry(metrics.NewRegistry())),
		gc:    gc,
		f:     flatten(t, 4),
		want:  make(map[ownermap.ModelID][][]byte),
	}
}

// store writes model id through by (cli or other) and keeps a private copy
// of its segments to compare against.
func (oc *ownershipCluster) store(t *testing.T, by *Client, id ownermap.ModelID) {
	t.Helper()
	segs := segsFor(oc.f, model.Materialize(oc.f, uint64(id)))
	want := make([][]byte, len(segs))
	for v, s := range segs {
		want[v] = bytes.Clone(s)
	}
	if err := by.Store(context.Background(), metaFor(oc.f, id, uint64(id), 0.5), segs); err != nil {
		t.Fatal(err)
	}
	oc.want[id] = want
}

// scribble checks got against model id's stored segments (nil entries
// are vertices not read), then does to it everything an owner may: it
// appends to every segment, checks that no segment changed (an append
// into spare capacity would have written a neighbour), and overwrites
// every byte with mark.
func (oc *ownershipCluster) scribble(t *testing.T, id ownermap.ModelID, got [][]byte, mark byte) {
	t.Helper()
	oc.check(t, id, got, "as returned")
	for _, s := range got {
		_ = append(s, mark, mark, mark, mark)
	}
	oc.check(t, id, got, "after appends to every segment")
	for _, s := range got {
		for i := range s {
			s[i] = mark
		}
	}
}

// check compares the non-nil entries of got with model id's stored
// segments.
func (oc *ownershipCluster) check(t *testing.T, id ownermap.ModelID, got [][]byte, when string) {
	t.Helper()
	for v, s := range got {
		if s != nil && !bytes.Equal(s, oc.want[id][v]) {
			t.Fatalf("model %d vertex %d %s: bytes differ from the stored segment", id, v, when)
		}
	}
}

// reload loads id afresh and checks every segment against the stored ones.
func (oc *ownershipCluster) reload(t *testing.T, id ownermap.ModelID) {
	t.Helper()
	d, err := oc.cli.Load(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	oc.check(t, id, d.Segments, "on reload")
}

func (oc *ownershipCluster) load(t *testing.T, id ownermap.ModelID) [][]byte {
	t.Helper()
	d, err := oc.cli.Load(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return d.Segments
}

// Every byte Load and LoadVertices return is the caller's, over TCP (where
// a miss nobody shares is handed over uncopied) and in-process (where the
// response is the store's own memory): on every read path, writing and
// appending to what was returned changes neither the stored model, nor a
// cached segment, nor a neighbouring segment.
func TestLoadReturnsCallerOwnedBytes(t *testing.T) {
	for _, transport := range []string{"tcp", "inproc"} {
		t.Run(transport, func(t *testing.T) {
			oc := newOwnershipCluster(t, transport == "tcp")
			close(oc.gc.gate) // counting only
			ctx := context.Background()
			nv := oc.f.Graph.NumVertices()

			// An unshared miss the cache does not admit: model 1 is
			// another client's, so this is its segments' first touch.
			oc.store(t, oc.other, 1)
			oc.scribble(t, 1, oc.load(t, 1), 0xa1)
			oc.reload(t, 1) // second touch: admitted
			// A hit, copied out of the cache.
			hits := oc.cli.cache.hits.Load()
			oc.scribble(t, 1, oc.load(t, 1), 0xa2)
			if got := oc.cli.cache.hits.Load() - hits; got != uint64(nv) {
				t.Fatalf("third load of model 1: %d cache hits, want %d", got, nv)
			}
			oc.reload(t, 1)

			// An admitted miss: this client stored model 2, so its first
			// read admits every segment.
			oc.store(t, oc.cli, 2)
			oc.scribble(t, 2, oc.load(t, 2), 0xb1)
			oc.reload(t, 2)

			// One response, part admitted and part handed over: the
			// vertex read once before is admitted, its neighbours in the
			// same frame go to the caller.
			oc.store(t, oc.other, 3)
			last := graph.VertexID(nv - 1)
			first, err := oc.cli.LoadVertices(ctx, metaFor(oc.f, 3, 3, 0.5), []graph.VertexID{last})
			if err != nil {
				t.Fatal(err)
			}
			oc.scribble(t, 3, first, 0xc1)
			oc.scribble(t, 3, oc.load(t, 3), 0xc2)
			if _, ok := oc.cli.cache.get(segRef{3, last}); !ok {
				t.Fatal("the twice-read vertex of model 3 is not cached")
			}
			oc.reload(t, 3)
			oc.reload(t, 3)

			// LoadVertices over segments cached, admitted and handed over.
			oc.store(t, oc.other, 4)
			meta4 := metaFor(oc.f, 4, 4, 0.5)
			vs := []graph.VertexID{1, 2}
			for i := 0; i < 3; i++ {
				segs, err := oc.cli.LoadVertices(ctx, meta4, vs)
				if err != nil {
					t.Fatal(err)
				}
				oc.scribble(t, 4, segs, byte(0xd0+i))
			}
			oc.reload(t, 4)
		})
	}
}

// The callers of one coalesced flight each get their own bytes: the flight
// is held on the gate until every load has joined, then each caller checks
// its segments, writes its own mark into every byte and finds only its own
// mark after all the others have written theirs.
func TestCoalescedLoadsOwnTheirBytes(t *testing.T) {
	for _, transport := range []string{"tcp", "inproc"} {
		t.Run(transport, func(t *testing.T) {
			oc := newOwnershipCluster(t, transport == "tcp")
			oc.store(t, oc.other, 5)
			nv := oc.f.Graph.NumVertices()
			vs := make([]graph.VertexID, nv)
			for i := range vs {
				vs[i] = graph.VertexID(i)
			}
			key := flightKey(5, vs)

			const K = 4
			var loaded, written sync.WaitGroup
			loaded.Add(K)
			written.Add(K)
			errs := make([]error, K)
			var done sync.WaitGroup
			for i := 0; i < K; i++ {
				done.Add(1)
				go func(i int) {
					defer done.Done()
					d, err := oc.cli.Load(context.Background(), 5)
					loaded.Done()
					if err != nil {
						errs[i] = err
						written.Done()
						return
					}
					for v, s := range d.Segments {
						if !bytes.Equal(s, oc.want[5][v]) {
							errs[i] = fmt.Errorf("caller %d vertex %d: bytes differ from the stored segment", i, v)
						}
					}
					loaded.Wait() // no caller writes before every caller has checked
					mark := byte(0xe0 + i)
					for _, s := range d.Segments {
						for j := range s {
							s[j] = mark
						}
					}
					written.Done()
					written.Wait()
					for v, s := range d.Segments {
						for _, b := range s {
							if b != mark {
								errs[i] = fmt.Errorf("caller %d vertex %d: another caller wrote its bytes", i, v)
								return
							}
						}
					}
				}(i)
			}
			deadline := time.Now().Add(10 * time.Second)
			for oc.cli.flights.Pending(key) < K {
				if time.Now().After(deadline) {
					t.Fatalf("loads never joined one flight: pending=%d", oc.cli.flights.Pending(key))
				}
				time.Sleep(time.Millisecond)
			}
			close(oc.gc.gate)
			done.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if n := oc.gc.reads.Load(); n != 1 {
				t.Fatalf("%d wire reads, want one flight", n)
			}
			oc.reload(t, 5)
			oc.reload(t, 5)
		})
	}
}
