package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/model"
	"repro/internal/provider"
	"repro/internal/rpc"
)

// twoRepos attaches two repositories, each with its own client and segment
// cache, to the same MemKV providers over TCP or the in-process fabric.
func twoRepos(t *testing.T, providers int, tcp bool) (a, b *Repository) {
	t.Helper()
	net := rpc.NewInprocNet()
	addrs := make([]string, providers)
	for i := range addrs {
		p := provider.New(i, kvstore.NewMemKV(8))
		srv := rpc.NewServer()
		p.Register(srv)
		if tcp {
			lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lis.Close() })
			addrs[i] = addr
		} else {
			addrs[i] = string(rune('a' + i))
			if err := net.Listen(addrs[i], srv); err != nil {
				t.Fatal(err)
			}
		}
	}
	attach := func() *Repository {
		conns := make([]rpc.Conn, providers)
		for i, addr := range addrs {
			if tcp {
				conns[i] = rpc.NewPool(addr, 4, rpc.DialTCP)
				continue
			}
			c, err := net.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			conns[i] = c
		}
		r := Attach(conns)
		t.Cleanup(func() { r.Close() })
		return r
	}
	return attach(), attach()
}

// scribbleWeights does to ws everything an owner may: it appends to every
// tensor's Data, checks that ws still equals want (an append into spare
// capacity would have written a neighbouring tensor or segment), and
// overwrites every byte.
func scribbleWeights(t *testing.T, ws, want model.WeightSet, mark byte) {
	t.Helper()
	for _, ts := range ws {
		for _, tt := range ts {
			_ = append(tt.Data, mark, mark, mark, mark)
		}
	}
	if !ws.Equal(want) {
		t.Fatal("an append to one tensor's Data changed another tensor")
	}
	for _, ts := range ws {
		for _, tt := range ts {
			for i := range tt.Data {
				tt.Data[i] = mark
			}
		}
	}
}

// The weights core.Load and TransferPrefix install are the caller's, over
// both transports: on a miss handed over uncopied, an admitted miss and a
// cache hit, writing and appending to them leaves the stored model and
// the reading client's cache intact.
func TestLoadedWeightsAreTheCallers(t *testing.T) {
	for _, transport := range []string{"tcp", "inproc"} {
		t.Run(transport, func(t *testing.T) {
			writer, reader := twoRepos(t, 2, transport == "tcp")
			ctx := context.Background()
			f := mlp(t, 4, 16, 8)
			want := model.Materialize(f, 7)
			id, err := writer.Store(ctx, f, want, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			// First touch (handed over), second (admitted), third (hit).
			for i := 0; i < 3; i++ {
				_, ws, err := reader.Load(ctx, id)
				if err != nil {
					t.Fatal(err)
				}
				if !ws.Equal(want) {
					t.Fatalf("load %d returned weights that differ from the stored ones", i+1)
				}
				scribbleWeights(t, ws, want, byte(0xa0+i))
			}

			// TransferPrefix installs the ancestor's segments into the
			// caller's weight set: training them in place must not reach
			// the ancestor.
			f2 := mlp(t, 4, 16, 12)
			anc, found, err := reader.BestAncestor(ctx, f2)
			if err != nil || !found || anc.Meta.Model != id {
				t.Fatalf("ancestor: %v found=%v", err, found)
			}
			for i := 0; i < 2; i++ {
				ws2 := model.Materialize(f2, 2)
				if err := reader.TransferPrefix(ctx, f2, ws2, anc); err != nil {
					t.Fatal(err)
				}
				for _, v := range anc.Prefix {
					if !ws2.VertexEqual(want, v) {
						t.Fatalf("transfer %d: vertex %d differs from the ancestor's", i+1, v)
					}
					for _, tt := range ws2[v] {
						_ = append(tt.Data, 1, 2, 3, 4)
					}
				}
				for _, v := range anc.Prefix {
					if !ws2.VertexEqual(want, v) {
						t.Fatalf("transfer %d: an append changed vertex %d", i+1, v)
					}
					ws2.PerturbVertex(v, uint64(i))
				}
			}
			for _, r := range []*Repository{reader, writer} {
				if _, ws, err := r.Load(ctx, id); err != nil || !ws.Equal(want) {
					t.Fatalf("reload after writes to returned weights: err %v, equal %v", err, err == nil && ws.Equal(want))
				}
			}
		})
	}
}

// A core.Load over TCP of a model the client has not cached copies each
// byte once: the response frame becomes the tensors. It allocates at most
// 1.25 times the payload (a clone per tensor made it 2 times). Each
// measured Load reads a model its client never touched, so none is
// admitted to the cache; the least of three is taken, as GC and other
// goroutines only add to a count.
func TestColdLoadAllocatesPayloadOnce(t *testing.T) {
	writer, reader := twoRepos(t, 1, true)
	ctx := context.Background()
	f := mlp(t, 4, 256, 256) // about 1 MiB of parameters
	var ids []ModelID
	for i := 0; i < 4; i++ {
		id, err := writer.Store(ctx, f, model.Materialize(f, uint64(i)), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	payload := model.Materialize(f, 0).SizeBytes()
	if _, _, err := reader.Load(ctx, ids[0]); err != nil { // dials the pool
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for _, id := range ids[1:] {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := reader.Load(ctx, id); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(payload) * 5 / 4; least > limit {
		t.Fatalf("a cold Load of %d payload bytes allocated %d bytes (%.2fx), want at most 1.25x",
			payload, least, float64(least)/float64(payload))
	}
	t.Logf("a cold Load of %d payload bytes allocated %d bytes (%.2fx)", payload, least, float64(least)/float64(payload))
}
