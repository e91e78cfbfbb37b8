// Package bulkbench defines the bulk-data-path benchmark scenarios that
// `go test -bench Bulk ./internal/bulkbench` runs (bulkbench_test.go). The
// scenarios measure the two layers the zero-copy path optimizes: raw TCP
// echo calls (flat and vectored payloads, 64 KiB to 64 MiB) and the
// end-to-end client read path (Load over a TCP provider, with the segment
// cache warm and with it off).
package bulkbench

import (
	"context"
	"testing"

	"repro/internal/client"
	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/rpc"
)

// Scenario is one named benchmark body.
type Scenario struct {
	Name string
	Run  func(b *testing.B)
}

// Scenarios returns the tracked bulk benchmarks, in reporting order.
func Scenarios() []Scenario {
	return []Scenario{
		{"TCPCall64K", benchTCPCall(64<<10, false)},
		{"TCPCall1M", benchTCPCall(1<<20, false)},
		{"TCPCall64M", benchTCPCall(64<<20, false)},
		{"TCPCallVec64K", benchTCPCall(64<<10, true)},
		{"TCPCallVec1M", benchTCPCall(1<<20, true)},
		{"TCPCallVec64M", benchTCPCall(64<<20, true)},
		{"ReadPath1M", benchReadPath(16, 64<<10)},
		{"ReadPath64M", benchReadPath(16, 4<<20)},
		// Cache off: every Load crosses the wire into pooled receive
		// frames, which Release recycles for the next iteration.
		{"ReadPathNoCache1M", benchReadPath(16, 64<<10, client.WithSegCacheBytes(0))},
	}
}

// benchTCPCall measures one echo round trip of size bulk bytes over a
// single TCP connection; vectored senders slice the payload into 16
// chunks, the shape of a consolidated multi-segment write.
func benchTCPCall(size int, vectored bool) func(b *testing.B) {
	return func(b *testing.B) {
		srv := rpc.NewServer()
		srv.Register("echo", func(_ context.Context, req rpc.Message) (rpc.Message, error) {
			return rpc.Message{Meta: req.Meta, Bulk: req.Bulk}, nil
		})
		lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
		if err != nil {
			b.Fatal(err)
		}
		defer lis.Close()
		c, err := rpc.DialTCP(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()

		bulk := make([]byte, size)
		for i := range bulk {
			bulk[i] = byte(i * 2654435761)
		}
		msg := rpc.Message{Bulk: bulk}
		if vectored {
			const chunks = 16
			vec := make([][]byte, 0, chunks)
			step := size / chunks
			for off := 0; off < size; off += step {
				end := off + step
				if end > size {
					end = size
				}
				vec = append(vec, bulk[off:end])
			}
			msg = rpc.Message{BulkVec: vec}
		}
		ctx := context.Background()
		b.SetBytes(int64(size))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Call(ctx, "echo", msg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ChainModel builds a chain-graph model of nseg self-owned segments of
// segBytes deterministic bytes each (`evostore-bench frontdoor` stores the
// same shape).
func ChainModel(id ownermap.ModelID, nseg, segBytes int) (*proto.ModelMeta, [][]byte) {
	gb := graph.NewBuilder(nseg)
	for i := 0; i < nseg; i++ {
		gb.AddVertex(graph.Vertex{ConfigSig: uint64(id)<<16 | uint64(i+1), ParamBytes: int64(segBytes)})
		if i > 0 {
			gb.AddEdge(graph.VertexID(i-1), graph.VertexID(i))
		}
	}
	meta := &proto.ModelMeta{
		Model: id, Seq: uint64(id), Quality: 0.5,
		Graph:    gb.Build(),
		OwnerMap: ownermap.New(id, uint64(id), nseg),
	}
	segs := make([][]byte, nseg)
	for i := range segs {
		segs[i] = make([]byte, segBytes)
		for j := range segs[i] {
			segs[i][j] = byte(int(id) + i + j)
		}
	}
	return meta, segs
}

// benchReadPath measures a full client Load (metadata + consolidated
// segment read) of an nseg×segBytes model from one TCP provider, via an
// rpc.Pool of 4 connections — the deployment shape of evostore-server.
func benchReadPath(nseg, segBytes int, opts ...client.Option) func(b *testing.B) {
	return func(b *testing.B) {
		p := provider.New(0, kvstore.NewMemKV(8))
		srv := rpc.NewServer()
		p.Register(srv)
		lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
		if err != nil {
			b.Fatal(err)
		}
		defer lis.Close()
		pool := rpc.NewPool(addr, 4, rpc.DialTCP)
		defer pool.Close()
		cli := client.New([]rpc.Conn{pool}, opts...)

		ctx := context.Background()
		meta, segs := ChainModel(1, nseg, segBytes)
		if err := cli.Store(ctx, meta, segs); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(nseg) * int64(segBytes))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data, err := cli.Load(ctx, 1)
			if err != nil {
				b.Fatal(err)
			}
			if len(data.Segments) != nseg {
				b.Fatal("short load")
			}
		}
	}
}
