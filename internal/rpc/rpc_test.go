package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func echoServer() *Server {
	s := NewServer()
	s.Register("echo", func(_ context.Context, req Message) (Message, error) {
		return Message{Meta: req.Meta, Bulk: req.Bulk}, nil
	})
	s.Register("fail", func(_ context.Context, req Message) (Message, error) {
		return Message{}, errors.New("boom")
	})
	s.Register("sum", func(_ context.Context, req Message) (Message, error) {
		var n byte
		for _, b := range req.Bulk {
			n += b
		}
		return Message{Meta: []byte{n}}, nil
	})
	return s
}

// runConnContract exercises the behaviour all Conn implementations share.
func runConnContract(t *testing.T, c Conn) {
	t.Helper()
	ctx := context.Background()

	meta := []byte("control")
	bulk := bytes.Repeat([]byte{7}, 1<<16)
	resp, err := c.Call(ctx, "echo", Message{Meta: meta, Bulk: bulk})
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	if !bytes.Equal(resp.Meta, meta) || !bytes.Equal(resp.Bulk, bulk) {
		t.Fatal("echo mismatch")
	}

	// Empty payloads.
	resp, err = c.Call(ctx, "echo", Message{})
	if err != nil || len(resp.Meta) != 0 || len(resp.Bulk) != 0 {
		t.Fatalf("empty echo: %v %d %d", err, len(resp.Meta), len(resp.Bulk))
	}

	// Remote handler error.
	_, err = c.Call(ctx, "fail", Message{})
	if err == nil || !IsRemote(err) {
		t.Fatalf("fail: err=%v IsRemote=%v", err, IsRemote(err))
	}
	// The connection must survive a remote error.
	if _, err := c.Call(ctx, "echo", Message{Meta: []byte("x")}); err != nil {
		t.Fatalf("call after remote error: %v", err)
	}

	// Unknown handler.
	if _, err := c.Call(ctx, "nope", Message{}); err == nil {
		t.Fatal("unknown handler accepted")
	}

	// Cancelled context.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Call(cctx, "echo", Message{}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestInprocConnContract(t *testing.T) {
	net := NewInprocNet()
	if err := net.Listen("p0", echoServer()); err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("p0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runConnContract(t, c)
}

func TestTCPConnContract(t *testing.T) {
	lis, addr, err := ListenAndServeTCP("127.0.0.1:0", echoServer())
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	c, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runConnContract(t, c)
}

func TestPoolContract(t *testing.T) {
	lis, addr, err := ListenAndServeTCP("127.0.0.1:0", echoServer())
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	p := NewPool(addr, 4, DialTCP)
	defer p.Close()
	runConnContract(t, p)
}

func TestInprocZeroCopyBulk(t *testing.T) {
	net := NewInprocNet()
	srv := NewServer()
	var got []byte
	srv.Register("keep", func(_ context.Context, req Message) (Message, error) {
		got = req.Bulk // hold a reference: in-proc bulk must alias
		return Message{}, nil
	})
	net.Listen("p", srv)
	c, _ := net.Dial("p")
	bulk := []byte{1, 2, 3}
	c.Call(context.Background(), "keep", Message{Bulk: bulk})
	if &got[0] != &bulk[0] {
		t.Error("in-proc transport copied the bulk payload")
	}
}

func TestInprocDialErrors(t *testing.T) {
	net := NewInprocNet()
	if _, err := net.Dial("missing"); err == nil {
		t.Error("Dial to unbound address succeeded")
	}
	srv := echoServer()
	net.Listen("a", srv)
	if err := net.Listen("a", srv); err == nil {
		t.Error("duplicate Listen accepted")
	}
	c, _ := net.Dial("a")
	net.Unlisten("a")
	if _, err := c.Call(context.Background(), "echo", Message{}); err == nil {
		t.Error("call to unbound address succeeded")
	}
}

func TestClosedConnRejectsCalls(t *testing.T) {
	net := NewInprocNet()
	net.Listen("a", echoServer())
	c, _ := net.Dial("a")
	c.Close()
	if _, err := c.Call(context.Background(), "echo", Message{}); !errors.Is(err, ErrClosed) {
		t.Errorf("call on closed conn = %v, want ErrClosed", err)
	}
}

func TestServerStats(t *testing.T) {
	net := NewInprocNet()
	srv := echoServer()
	net.Listen("a", srv)
	c, _ := net.Dial("a")
	c.Call(context.Background(), "echo", Message{Bulk: make([]byte, 100)})
	c.Call(context.Background(), "echo", Message{Bulk: make([]byte, 50)})
	st := srv.Stats()
	if st.Calls != 2 || st.BulkInBytes != 150 || st.BulkOutBytes != 150 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTCPConcurrentCallsViaPool(t *testing.T) {
	lis, addr, err := ListenAndServeTCP("127.0.0.1:0", echoServer())
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	p := NewPool(addr, 8, DialTCP)
	defer p.Close()

	var wg sync.WaitGroup
	var failures atomic.Int32
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				payload := []byte(fmt.Sprintf("w%d-i%d", w, i))
				resp, err := p.Call(context.Background(), "echo", Message{Meta: payload})
				if err != nil || !bytes.Equal(resp.Meta, payload) {
					failures.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Errorf("%d workers failed", failures.Load())
	}
}

func TestTCPLargeBulk(t *testing.T) {
	lis, addr, err := ListenAndServeTCP("127.0.0.1:0", echoServer())
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	c, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bulk := make([]byte, 8<<20)
	for i := range bulk {
		bulk[i] = byte(i * 2654435761)
	}
	resp, err := c.Call(context.Background(), "echo", Message{Bulk: bulk})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Bulk, bulk) {
		t.Error("large bulk corrupted")
	}
}

func TestTCPDeadline(t *testing.T) {
	srv := NewServer()
	srv.Register("slow", func(ctx context.Context, _ Message) (Message, error) {
		time.Sleep(300 * time.Millisecond)
		return Message{}, nil
	})
	lis, addr, err := ListenAndServeTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	c, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, "slow", Message{}); err == nil {
		t.Error("deadline not enforced")
	}
}

func TestBroadcast(t *testing.T) {
	net := NewInprocNet()
	for i := 0; i < 4; i++ {
		srv := NewServer()
		val := byte(i + 1)
		srv.Register("val", func(_ context.Context, _ Message) (Message, error) {
			return Message{Meta: []byte{val}}, nil
		})
		net.Listen(fmt.Sprintf("p%d", i), srv)
	}
	var conns []Conn
	for i := 0; i < 4; i++ {
		c, err := net.Dial(fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	results := Broadcast(context.Background(), conns, "val", Message{})
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Err != nil || len(r.Resp.Meta) != 1 || r.Resp.Meta[0] != byte(i+1) {
			t.Errorf("slot %d = %v %v, want value %d in connection order", i, r.Resp.Meta, r.Err, i+1)
		}
	}
}

// Every leg of a Broadcast is in flight at once, the one run on the
// calling goroutine included: each handler waits until all have arrived.
func TestBroadcastLegsOverlap(t *testing.T) {
	const n = 4
	var arrived atomic.Int32
	all := make(chan struct{})
	net := NewInprocNet()
	srv := NewServer()
	srv.Register("q", func(ctx context.Context, _ Message) (Message, error) {
		if arrived.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
			return Message{Meta: []byte{1}}, nil
		case <-ctx.Done():
			return Message{}, ctx.Err()
		}
	})
	net.Listen("p", srv)
	conns := make([]Conn, n)
	for i := range conns {
		c, err := net.Dial("p")
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, r := range Broadcast(ctx, conns, "q", Message{}) {
		if r.Err != nil {
			t.Errorf("slot %d: %v", i, r.Err)
		}
	}
	if got := Broadcast(ctx, nil, "q", Message{}); len(got) != 0 {
		t.Errorf("a broadcast to no connection returned %d slots", len(got))
	}
}

func TestBroadcastPartialFailure(t *testing.T) {
	net := NewInprocNet()
	good := NewServer()
	good.Register("q", func(_ context.Context, _ Message) (Message, error) {
		return Message{Meta: []byte{1}}, nil
	})
	bad := NewServer()
	bad.Register("q", func(_ context.Context, _ Message) (Message, error) {
		return Message{}, errors.New("provider down")
	})
	net.Listen("good", good)
	net.Listen("bad", bad)
	cg, _ := net.Dial("good")
	cb, _ := net.Dial("bad")
	results := Broadcast(context.Background(), []Conn{cg, cb}, "q", Message{})
	if results[0].Err != nil || len(results[0].Resp.Meta) != 1 {
		t.Errorf("healthy slot = %v %v", results[0].Resp.Meta, results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("failed slot carries no error")
	}
}

func BenchmarkInprocCall(b *testing.B) {
	net := NewInprocNet()
	net.Listen("p", echoServer())
	c, _ := net.Dial("p")
	msg := Message{Meta: []byte("m"), Bulk: make([]byte, 4096)}
	ctx := context.Background()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(ctx, "echo", msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPCall64K(b *testing.B) {
	lis, addr, err := ListenAndServeTCP("127.0.0.1:0", echoServer())
	if err != nil {
		b.Fatal(err)
	}
	defer lis.Close()
	c, err := DialTCP(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	msg := Message{Bulk: make([]byte, 64<<10)}
	ctx := context.Background()
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(ctx, "echo", msg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPoolSurvivesServerRestart(t *testing.T) {
	lis, addr, err := ListenAndServeTCP("127.0.0.1:0", echoServer())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(addr, 2, DialTCP)
	defer p.Close()
	ctx := context.Background()
	if _, err := p.Call(ctx, "echo", Message{Meta: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	// Kill the listener: in-pool connections die.
	lis.Close()
	// Restart on the same address (retry briefly; the port may linger).
	var lis2 interface{ Close() error }
	for i := 0; i < 50; i++ {
		l, _, err := ListenAndServeTCP(addr, echoServer())
		if err == nil {
			lis2 = l
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lis2 == nil {
		t.Skip("could not rebind test port")
	}
	defer lis2.Close()
	// The pool discards dead connections on transport errors and redials:
	// within a few calls service must resume.
	ok := false
	for i := 0; i < 10; i++ {
		if _, err := p.Call(ctx, "echo", Message{Meta: []byte("b")}); err == nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Error("pool did not recover after server restart")
	}
}

func TestWithLatency(t *testing.T) {
	net := NewInprocNet()
	net.Listen("p", echoServer())
	raw, _ := net.Dial("p")
	const rtt = 30 * time.Millisecond
	c := WithLatency(raw, rtt)
	start := time.Now()
	if _, err := c.Call(context.Background(), "echo", Message{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < rtt {
		t.Errorf("call took %v, want ≥%v", d, rtt)
	}
	// Cancellation during the latency wait.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, "echo", Message{}); err == nil {
		t.Error("latency wrapper ignored context cancellation")
	}
	// Zero latency returns the original connection.
	if WithLatency(raw, 0) != raw {
		t.Error("zero-latency wrap should be a no-op")
	}
}
