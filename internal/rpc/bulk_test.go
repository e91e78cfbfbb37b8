package rpc

import (
	"bytes"
	"context"
	"testing"
)

// vecServer echoes and inspects vectored bulk payloads.
func vecServer() *Server {
	s := NewServer()
	// Echo the request bulk back as a vectored response: three chunks.
	s.Register("vececho", func(_ context.Context, req Message) (Message, error) {
		flat := req.BulkFlat()
		n := len(flat)
		return Message{
			Meta:    req.Meta,
			BulkVec: [][]byte{flat[:n/3], flat[n/3 : 2*n/3], flat[2*n/3:]},
		}, nil
	})
	// Sum every byte of the logical payload, however it is sliced.
	s.Register("vecsum", func(_ context.Context, req Message) (Message, error) {
		var n byte
		for _, s := range req.BulkSlices() {
			for _, b := range s {
				n += b
			}
		}
		return Message{Meta: []byte{n}}, nil
	})
	return s
}

func TestMessageBulkHelpers(t *testing.T) {
	flat := Message{Bulk: []byte{1, 2, 3}}
	if flat.BulkLen() != 3 {
		t.Errorf("flat BulkLen = %d", flat.BulkLen())
	}
	if got := flat.BulkFlat(); &got[0] != &flat.Bulk[0] {
		t.Error("BulkFlat of a flat message must alias, not copy")
	}

	vec := Message{BulkVec: [][]byte{{1, 2}, {3}, nil, {4, 5}}}
	if vec.BulkLen() != 5 {
		t.Errorf("vec BulkLen = %d", vec.BulkLen())
	}
	if got := vec.BulkFlat(); !bytes.Equal(got, []byte{1, 2, 3, 4, 5}) {
		t.Errorf("vec BulkFlat = %v", got)
	}

	// Mixed: Bulk leads, BulkVec follows.
	mixed := Message{Bulk: []byte{9}, BulkVec: [][]byte{{8}}}
	if mixed.BulkLen() != 2 {
		t.Errorf("mixed BulkLen = %d", mixed.BulkLen())
	}
	sl := mixed.BulkSlices()
	if len(sl) != 2 || &sl[0][0] != &mixed.Bulk[0] || &sl[1][0] != &mixed.BulkVec[0][0] {
		t.Error("BulkSlices must alias Bulk then BulkVec entries")
	}

	var empty Message
	if empty.BulkLen() != 0 || empty.BulkFlat() != nil || empty.BulkSlices() != nil {
		t.Error("empty message bulk helpers must be zero-valued")
	}
}

func TestBufPool(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 1 << bufPoolMinClass},
		{4096, 4096},
		{4097, 8192},
		{1 << 20, 1 << 20},
		{(1 << 20) + 1, 1 << 21},
	}
	for _, c := range cases {
		b := GetBuf(c.n)
		if len(b) != c.n {
			t.Errorf("GetBuf(%d) len = %d", c.n, len(b))
		}
		if cap(b) != c.wantCap {
			t.Errorf("GetBuf(%d) cap = %d, want %d", c.n, cap(b), c.wantCap)
		}
		PutBuf(b)
	}
	// Outside the class range: plain allocation, PutBuf ignores it.
	huge := GetBuf((1 << bufPoolMaxClass) + 1)
	if len(huge) != (1<<bufPoolMaxClass)+1 {
		t.Errorf("oversize GetBuf len = %d", len(huge))
	}
	PutBuf(huge)
	PutBuf(nil)
	PutBuf(make([]byte, 100)) // non-power-of-two cap: must be ignored, not pooled
}

// TestTCPVectoredBulk round-trips vectored payloads over TCP, below and
// above the writev threshold, and checks the frame is identical to a flat
// send (the receiver cannot tell).
func TestTCPVectoredBulk(t *testing.T) {
	lis, addr, err := ListenAndServeTCP("127.0.0.1:0", vecServer())
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	c, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	for _, size := range []int{100, 64 << 10, vecFlushThreshold + 1, 4 << 20} {
		flat := make([]byte, size)
		for i := range flat {
			flat[i] = byte(i * 31)
		}
		// Slice the payload into uneven chunks.
		vec := [][]byte{flat[:size/5], flat[size/5 : size/2], flat[size/2:]}

		respVec, err := c.Call(ctx, "vececho", Message{Meta: []byte("m"), BulkVec: vec})
		if err != nil {
			t.Fatalf("size %d vectored: %v", size, err)
		}
		respFlat, err := c.Call(ctx, "vececho", Message{Meta: []byte("m"), Bulk: flat})
		if err != nil {
			t.Fatalf("size %d flat: %v", size, err)
		}
		if !bytes.Equal(respVec.Bulk, flat) {
			t.Fatalf("size %d: vectored round trip corrupted", size)
		}
		if !bytes.Equal(respFlat.Bulk, flat) {
			t.Fatalf("size %d: flat round trip corrupted", size)
		}
	}

	// The caller's vector must not be consumed by the writev path.
	big := make([]byte, 1<<20)
	vec := [][]byte{big[:1000], big[1000:]}
	msg := Message{BulkVec: vec}
	if _, err := c.Call(ctx, "vecsum", msg); err != nil {
		t.Fatal(err)
	}
	if len(msg.BulkVec[0]) != 1000 || len(msg.BulkVec[1]) != len(big)-1000 {
		t.Error("Call consumed the caller's BulkVec slice headers")
	}
}

// TestInprocVectoredAliases checks the in-process fabric passes vectored
// payloads by reference, like it does flat ones.
func TestInprocVectoredAliases(t *testing.T) {
	net := NewInprocNet()
	srv := NewServer()
	var got [][]byte
	srv.Register("keep", func(_ context.Context, req Message) (Message, error) {
		got = req.BulkVec
		return Message{}, nil
	})
	net.Listen("p", srv)
	c, _ := net.Dial("p")
	a, b := []byte{1, 2}, []byte{3}
	if _, err := c.Call(context.Background(), "keep", Message{BulkVec: [][]byte{a, b}}); err != nil {
		t.Fatal(err)
	}
	if &got[0][0] != &a[0] || &got[1][0] != &b[0] {
		t.Error("in-proc transport copied the vectored payload")
	}
}

// oversizedVec fakes a payload larger than MaxFrame without allocating it,
// by repeating references to one buffer.
func oversizedVec() [][]byte {
	chunk := make([]byte, 1<<20)
	vec := make([][]byte, (MaxFrame>>20)+1)
	for i := range vec {
		vec[i] = chunk
	}
	return vec
}

func TestTCPSendOversizeRejectedTyped(t *testing.T) {
	lis, addr, err := ListenAndServeTCP("127.0.0.1:0", vecServer())
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	c, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	_, err = c.Call(ctx, "vecsum", Message{BulkVec: oversizedVec()})
	if !IsFrameTooLarge(err) {
		t.Fatalf("oversized send = %v, want ErrFrameTooLarge", err)
	}
	if IsTransient(err) {
		t.Error("ErrFrameTooLarge must classify as permanent")
	}
	// Nothing touched the wire: the connection must still work.
	if _, err := c.Call(ctx, "vecsum", Message{Bulk: []byte{1}}); err != nil {
		t.Fatalf("call after rejected oversize: %v", err)
	}
}

func TestTCPOversizedResponseIsRemoteError(t *testing.T) {
	srv := NewServer()
	srv.Register("huge", func(_ context.Context, _ Message) (Message, error) {
		return Message{BulkVec: oversizedVec()}, nil
	})
	srv.Register("ok", func(_ context.Context, _ Message) (Message, error) {
		return Message{Meta: []byte("fine")}, nil
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
	ctx := context.Background()

	_, err = c.Call(ctx, "huge", Message{})
	if err == nil || !IsRemote(err) {
		t.Fatalf("oversized response = %v, want remote error", err)
	}
	if !IsFrameTooLarge(err) || IsTransient(err) {
		t.Errorf("oversized response %v: want StatusFrameTooLarge, permanent", err)
	}
	// The server converted the oversize to an error frame instead of a torn
	// frame: the same connection must still serve requests.
	if _, err := c.Call(ctx, "ok", Message{}); err != nil {
		t.Fatalf("call after oversized response: %v", err)
	}
}

func TestPoolKeepsConnOnFrameTooLarge(t *testing.T) {
	lis, addr, err := ListenAndServeTCP("127.0.0.1:0", vecServer())
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	dials := 0
	p := NewPool(addr, 1, func(a string) (Conn, error) {
		dials++
		return DialTCP(a)
	})
	defer p.Close()
	ctx := context.Background()

	if _, err := p.Call(ctx, "vecsum", Message{Bulk: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call(ctx, "vecsum", Message{BulkVec: oversizedVec()}); !IsFrameTooLarge(err) {
		t.Fatalf("oversized via pool = %v", err)
	}
	if _, err := p.Call(ctx, "vecsum", Message{Bulk: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	if dials != 1 {
		t.Errorf("pool redialed after a rejected oversize (%d dials, want 1)", dials)
	}
}

// TestFaultConnVectoredSchedule checks fault decisions are independent of
// payload shape: the same seed produces the same drop schedule for flat
// and vectored senders, and surviving vectored payloads arrive intact.
func TestFaultConnVectoredSchedule(t *testing.T) {
	net := NewInprocNet()
	net.Listen("p", vecServer())
	mk := func() *FaultConn {
		c, err := net.Dial("p")
		if err != nil {
			t.Fatal(err)
		}
		return WithFaults(c, FaultConfig{Seed: 99, DropRequest: 0.3, DropResponse: 0.2})
	}
	flatConn, vecConn := mk(), mk()
	payload := []byte{1, 2, 3, 4, 5}
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		_, errFlat := flatConn.Call(ctx, "vecsum", Message{Bulk: payload})
		respVec, errVec := vecConn.Call(ctx, "vecsum", Message{BulkVec: [][]byte{payload[:2], payload[2:]}})
		if (errFlat == nil) != (errVec == nil) {
			t.Fatalf("call %d: drop schedule diverged between flat (%v) and vectored (%v)", i, errFlat, errVec)
		}
		if errVec == nil && respVec.Meta[0] != 15 {
			t.Fatalf("call %d: vectored payload corrupted through fault wrapper (sum %d)", i, respVec.Meta[0])
		}
	}
}
