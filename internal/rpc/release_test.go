package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// releaseServer answers "get" with a pooled vectored response of the size
// the request's meta byte names (in 64 KiB units) and "fail" with an error,
// each carrying a Release that counts its calls. "hold" signals held and
// waits for gate before answering like "get".
func releaseServer(released chan<- *atomic.Int32, held chan<- struct{}, gate <-chan struct{}) *Server {
	s := NewServer()
	get := func(req Message) (Message, error) {
		n := int(req.Meta[0]) << 16
		b := GetBuf(n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		var calls atomic.Int32
		return Message{Meta: req.Meta, BulkVec: [][]byte{b[:n/2], b[n/2:]}, Release: func() {
			calls.Add(1)
			PutBuf(b)
			released <- &calls
		}}, nil
	}
	s.Register("get", func(_ context.Context, req Message) (Message, error) { return get(req) })
	s.Register("hold", func(_ context.Context, req Message) (Message, error) {
		held <- struct{}{}
		<-gate
		return get(req)
	})
	s.Register("fail", func(_ context.Context, req Message) (Message, error) {
		resp, _ := get(req)
		return resp, errors.New("refused")
	})
	return s
}

func wantPattern(t *testing.T, got []byte, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("got %d bytes, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != byte(i*7) {
			t.Fatalf("byte %d is %d, want %d", i, got[i], byte(i*7))
		}
	}
}

// awaitReleases waits for n Release calls and checks that each ran once.
func awaitReleases(t *testing.T, released <-chan *atomic.Int32, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case c := <-released:
			if got := c.Load(); got != 1 {
				t.Errorf("a response's Release ran %d times", got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d Release calls after 10s", i, n)
		}
	}
	select {
	case <-released:
		t.Fatal("more Release calls than responses")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestTCPResponseRelease: the TCP server calls a response's Release
// exactly once after writing it: for small (buffered) and large (writev)
// responses, for an error response, and for a response whose client hung
// up before it was written. The client's bytes are its own: responses
// read back intact after every buffer was recycled and reused.
func TestTCPResponseRelease(t *testing.T) {
	released := make(chan *atomic.Int32, 64)
	held, gate := make(chan struct{}, 1), make(chan struct{})
	lis, addr, err := ListenAndServeTCP("127.0.0.1:0", releaseServer(released, held, gate))
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	c, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var kept [][]byte
	sizes := []byte{1, 4, 1, 4, 1, 4} // 64 KiB buffered, 256 KiB by writev
	for _, units := range sizes {
		resp, err := c.Call(context.Background(), "get", Message{Meta: []byte{units}})
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, resp.Bulk)
	}
	if _, err := c.Call(context.Background(), "fail", Message{Meta: []byte{1}}); !IsRemote(err) {
		t.Fatalf("fail: %v, want a remote error", err)
	}
	awaitReleases(t, released, len(sizes)+1)
	for i, b := range kept {
		wantPattern(t, b, int(sizes[i])<<16)
	}

	// The client sends a request and hangs up while the handler runs.
	hung, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(hung)
	var vec net.Buffers
	if err := writeRequest(w, hung, &vec, "hold", Message{Meta: []byte{64}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	<-held
	hung.Close()
	close(gate)
	awaitReleases(t, released, 1)
}

// TestInprocNeverReleases: the in-process caller holds the handler's
// buffers by reference, so the transport never calls Release and hands
// back a response without one.
func TestInprocNeverReleases(t *testing.T) {
	released := make(chan *atomic.Int32, 4)
	net := NewInprocNet()
	if err := net.Listen("p", releaseServer(released, nil, nil)); err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("p")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(context.Background(), "get", Message{Meta: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Release != nil {
		t.Error("in-process response still carries its Release")
	}
	if _, err := c.Call(context.Background(), "fail", Message{Meta: []byte{1}}); err == nil {
		t.Fatal("fail succeeded")
	}
	wantPattern(t, bytes.Join(resp.BulkVec, nil), 1<<16)
	select {
	case <-released:
		t.Fatal("in-process transport called Release")
	case <-time.After(20 * time.Millisecond):
	}
}
