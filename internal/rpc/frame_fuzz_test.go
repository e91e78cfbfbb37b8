package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
)

// throttleErr is a Coded error with an argument, standing in for
// frontdoor.ThrottledError (which imports this package).
type throttleErr struct{ after uint64 }

func (e throttleErr) Error() string                { return "throttled" }
func (e throttleErr) WireStatus() (Status, uint64) { return StatusThrottled, e.after }

// encodeFrame runs one frame writer into a buffer.
func encodeFrame(write func(w *bufio.Writer, vec *net.Buffers) error) ([]byte, error) {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	var vec net.Buffers
	if err := write(w, &vec); err != nil {
		return nil, err
	}
	err := w.Flush()
	return out.Bytes(), err
}

// FuzzReadFrame feeds the TCP frame readers what a socket can: neither may
// panic, and every frame one accepts — a request, an ok response, or an
// error response under any status — re-encodes to exactly the bytes it was
// read from.
func FuzzReadFrame(f *testing.F) {
	req, _ := encodeFrame(func(w *bufio.Writer, vec *net.Buffers) error {
		return writeRequest(w, nil, vec, "evostore.get_meta", Message{Meta: []byte("meta"), Bulk: []byte("bulk")})
	})
	f.Add(req)
	for _, herr := range []error{
		nil,
		errors.New("boom"),
		NewCoded(StatusWrongEpoch, "wrong epoch"),
		NewCoded(StatusNotMigrated, "not migrated"),
		throttleErr{after: 1250e6},
		ErrFrameTooLarge,
	} {
		resp, _ := encodeFrame(func(w *bufio.Writer, vec *net.Buffers) error {
			return writeResponse(w, nil, vec, Message{Meta: []byte("m"), Bulk: []byte("b")}, herr)
		})
		f.Add(resp)
	}
	f.Add([]byte{byte(numStatus), 0, 0, 0, 0}) // a status this binary does not know

	// A mutated length field must not make the readers allocate gigabytes.
	defer func(l uint64) { recvLimit = l }(recvLimit)
	recvLimit = 1 << 16

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		if name, m, err := readRequest(src); err == nil {
			re, werr := encodeFrame(func(w *bufio.Writer, vec *net.Buffers) error {
				return writeRequest(w, nil, vec, name, m)
			})
			if n := len(data) - src.Len(); werr != nil || !bytes.Equal(re, data[:n]) {
				t.Fatalf("request % x re-encodes to % x (%v)", data[:n], re, werr)
			}
		}
		src = bytes.NewReader(data)
		m, err := readResponse(src, false)
		var remote *remoteError
		if err != nil && !errors.As(err, &remote) {
			return
		}
		re, werr := encodeFrame(func(w *bufio.Writer, vec *net.Buffers) error {
			if remote != nil {
				return writeError(w, remote)
			}
			return writeResponse(w, nil, vec, m, nil)
		})
		if n := len(data) - src.Len(); werr != nil || !bytes.Equal(re, data[:n]) {
			t.Fatalf("response % x re-encodes to % x (%v)", data[:n], re, werr)
		}
	})
}

// TestUnknownStatusDropsConn: a response frame under a status this binary
// does not know is a torn stream — a transport failure that kills the
// connection, not a remote error.
func TestUnknownStatusDropsConn(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := readRequest(bufio.NewReader(conn)); err == nil {
			conn.Write([]byte{byte(numStatus), 0, 0, 0, 0})
		}
	}()
	c, err := DialTCP(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), "x", Message{}); err == nil || IsRemote(err) || !IsTransient(err) {
		t.Fatalf("unknown status = %v, want a transient transport failure", err)
	}
	if _, err := c.Call(context.Background(), "x", Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after unknown status = %v, want ErrClosed (connection dropped)", err)
	}
}
