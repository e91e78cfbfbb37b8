package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCP wire format, little-endian:
//
//	request:  u16 nameLen | name | u32 metaLen | meta | u64 bulkLen | bulk
//	response: u8 status | u32 n | n bytes | trailer
//	          StatusOK:        meta, then u64 bulkLen | bulk
//	          StatusThrottled: the message, then u64 retry-after (ns)
//	          other statuses:  the message, no trailer
//
// The status is the handler error's code (errors.go), so a typed failure
// crosses as its code, never as text to parse; a status this binary does
// not know drops the connection like any other torn frame.
//
// The bulk payload is always framed as one total length followed by the
// bytes in order; a vectored payload (Message.BulkVec) is gathered into
// the stream with a single writev (net.Buffers) instead of being copied
// into one buffer first, so the frame a receiver sees is identical for
// flat and vectored senders.
//
// One connection carries one request at a time; tcpConn (from DialTCP)
// serializes with a mutex and a Pool (NewPool) fans parallel calls over
// several connections, which is how the client achieves the paper's
// "multiple bulk operations in parallel to the providers".

// MaxFrame is the sanity bound on any single length field of the wire
// format. Senders reject oversized frames with ErrFrameTooLarge before
// writing a byte; receivers drop the connection when a peer announces one.
const MaxFrame = 1 << 31

// recvLimit is the largest length field the frame readers accept:
// MaxFrame, lowered by FuzzReadFrame so a mutated length cannot make a
// reader allocate gigabytes.
var recvLimit uint64 = MaxFrame

// vecFlushThreshold is the bulk size above which a vectored payload is
// written with writev directly to the socket instead of being copied
// through the connection's bufio.Writer. Below it, the copy into the
// already-allocated write buffer is cheaper than the extra syscall.
const vecFlushThreshold = 128 << 10

// ServeTCP accepts connections on lis and dispatches to srv until lis is
// closed. It returns after the listener fails (use lis.Close to stop).
func ServeTCP(lis net.Listener, srv *Server) error {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		go serveConn(conn, srv)
	}
}

// ListenAndServeTCP binds addr and serves srv in a background goroutine,
// returning the listener for shutdown and the bound address (useful with
// ":0").
func ListenAndServeTCP(addr string, srv *Server) (net.Listener, string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	go ServeTCP(lis, srv) //nolint:errcheck // returns when lis closes
	return lis, lis.Addr().String(), nil
}

func serveConn(conn net.Conn, srv *Server) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 256<<10)
	w := bufio.NewWriterSize(conn, 256<<10)
	var vec net.Buffers // per-connection writev scratch, reused across requests
	for {
		name, req, err := readRequest(r)
		if err != nil {
			return // client went away or sent garbage; drop the connection
		}
		resp, herr := srv.dispatch(context.Background(), name, req)
		err = writeResponse(w, conn, &vec, resp, herr)
		if err == nil {
			err = w.Flush()
		}
		// The response is on the wire (or the connection is dead): nothing
		// may alias the request frame anymore, so recycle its buffers.
		putBuf(req.Meta)
		putBuf(req.Bulk)
		if err != nil {
			return
		}
	}
}

// readRequest reads one request frame. Meta and bulk buffers are drawn
// from the receive pool; serveConn recycles them once the response has
// been written.
func readRequest(r io.Reader) (string, Message, error) {
	var nl [2]byte
	if _, err := io.ReadFull(r, nl[:]); err != nil {
		return "", Message{}, err
	}
	name := make([]byte, binary.LittleEndian.Uint16(nl[:]))
	if _, err := io.ReadFull(r, name); err != nil {
		return "", Message{}, err
	}
	meta, err := readSized32(r, true)
	if err != nil {
		return "", Message{}, err
	}
	bulk, err := readSized64(r, true)
	if err != nil {
		putBuf(meta)
		return "", Message{}, err
	}
	return string(name), Message{Meta: meta, Bulk: bulk}, nil
}

// writeRequest frames one request; the caller flushes w.
func writeRequest(w *bufio.Writer, conn net.Conn, vec *net.Buffers, name string, req Message) error {
	var nl [2]byte
	binary.LittleEndian.PutUint16(nl[:], uint16(len(name)))
	w.Write(nl[:])
	w.WriteString(name)
	var l4 [4]byte
	binary.LittleEndian.PutUint32(l4[:], uint32(len(req.Meta)))
	w.Write(l4[:])
	w.Write(req.Meta)
	return writeBulk(w, conn, vec, &req)
}

// writeBulk frames the bulk payload of m: the u64 total length, then the
// bytes. Large vectored payloads bypass the bufio.Writer with one writev.
func writeBulk(w *bufio.Writer, conn net.Conn, vec *net.Buffers, m *Message) error {
	total := m.BulkLen()
	var l8 [8]byte
	binary.LittleEndian.PutUint64(l8[:], uint64(total))
	if _, err := w.Write(l8[:]); err != nil {
		return err
	}
	slices := m.BulkSlices()
	if total <= vecFlushThreshold || conn == nil {
		for _, s := range slices {
			if _, err := w.Write(s); err != nil {
				return err
			}
		}
		return nil
	}
	// writev path: drain the buffered header, then gather the payload
	// slices straight from their owners' buffers — zero copies. The scratch
	// vector is reused so net.Buffers consumes our copy of the slice
	// headers, never the caller's BulkVec.
	if err := w.Flush(); err != nil {
		return err
	}
	*vec = append((*vec)[:0], slices...)
	_, err := vec.WriteTo(conn)
	*vec = (*vec)[:0]
	return err
}

// writeResponse frames one response: resp, or the error frame for herr.
// An oversized meta or bulk payload is reported to the client with
// StatusFrameTooLarge instead of a torn frame, so the connection stays
// usable.
func writeResponse(w *bufio.Writer, conn net.Conn, vec *net.Buffers, resp Message, herr error) error {
	if herr == nil && (len(resp.Meta) > MaxFrame || resp.BulkLen() > MaxFrame) {
		herr = fmt.Errorf("%w: response meta %d bulk %d bytes", ErrFrameTooLarge, len(resp.Meta), resp.BulkLen())
	}
	if herr != nil {
		return writeError(w, remoteFrom(herr))
	}
	var hdr [5]byte // StatusOK | u32 metaLen
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(resp.Meta)))
	w.Write(hdr[:])
	w.Write(resp.Meta)
	return writeBulk(w, conn, vec, &resp)
}

// writeError frames one error response: status, message, and the
// retry-after trailer of StatusThrottled.
func writeError(w *bufio.Writer, e *remoteError) error {
	var b [13]byte
	b[0] = byte(e.status)
	binary.LittleEndian.PutUint32(b[1:], uint32(len(e.msg)))
	w.Write(b[:5])
	_, err := w.WriteString(e.msg)
	if e.status == StatusThrottled {
		binary.LittleEndian.PutUint64(b[5:], e.arg)
		_, err = w.Write(b[5:])
	}
	return err
}

// readResponse reads one response frame: the message of a StatusOK frame,
// or the *remoteError an error frame carries. Any other error means the
// stream is unusable.
func readResponse(r io.Reader) (Message, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	status := Status(hdr[0])
	if status >= numStatus {
		return Message{}, fmt.Errorf("rpc: bad status byte %d", status)
	}
	body, err := readBody(r, uint64(binary.LittleEndian.Uint32(hdr[1:])), false)
	if err != nil {
		return Message{}, err
	}
	if status == StatusOK {
		bulk, err := readSized64(r, false)
		if err != nil {
			return Message{}, err
		}
		return Message{Meta: body, Bulk: bulk}, nil
	}
	re := &remoteError{msg: string(body), status: status}
	if status == StatusThrottled {
		var a [8]byte
		if _, err := io.ReadFull(r, a[:]); err != nil {
			return Message{}, err
		}
		re.arg = binary.LittleEndian.Uint64(a[:])
	}
	return Message{}, re
}

// readSized32 / readSized64 read one length-prefixed field. With pooled
// set, the buffer comes from the receive pool (server side, recycled after
// the response is written); without it, the buffer is freshly allocated
// and owned by the caller (client side, where responses may be retained
// indefinitely).
func readSized32(r io.Reader, pooled bool) ([]byte, error) {
	var l [4]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return nil, err
	}
	return readBody(r, uint64(binary.LittleEndian.Uint32(l[:])), pooled)
}

func readSized64(r io.Reader, pooled bool) ([]byte, error) {
	var l [8]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return nil, err
	}
	return readBody(r, binary.LittleEndian.Uint64(l[:]), pooled)
}

func readBody(r io.Reader, n uint64, pooled bool) ([]byte, error) {
	if n > recvLimit {
		// Untyped on purpose: peers guard their own sends, so an announced
		// oversize means stream corruption — a transport failure, not a
		// payload-too-large verdict the caller could act on.
		return nil, fmt.Errorf("rpc: announced frame of %d bytes exceeds limit", n)
	}
	if n == 0 {
		return nil, nil
	}
	var buf []byte
	if pooled {
		buf = getBuf(int(n))
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		if pooled {
			putBuf(buf)
		}
		return nil, err
	}
	return buf, nil
}

// tcpConn is one physical connection; calls are serialized.
type tcpConn struct {
	addr string
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	vec  net.Buffers // writev scratch, reused across calls
	dead bool
}

// DialTCP opens a single connection to addr.
func DialTCP(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpConn{
		addr: addr,
		conn: c,
		r:    bufio.NewReaderSize(c, 256<<10),
		w:    bufio.NewWriterSize(c, 256<<10),
	}, nil
}

// Call implements Conn.
func (c *tcpConn) Call(ctx context.Context, name string, req Message) (Message, error) {
	if err := ctx.Err(); err != nil {
		return Message{}, err
	}
	if len(name) > 0xffff {
		return Message{}, fmt.Errorf("rpc: handler name too long")
	}
	// Reject oversized frames before writing a byte: the connection stays
	// usable and the caller gets a permanent, typed error instead of a
	// silently truncated length field.
	if len(req.Meta) > MaxFrame || req.BulkLen() > MaxFrame {
		return Message{}, fmt.Errorf("%w: request meta %d bulk %d bytes", ErrFrameTooLarge, len(req.Meta), req.BulkLen())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return Message{}, ErrClosed
	}
	// A SetDeadline failure means the socket is already unusable; fail the
	// call now instead of hanging in the frame read below.
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = noDeadline
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.dead = true
		return Message{}, fmt.Errorf("rpc: setting deadline on %s: %w", c.addr, err)
	}
	if err := writeRequest(c.w, c.conn, &c.vec, name, req); err != nil {
		c.dead = true
		return Message{}, err
	}
	if err := c.w.Flush(); err != nil {
		c.dead = true
		return Message{}, err
	}
	resp, err := readResponse(c.r)
	if err != nil {
		if _, remote := err.(*remoteError); !remote {
			c.dead = true
		}
		return Message{}, err
	}
	return resp, nil
}

// noDeadline clears a previously set deadline.
var noDeadline time.Time

func (c *tcpConn) Addr() string { return c.addr }

func (c *tcpConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return nil
	}
	c.dead = true
	return c.conn.Close()
}

// Pool multiplexes concurrent calls over up to size physical connections to
// one address, created lazily. It lets a client keep several bulk
// operations to the same provider in flight.
type Pool struct {
	addr string
	dial func(addr string) (Conn, error)

	mu    sync.Mutex
	idle  []Conn
	total int
	size  int
	dead  bool
	avail chan struct{}
}

// NewPool builds a pool of up to size connections using dial.
func NewPool(addr string, size int, dial func(addr string) (Conn, error)) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{addr: addr, dial: dial, size: size, avail: make(chan struct{}, size)}
	for i := 0; i < size; i++ {
		p.avail <- struct{}{}
	}
	return p
}

// Call implements Conn: it borrows a connection (dialing if below the cap)
// and returns it after the call.
func (p *Pool) Call(ctx context.Context, name string, req Message) (Message, error) {
	select {
	case <-p.avail:
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
	defer func() { p.avail <- struct{}{} }()

	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return Message{}, ErrClosed
	}
	var c Conn
	if n := len(p.idle); n > 0 {
		c = p.idle[n-1]
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()

	if c == nil {
		var err error
		c, err = p.dial(p.addr)
		if err != nil {
			return Message{}, err
		}
		p.mu.Lock()
		p.total++
		p.mu.Unlock()
	}
	resp, err := c.Call(ctx, name, req)
	if err != nil && !IsRemote(err) && !IsFrameTooLarge(err) {
		// Transport failure: discard the connection. (An oversized frame is
		// rejected before any byte hits the wire, so it leaves the
		// connection healthy.)
		c.Close()
		p.mu.Lock()
		p.total--
		p.mu.Unlock()
		return resp, err
	}
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		c.Close()
		return resp, err
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
	return resp, err
}

// Addr implements Conn.
func (p *Pool) Addr() string { return p.addr }

// Close implements Conn, closing all idle connections.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dead = true
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
	return nil
}

var _ Conn = (*Pool)(nil)
