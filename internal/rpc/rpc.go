// Package rpc is EvoStore's communication substrate, modeled on the
// Mochi/Mercury/Thallium stack the paper builds on: small control RPCs
// paired with large bulk transfers (the RDMA analogue).
//
// A Message separates the two: Meta is the small control payload that rides
// the RPC itself; the bulk payload is the consolidated tensor data that a
// real deployment would move with registered-memory RDMA. Bulk carries it
// as one flat slice; BulkVec carries it as an ordered vector of slices
// (scatter-gather), which lets senders ship per-segment buffers without
// concatenating them first. The wire format is identical either way: the
// frame carries one total length followed by the bytes in order. The
// in-process transport passes both by reference (zero copy, like an RDMA
// pull from registered memory); the TCP transport streams the vector with
// a single writev (net.Buffers). Both transports count control messages
// and bulk bytes so experiments can attribute costs.
//
// Paper counterpart: the Mochi Mercury/Thallium RPC + RDMA layer (§4.2).
//
// Contracts:
//   - Thread safety: Server, every Conn implementation, Pool, FaultConn
//     and the helpers in this package are safe for concurrent use.
//   - Idempotency: the transport retries nothing by itself. A Call that
//     returns a transient error (see IsTransient) may or may not have
//     executed on the server; callers must only retry operations that are
//     idempotent or carry a proto request ID for provider-side dedup.
//     The resilient package builds that policy on top of this one.
//   - Errors: handler failures cross the wire as remote errors (IsRemote)
//     carrying one Status code, the same over TCP, the in-process fabric
//     and a handler relaying another conn's error; a caller matches the
//     code's sentinel with errors.Is and never reads the text. Everything
//     else is a transport failure. IsTransient classifies both for retry
//     decisions (errors.go).
//   - Buffer ownership (the aliasing contract the zero-copy path relies
//     on): request buffers handed to a Handler are owned by the transport;
//     a handler may alias them in its *response* (echo-style), but must
//     copy anything it retains after the response has been written —
//     the TCP transport recycles request frames into a buffer pool at that
//     point. Response buffers passed back by a handler must stay immutable
//     until the transport has written them; a handler that set the
//     response's Release gets them back at that point over TCP (GetBuf and
//     PutBuf are the pool it may draw them from), and never in-process,
//     where the caller holds them by reference. On the client side, response
//     buffers returned by Call are plain allocations owned by the caller,
//     never pooled or recycled. Request buffers passed to Call must stay
//     immutable until Call returns but are never retained afterwards by
//     the TCP transport.
//     The in-process transport passes references end to end, so both sides
//     see each other's live buffers — the same rules keep that safe.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Message is one RPC payload: small control metadata plus an optional bulk
// payload. The logical bulk payload is Bulk followed by the BulkVec slices
// in order; senders normally set at most one of the two. BulkVec is the
// scatter-gather form: per-segment buffers travel as-is (by reference
// in-process, via one writev on TCP) without being concatenated. Receivers
// of the TCP transport always see the payload as one flat Bulk slice;
// receivers of the in-process transport see whatever shape the sender
// built.
//
// Release, when a handler sets it on a response, hands the response's
// buffers back to the handler: the TCP server calls it exactly once, after
// the response is written or its write has failed (a caller that gave up
// closes its socket, so that write fails at once). A handler sets it only
// on a response it gave no one else, since what it releases may be reused
// at once. The in-process transport never calls it and clears it from the
// response it returns, because its caller keeps the buffers. Requests and
// client-side responses never carry one.
type Message struct {
	Meta    []byte
	Bulk    []byte
	BulkVec [][]byte
	Release func()
}

// BulkLen returns the total bulk payload length in bytes (Bulk plus every
// BulkVec slice).
func (m *Message) BulkLen() int {
	n := len(m.Bulk)
	for _, s := range m.BulkVec {
		n += len(s)
	}
	return n
}

// BulkSlices returns the bulk payload as an ordered vector of slices
// without copying: Bulk first (when non-empty), then the BulkVec entries.
// The returned slices alias the message's buffers.
func (m *Message) BulkSlices() [][]byte {
	if len(m.Bulk) == 0 {
		return m.BulkVec
	}
	if len(m.BulkVec) == 0 {
		return [][]byte{m.Bulk}
	}
	out := make([][]byte, 0, 1+len(m.BulkVec))
	out = append(out, m.Bulk)
	return append(out, m.BulkVec...)
}

// BulkFlat returns the bulk payload as one contiguous slice. When the
// payload is already flat the slice is returned as-is (aliasing the
// message); a vectored payload is concatenated into a fresh buffer. Prefer
// BulkSlices (or proto.SplitBulkMsg) on hot paths.
func (m *Message) BulkFlat() []byte {
	if len(m.BulkVec) == 0 {
		return m.Bulk
	}
	out := make([]byte, 0, m.BulkLen())
	out = append(out, m.Bulk...)
	for _, s := range m.BulkVec {
		out = append(out, s...)
	}
	return out
}

// Handler processes one request. Handlers must be safe for concurrent use.
// The returned message's buffers must not be mutated after return.
type Handler func(ctx context.Context, req Message) (Message, error)

// Server dispatches named RPCs to handlers, like a Thallium provider
// object.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	stats    Stats
	// reqTimeout bounds handler execution for requests arriving without a
	// caller deadline (nanoseconds; 0 = unlimited). Set via SetRequestTimeout.
	reqTimeout atomic.Int64
}

// SetRequestTimeout bounds handler execution for requests that arrive
// without a deadline of their own (e.g. over the TCP transport, which does
// not propagate client deadlines across the wire). Zero disables the bound.
func (s *Server) SetRequestTimeout(d time.Duration) {
	s.reqTimeout.Store(int64(d))
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{handlers: make(map[string]Handler)}
}

// Register installs a handler under name. Re-registering replaces.
func (s *Server) Register(name string, h Handler) {
	s.mu.Lock()
	s.handlers[name] = h
	s.mu.Unlock()
}

// dispatch looks up and invokes the handler.
func (s *Server) dispatch(ctx context.Context, name string, req Message) (Message, error) {
	s.mu.RLock()
	h := s.handlers[name]
	s.mu.RUnlock()
	if h == nil {
		return Message{}, fmt.Errorf("rpc: no handler %q", name)
	}
	if d := time.Duration(s.reqTimeout.Load()); d > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
	}
	atomic.AddUint64(&s.stats.Calls, 1)
	atomic.AddUint64(&s.stats.BulkInBytes, uint64(req.BulkLen()))
	resp, err := h(ctx, req)
	if err == nil {
		atomic.AddUint64(&s.stats.BulkOutBytes, uint64(resp.BulkLen()))
	}
	return resp, err
}

// Stats counts server-side traffic.
type Stats struct {
	Calls        uint64
	BulkInBytes  uint64
	BulkOutBytes uint64
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Calls:        atomic.LoadUint64(&s.stats.Calls),
		BulkInBytes:  atomic.LoadUint64(&s.stats.BulkInBytes),
		BulkOutBytes: atomic.LoadUint64(&s.stats.BulkOutBytes),
	}
}

// Conn is a client connection to one server endpoint. Implementations are
// safe for concurrent Calls.
type Conn interface {
	// Call invokes the named handler and returns its response.
	Call(ctx context.Context, name string, req Message) (Message, error)
	// Addr returns the endpoint address the connection targets.
	Addr() string
	// Close releases the connection.
	Close() error
}

// ErrClosed is returned by calls on a closed connection or transport.
var ErrClosed = errors.New("rpc: closed")

// Broadcast invokes the named handler on every connection concurrently and
// returns the responses in connection order. Each slot carries either a
// response or an error; Broadcast itself only fails on ctx cancellation.
// This is the client side of the paper's provider-side collective queries.
// The last leg runs on the calling goroutine, whose stack has already grown
// down the call path, and every other leg on a goroutine of its own.
func Broadcast(ctx context.Context, conns []Conn, name string, req Message) []Result {
	results := make([]Result, len(conns))
	if len(conns) == 0 {
		return results
	}
	call := func(i int) {
		resp, err := conns[i].Call(ctx, name, req)
		results[i] = Result{Resp: resp, Err: err}
	}
	var wg sync.WaitGroup
	last := len(conns) - 1
	wg.Add(last)
	for i := range last {
		go func() {
			defer wg.Done()
			call(i)
		}()
	}
	call(last)
	wg.Wait()
	return results
}

// Result is one slot of a Broadcast reply.
type Result struct {
	Resp Message
	Err  error
}
