package rpc

import (
	"context"
	"fmt"
	"sync"
)

// InprocNet is an in-process fabric: a registry of named endpoints whose
// connections invoke handlers directly. Bulk payloads — flat Bulk and
// vectored BulkVec alike — are passed by reference, modeling RDMA
// reads/writes of registered memory: no copies, no serialization, just the
// handler touching the client's buffer (and vice versa). The buffer-
// ownership contract in the package comment is what keeps that sharing
// safe. One InprocNet models one cluster fabric.
type InprocNet struct {
	mu      sync.RWMutex
	servers map[string]*Server
}

// NewInprocNet returns an empty fabric.
func NewInprocNet() *InprocNet {
	return &InprocNet{servers: make(map[string]*Server)}
}

// Listen binds srv to addr on the fabric.
func (n *InprocNet) Listen(addr string, srv *Server) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.servers[addr]; dup {
		return fmt.Errorf("rpc: inproc address %q already bound", addr)
	}
	n.servers[addr] = srv
	return nil
}

// Unlisten removes the binding for addr.
func (n *InprocNet) Unlisten(addr string) {
	n.mu.Lock()
	delete(n.servers, addr)
	n.mu.Unlock()
}

// Dial returns a connection to addr. The server must already be listening.
func (n *InprocNet) Dial(addr string) (Conn, error) {
	n.mu.RLock()
	srv := n.servers[addr]
	n.mu.RUnlock()
	if srv == nil {
		return nil, fmt.Errorf("rpc: inproc address %q not bound", addr)
	}
	return &inprocConn{net: n, addr: addr}, nil
}

type inprocConn struct {
	net    *InprocNet
	addr   string
	closed sync.Once
	dead   bool
	mu     sync.RWMutex
}

// Call implements Conn. The server is resolved per call so a re-bound
// address is picked up, mirroring how a real fabric would reconnect.
func (c *inprocConn) Call(ctx context.Context, name string, req Message) (Message, error) {
	c.mu.RLock()
	dead := c.dead
	c.mu.RUnlock()
	if dead {
		return Message{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return Message{}, err
	}
	c.net.mu.RLock()
	srv := c.net.servers[c.addr]
	c.net.mu.RUnlock()
	if srv == nil {
		return Message{}, fmt.Errorf("rpc: inproc address %q no longer bound", c.addr)
	}
	resp, err := srv.dispatch(ctx, name, req)
	if err != nil {
		// Handler failures cross the (virtual) wire as the remote error
		// TCP would deliver — same status, same text — so callers see the
		// same answers on every transport.
		return resp, remoteFrom(err)
	}
	return resp, nil
}

func (c *inprocConn) Addr() string { return c.addr }

func (c *inprocConn) Close() error {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	return nil
}

var _ Conn = (*inprocConn)(nil)
