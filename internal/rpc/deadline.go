package rpc

import (
	"context"
	"sync"
	"time"
)

// Deadline is a context with a deadline whose timer is armed lazily: it
// reports Deadline at once, but starts a timer (and watches its parent)
// only on the first call to Done. The RPC path bounds every call this way
// (Server's request timeout, the resilient package's per-attempt default),
// while its callees only read the deadline (the TCP transport turns it
// into a socket deadline), so the common call arms nothing. Err agrees
// with Done: it reports the deadline or the parent's error as soon as
// either has passed, whether or not Done was ever called.
type Deadline struct {
	parent   context.Context
	deadline time.Time

	mu       sync.Mutex
	done     chan struct{} // made by the first Done
	err      error
	timer    *time.Timer
	stopWake func() bool // stops the parent watch Done armed
}

// WithTimeout is context.WithTimeout with a lazily armed timer: it returns
// a child of parent that expires d from now. Call Release once the work it
// bounds is over, as with a context.CancelFunc.
func WithTimeout(parent context.Context, d time.Duration) *Deadline {
	return &Deadline{parent: parent, deadline: time.Now().Add(d)}
}

// Deadline implements context.Context: the parent's deadline when that is
// earlier.
func (c *Deadline) Deadline() (time.Time, bool) {
	if pd, ok := c.parent.Deadline(); ok && pd.Before(c.deadline) {
		return pd, true
	}
	return c.deadline, true
}

// Done implements context.Context. The first call arms the timer and the
// watch on the parent.
func (c *Deadline) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done != nil {
		return c.done
	}
	c.done = make(chan struct{})
	if c.err != nil {
		close(c.done)
		return c.done
	}
	if err := c.parent.Err(); err != nil {
		c.expireLocked(err)
		return c.done
	}
	d := time.Until(c.deadline)
	if d <= 0 {
		c.expireLocked(context.DeadlineExceeded)
		return c.done
	}
	c.timer = time.AfterFunc(d, func() { c.expire(context.DeadlineExceeded) })
	if c.parent.Done() != nil {
		c.stopWake = context.AfterFunc(c.parent, func() { c.expire(c.parent.Err()) })
	}
	return c.done
}

// Err implements context.Context.
func (c *Deadline) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		if err := c.parent.Err(); err != nil {
			c.expireLocked(err)
		} else if !time.Now().Before(c.deadline) {
			c.expireLocked(context.DeadlineExceeded)
		}
	}
	return c.err
}

// Value implements context.Context.
func (c *Deadline) Value(key any) any { return c.parent.Value(key) }

// Release ends the context as a context.CancelFunc would: Err reports
// context.Canceled from then on unless it had already expired, and the
// timer and parent watch, if armed, are stopped.
func (c *Deadline) Release() { c.expire(context.Canceled) }

func (c *Deadline) expire(err error) {
	c.mu.Lock()
	c.expireLocked(err)
	c.mu.Unlock()
}

// expireLocked records the first error, closes done if it was made, and
// stops what Done armed. The caller holds c.mu.
func (c *Deadline) expireLocked(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	if c.done != nil {
		close(c.done)
	}
	if c.timer != nil {
		c.timer.Stop()
	}
	if c.stopWake != nil {
		c.stopWake()
	}
}

var _ context.Context = (*Deadline)(nil)
