package rpc_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/placement"
	"repro/internal/rpc"
)

// TestStatusCrossesEveryTransport sends each typed failure over TCP, over
// the in-process fabric and through relaying handlers (a TCP server
// forwarding over an in-process conn, as the traced benchmark does, and the
// reverse): every transport must give the caller the errors.Is answers and
// the retry-after of the handler's local error, as a permanent remote
// error.
func TestStatusCrossesEveryTransport(t *testing.T) {
	sentinels := []error{placement.ErrWrongEpoch, placement.ErrNotMigrated, frontdoor.ErrThrottled, rpc.ErrFrameTooLarge}
	failures := map[string]error{
		"plain":           errors.New("boom"),
		"wrong-epoch":     fmt.Errorf("provider 1: model 7: %w", placement.ErrWrongEpoch),
		"not-migrated":    fmt.Errorf("provider 2: owner 7: %w", placement.ErrNotMigrated),
		"throttled":       fmt.Errorf("provider 3: read 17: %w", &frontdoor.ThrottledError{RetryAfter: 1250 * time.Millisecond}),
		"frame-too-large": fmt.Errorf("%w: response meta 1 bulk 3 bytes", rpc.ErrFrameTooLarge),
	}
	inner := rpc.NewServer()
	for name, err := range failures {
		inner.Register(name, func(context.Context, rpc.Message) (rpc.Message, error) { return rpc.Message{}, err })
	}
	fabric := rpc.NewInprocNet()
	fabric.Listen("inner", inner)
	innerProc, _ := fabric.Dial("inner")
	innerTCP := dialTCP(t, inner)

	// relay registers every failure on a fresh server as a handler that
	// forwards the call over via and returns whatever it answered.
	relay := func(via rpc.Conn) *rpc.Server {
		s := rpc.NewServer()
		for name := range failures {
			s.Register(name, func(ctx context.Context, req rpc.Message) (rpc.Message, error) {
				return via.Call(ctx, name, req)
			})
		}
		return s
	}
	fabric.Listen("relay", relay(innerTCP))
	relayProc, _ := fabric.Dial("relay")
	transports := map[string]rpc.Conn{
		"tcp":              innerTCP,
		"inproc":           innerProc,
		"tcp-relay-inproc": dialTCP(t, relay(innerProc)),
		"inproc-relay-tcp": relayProc,
	}

	for name, local := range failures {
		wantRA, wantThrottled := frontdoor.RetryAfterFromError(local)
		wantSt, _ := rpc.StatusOf(local)
		for tname, conn := range transports {
			_, err := conn.Call(context.Background(), name, rpc.Message{})
			if !rpc.IsRemote(err) || rpc.IsTransient(err) {
				t.Errorf("%s over %s: %v: IsRemote %v IsTransient %v, want a permanent remote error",
					name, tname, err, rpc.IsRemote(err), rpc.IsTransient(err))
			}
			if st, _ := rpc.StatusOf(err); st != wantSt {
				t.Errorf("%s over %s: status %d, want %d", name, tname, st, wantSt)
			}
			for _, s := range sentinels {
				if got, want := errors.Is(err, s), errors.Is(local, s); got != want {
					t.Errorf("%s over %s: errors.Is(%v) = %v, local error says %v", name, tname, s, got, want)
				}
			}
			if ra, ok := frontdoor.RetryAfterFromError(err); ra != wantRA || ok != wantThrottled {
				t.Errorf("%s over %s: retry-after %v %v, want %v %v", name, tname, ra, ok, wantRA, wantThrottled)
			}
		}
	}
}

func dialTCP(t *testing.T, srv *rpc.Server) rpc.Conn {
	t.Helper()
	lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	c, err := rpc.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
