package rpc

import (
	"context"
	"errors"
)

// Error classification for the resilience layer. Every RPC failure falls
// in one of two classes:
//
//   - Transient: the transport failed (socket died, dial refused, injected
//     fault, per-attempt deadline expired) and the caller cannot know
//     whether the handler executed. Retrying is reasonable, but only for
//     idempotent operations or requests carrying a dedup ID (proto attaches
//     one to IncRef/DecRef/Retire/StoreModel so providers can answer a
//     retry from their dedup table instead of re-executing).
//   - Permanent: the handler executed and returned an application error
//     (remoteError), or the caller itself gave up (context.Canceled, a
//     closed local connection). Retrying would re-fail or is unwanted.
//
// ErrUnavailable and ErrInjected exist so tests and callers can match the
// middleware's own failures with errors.Is.
var (
	// ErrUnavailable is returned by the resilience middleware when a
	// provider's circuit breaker is open and the call was shed without
	// touching the network.
	ErrUnavailable = errors.New("rpc: provider unavailable (circuit open)")

	// ErrInjected is the cause of every failure produced by a fault
	// wrapper. It classifies as transient.
	ErrInjected = errors.New("rpc: injected fault")

	// ErrFrameTooLarge is returned when a payload's length field would
	// exceed MaxFrame, checked on the send side before any byte is
	// written: the frame is never emitted, so the connection stays
	// usable. Servers report an oversized *response* as a remote error
	// with StatusFrameTooLarge, which matches this sentinel too. It
	// classifies as permanent: retrying the same payload would fail
	// identically.
	ErrFrameTooLarge = NewCoded(StatusFrameTooLarge, "rpc: frame exceeds size limit")
)

// Status is the code an error frame carries: which failure a remote
// handler returned, so the caller can act on it without reading its text.
// Only StatusThrottled has an argument (the retry-after in nanoseconds).
type Status uint8

const (
	StatusOK            Status = iota // never an error
	StatusError                       // a handler failure no other code names
	StatusWrongEpoch                  // placement.ErrWrongEpoch
	StatusNotMigrated                 // placement.ErrNotMigrated
	StatusThrottled                   // frontdoor.ErrThrottled, with a retry-after
	StatusFrameTooLarge               // ErrFrameTooLarge
	numStatus
)

// Coded is the one interface an error implements to cross the wire under
// its own Status instead of StatusError. The transports find it with
// errors.As, so a handler may wrap a Coded error in any context; a
// relayed remote error is Coded too, so its status travels on unchanged.
type Coded interface {
	error
	WireStatus() (Status, uint64)
}

// NewCoded returns a sentinel error that crosses the wire as s. A remote
// error carrying s matches it with errors.Is, exactly as a local error
// wrapping it does.
func NewCoded(s Status, text string) error { return &codedError{status: s, text: text} }

type codedError struct {
	status Status
	text   string
}

func (e *codedError) Error() string                { return e.text }
func (e *codedError) WireStatus() (Status, uint64) { return e.status, 0 }

// StatusOf returns the status and argument err crosses the wire with: the
// first Coded error in its chain, else StatusError (StatusOK for nil).
func StatusOf(err error) (Status, uint64) {
	if err == nil {
		return StatusOK, 0
	}
	var c Coded
	if errors.As(err, &c) {
		return c.WireStatus()
	}
	return StatusError, 0
}

// remoteError is a handler failure as the caller sees it, on every
// transport: the handler's text, its status and the status argument.
type remoteError struct {
	msg    string
	status Status
	arg    uint64
}

// remoteFrom is the remote error a caller receives for handler error err.
func remoteFrom(err error) *remoteError {
	st, arg := StatusOf(err)
	return &remoteError{msg: err.Error(), status: st, arg: arg}
}

func (e *remoteError) Error() string                { return "rpc: remote: " + e.msg }
func (e *remoteError) WireStatus() (Status, uint64) { return e.status, e.arg }

// Is matches the sentinel of e's status, so errors.Is answers a remote
// failure the way it answers the handler's local error.
func (e *remoteError) Is(target error) bool {
	c, ok := target.(Coded)
	if !ok {
		return false
	}
	st, _ := c.WireStatus()
	return st == e.status
}

// IsRemote reports whether err originated in a remote handler (as opposed
// to a transport failure).
func IsRemote(err error) bool {
	var re *remoteError
	return errors.As(err, &re)
}

// IsFrameTooLarge reports whether err is an oversized-frame rejection —
// this side's send check or a server's StatusFrameTooLarge answer. Neither
// tears a frame, so the connection remains usable.
func IsFrameTooLarge(err error) bool { return errors.Is(err, ErrFrameTooLarge) }

// transientErr marks an error as explicitly transient.
type transientErr struct{ err error }

func (e *transientErr) Error() string { return e.err.Error() }
func (e *transientErr) Unwrap() error { return e.err }

// MarkTransient wraps err so IsTransient reports true regardless of the
// default classification.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether err is worth retrying on a healthy provider.
// Transport-level failures and per-attempt timeouts are transient; remote
// handler errors, caller cancellation and locally closed connections are
// permanent.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var te *transientErr
	if errors.As(err, &te) {
		return true
	}
	switch {
	case errors.Is(err, context.Canceled):
		return false // the caller gave up; do not retry behind its back
	case errors.Is(err, ErrClosed):
		return false // this client closed the connection deliberately
	case errors.Is(err, ErrFrameTooLarge):
		return false // the same payload would exceed the limit again
	case IsRemote(err):
		return false // the handler ran; its verdict is authoritative
	case errors.Is(err, ErrUnavailable), errors.Is(err, ErrInjected):
		return true
	case errors.Is(err, context.DeadlineExceeded):
		return true // per-attempt deadline; the overall budget may remain
	default:
		return true // unclassified transport failure (dial, read, write)
	}
}
