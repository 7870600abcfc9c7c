package core

import (
	"encoding/binary"
	"errors"
	"sync/atomic"

	"kite/internal/kvs"
)

// OpCode identifies a Kite API operation (Table 1 plus the RMW variants of
// §6.1).
type OpCode uint8

// Kite API operations.
const (
	OpRead      OpCode = iota // relaxed read (Eventual Store)
	OpWrite                   // relaxed write (Eventual Store)
	OpRelease                 // release write (ABD, release barrier)
	OpAcquire                 // acquire read (ABD, acquire barrier)
	OpFAA                     // fetch-and-add (Paxos RMW)
	OpCASWeak                 // compare-and-swap that may fail locally
	OpCASStrong               // compare-and-swap that always checks remotely
	OpFlush                   // write-replication fence (release barrier, no write)
	opCodes
)

var opNames = [...]string{"read", "write", "release", "acquire", "faa", "cas-weak", "cas-strong", "flush"}

func (c OpCode) String() string {
	if int(c) < len(opNames) {
		return opNames[c]
	}
	return "op?"
}

// IsRMW reports whether the op maps to Paxos.
func (c OpCode) IsRMW() bool { return c == OpFAA || c == OpCASWeak || c == OpCASStrong }

// Errors shared by every Kite backend: the public in-process package and
// the remote client surface these same sentinels, so application code can
// errors.Is() against one taxonomy regardless of deployment.
var (
	// ErrStopped is reported by requests outstanding when the node shuts
	// down.
	ErrStopped = errors.New("kite: node stopped")
	// ErrValueTooLong rejects a value or CAS comparand over MaxValueLen at
	// submission, before the operation consumes any session ordering slot.
	ErrValueTooLong = errors.New("kite: value exceeds MaxValueLen")
	// ErrCanceled is reported by requests abandoned via context
	// cancellation before they executed.
	ErrCanceled = errors.New("kite: operation canceled")
	// ErrReservedKey rejects application operations on the reserved
	// membership config key (the top of the key space): its value IS the
	// group's configuration, and an application write there would wedge —
	// or, crafted, subvert — reconfiguration.
	ErrReservedKey = errors.New("kite: key reserved for the group configuration")
)

// Request is one Kite API invocation. Clients fill the input fields, submit
// via Session.Submit, and receive the completed request through Done — which
// runs on the owning worker goroutine and must not block (the async API of
// §6.1; the sync API in the public package wraps it with a channel).
type Request struct {
	Code     OpCode
	Key      uint64
	Val      []byte // write/release value, CAS new value
	Expected []byte // CAS comparand
	Delta    uint64 // FAA addend

	// Out is the operation's result value: the value read (read/acquire),
	// or the old value (FAA/CAS). It aliases a request-owned buffer valid
	// until the request is reused.
	Out []byte
	// Swapped reports CAS success.
	Swapped bool
	// Err is non-nil only when the node stopped before completion.
	Err error

	// Done is invoked exactly once on completion, as core's last touch of
	// the request: Done may recycle it for the next submission.
	Done func(*Request)

	sess     *Session
	canceled atomic.Bool
	outBuf   [kvs.MaxValueLen]byte
}

// Cancel marks the request as abandoned by its submitter. A request still
// queued behind the session head completes with ErrCanceled (and has no
// effect) when the worker reaches it; a request already executing runs to
// completion — its quorum rounds cannot be recalled. Safe to call from any
// goroutine, at most once per submitted request.
func (r *Request) Cancel() { r.canceled.Store(true) }

// Canceled reports whether Cancel was called.
func (r *Request) Canceled() bool { return r.canceled.Load() }

// setOut copies v into the request-owned result buffer.
func (r *Request) setOut(v []byte) {
	n := copy(r.outBuf[:], v)
	r.Out = r.outBuf[:n]
}

// Uint64Out decodes the result as a little-endian counter (FAA convention:
// missing/short values read as zero).
func (r *Request) Uint64Out() uint64 { return DecodeUint64(r.Out) }

// DecodeUint64 decodes a counter value as used by FAA: little-endian,
// zero-padded, absent keys count as zero.
func DecodeUint64(v []byte) uint64 {
	var b [8]byte
	copy(b[:], v)
	return binary.LittleEndian.Uint64(b[:])
}

// EncodeUint64 encodes a counter value for FAA/CAS use.
func EncodeUint64(x uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, x)
	return b
}
