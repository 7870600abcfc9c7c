// Package transport moves message batches between (node, worker) endpoints.
//
// The paper's Kite runs RPCs over RDMA UD sends: unreliable datagrams with
// application-level batching ("doorbell batching", opportunistic batching of
// all protocols into one packet) and exactly one connection between worker i
// of a node and worker i of every remote node (§6.3). This package
// reproduces those semantics with two interchangeable implementations:
//
//   - InProc: a matrix of bounded mailboxes inside one process. Sends never
//     block; a full mailbox drops the batch, exactly like a saturated UD
//     queue pair. A FaultInjector wraps any transport with message drops,
//     delays, partitions and node pauses for the failure studies.
//   - UDP (udp.go): real datagram sockets for multi-process deployments,
//     with the same drop-on-overload, no-delivery-guarantee contract. Its
//     hot path is allocation-free: messages are encoded in place into
//     pooled datagram buffers, handed to a per-socket send ring, and
//     flushed in batched sendmmsg/recvmmsg syscalls (batchio.go) with a
//     per-datagram fallback on platforms without the batch APIs.
//
// All Kite protocols are designed for an asynchronous lossy network, so the
// transport deliberately offers no reliability: loss surfaces as protocol
// retries or as the fast-path → slow-path transition under test.
package transport

import (
	"sync/atomic"

	"kite/internal/proto"
)

// Endpoint names a worker's mailbox.
type Endpoint struct {
	Node   uint8
	Worker uint8
}

// Batch is one delivered message batch. Msgs — and any Value/Origins views
// inside it — may alias transport-owned pooled buffers: the receiver must
// call Release when it has fully consumed the batch (retaining nothing that
// aliases it), which recycles the buffers for the next delivery. Release on
// a batch with no pooled backing (InProc hand-offs from older tests, the
// zero Batch) is a no-op, so callers can release unconditionally.
type Batch struct {
	Msgs []proto.Message
	rel  releaser
}

// releaser recycles a delivered batch's pooled backing. Implemented by the
// transports' receive slots; kept as an interface so Batch stays one word
// wider than the message slice and a Release needs no closure allocation.
type releaser interface{ release() }

// Release returns the batch's pooled buffers to its transport. Idempotent.
func (b *Batch) Release() {
	if b.rel != nil {
		b.rel.release()
		b.rel = nil
	}
}

// Transport delivers batches of messages between endpoints. Send is
// non-blocking and unreliable: delivery may silently fail. Implementations
// must be safe for concurrent use.
type Transport interface {
	// Send enqueues a batch for dst. It copies everything before it returns
	// — the message slice and every message's Value and Origins payload —
	// by encoding (UDP) or by deep copy (InProc and UDP loopback into a
	// pooled slot, a FaultInjector into the copy a delayed batch and its
	// duplicate ride). The caller may therefore reuse or overwrite the
	// batch and any buffer its messages point into as soon as Send returns.
	Send(dst Endpoint, batch []proto.Message)
	// Recv returns the receive channel for a local endpoint. Each queued
	// element is one batch, released by the consumer.
	Recv(ep Endpoint) <-chan Batch
	// Close releases resources. Sends after Close are dropped.
	Close() error
}

// Stats counts transport-level events; useful in tests and the bench harness
// to confirm that fault injection actually exercised the lossy paths.
type Stats struct {
	SentBatches    atomic.Uint64
	SentMsgs       atomic.Uint64
	DroppedFull    atomic.Uint64 // mailbox overflow (UD queue overrun)
	DroppedFault   atomic.Uint64 // dropped by fault injection
	DelayedBatches atomic.Uint64
	Duplicated     atomic.Uint64 // batches duplicated by fault injection

	// Batched-syscall counters (UDP transport / BatchConn).
	BatchedSyscalls  atomic.Uint64 // sendmmsg/recvmmsg invocations
	BatchedDatagrams atomic.Uint64 // datagrams moved by those invocations
	FallbackSyscalls atomic.Uint64 // per-datagram syscalls (fallback path)
}

// InProc is the in-process transport: one bounded channel per destination
// endpoint. Sent batches are deep-copied into pooled slots so the sender's
// staging buffers and payloads can be reused immediately; receivers return
// the slots via Batch.Release.
type InProc struct {
	nodes    int
	workers  int
	mailbox  []chan Batch
	slots    chan *inprocSlot
	stats    Stats
	closed   atomic.Bool
	capacity int
}

// inprocSlot is one pooled batch copy in flight through a mailbox: the
// messages plus the arenas their Value and Origins payloads are packed into.
type inprocSlot struct {
	t       *InProc
	msgs    []proto.Message
	vals    []byte
	origins []uint64
}

// copyBatch deep-copies batch into msgs, packing every message's Value into
// vals and its Origins into origins, and returns the three slices. Each is
// reused when its capacity suffices and grown once, up front, when it does
// not — so a caller that round-trips them allocates nothing in steady state,
// and no copied view is left pointing into a superseded array. The copy
// shares no memory with batch (nil payloads stay nil). Passing nil slices
// degrades to allocation.
func copyBatch(msgs []proto.Message, vals []byte, origins []uint64, batch []proto.Message) ([]proto.Message, []byte, []uint64) {
	nv, no := 0, 0
	for i := range batch {
		nv += len(batch[i].Value)
		no += len(batch[i].Origins)
	}
	if cap(vals) < nv {
		vals = make([]byte, 0, nv)
	}
	if cap(origins) < no {
		origins = make([]uint64, 0, no)
	}
	msgs, vals, origins = append(msgs[:0], batch...), vals[:0], origins[:0]
	for i := range msgs {
		m := &msgs[i]
		if m.Value != nil {
			off := len(vals)
			vals = append(vals, m.Value...)
			m.Value = vals[off:len(vals):len(vals)]
		}
		if m.Origins != nil {
			off := len(origins)
			origins = append(origins, m.Origins...)
			m.Origins = origins[off:len(origins):len(origins)]
		}
	}
	return msgs, vals, origins
}

func (s *inprocSlot) release() {
	select {
	case s.t.slots <- s:
	default: // pool full: let the GC take it
	}
}

// DefaultMailboxDepth bounds each endpoint queue. Deep enough to absorb
// bursts, shallow enough that a paused node exerts backpressure as drops —
// the same behaviour as a stalled RDMA receive queue.
const DefaultMailboxDepth = 4096

// inprocSlotPoolSize bounds the recycled message-slice pool. Sized to the
// mailbox count times a small burst factor; overflow slots are simply
// garbage collected.
const inprocSlotPoolSize = 1024

// NewInProc creates mailboxes for nodes x workers endpoints.
func NewInProc(nodes, workers, depth int) *InProc {
	if depth <= 0 {
		depth = DefaultMailboxDepth
	}
	t := &InProc{nodes: nodes, workers: workers, capacity: depth}
	t.mailbox = make([]chan Batch, nodes*workers)
	for i := range t.mailbox {
		t.mailbox[i] = make(chan Batch, depth)
	}
	t.slots = make(chan *inprocSlot, inprocSlotPoolSize)
	return t
}

func (t *InProc) idx(ep Endpoint) int { return int(ep.Node)*t.workers + int(ep.Worker) }

// slot returns a pooled copy slot, allocating when the pool is dry.
func (t *InProc) slot() *inprocSlot {
	select {
	case s := <-t.slots:
		return s
	default:
		return &inprocSlot{t: t}
	}
}

// Send implements Transport. A full mailbox drops the batch.
func (t *InProc) Send(dst Endpoint, batch []proto.Message) {
	if len(batch) == 0 || t.closed.Load() {
		return
	}
	s := t.slot()
	s.msgs, s.vals, s.origins = copyBatch(s.msgs, s.vals, s.origins, batch)
	select {
	case t.mailbox[t.idx(dst)] <- Batch{Msgs: s.msgs, rel: s}:
		t.stats.SentBatches.Add(1)
		t.stats.SentMsgs.Add(uint64(len(batch)))
	default:
		t.stats.DroppedFull.Add(1)
		s.release()
	}
}

// Recv implements Transport.
func (t *InProc) Recv(ep Endpoint) <-chan Batch { return t.mailbox[t.idx(ep)] }

// Close implements Transport.
func (t *InProc) Close() error {
	t.closed.Store(true)
	return nil
}

// Stats exposes the transport counters.
func (t *InProc) Stats() *Stats { return &t.stats }
