package zab

import (
	"math/bits"
	"time"

	"kite/internal/kvs"
	"kite/internal/proto"
	"kite/internal/transport"
)

// request is a client operation handed to a worker.
type request struct {
	write bool
	key   uint64
	val   []byte
	out   []byte
	done  func(*request)
}

// pendingWrite tracks a proposal the leader is collecting acks for.
type pendingWrite struct {
	zxid   uint64
	origin proto.Message // the submit to reply to (From/Worker/OpID)
	acks   uint16
	local  bool // submitted by one of the leader's own sessions
	req    *request
}

// Session is a ZAB client handle: local reads, leader-ordered writes.
type Session struct {
	w    *worker
	done chan *request
}

// Read returns the local replica's value for key (ZAB's relaxed local
// reads).
func (s *Session) Read(key uint64) []byte {
	buf := make([]byte, kvs.MaxValueLen)
	val, _, _, ok := s.w.node.store.View(key, buf)
	s.w.node.completedReads.Add(1)
	if !ok {
		return nil
	}
	out := make([]byte, len(val))
	copy(out, val)
	return out
}

// WriteAsync submits a totally-ordered write; done (optional) fires on
// commit, on the worker goroutine.
func (s *Session) WriteAsync(key uint64, val []byte, done func()) {
	r := &request{write: true, key: key, val: append([]byte(nil), val...)}
	if done != nil {
		r.done = func(*request) { done() }
	}
	s.w.reqCh <- r
}

// Write submits a write and waits for its commit.
func (s *Session) Write(key uint64, val []byte) {
	if s.done == nil {
		s.done = make(chan *request, 1)
	}
	r := &request{write: true, key: key, val: append([]byte(nil), val...)}
	r.done = func(r *request) { s.done <- r }
	s.w.reqCh <- r
	<-s.done
}

// worker is a ZAB event loop; worker i talks to worker i of every peer.
type worker struct {
	node  *Node
	id    uint8
	inbox <-chan transport.Batch
	reqCh chan *request
	out   [][]proto.Message

	// Leader-side state.
	acks  map[uint64]*pendingWrite // zxid -> ack collection
	opSeq uint64
	// Follower-side: submits awaiting the leader's reply.
	subs map[uint64]*request
}

func (w *worker) stage(dst uint8, m proto.Message) {
	w.out[dst] = append(w.out[dst], m)
}

func (w *worker) flush() {
	for dst := range w.out {
		if len(w.out[dst]) == 0 {
			continue
		}
		w.node.tr.Send(transport.Endpoint{Node: uint8(dst), Worker: w.id}, w.out[dst])
		w.out[dst] = w.out[dst][:0]
	}
}

func (w *worker) run() {
	idle := time.NewTimer(w.node.cfg.IdlePoll)
	defer idle.Stop()
	for {
		if w.node.stopped.Load() {
			w.drainOnStop()
			return
		}
		progress := false
	drain:
		for i := 0; i < 128; i++ {
			select {
			case batch := <-w.inbox:
				for j := range batch.Msgs {
					w.dispatch(&batch.Msgs[j])
				}
				batch.Release()
				progress = true
			default:
				break drain
			}
		}
	admit:
		for i := 0; i < 128; i++ {
			select {
			case r := <-w.reqCh:
				w.submit(r)
				progress = true
			default:
				break admit
			}
		}
		w.flush()
		if !progress {
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(w.node.cfg.IdlePoll)
			select {
			case batch := <-w.inbox:
				for j := range batch.Msgs {
					w.dispatch(&batch.Msgs[j])
				}
				batch.Release()
				w.flush()
			case r := <-w.reqCh:
				w.submit(r)
			case <-idle.C:
			}
		}
	}
}

// submit handles a client write: leaders sequence it directly, followers
// forward it to the leader's same-index worker.
func (w *worker) submit(r *request) {
	if !r.write {
		return
	}
	if w.node.id == 0 {
		w.sequence(proto.Message{From: w.node.id, Worker: w.id, Key: r.key, Value: r.val}, true, r)
		return
	}
	w.opSeq++
	opID := uint64(w.node.id)<<56 | uint64(w.id)<<48 | w.opSeq
	w.subs[opID] = r
	w.stage(0, proto.Message{
		Kind: proto.KindZabSubmit, From: w.node.id, Worker: w.id,
		Key: r.key, OpID: opID, Value: r.val,
	})
}

// sequence assigns the next zxid and broadcasts the proposal (leader only).
func (w *worker) sequence(sub proto.Message, local bool, r *request) {
	zxid := w.node.zxid.Add(1) - 1
	val := append([]byte(nil), sub.Value...)
	// origin is reply-routing metadata only; the payload may alias a pooled
	// transport buffer that is recycled after dispatch, so drop it.
	sub.Value = nil
	pw := &pendingWrite{zxid: zxid, origin: sub, local: local, req: r}
	w.acks[zxid] = pw
	prop := proto.Message{
		Kind: proto.KindZabProposal, From: w.node.id, Worker: w.id,
		Key: sub.Key, Slot: zxid, Value: val,
	}
	for dst := uint8(1); int(dst) < w.node.n; dst++ {
		w.stage(dst, prop)
	}
	// The leader logs the proposal and acks itself.
	w.node.applier.propose(prop, w.node.store)
	pw.acks |= 1
	w.maybeCommit(pw)
}

func (w *worker) maybeCommit(pw *pendingWrite) {
	if bits.OnesCount16(pw.acks) < w.node.quorum {
		return
	}
	delete(w.acks, pw.zxid)
	cm := proto.Message{Kind: proto.KindZabCommit, From: w.node.id, Worker: w.id, Slot: pw.zxid}
	for dst := uint8(1); int(dst) < w.node.n; dst++ {
		w.stage(dst, cm)
	}
	w.node.applier.commit(pw.zxid, w.node.store)
	if pw.local {
		w.node.completedWrites.Add(1)
		if pw.req != nil && pw.req.done != nil {
			pw.req.done(pw.req)
		}
		return
	}
	w.stage(pw.origin.From, proto.Message{
		Kind: proto.KindZabReply, From: w.node.id, Worker: pw.origin.Worker,
		OpID: pw.origin.OpID,
	})
}

func (w *worker) dispatch(m *proto.Message) {
	switch m.Kind {
	case proto.KindZabSubmit: // leader
		w.sequence(*m, false, nil)
	case proto.KindZabProposal: // follower
		// The applier retains the proposal until its commit arrives; its
		// value must not alias the transport's recycled receive buffer.
		p := *m
		p.Value = append([]byte(nil), m.Value...)
		w.node.applier.propose(p, w.node.store)
		w.stage(0, proto.Message{
			Kind: proto.KindZabAck, From: w.node.id, Worker: w.id, Slot: m.Slot,
		})
	case proto.KindZabAck: // leader
		if pw, ok := w.acks[m.Slot]; ok {
			pw.acks |= 1 << m.From
			w.maybeCommit(pw)
		}
	case proto.KindZabCommit: // follower
		w.node.applier.commit(m.Slot, w.node.store)
	case proto.KindZabReply: // origin follower
		if r, ok := w.subs[m.OpID]; ok {
			delete(w.subs, m.OpID)
			w.node.completedWrites.Add(1)
			if r.done != nil {
				r.done(r)
			}
		}
	}
}

// drainOnStop completes outstanding requests so sync callers do not hang.
func (w *worker) drainOnStop() {
	for _, r := range w.subs {
		if r.done != nil {
			r.done(r)
		}
	}
	w.subs = map[uint64]*request{}
	for _, pw := range w.acks {
		if pw.local && pw.req != nil && pw.req.done != nil {
			pw.req.done(pw.req)
		}
	}
	w.acks = map[uint64]*pendingWrite{}
	for {
		select {
		case r := <-w.reqCh:
			if r.done != nil {
				r.done(r)
			}
		default:
			return
		}
	}
}
