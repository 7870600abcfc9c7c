package core

import (
	"time"

	"kite/internal/es"
	"kite/internal/kvs"
	"kite/internal/llc"
	"kite/internal/membership"
	"kite/internal/proto"
	"kite/internal/transport"
)

// Worker executes sessions and protocol handlers in a single-threaded event
// loop — the Kite worker thread of §6.1. All state it touches (sessions,
// their ops and write ledgers, outboxes) is goroutine-local; shared node
// state (KVS, epoch, delinquency vector) is internally synchronised.
type Worker struct {
	node *Node
	id   uint8

	inbox <-chan transport.Batch
	reqCh chan *Request
	// wake interrupts idleWait (Pause uses it to park an idle worker).
	wake chan struct{}

	sessions []*Session
	// catchup is the rejoin sweep in flight (worker 0 only, nil otherwise).
	catchup *catchupOp

	// out stages outgoing messages per destination node; flush() sends
	// each stage as one batch (opportunistic batching, §6.3).
	out [][]proto.Message

	// pendingVal accumulates (key, stamp) pairs of relaxed writes that
	// reached full acknowledgement this iteration. flush() folds them into
	// KindESValidate broadcasts — up to proto.MaxOrigins/2 pairs per frame
	// — so validation traffic rides the existing batches instead of paying
	// one frame per write (DESIGN.md "Local reads").
	pendingVal []uint64

	runq fifo[*Session]

	scratch [kvs.MaxValueLen]byte
	now     time.Time

	// cfgEpoch is the config epoch this worker last applied to its local
	// state (session trackers, a rejoin sweep in flight). The loop top
	// compares it against the node's installed epoch and runs applyConfig
	// on change.
	cfgEpoch uint32

	nextScan time.Time
	idle     *time.Timer
}

const (
	maxBatchesPerIter = 64
	maxAdmitsPerIter  = 128
	deadlineScanEvery = 200 * time.Microsecond
)

func newWorker(nd *Node, id uint8) *Worker {
	w := &Worker{
		node:  nd,
		id:    id,
		inbox: nd.tr.Recv(transport.Endpoint{Node: nd.ID, Worker: id}),
		reqCh: make(chan *Request, 1024),
		wake:  make(chan struct{}, 1),
		// Staging is sized for the id space, not the current member count:
		// reconfiguration can add members with ids beyond the boot-time n.
		out:      make([][]proto.Message, llc.MaxNodes),
		cfgEpoch: nd.ConfigEpoch(),
	}
	return w
}

// nextOpID allocates a cluster-unique operation id for an op of session s:
// node(8) | incarnation(16) | session(8) | per-session sequence(32). The
// layout also routes replies: the session field names the op's session
// (Worker.session), whose head or write ledger holds the op. The high 32
// bits form the session tag the Paxos exactly-once filter keys on:
// a session has at most one outstanding RMW, so "the session's latest
// committed RMW id" decides whether a given RMW already committed. The
// incarnation makes the tag unique across crash-restarts of the node —
// a restarted replica's sequence counters start over at zero, but peers'
// registries (and its own, repopulated by the catch-up sweep's origin
// rings) still hold pre-crash op ids under the old tag; without the
// incarnation, a fresh session's seq eventually collides with one and the
// filter silently "completes" an RMW that never ran (Config.Incarnation).
func (w *Worker) nextOpID(s *Session) uint64 {
	s.opSeq++
	return uint64(w.node.ID)<<56 | uint64(uint16(w.node.cfg.Incarnation))<<40 |
		uint64(uint8(s.idx))<<32 | uint64(uint32(s.opSeq))
}

// session returns this worker's session that op id names, or nil when the
// id names another node, another incarnation, a session index past the
// node's sessions (the admin session included) or a session another worker
// owns. Reply op ids come off the wire, so each of these is checked before
// anything is indexed — and another worker's session is never touched.
func (w *Worker) session(id uint64) *Session {
	nd := w.node
	if id>>40 != uint64(nd.ID)<<16|uint64(uint16(nd.cfg.Incarnation)) {
		return nil
	}
	// Session i runs on worker i mod Workers, at index i div Workers of its
	// sessions (NewNode); the admin session is worker 0's last.
	i, nw := int(uint8(id>>32)), len(nd.workers)
	if i%nw != int(w.id) || i/nw >= len(w.sessions) {
		return nil
	}
	return w.sessions[i/nw]
}

// stage queues m for dst's same-index worker, stamping it with the
// configuration epoch installed NOW — not at flush — so a frame staged just
// before its own handling installs a successor config (the reconfiguration
// commit itself) still carries the epoch its receivers are in.
// Retransmissions re-stage and therefore re-stamp. Self-destined messages
// are not staged (use deliverLocal).
func (w *Worker) stage(dst uint8, m proto.Message) {
	m.Epoch = w.node.ConfigEpoch()
	w.out[dst] = append(w.out[dst], m)
}

// broadcastRemote stages m for every remote member of the installed
// configuration.
func (w *Worker) broadcastRemote(m proto.Message) {
	members := w.node.full()
	for dst := uint8(0); int(dst) < llc.MaxNodes; dst++ {
		if dst != w.node.ID && members&(1<<dst) != 0 {
			w.stage(dst, m)
		}
	}
}

// broadcastAll stages m for every remote node and processes the local
// replica's copy inline (the loopback that lets the local store count
// towards quorums).
func (w *Worker) broadcastAll(m proto.Message) {
	w.broadcastRemote(m)
	w.deliverLocal(m)
}

// sendResetBit sends a completed delinquent acquire's (or RMW's) reset-bit
// to exactly the replicas in mask — the ones whose counted replies flagged
// us. A broadcast would also reach replicas whose flag we never counted;
// there our bit may be in Trans for a newer release, and the reset would
// clear delinquency this op's epoch bump does not answer for (the bug the
// `local-reads` chaos schedule caught). Unreached replicas self-heal: their
// Trans bit still reads as suspected, so a later counted acquire is flagged
// and carries its own reset.
func (w *Worker) sendResetBit(opID uint64, mask uint16) {
	nd := w.node
	m := proto.Message{Kind: proto.KindResetBit, From: nd.ID, Worker: w.id, OpID: opID}
	mask &= nd.full()
	for dst := uint8(0); int(dst) < llc.MaxNodes; dst++ {
		if mask&(1<<dst) == 0 {
			continue
		}
		if dst == nd.ID {
			w.deliverLocal(m)
		} else {
			w.stage(dst, m)
		}
	}
}

// deliverLocal runs the replica-side handler for m against the local node
// and routes the reply (if any) straight back to this worker's op.
func (w *Worker) deliverLocal(m proto.Message) {
	if rep, ok := w.handleRequest(&m); ok {
		w.dispatchReply(rep)
	}
}

// dispatchReply routes a reply by its op id: catch-up replies to the
// rejoin sweep, ES acks to the write ledger of the session the id names,
// and every other reply to that session's head op if the head carries the
// id. Anything else — a reply for a finished, replaced or foreign op — is
// dropped.
func (w *Worker) dispatchReply(m proto.Message) {
	if op := w.catchup; op != nil && m.OpID == op.id {
		op.onMessage(w, m)
		return
	}
	s := w.session(m.OpID)
	switch {
	case s == nil: // not an op of this worker
	case m.Kind == proto.KindESAck:
		if e := s.tracker.Ack(m.OpID, m.From); e != nil {
			w.writesAcked(s, e)
		}
	case s.head != nil && s.headID == m.OpID:
		s.head.onMessage(w, m)
	}
}

// dispatch processes one incoming message: replies feed pending ops,
// requests run replica handlers and stage their responses back. Before any
// of that, the frame's configuration epoch is checked (DESIGN.md
// "Membership"): a frame from another epoch — or from a node that is not a
// member of ours — must not feed a quorum, so it is dropped, and a config
// exchange is staged so whichever side is behind converges. The dropped
// frame is re-delivered by its protocol's own retransmission once the
// epochs agree.
func (w *Worker) dispatch(m *proto.Message) {
	nd := w.node
	if m.Kind == proto.KindConfigInfo || m.Kind == proto.KindConfigPull {
		// Exempt from the epoch check by design — these heal the mismatch.
		w.handleConfig(m)
		return
	}
	if e := nd.ConfigEpoch(); m.Epoch != e || !nd.view.Load().Contains(m.From) {
		nd.staleFrames.Add(1)
		switch {
		case m.Epoch > e:
			// The sender is ahead: ask it for the config it is running.
			w.stage(m.From, proto.Message{
				Kind: proto.KindConfigPull, From: nd.ID, Worker: w.id,
			})
		case m.Epoch < e:
			// The sender is behind (possibly removed and unaware): push our
			// config so it converges — or learns of its removal.
			w.stage(m.From, w.configInfoMsg())
		}
		return
	}
	if m.Kind == proto.KindCatchupPull {
		// Catch-up pulls answer with a whole chunk of messages, not the
		// single reply handleRequest models.
		w.handleCatchupPull(m)
		return
	}
	if m.IsReply() {
		w.dispatchReply(*m)
		return
	}
	rep, ok := w.handleRequest(m)
	if !ok {
		return
	}
	if m.From == w.node.ID {
		w.dispatchReply(rep)
		return
	}
	w.stage(m.From, rep)
}

// configInfoMsg builds the advertisement of this node's installed config.
func (w *Worker) configInfoMsg() proto.Message {
	v := w.node.View()
	return proto.Message{
		Kind: proto.KindConfigInfo, From: w.node.ID, Worker: w.id,
		Slot: uint64(v.Epoch), Bits: v.Members,
	}
}

// handleConfig processes the config-exchange kinds, which flow between
// nodes regardless of epoch agreement.
func (w *Worker) handleConfig(m *proto.Message) {
	switch m.Kind {
	case proto.KindConfigPull:
		w.stage(m.From, w.configInfoMsg())
	case proto.KindConfigInfo:
		// Reject what membership.Decode would: an empty member set can
		// only be a corrupted frame, and installing it would brick the
		// node (it would conclude it was removed). Epochs above uint32 are
		// likewise garbage — Slot is wire-shared with 64-bit fields.
		if m.Bits == 0 || m.Slot > uint64(^uint32(0)) {
			return
		}
		if uint64(w.node.ConfigEpoch()) < m.Slot {
			w.node.InstallConfig(membership.Config{Epoch: uint32(m.Slot), Members: m.Bits})
		}
	}
}

// queueValidate records that the relaxed write (key, st) has been acked by
// every current member; the pair is broadcast as a KindESValidate at the
// next flush. Validation is deliberately deferred to flush time — losing
// the batch (crash before flush) only costs fallbacks, never correctness.
func (w *Worker) queueValidate(key uint64, st llc.Stamp) {
	w.pendingVal = es.AppendValidate(w.pendingVal, key, st)
}

// flushValidates folds the iteration's fully-acked writes into validate
// broadcasts: every current member (the local replica included, via the
// loopback) marks each still-current (key, stamp) locally readable.
//
// The staged frames' Origins view pendingVal, which is truncated and reused
// next iteration: flush sends them before anything appends again, and Send
// copies them.
func (w *Worker) flushValidates() {
	for pend := w.pendingVal; len(pend) > 0; {
		n := min(len(pend), proto.MaxOrigins)
		w.broadcastAll(proto.Message{
			Kind: proto.KindESValidate, From: w.node.ID, Worker: w.id,
			Origins: pend[:n:n],
		})
		pend = pend[n:]
	}
	w.pendingVal = w.pendingVal[:0]
}

// flush sends every staged batch. The transport copies/encodes
// synchronously — payloads included — so each stage is truncated and reused
// next iteration: steady state stages no allocations.
func (w *Worker) flush() {
	w.flushValidates()
	for dst := range w.out {
		if len(w.out[dst]) == 0 {
			continue
		}
		w.node.tr.Send(transport.Endpoint{Node: uint8(dst), Worker: w.id}, w.out[dst])
		w.out[dst] = w.out[dst][:0]
	}
}

func (w *Worker) enqueueRun(s *Session) {
	if !s.inRunq {
		s.inRunq = true
		w.runq.push(s)
	}
}

// admit queues a submitted request behind its session's earlier ones.
func (w *Worker) admit(r *Request) {
	r.sess.queue.push(r)
	w.enqueueRun(r.sess)
}

// run is the worker event loop.
func (w *Worker) run() {
	defer w.exited()
	defer w.failAll()
	w.idle = time.NewTimer(w.node.cfg.IdlePoll)
	defer w.idle.Stop()
	if w.id == 0 && w.node.rejoining.Load() {
		// A restarted replica's first act is the anti-entropy sweep; worker
		// 0 owns it (it is node-wide state, but a pending op must live in
		// exactly one worker's event loop).
		w.now = time.Now()
		w.startCatchup()
		w.flush()
	}
	for {
		if w.node.stopped.Load() {
			return
		}
		if w.node.removed.Load() {
			// An installed configuration excludes this node: the group has
			// moved on, writes no longer reach this store, local reads would
			// go stale. Shut down exactly like a crash-stop (failAll runs on
			// the deferred exit path); a sweep in flight is aborted so
			// AwaitCatchup waiters unblock (they must check Removed).
			w.node.finishCatchup()
			return
		}
		if g := w.node.pause.Load(); g != nil {
			// The sleeping replica of the failure study: no receiving,
			// no sending, no client progress.
			w.park(g)
			continue
		}
		w.now = time.Now()
		progress := false

		// 0. Configuration changes: retarget this worker's sessions (and a
		// rejoin sweep in flight) at the installed member set.
		if e := w.node.ConfigEpoch(); e != w.cfgEpoch {
			w.cfgEpoch = e
			w.applyConfig()
			progress = true
		}

		// 1. Inbound protocol traffic.
	drain:
		for i := 0; i < maxBatchesPerIter; i++ {
			select {
			case batch := <-w.inbox:
				w.deliver(batch)
				progress = true
			default:
				break drain
			}
		}

		// 2. Newly submitted client requests.
	admit:
		for i := 0; i < maxAdmitsPerIter; i++ {
			select {
			case r := <-w.reqCh:
				w.admit(r)
				progress = true
			default:
				break admit
			}
		}

		// 3. Pump runnable sessions (completions re-enqueue sessions, so
		// drain until quiescent). A rejoining node holds its client traffic
		// right here: admitted requests stay queued — buffered, not failed —
		// until the catch-up sweep completes, so no acquire (or relaxed
		// read of the still-stale store) is served early. The sessions stay
		// in the runq and drain on the first iteration after the sweep.
		if !w.node.rejoining.Load() {
			for w.runq.len() > 0 {
				s := w.runq.pop()
				s.inRunq = false
				w.pump(s)
				progress = true
			}
		}

		// 4. Deadlines: timer decisions and retransmissions.
		if w.now.After(w.nextScan) {
			w.scanDeadlines()
			w.nextScan = w.now.Add(deadlineScanEvery)
		}

		// 4b. Durability barrier: records this iteration's acks depend
		// on must be fsynced before step 5 ships them. A failed WAL
		// stops the node without flushing — staged acks for work that
		// never became durable are dropped with it.
		if !w.syncWAL() {
			return
		}

		// 5. Ship staged batches.
		w.flush()

		if !progress {
			w.idleWait()
		}
	}
}

// syncWAL is the pre-flush durability barrier: every record whose
// acknowledgment is about to ship must be durable first. In synchronous
// mode (Config.FsyncInterval < 0) that is every record this iteration
// appended; in group-commit mode it is the consensus-critical ones —
// Paxos promises and accepts no peer can vouch for, commits, the boot
// marker — while plain value installs ride the fsync deadline (the
// documented window). Either way the cost is at most one batched fsync
// per iteration, and zero syscalls when nothing qualifying was
// appended. Reports false when the WAL can no longer deliver
// durability: the node is crash-stopped (acknowledgment must imply
// durability — a dead replica is recoverable by the sweep, a silently
// memory-only one is a lie) and the caller must not flush.
func (w *Worker) syncWAL() bool {
	nd := w.node
	if nd.wal == nil {
		return true
	}
	err := nd.wal.Err()
	if err == nil {
		if nd.walSync {
			err = nd.wal.Sync()
		} else {
			err = nd.wal.SyncCritical()
		}
	}
	if err != nil {
		nd.walFailed(err)
		return false
	}
	return true
}

// idleWait blocks until traffic arrives or the poll interval elapses (so
// deadline scans still happen on a quiet node).
func (w *Worker) idleWait() {
	if !w.idle.Stop() {
		select {
		case <-w.idle.C:
		default:
		}
	}
	w.idle.Reset(w.node.cfg.IdlePoll)
	select {
	case batch := <-w.inbox:
		if g := w.node.pause.Load(); g != nil {
			// The node paused while this worker slept here: the batch
			// that woke it waits for the pause's end like the rest.
			w.park(g)
			if w.node.stopped.Load() {
				batch.Release()
				return
			}
			w.now = time.Now() // the pause outlasted the loop's reading
		}
		w.deliver(batch)
		// Same barrier as the loop's step 4b: these dispatches may have
		// granted promises/accepts whose acks are about to ship.
		if w.syncWAL() {
			w.flush()
		}
	case r := <-w.reqCh:
		w.admit(r)
	case <-w.wake:
	case <-w.idle.C:
	}
}

// deliver dispatches every message of an inbound batch. Handlers copy
// anything they keep, so the batch's pooled buffers go back to the
// transport here.
func (w *Worker) deliver(batch transport.Batch) {
	for j := range batch.Msgs {
		w.dispatch(&batch.Msgs[j])
	}
	batch.Release()
}

// scanDeadlines is the worker's one timer walk. For each session: the head
// op's timed decision (onDeadline), then every due quorum round of the head
// and every due write in the ledger, each resent to the members it is still
// missing. Then the rejoin sweep's stall timer.
func (w *Worker) scanDeadlines() {
	view := w.node.View()
	for _, s := range w.sessions {
		if op := s.head; op != nil {
			if d := op.nextDeadline(); !d.IsZero() && w.now.After(d) {
				op.onDeadline(w, w.now)
			}
		}
		if op := s.head; op != nil { // onDeadline may have finished it
			for _, r := range op.rounds() {
				if r != nil && w.due(&r.retryAt) {
					w.retransmit(r.msg, r.tally.Missing(view))
				}
			}
		}
		for e := range s.tracker.All() {
			if w.due(&e.RetryAt) {
				w.retransmit(e.Msg, s.tracker.Missing(e))
			}
		}
	}
	if op := w.catchup; op != nil && w.now.After(op.retryAt) {
		op.onDeadline(w, w.now)
	}
}

// due reports whether a resend armed for *at has come due, re-arming it one
// RetryInterval on if so. A zero time is a round with nothing on the wire.
func (w *Worker) due(at *time.Time) bool {
	if at.IsZero() || !w.now.After(*at) {
		return false
	}
	*at = w.now.Add(w.node.cfg.RetryInterval)
	return true
}

// pump advances a session: issue queued requests in order until one blocks
// (or flow control throttles relaxed writes).
func (w *Worker) pump(s *Session) {
	for s.head == nil && s.queue.len() > 0 {
		r := s.queue.peek()
		if r.Canceled() {
			// Abandoned before it was issued: it never executes.
			s.queue.pop()
			s.complete(r, ErrCanceled)
			continue
		}
		if r.Code == OpWrite && s.tracker.Len() >= w.node.cfg.MaxPendingWrites {
			s.throttled = true
			return
		}
		s.queue.pop()
		w.issue(s, r)
	}
}

// failAll terminates outstanding and queued requests on shutdown.
func (w *Worker) failAll() {
	for _, s := range w.sessions {
		if s.head != nil {
			s.complete(s.head.request(), ErrStopped)
			s.head = nil
		}
		for s.queue.len() > 0 {
			s.complete(s.queue.pop(), ErrStopped)
		}
	}
	// Drain any requests still sitting in the submit channel.
	w.drainSubmitted()
}

// applyConfig retargets worker-local state at the installed configuration:
// every session's write ledger refits to the new member mask — writes whose
// only missing acks were from removed members complete here, which is what
// keeps releases and flushes from waiting forever on a replica that is gone
// — every quorum round in flight refits (refitRounds), and a rejoin sweep
// in flight is rebuilt against the new member set (its chunks are
// idempotent, so restarting the walk is merely conservative).
func (w *Worker) applyConfig() {
	full := w.node.full()
	for _, s := range w.sessions {
		// A write completed by the refit has been acked by every CURRENT
		// member (a grown mask never completes early), so it validates
		// exactly like an ordinary full-ack.
		if done := s.tracker.Refit(full); len(done) > 0 {
			w.writesAcked(s, done...)
		}
	}
	w.refitRounds()
	if w.catchup != nil {
		w.catchup.rebuild(w)
	}
}

// drainSubmitted fails every request buffered in the submit channel with
// ErrStopped. Called by failAll on worker exit and by Session.Submit when
// it observes the node stopped right after sending (the submit/stop race);
// concurrent calls are safe — each request is received, and thus
// completed, exactly once.
func (w *Worker) drainSubmitted() {
	for {
		select {
		case r := <-w.reqCh:
			r.sess.complete(r, ErrStopped)
		default:
			return
		}
	}
}
