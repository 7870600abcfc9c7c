// Package server exposes a Kite node to external processes: it listens on a
// per-node UDP address, leases the node's worker-owned sessions to remote
// clients, and bridges their operations onto the asynchronous Submit/Done
// path of kite/internal/core.
//
// The client link has the same contract as the replica-to-replica transport:
// unreliable datagrams, one frame per packet. Reliability lives at the
// edges — the client library (package kite/client) retransmits requests, and
// the server keeps each session's window of ops in a ring of
// proto.SessionWindow slots indexed by seq: a completed slot answers a
// retransmitted request instead of re-executing it (exactly-once per
// (session, seq)). Because datagrams can also reorder, the server submits a
// session's data ops strictly in client sequence order, holding back frames
// that arrive early in their slots.
package server

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"kite/internal/core"
	"kite/internal/membership"
	"kite/internal/proto"
	"kite/internal/transport"
)

// Config parameterises a session server.
type Config struct {
	// Addr is the UDP address to listen on (host:port; host:0 picks a
	// port, see Server.Addr).
	Addr string
	// MaxSessions bounds concurrently leased sessions. 0 means every
	// session of the node may be leased.
	MaxSessions int
	// LeaseTimeout expires a leased session after this much client
	// silence, returning it to the pool. 0 means DefaultLeaseTimeout.
	LeaseTimeout time.Duration
	// ReplyDepth bounds the reply queue; overflow drops replies (clients
	// retry). 0 means DefaultReplyDepth.
	ReplyDepth int
	// Groups and Group describe this node's place in a sharded deployment
	// (Group in [0, Groups)): the shard map advertised to clients in the
	// ping reply, so Dial can verify it is talking to the group it thinks
	// it is. Groups == 0 means unsharded (equivalent to 1 group, group 0).
	Groups int
	Group  int
	// FlushDelay bounds how long the reply flusher lingers collecting a
	// sub-batch burst before sending (transport.DefaultFlushDelay if zero;
	// negative disables lingering — every drain flushes immediately). A
	// lone reply always flushes immediately regardless.
	FlushDelay time.Duration
}

// Defaults for Config zero values.
const (
	DefaultLeaseTimeout = time.Minute
	DefaultReplyDepth   = 4096
)

// Stats counts server-level events.
type Stats struct {
	Requests    atomic.Uint64 // well-formed frames received
	BatchedOps  atomic.Uint64 // data ops that arrived inside batch frames
	Retransmits atomic.Uint64 // duplicate requests answered from their done slot
	Held        atomic.Uint64 // reordered requests buffered for in-order submit
	// WindowDrops counts data ops dropped at or beyond Acked +
	// proto.SessionWindow, or onto a slot whose op still runs. The client
	// library never sends one: nonzero means a misbehaving client.
	WindowDrops    atomic.Uint64
	Replies        atomic.Uint64 // replies sent
	DroppedReplies atomic.Uint64 // replies dropped on queue overflow
	Expired        atomic.Uint64 // sessions reclaimed by lease timeout
}

// Server is one node's client-facing session server.
type Server struct {
	nd   *core.Node
	cfg  Config
	conn *net.UDPConn
	bc   *transport.BatchConn

	mu       sync.Mutex
	sessions map[uint32]*clientSession
	free     []*core.Session
	nextID   uint32
	// opens dedupes retransmitted Open requests — leasing once per
	// (client addr, seq) instead of leaking one lease per lost reply.
	opens map[openKey]openEntry

	replyCh chan outReply
	stats   Stats
	closed  atomic.Bool
	wg      sync.WaitGroup
	stopJan chan struct{}
}

// outReply is one queued reply. Its value travels in val, by copy: a
// session slot can be reused as soon as the client acks its reply.
type outReply struct {
	dest *transport.UDPDest
	rep  proto.ClientReply // Value unset
	val  [proto.MaxValueLen]byte
	vlen uint8
}

type openKey struct {
	addr netip.AddrPort
	seq  uint64
}

type openEntry struct {
	rep  proto.ClientReply
	when time.Time
}

// clientSession is one leased node session plus its window, the ring that
// makes the lossy client link exactly-once and in-order: seq q lives in
// ring[q % SessionWindow], and slots below acked are free by definition.
// A ring is never reused: a released lease's requests complete into it.
type clientSession struct {
	id uint32
	cs *core.Session

	mu         sync.Mutex
	addr       netip.AddrPort     // latest client address; replies go here
	dest       *transport.UDPDest // addr with its precomputed raw sockaddr
	acked      uint64             // the client holds every reply below this seq
	nextSeq    uint64             // next data-op seq to submit to the core session
	lastActive time.Time
	// epoch is the node's membership epoch this session last observed.
	// When the node's installed epoch moves past it, the next data reply
	// carries ClientFlagReconfigured (once per change) so the client
	// re-pings for the new membership.
	epoch uint32
	ring  [proto.SessionWindow]slot
}

type slotState uint8

const (
	slotHeld     slotState = iota + 1 // arrived ahead of nextSeq (0: never used)
	slotInflight                      // submitted to the core session
	slotDone                          // completed: answers retransmissions
)

// slot owns its core.Request, as kite's pooled calls do: Val and Expected
// point into its buffers, Done is bound once, and a done slot's cached
// reply reads its value from the request's Out.
type slot struct {
	seq      uint64
	state    slotState
	rep      proto.ClientReply // once done
	req      core.Request
	val, exp [proto.MaxValueLen]byte
}

// New binds the UDP socket and starts the server's goroutines. The node may
// be started before or after New, but must be started for ops to complete.
func New(nd *core.Node, cfg Config) (*Server, error) {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = DefaultLeaseTimeout
	}
	if cfg.ReplyDepth <= 0 {
		cfg.ReplyDepth = DefaultReplyDepth
	}
	switch {
	case cfg.FlushDelay == 0:
		cfg.FlushDelay = transport.DefaultFlushDelay
	case cfg.FlushDelay < 0:
		cfg.FlushDelay = 0
	}
	if cfg.Groups > proto.MaxGroups {
		return nil, fmt.Errorf("server: %d groups exceeds %d", cfg.Groups, proto.MaxGroups)
	}
	if cfg.Groups > 0 && (cfg.Group < 0 || cfg.Group >= cfg.Groups) {
		return nil, fmt.Errorf("server: group %d outside [0,%d)", cfg.Group, cfg.Groups)
	}
	la, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: resolve %s: %w", cfg.Addr, err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		nd:       nd,
		cfg:      cfg,
		conn:     conn,
		bc:       transport.NewBatchConn(conn, nil),
		sessions: make(map[uint32]*clientSession),
		opens:    make(map[openKey]openEntry),
		replyCh:  make(chan outReply, cfg.ReplyDepth),
		stopJan:  make(chan struct{}),
	}
	s.free = leasePool(nd, cfg)
	s.wg.Add(3)
	go s.recvLoop()
	go s.sendLoop()
	go s.janitor()
	return s, nil
}

// Addr reports the bound UDP address (useful with :0 binds).
func (s *Server) Addr() string { return s.conn.LocalAddr().String() }

// Rebind points the server at a freshly restarted core node, keeping the
// client-facing socket (and thus every client's dial target) alive across
// the replica's restart. All leases are dropped — the leased sessions
// belonged to the dead incarnation, so their outstanding ops already failed
// with ErrStopped — and clients observe ClientErrNoSession on their next
// frame (surfaced as ErrSessionExpired), re-leasing with NewSession exactly
// as they would after a lease timeout. Fresh leases are handed out
// immediately, but their operations buffer inside the rejoining node until
// its catch-up sweep completes (see OPERATIONS.md "Restarting a replica").
func (s *Server) Rebind(nd *core.Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nd = nd
	s.sessions = make(map[uint32]*clientSession)
	s.opens = make(map[openKey]openEntry)
	s.free = leasePool(nd, s.cfg)
}

// leasePool builds the leasable session set for nd under cfg — shared by
// New (initial boot) and Rebind (post-restart) so the two can never
// diverge on pool sizing.
func leasePool(nd *core.Node, cfg Config) []*core.Session {
	max := nd.Sessions()
	if cfg.MaxSessions > 0 && cfg.MaxSessions < max {
		max = cfg.MaxSessions
	}
	pool := make([]*core.Session, 0, max)
	for i := 0; i < max; i++ {
		pool = append(pool, nd.Session(i))
	}
	return pool
}

// Stats exposes the server counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Close stops the server. Leased node sessions simply stop receiving
// traffic; the node itself is not stopped.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.stopJan)
	s.conn.Close()
	s.wg.Wait()
	return nil
}

func (s *Server) recvLoop() {
	defer s.wg.Done()
	buf := make([]byte, 2048)
	var b proto.ClientBatch // its Ops slice is reused across frames
	for {
		n, ap, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		if n > 0 && buf[0] == proto.ClientOpBatch {
			if b.Unmarshal(buf[:n]) != nil {
				continue // corrupt datagram: drop, like a bad checksum
			}
			s.stats.Requests.Add(1)
			s.handleBatch(&b, ap)
			continue
		}
		var req proto.ClientRequest
		if err := req.Unmarshal(buf[:n]); err != nil {
			continue // corrupt datagram: drop, like a bad checksum
		}
		s.stats.Requests.Add(1)
		s.handle(&req, ap)
	}
}

// sendLoop drains the reply queue and ships replies in batched syscalls:
// each drained reply marshals into its own reused buffer and the run goes
// out as one WriteBatch (sendmmsg where available). The flush policy is the
// transport's: a lone reply flushes immediately, a burst below a full batch
// lingers up to Config.FlushDelay for stragglers. replyCh is never closed —
// core-worker Done callbacks may call reply() at any time, even during
// Close — so the loop exits on the stop signal instead.
func (s *Server) sendLoop() {
	defer s.wg.Done()
	bufs := make([][]byte, transport.MaxIOBatch)
	for i := range bufs {
		bufs[i] = make([]byte, 0, 256)
	}
	dgs := make([]transport.Datagram, 0, transport.MaxIOBatch)
	pending := make([]outReply, 0, transport.MaxIOBatch)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-s.stopJan:
			return
		case out := <-s.replyCh:
			pending = append(pending[:0], out)
		}
	fill:
		for len(pending) < cap(pending) {
			select {
			case out := <-s.replyCh:
				pending = append(pending, out)
			default:
				break fill
			}
		}
		if len(pending) >= 2 && len(pending) < cap(pending) && s.cfg.FlushDelay > 0 {
			timer.Reset(s.cfg.FlushDelay)
			expired := false
			for !expired && len(pending) < cap(pending) {
				select {
				case out := <-s.replyCh:
					pending = append(pending, out)
				case <-timer.C:
					expired = true
				}
			}
			if !expired && !timer.Stop() {
				<-timer.C
			}
		}
		dgs = dgs[:0]
		for i := range pending {
			out := &pending[i]
			out.rep.Value = out.val[:out.vlen]
			b, err := out.rep.AppendMarshal(bufs[len(dgs)][:0])
			if err != nil {
				continue
			}
			bufs[len(dgs)] = b
			dgs = append(dgs, transport.Datagram{Buf: b, Dest: out.dest})
		}
		if len(dgs) > 0 {
			n, _ := s.bc.WriteBatch(dgs)
			s.stats.Replies.Add(uint64(n))
		}
	}
}

// reply queues a reply datagram, copying its value into the queue element;
// a full queue drops it (the client retries).
func (s *Server) reply(dest *transport.UDPDest, rep proto.ClientReply) {
	if s.closed.Load() {
		return
	}
	out := outReply{dest: dest, rep: rep}
	out.vlen, out.rep.Value = uint8(copy(out.val[:], rep.Value)), nil
	select {
	case s.replyCh <- out:
	default:
		s.stats.DroppedReplies.Add(1)
	}
}

// udpDest builds the reply destination for a datagram's source address.
func udpDest(ap netip.AddrPort) *transport.UDPDest {
	return transport.NewUDPDest(net.UDPAddrFromAddrPort(ap))
}

func (s *Server) handle(req *proto.ClientRequest, ap netip.AddrPort) {
	switch req.Op {
	case proto.ClientOpPing:
		nd := s.node()
		v := nd.View()
		s.reply(udpDest(ap), proto.ClientReply{
			Status: proto.ClientOK, Flags: proto.ClientFlagControl, Seq: req.Seq,
			Value: proto.AppendNodeInfo(nil, s.cfg.Groups, s.cfg.Group, v.Epoch, v.Members),
		})
	case proto.ClientOpJoin:
		s.handleReconfig(req, ap, true)
	case proto.ClientOpRemove:
		s.handleReconfig(req, ap, false)
	case proto.ClientOpOpen:
		s.handleOpen(req, ap)
	case proto.ClientOpClose:
		s.release(req.Sess)
		s.reply(udpDest(ap), proto.ClientReply{
			Status: proto.ClientOK, Flags: proto.ClientFlagControl,
			Sess: req.Sess, Seq: req.Seq,
		})
	default:
		s.handleData(req, ap)
	}
}

func (s *Server) handleOpen(req *proto.ClientRequest, ap netip.AddrPort) {
	dest := udpDest(ap)
	key := openKey{addr: ap, seq: req.Seq}
	s.mu.Lock()
	if e, ok := s.opens[key]; ok {
		s.mu.Unlock()
		s.stats.Retransmits.Add(1)
		s.reply(dest, e.rep)
		return
	}
	if len(s.free) == 0 {
		s.mu.Unlock()
		s.reply(dest, proto.ClientReply{
			Status: proto.ClientErrNoCapacity, Flags: proto.ClientFlagControl, Seq: req.Seq,
		})
		return
	}
	cs := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.nextID++ // ids start at 1 and are never reused, so stale frames miss
	sess := &clientSession{
		id: s.nextID, cs: cs, addr: ap, dest: dest, acked: 1, nextSeq: 1,
		lastActive: time.Now(),
		epoch:      s.nd.ConfigEpoch(),
	}
	for i := range sess.ring {
		sl := &sess.ring[i]
		sl.req.Done = func(r *core.Request) { s.done(sess, sl, r) }
	}
	s.sessions[sess.id] = sess
	rep := proto.ClientReply{
		Status: proto.ClientOK, Flags: proto.ClientFlagControl, Sess: sess.id, Seq: req.Seq,
	}
	s.opens[key] = openEntry{rep: rep, when: time.Now()}
	s.mu.Unlock()
	s.reply(dest, rep)
}

// release returns a leased session to the pool. The underlying core session
// may still be draining ops; that is safe — session order guarantees the
// next lessee's ops queue behind them.
func (s *Server) release(id uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return
	}
	delete(s.sessions, id)
	s.free = append(s.free, sess.cs)
}

func (s *Server) lookup(id uint32) *clientSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// node returns the current core node (it changes across Rebind).
func (s *Server) node() *core.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nd
}

// handleReconfig drives a join/remove request: the node id travels in Key,
// the committed configuration returns in the reply's Value. The CAS can
// take protocol round trips, so it runs off the receive loop; duplicate
// goroutines from client retransmissions are harmless — the underlying
// reconfiguration is idempotent and every goroutine replies (the client
// keeps the first).
func (s *Server) handleReconfig(req *proto.ClientRequest, ap netip.AddrPort, add bool) {
	nd := s.node()
	id, seq := uint8(req.Key), req.Seq
	go func() {
		var (
			cfg membership.Config
			err error
		)
		if add {
			cfg, err = nd.ReconfigureAdd(id, 0)
		} else {
			cfg, err = nd.ReconfigureRemove(id, 0)
		}
		rep := proto.ClientReply{
			Status: proto.ClientOK, Flags: proto.ClientFlagControl, Seq: seq,
			Value: cfg.Encode(),
		}
		if err != nil {
			rep.Status, rep.Value = proto.ClientErrConflict, nil
		}
		s.reply(udpDest(ap), rep)
	}()
}

// handleBatch unrolls a batch frame: op i is exactly an individual request
// with seq b.Seq+i, so the in-order gate, dedup and window need no
// batch-specific cases — a retransmitted batch is answered per-op from the
// ring, a reordered one is held per-op until its gap fills.
func (s *Server) handleBatch(b *proto.ClientBatch, ap netip.AddrPort) {
	s.stats.BatchedOps.Add(uint64(len(b.Ops)))
	for i, op := range b.Ops {
		req := proto.ClientRequest{
			Op: op.Code, Sess: b.Sess, Seq: b.Seq + uint64(i), Acked: b.Acked,
			Key: op.Key, Delta: op.Delta, Expected: op.Expected, Value: op.Value,
		}
		s.handleData(&req, ap)
	}
}

// handleData places one data op in its session's window. Only the receive
// loop loads slots; the core session owns a slot's request until Done.
func (s *Server) handleData(req *proto.ClientRequest, ap netip.AddrPort) {
	sess := s.lookup(req.Sess)
	if sess == nil {
		s.reply(udpDest(ap), proto.ClientReply{
			Status: proto.ClientErrNoSession, Sess: req.Sess, Seq: req.Seq,
		})
		return
	}

	sess.mu.Lock()
	// The precomputed destination is rebuilt only when the client's address
	// actually moved, so the steady-state data path reuses it per reply.
	if sess.addr != ap {
		sess.addr, sess.dest = ap, udpDest(ap)
	}
	sess.lastActive = time.Now()
	// The client holds every reply below Acked, so none past nextSeq.
	if req.Acked > sess.acked {
		sess.acked = min(req.Acked, sess.nextSeq)
	}
	seq := req.Seq
	if seq < sess.acked {
		sess.mu.Unlock() // acked straggler: its slot may hold a later seq
		return
	}
	sl := &sess.ring[seq%proto.SessionWindow]
	if seq >= sess.acked+proto.SessionWindow || (sl.seq != seq && sl.state == slotInflight) {
		// Beyond the window, or onto a slot whose earlier op still runs
		// (a client acking replies it never got): drop, the client retries.
		sess.mu.Unlock()
		s.stats.WindowDrops.Add(1)
		return
	}
	if sl.seq == seq {
		// A retransmission: a done slot answers it again without
		// re-executing; a held or executing one answers when it completes.
		if sl.state == slotDone {
			s.stats.Retransmits.Add(1)
			s.reply(sess.dest, sl.rep)
		}
		sess.mu.Unlock()
		return
	}
	// A new seq at or after nextSeq: copy it out of the receive buffer.
	sl.seq, sl.state = seq, slotHeld
	r := &sl.req
	r.Code, r.Key, r.Delta = core.OpCode(req.Op), req.Key, req.Delta
	r.Val, r.Expected = append(sl.val[:0], req.Value...), append(sl.exp[:0], req.Expected...)
	r.Out, r.Swapped, r.Err = nil, false, nil
	if seq > sess.nextSeq {
		// Reordered arrival: held until the gap fills.
		sess.mu.Unlock()
		s.stats.Held.Add(1)
		return
	}
	// seq == nextSeq: submit it and every held successor, in order.
	first := sess.nextSeq
	for {
		next := &sess.ring[sess.nextSeq%proto.SessionWindow]
		if next.seq != sess.nextSeq || next.state != slotHeld {
			break
		}
		next.state = slotInflight
		sess.nextSeq++
	}
	last := sess.nextSeq
	sess.mu.Unlock()

	// Submit may block when the worker's admission queue is full — that
	// stalls the recv loop and lets excess client datagrams drop at the
	// socket, which is exactly the backpressure story of the rest of the
	// system.
	for q := first; q < last; q++ {
		sess.cs.Submit(&sess.ring[q%proto.SessionWindow].req)
	}
}

// done is a slot request's Done, bound once per slot: it caches the reply
// in the slot and queues it. reply copies the value out under sess.mu,
// before the slot can be reused.
func (s *Server) done(sess *clientSession, sl *slot, r *core.Request) {
	rep := proto.ClientReply{Status: proto.ClientOK, Sess: sess.id, Seq: sl.seq, Value: r.Out}
	if r.Err != nil {
		rep.Status, rep.Value = proto.ClientErrStopped, nil
		if errors.Is(r.Err, core.ErrReservedKey) {
			rep.Status = proto.ClientErrReservedKey
		}
	} else if r.Swapped {
		rep.Flags |= proto.ClientFlagSwapped
	}
	cur := s.node().ConfigEpoch()
	sess.mu.Lock()
	if cur != sess.epoch {
		// One-shot notification per epoch change: the client re-pings
		// for the new membership when it sees the flag.
		sess.epoch = cur
		rep.Flags |= proto.ClientFlagReconfigured
	}
	sl.state, sl.rep = slotDone, rep
	s.reply(sess.dest, rep)
	sess.mu.Unlock()
}

// janitor expires sessions whose client went silent, returning them to the
// pool so crashed clients do not leak the node's fixed session set.
func (s *Server) janitor() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.LeaseTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stopJan:
			return
		case now := <-tick.C:
			var expired []uint32
			s.mu.Lock()
			for id, sess := range s.sessions {
				sess.mu.Lock()
				idle := now.Sub(sess.lastActive)
				sess.mu.Unlock()
				if idle > s.cfg.LeaseTimeout {
					expired = append(expired, id)
				}
			}
			for key, e := range s.opens {
				if now.Sub(e.when) > s.cfg.LeaseTimeout {
					delete(s.opens, key)
				}
			}
			s.mu.Unlock()
			for _, id := range expired {
				s.release(id)
				s.stats.Expired.Add(1)
			}
		}
	}
}
