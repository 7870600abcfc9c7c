// Package server exposes a Kite node to external processes: it listens on a
// per-node UDP address, leases the node's worker-owned sessions to remote
// clients, and bridges their operations onto the asynchronous Submit/Done
// path of kite/internal/core.
//
// The client link has the same contract as the replica-to-replica transport:
// unreliable datagrams, one frame per packet. Reliability lives at the
// edges — the client library (package kite/client) retransmits requests, and
// the server keeps a per-session cache of completed replies so a
// retransmitted request is answered from the cache instead of re-executed
// (exactly-once per (session, seq)). Because datagrams can also reorder, the
// server submits a session's data ops strictly in client sequence order,
// holding back frames that arrive early.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
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

// maxHeldOut bounds how many reordered (future-seq) requests a session
// buffers; beyond that early frames are dropped and the client retries.
const maxHeldOut = 256

// Stats counts server-level events.
type Stats struct {
	Requests       atomic.Uint64 // well-formed frames received
	BatchedOps     atomic.Uint64 // data ops that arrived inside batch frames
	Retransmits    atomic.Uint64 // duplicate requests answered from cache
	Held           atomic.Uint64 // reordered requests buffered for in-order submit
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

type outReply struct {
	dest *transport.UDPDest
	rep  proto.ClientReply
}

type openKey struct {
	addr string
	seq  uint64
}

type openEntry struct {
	rep  proto.ClientReply
	when time.Time
}

// clientSession is one leased node session plus the bridging state that
// makes the lossy client link exactly-once and in-order.
type clientSession struct {
	id uint32
	cs *core.Session

	mu         sync.Mutex
	addr       *net.UDPAddr       // latest client address; replies go here
	dest       *transport.UDPDest // addr with its precomputed raw sockaddr
	nextSeq    uint64             // next data-op seq to submit to the core session
	heldOut    map[uint64]heldReq
	inflight   map[uint64]struct{}
	done       map[uint64]proto.ClientReply // completed replies kept for retransmits
	lastActive time.Time
	// epoch is the node's membership epoch this session last observed.
	// When the node's installed epoch moves past it, the next data reply
	// carries ClientFlagReconfigured (once per change) so the client
	// re-pings for the new membership.
	epoch uint32
}

type heldReq struct {
	op       uint8
	key      uint64
	delta    uint64
	expected []byte
	value    []byte
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
	for {
		n, raddr, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		if n > 0 && buf[0] == proto.ClientOpBatch {
			var b proto.ClientBatch
			if b.Unmarshal(buf[:n]) != nil {
				continue // corrupt datagram: drop, like a bad checksum
			}
			s.stats.Requests.Add(1)
			s.handleBatch(&b, raddr)
			continue
		}
		var req proto.ClientRequest
		if err := req.Unmarshal(buf[:n]); err != nil {
			continue // corrupt datagram: drop, like a bad checksum
		}
		s.stats.Requests.Add(1)
		s.handle(&req, raddr)
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
			b, err := pending[i].rep.AppendMarshal(bufs[len(dgs)][:0])
			if err != nil {
				continue
			}
			bufs[len(dgs)] = b
			dgs = append(dgs, transport.Datagram{Buf: b, Dest: pending[i].dest})
		}
		if len(dgs) > 0 {
			n, _ := s.bc.WriteBatch(dgs)
			s.stats.Replies.Add(uint64(n))
		}
	}
}

// reply queues a reply datagram; full queue drops it (the client retries).
func (s *Server) reply(dest *transport.UDPDest, rep proto.ClientReply) {
	if s.closed.Load() {
		return
	}
	select {
	case s.replyCh <- outReply{dest: dest, rep: rep}:
	default:
		s.stats.DroppedReplies.Add(1)
	}
}

// sameUDPAddr reports whether two addresses refer to the same endpoint
// without allocating (unlike comparing String() forms).
func sameUDPAddr(a, b *net.UDPAddr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Port == b.Port && a.Zone == b.Zone && a.IP.Equal(b.IP)
}

func (s *Server) handle(req *proto.ClientRequest, raddr *net.UDPAddr) {
	switch req.Op {
	case proto.ClientOpPing:
		nd := s.node()
		v := nd.View()
		s.reply(transport.NewUDPDest(raddr), proto.ClientReply{
			Status: proto.ClientOK, Flags: proto.ClientFlagControl, Seq: req.Seq,
			Value: proto.AppendNodeInfo(nil, s.cfg.Groups, s.cfg.Group, v.Epoch, v.Members),
		})
	case proto.ClientOpJoin:
		s.handleReconfig(req, raddr, true)
	case proto.ClientOpRemove:
		s.handleReconfig(req, raddr, false)
	case proto.ClientOpOpen:
		s.handleOpen(req, raddr)
	case proto.ClientOpClose:
		s.release(req.Sess)
		s.reply(transport.NewUDPDest(raddr), proto.ClientReply{
			Status: proto.ClientOK, Flags: proto.ClientFlagControl,
			Sess: req.Sess, Seq: req.Seq,
		})
	default:
		s.handleData(req, raddr)
	}
}

func (s *Server) handleOpen(req *proto.ClientRequest, raddr *net.UDPAddr) {
	dest := transport.NewUDPDest(raddr)
	key := openKey{addr: raddr.String(), seq: req.Seq}
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
		id: s.nextID, cs: cs, addr: raddr, dest: dest, nextSeq: 1,
		heldOut:    make(map[uint64]heldReq),
		inflight:   make(map[uint64]struct{}),
		done:       make(map[uint64]proto.ClientReply),
		lastActive: time.Now(),
		epoch:      s.nd.ConfigEpoch(),
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
func (s *Server) handleReconfig(req *proto.ClientRequest, raddr *net.UDPAddr, add bool) {
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
		s.reply(transport.NewUDPDest(raddr), rep)
	}()
}

// handleBatch unrolls a batch frame: op i is exactly an individual request
// with seq b.Seq+i, so the in-order gate, dedup and reply cache need no
// batch-specific cases — a retransmitted batch is answered per-op from the
// cache, a reordered one is held per-op until its gap fills.
func (s *Server) handleBatch(b *proto.ClientBatch, raddr *net.UDPAddr) {
	s.stats.BatchedOps.Add(uint64(len(b.Ops)))
	for i, op := range b.Ops {
		req := proto.ClientRequest{
			Op: op.Code, Sess: b.Sess, Seq: b.Seq + uint64(i), Acked: b.Acked,
			Key: op.Key, Delta: op.Delta, Expected: op.Expected, Value: op.Value,
		}
		s.handleData(&req, raddr)
	}
}

func (s *Server) handleData(req *proto.ClientRequest, raddr *net.UDPAddr) {
	sess := s.lookup(req.Sess)
	if sess == nil {
		s.reply(transport.NewUDPDest(raddr), proto.ClientReply{
			Status: proto.ClientErrNoSession, Sess: req.Sess, Seq: req.Seq,
		})
		return
	}

	sess.mu.Lock()
	// The precomputed destination is rebuilt only when the client's address
	// actually moved, so the steady-state data path reuses it per reply.
	if sess.dest == nil || !sameUDPAddr(sess.addr, raddr) {
		sess.dest = transport.NewUDPDest(raddr)
	}
	sess.addr = raddr
	sess.lastActive = time.Now()
	// The client has every reply below Acked; drop them from the cache.
	for seq := range sess.done {
		if seq < req.Acked {
			delete(sess.done, seq)
		}
	}
	if rep, ok := sess.done[req.Seq]; ok {
		// Retransmitted request whose reply may have been lost: answer
		// from the cache without re-executing.
		dest := sess.dest
		sess.mu.Unlock()
		s.stats.Retransmits.Add(1)
		s.reply(dest, rep)
		return
	}
	if _, ok := sess.inflight[req.Seq]; ok || req.Seq < sess.nextSeq {
		// Already executing (reply will come), or completed and acked
		// (a straggler duplicate): ignore.
		sess.mu.Unlock()
		return
	}
	if req.Seq > sess.nextSeq {
		// Reordered arrival: buffer until the gap fills. Payloads alias
		// the recv buffer, so copy them out.
		if len(sess.heldOut) < maxHeldOut {
			sess.heldOut[req.Seq] = heldReq{
				op: req.Op, key: req.Key, delta: req.Delta,
				expected: bytes.Clone(req.Expected), value: bytes.Clone(req.Value),
			}
			s.stats.Held.Add(1)
		}
		sess.mu.Unlock()
		return
	}
	// req.Seq == nextSeq: submit it, then drain any buffered successors.
	submits := []heldReq{{
		op: req.Op, key: req.Key, delta: req.Delta,
		expected: bytes.Clone(req.Expected), value: bytes.Clone(req.Value),
	}}
	seqs := []uint64{req.Seq}
	sess.inflight[req.Seq] = struct{}{}
	sess.nextSeq++
	for {
		h, ok := sess.heldOut[sess.nextSeq]
		if !ok {
			break
		}
		delete(sess.heldOut, sess.nextSeq)
		sess.inflight[sess.nextSeq] = struct{}{}
		submits = append(submits, h)
		seqs = append(seqs, sess.nextSeq)
		sess.nextSeq++
	}
	sess.mu.Unlock()

	for i, h := range submits {
		s.submit(sess, seqs[i], h)
	}
}

// submit bridges one data op onto the core session. Submit may block when
// the worker's admission queue is full — that stalls the recv loop and lets
// excess client datagrams drop at the socket, which is exactly the
// backpressure story of the rest of the system.
func (s *Server) submit(sess *clientSession, seq uint64, h heldReq) {
	r := &core.Request{
		Code: core.OpCode(h.op), Key: h.key, Delta: h.delta,
		Expected: h.expected, Val: h.value,
	}
	r.Done = func(r *core.Request) {
		rep := proto.ClientReply{Status: proto.ClientOK, Sess: sess.id, Seq: seq}
		if r.Err != nil {
			rep.Status = proto.ClientErrStopped
			if errors.Is(r.Err, core.ErrReservedKey) {
				rep.Status = proto.ClientErrReservedKey
			}
		} else {
			rep.Value = bytes.Clone(r.Out)
			if r.Swapped {
				rep.Flags |= proto.ClientFlagSwapped
			}
		}
		cur := s.node().ConfigEpoch()
		sess.mu.Lock()
		if cur != sess.epoch {
			// One-shot notification per epoch change: the client re-pings
			// for the new membership when it sees the flag.
			sess.epoch = cur
			rep.Flags |= proto.ClientFlagReconfigured
		}
		delete(sess.inflight, seq)
		sess.done[seq] = rep
		dest := sess.dest
		sess.mu.Unlock()
		s.reply(dest, rep)
	}
	sess.cs.Submit(r)
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
