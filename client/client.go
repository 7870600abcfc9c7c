// Package client connects external processes to a Kite deployment. Dial one
// node's session server (started by kite-node -client-addr, or
// kite/internal/server in-process) and open sessions implementing the
// unified kite.Session interface: Do/DoAsync/DoBatch over kite.Op values,
// plus the convenience methods (Read/Write, ReleaseWrite/AcquireRead, FAA,
// CompareAndSwap). Code written against kite.Session runs unchanged over
// this backend and the in-process cluster.
//
// The link to the server is UDP with the same delivery contract as Kite's
// replica-to-replica transport: datagrams may be lost, duplicated or
// reordered. The client retransmits unacknowledged requests every
// RetryInterval until OpTimeout; the server executes each (session, seq)
// exactly once and answers retransmissions from its session window, so
// retried writes and RMWs are safe. DoBatch pipelines many operations into a single
// request datagram — one round trip for a whole batch of relaxed accesses —
// while replies stay per-op so one lost reply costs one retransmission.
//
// A session is a single logical thread of control: its synchronous methods
// must not be called concurrently, and its operations take effect in
// submission order regardless of datagram reordering. Contexts cancel the
// wait for an operation, not the operation itself: a canceled op keeps
// retransmitting in the background until it is acknowledged or times out,
// which keeps the session's in-order stream intact (only a full OpTimeout
// expiry breaks the session).
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kite"
	"kite/internal/core"
	"kite/internal/membership"
	"kite/internal/proto"
	"kite/internal/transport"
)

// Errors returned by client operations. The operation-level taxonomy
// (ErrStopped, ErrValueTooLong, ErrCanceled, ErrSessionClosed) is shared
// with the in-process backend — test with errors.Is against the kite
// package sentinels.
var (
	// ErrTimeout: no reply within Options.OpTimeout (server down, network
	// partition, or the deployment lost its quorum).
	ErrTimeout = errors.New("kite/client: operation timed out")
	// ErrStopped: the node stopped before completing the op. Identical to
	// the error the in-process API surfaces (kite.ErrStopped).
	ErrStopped = kite.ErrStopped
	// ErrValueTooLong: a value or CAS comparand exceeds MaxValueLen.
	// Identical to kite.ErrValueTooLong.
	ErrValueTooLong = kite.ErrValueTooLong
	// ErrCanceled: the op's context expired. Identical to kite.ErrCanceled.
	ErrCanceled = kite.ErrCanceled
	// ErrSessionClosed: the session handle was closed by this client.
	// Identical to kite.ErrSessionClosed.
	ErrSessionClosed = kite.ErrSessionClosed
	// ErrSessionExpired: the server no longer knows this session (lease
	// expired after client silence, or the server restarted).
	ErrSessionExpired = errors.New("kite/client: session expired on server")
	// ErrSessionBroken: an earlier operation on this session timed out, so
	// a gap may exist in the server's in-order submission stream and no
	// later op of this session can complete. Open a new session.
	ErrSessionBroken = errors.New("kite/client: session broken by a timed-out operation; open a new session")
	// ErrNoCapacity: the node has no free session to lease.
	ErrNoCapacity = errors.New("kite/client: node has no free sessions")
	// ErrClosed: the Client was closed.
	ErrClosed = errors.New("kite/client: client closed")
	// ErrReconfigConflict: a Join/RemoveMember request lost a concurrent
	// reconfiguration (or was otherwise refused); re-read Members and retry
	// if still wanted.
	ErrReconfigConflict = errors.New("kite/client: reconfiguration conflict")
)

// MaxValueLen is the largest value Kite stores.
const MaxValueLen = proto.MaxValueLen

// Result is the outcome of an operation — the same type every backend
// uses.
type Result = kite.Result

// Options configure a Client. Zero values select defaults.
type Options struct {
	// DialTimeout bounds Dial's liveness probe (default 3s).
	DialTimeout time.Duration
	// OpTimeout bounds every operation's retransmission effort (default
	// 10s). It is the hard lifetime of a request on the wire; per-call
	// deadlines shorter than this come from the operation's context.
	OpTimeout time.Duration
	// RetryInterval is the retransmission period (default 50ms).
	RetryInterval time.Duration
	// MaxInflight is the session window, counted from the ack frontier
	// (the oldest unanswered op): an op is sent only when its seq is less
	// than MaxInflight past the frontier, and submissions block until it
	// is. One lost reply therefore holds later submissions until its
	// retransmission is answered. Default 64; values above the wire
	// protocol's window (256) are capped there.
	MaxInflight int
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 10 * time.Second
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = 50 * time.Millisecond
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.MaxInflight > proto.SessionWindow {
		o.MaxInflight = proto.SessionWindow
	}
	return o
}

// batchGroup is the shared retransmission state of the ops of one batch
// frame: the frame is resent once per retry pass, not once per op.
type batchGroup struct {
	frame []byte
	pass  uint64 // last retry pass that resent the frame
}

// ctrlOp is one unacknowledged control request.
type ctrlOp struct {
	frame    []byte
	deadline time.Time
	cb       func(rep *proto.ClientReply, err error)
}

// opSlot is seq q's place in its session's window, ring[q % SessionWindow],
// reused once the ack frontier passes q. Like kite's pooled calls, it
// keeps its frame buffer and owns the channel Do waits on.
type opSlot struct {
	seq      uint64
	pending  bool        // sent, and neither answered nor expired
	frame    []byte      // the op's request frame, unless batch carries it
	batch    *batchGroup // the DoBatch chunk whose frame carries the op
	sending  atomic.Bool // frame's first send is in progress: do not reuse
	ctx      context.Context
	deadline time.Time
	cb       func(Result) // takes the result; nil once the waiter gave up
	own      chan Result  // Do's channel, fed by toOwn; both made once
	toOwn    func(Result)
}

// finish ends a pending slot and takes its callback. Callers hold the
// session's mu, and advance afterwards.
func (sl *opSlot) finish() func(Result) {
	cb := sl.cb
	sl.pending, sl.cb, sl.ctx, sl.batch = false, nil, nil, nil
	return cb
}

// Client is one connection to a node's session server. It is safe for
// concurrent use; sessions opened from it share the socket.
type Client struct {
	opts Options
	conn *net.UDPConn
	// bc batches retry-pass retransmissions into sendmmsg calls on the
	// connected socket (falling back to per-datagram writes where the
	// batch syscalls are unavailable).
	bc *transport.BatchConn

	// sessions routes data replies by session id. NewSession and
	// Session.Close replace the map under mu, so readers need no lock.
	sessions atomic.Pointer[map[uint32]*Session]

	mu      sync.Mutex
	control map[uint64]*ctrlOp // control ops: key seq
	ctrlSeq uint64

	closed atomic.Bool
	wg     sync.WaitGroup

	// Node info learned from the server's ping replies (at Dial, and again
	// whenever a data reply carries ClientFlagReconfigured): the node's
	// replica-group count and index ((1, 0) for unsharded deployments),
	// plus its group's membership epoch and member bitmask. Guarded by mu —
	// pings can now race data traffic.
	groups  int
	group   int
	epoch   uint32
	members uint16
	// repinging collapses concurrent refresh triggers into one ping.
	repinging atomic.Bool
}

// Dial connects to a session server and verifies it is alive with a ping
// round (UDP alone cannot detect a dead peer). It fails with ErrTimeout
// wrapped in a dial error if nothing answers within DialTimeout.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	ra, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("kite/client: resolve %s: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ra)
	if err != nil {
		return nil, fmt.Errorf("kite/client: dial %s: %w", addr, err)
	}
	c := &Client{
		opts:    opts,
		conn:    conn,
		bc:      transport.NewBatchConn(conn, nil),
		control: make(map[uint64]*ctrlOp),
		// Control seqs start at a random point so that a client whose
		// socket reuses a recently freed ephemeral port cannot collide
		// with its predecessor's (addr, seq) entries in the server's
		// open-dedup cache — nor match the predecessor's late replies.
		ctrlSeq: rand.Uint64(),
	}
	c.sessions.Store(&map[uint32]*Session{})
	c.wg.Add(2)
	go c.recvLoop()
	go c.retryLoop()

	if _, _, err := c.controlRound(proto.ClientOpPing, 0, 0, opts.DialTimeout); err != nil {
		c.Close()
		return nil, fmt.Errorf("kite/client: no session server at %s: %w", addr, err)
	}
	return c, nil
}

// ShardInfo reports the dialed node's place in its deployment, as
// advertised in the ping reply: the number of replica groups and this
// node's group index. Unsharded deployments report (1, 0). DialSharded
// uses it to validate a shard map; it is also useful for diagnostics.
func (c *Client) ShardInfo() (groups, group int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups, c.group
}

// Members reports the dialed node's replica-group membership as of the last
// ping: the configuration epoch and the member node ids. The client
// re-pings automatically when a reply signals a reconfiguration
// (ClientFlagReconfigured), so this tracks live AddNode/RemoveNode changes;
// call Refresh to force an update. Servers predating membership report
// (0, nil).
func (c *Client) Members() (epoch uint32, nodes []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range (membership.Config{Members: c.members}).MemberIDs() {
		nodes = append(nodes, int(id))
	}
	return c.epoch, nodes
}

// Refresh re-pings the server synchronously, updating ShardInfo/Members.
func (c *Client) Refresh() error {
	_, _, err := c.controlRound(proto.ClientOpPing, 0, 0, c.opts.OpTimeout)
	return err
}

// refreshAsync re-pings in the background (at most one in flight) — the
// reaction to a reply flagged ClientFlagReconfigured. Runs on the receive
// goroutine, so it must not block.
func (c *Client) refreshAsync() {
	if !c.repinging.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer c.repinging.Store(false)
		c.controlRound(proto.ClientOpPing, 0, 0, c.opts.OpTimeout)
	}()
}

// Join asks the dialed node to add replica id to its group, returning the
// committed membership. The joining replica must afterwards boot with this
// configuration in catch-up mode — this is the control half of
// kite-node -join; the call does not itself start anything.
func (c *Client) Join(id uint8) (epoch uint32, nodes []int, err error) {
	return c.reconfigRound(proto.ClientOpJoin, id)
}

// RemoveMember asks the dialed node to remove replica id from its group,
// returning the committed membership. Must be sent to a surviving member,
// not to the replica being removed.
func (c *Client) RemoveMember(id uint8) (epoch uint32, nodes []int, err error) {
	return c.reconfigRound(proto.ClientOpRemove, id)
}

func (c *Client) reconfigRound(op uint8, id uint8) (epoch uint32, nodes []int, err error) {
	_, val, err := c.controlRound(op, 0, uint64(id), c.opts.OpTimeout)
	if err != nil {
		return 0, nil, err
	}
	cfg, err := membership.Decode(val)
	if err != nil {
		return 0, nil, fmt.Errorf("kite/client: malformed membership reply: %w", err)
	}
	for _, m := range cfg.MemberIDs() {
		nodes = append(nodes, int(m))
	}
	return cfg.Epoch, nodes, nil
}

// Close releases the connection; outstanding and future operations fail
// with ErrClosed. Sessions of this client become unusable (their leases
// expire server-side).
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.conn.Close()
	c.wg.Wait()
	// Fail everything outstanding, waking submitters blocked on a window;
	// a racing submission sees closed under its session's lock.
	c.mu.Lock()
	control := c.control
	c.control = map[uint64]*ctrlOp{}
	c.mu.Unlock()
	for _, s := range *c.sessions.Load() {
		s.failPending(ErrClosed)
	}
	for _, op := range control {
		op.cb(nil, ErrClosed)
	}
	return nil
}

// recvLoop demultiplexes replies: control replies by seq, data replies by
// session and then by their seq's slot.
func (c *Client) recvLoop() {
	defer c.wg.Done()
	buf := make([]byte, 2048)
	var rep proto.ClientReply // reused: handlers copy what they keep
	for {
		n, err := c.conn.Read(buf)
		if err != nil {
			return // closed
		}
		if rep.Unmarshal(buf[:n]) != nil {
			continue
		}
		if rep.Flags&proto.ClientFlagControl != 0 {
			c.mu.Lock()
			op := c.control[rep.Seq]
			delete(c.control, rep.Seq)
			c.mu.Unlock()
			if op != nil {
				op.cb(&rep, statusErr(rep.Status))
			}
		} else if s := (*c.sessions.Load())[rep.Sess]; s != nil {
			s.complete(&rep)
		}
	}
}

// statusErr maps a wire status to a client error (nil for ClientOK).
func statusErr(status uint8) error {
	switch status {
	case proto.ClientOK:
		return nil
	case proto.ClientErrStopped:
		return ErrStopped
	case proto.ClientErrNoSession:
		return ErrSessionExpired
	case proto.ClientErrNoCapacity:
		return ErrNoCapacity
	case proto.ClientErrConflict:
		return ErrReconfigConflict
	case proto.ClientErrReservedKey:
		return kite.ErrReservedKey
	default:
		return fmt.Errorf("kite/client: server error %d", status)
	}
}

// retryLoop retransmits unacknowledged requests, expires ops past their
// deadline, and sweeps context-canceled ops — the reliability layer over
// the lossy datagram link, and the place per-op cancellation is observed
// for waiters that are not blocked in Do.
func (c *Client) retryLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.RetryInterval)
	defer tick.Stop()
	// Frames are copied under the locks (slots reuse their buffers) and
	// flushed in batched syscalls after; the server dedups any duplicate.
	var (
		bufs  [][]byte
		dgs   []transport.Datagram
		fails []func()
		pass  uint64 // batch frames are resent once per pass
	)
	stage := func(frame []byte) {
		if len(dgs) == len(bufs) {
			bufs = append(bufs, nil)
		}
		bufs[len(dgs)] = append(bufs[len(dgs)][:0], frame...)
		dgs = append(dgs, transport.Datagram{Buf: bufs[len(dgs)]})
	}
	for range tick.C {
		if c.closed.Load() {
			return
		}
		now := time.Now()
		dgs, fails = dgs[:0], fails[:0]
		pass++
		c.mu.Lock()
		for k, op := range c.control {
			if now.After(op.deadline) {
				delete(c.control, k)
				fails = append(fails, func() { op.cb(nil, ErrTimeout) })
				continue
			}
			stage(op.frame)
		}
		c.mu.Unlock()
		for _, s := range *c.sessions.Load() {
			s.mu.Lock()
			for q := s.frontier + 1; q <= s.seq; q++ {
				sl := &s.ring[q%proto.SessionWindow]
				if !sl.pending {
					continue
				}
				if now.After(sl.deadline) {
					// The server will never see this seq again, so its
					// in-order gate would hold back every later op: the
					// session is unusable from here on.
					s.broken.Store(true)
					if cb := sl.finish(); cb != nil {
						fails = append(fails, func() { cb(Result{Err: ErrTimeout}) })
					}
					continue
				}
				if sl.ctx != nil && sl.ctx.Err() != nil && sl.cb != nil {
					// Context expired: release the waiter now, but keep the
					// op on the wire until it is acknowledged — its seq must
					// reach the server or the session breaks.
					cb, err := sl.cb, kite.CanceledErr(sl.ctx.Err())
					sl.cb = nil
					fails = append(fails, func() { cb(Result{Err: err}) })
				}
				if b := sl.batch; b == nil {
					stage(sl.frame)
				} else if b.pass != pass {
					b.pass = pass
					stage(b.frame)
				}
			}
			s.advance()
			s.mu.Unlock()
		}
		if len(dgs) > 0 {
			c.bc.WriteBatch(dgs) // nil Dest: the connected peer
		}
		for _, fail := range fails {
			fail()
		}
	}
}

// controlRound runs one synchronous control op (ping/open/close and the
// membership ops, which carry a node id in key). It returns the reply's
// session id and a copy of its value.
func (c *Client) controlRound(opCode uint8, sess uint32, key uint64, timeout time.Duration) (uint32, []byte, error) {
	type ctrlRes struct {
		sess uint32
		val  []byte
		err  error
	}
	done := make(chan ctrlRes, 1)
	op := &ctrlOp{
		deadline: time.Now().Add(timeout),
		cb: func(rep *proto.ClientReply, err error) {
			var id uint32
			var val []byte
			if rep != nil {
				id = rep.Sess
				// rep.Value aliases the receive buffer; copy/decode before
				// handing the round back.
				val = append([]byte(nil), rep.Value...)
				if opCode == proto.ClientOpPing && err == nil {
					groups, group, epoch, members := proto.ParseNodeInfo(rep.Value)
					c.mu.Lock()
					c.groups, c.group = groups, group
					// Epoch-monotone install: a reordered or late reply
					// from an earlier ping must not regress the membership
					// view to a configuration the group already left.
					if members != 0 && (c.members == 0 || epoch > c.epoch) {
						c.epoch, c.members = epoch, members
					}
					c.mu.Unlock()
				}
			}
			done <- ctrlRes{sess: id, val: val, err: err}
		},
	}
	// Registered under the lock Close takes the control map under: the op
	// is either failed by Close or never registered.
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return 0, nil, ErrClosed
	}
	c.ctrlSeq++
	req := proto.ClientRequest{Op: opCode, Sess: sess, Seq: c.ctrlSeq, Key: key}
	op.frame, _ = req.AppendMarshal(nil) // cannot fail: no payload
	c.control[req.Seq] = op
	c.mu.Unlock()
	c.conn.Write(op.frame)
	r := <-done
	return r.sess, r.val, r.err
}

// NewSession leases a session on the server's node. Sessions are a finite
// node resource; Close them when done (crashed clients are reclaimed by the
// server's lease timeout). The returned session implements kite.Session.
func (c *Client) NewSession() (*Session, error) {
	id, _, err := c.controlRound(proto.ClientOpOpen, 0, 0, c.opts.OpTimeout)
	if err != nil {
		return nil, err
	}
	s := &Session{c: c, id: id, window: make(chan struct{}, c.opts.MaxInflight)}
	// Slot frame buffers come from one array: submissions never grow one.
	frames := make([]byte, proto.SessionWindow*proto.MaxRequestLen)
	for i := range s.ring {
		s.ring[i].frame = frames[i*proto.MaxRequestLen : i*proto.MaxRequestLen : (i+1)*proto.MaxRequestLen]
	}
	s.Ops = kite.Ops{Doer: s}
	c.editSessions(func(m map[uint32]*Session) { m[id] = s })
	return s, nil
}

// editSessions installs an edited copy of the session table.
func (c *Client) editSessions(edit func(map[uint32]*Session)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[uint32]*Session)
	for id, s := range *c.sessions.Load() {
		m[id] = s
	}
	edit(m)
	c.sessions.Store(&m)
}

// Session is an external client's ordered stream of operations, backed by
// one worker-owned session on the server's node. It implements
// kite.Session. Synchronous methods must not be interleaved from multiple
// goroutines; asynchronous submissions are serialised internally and
// complete in submission order server-side.
type Session struct {
	kite.Ops
	c  *Client
	id uint32

	mu  sync.Mutex
	seq uint64 // last assigned data seq
	// frontier, the ring's tail, is the ack frontier: every seq up to it
	// is answered or expired. Frames carry frontier+1 as their Acked.
	frontier uint64
	ring     [proto.SessionWindow]opSlot
	window   chan struct{} // a token per seq in (frontier, seq]; cap MaxInflight

	closed atomic.Bool
	// broken is set when a data op times out: its seq will never reach
	// the server, so the server-side in-order gate blocks all later seqs.
	broken atomic.Bool
}

// ID reports the server-assigned session id (diagnostics).
func (s *Session) ID() uint32 { return s.id }

// Close releases the session lease (best effort — a lost datagram just
// means the lease expires on its own). Operations after Close fail with
// kite.ErrSessionClosed; those still unanswered fail with
// ErrSessionExpired, as they would once the server dropped the lease.
func (s *Session) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	_, _, err := s.c.controlRound(proto.ClientOpClose, s.id, 0, s.c.opts.RetryInterval*4)
	if errors.Is(err, ErrTimeout) {
		err = nil
	}
	s.c.editSessions(func(m map[uint32]*Session) { delete(m, s.id) })
	s.failPending(ErrSessionExpired)
	return err
}

// advance moves the ack frontier past the finished slots at its head,
// returning their window tokens. Callers hold mu.
func (s *Session) advance() {
	for s.frontier < s.seq && !s.ring[(s.frontier+1)%proto.SessionWindow].pending {
		s.frontier++
		select {
		case <-s.window:
		default:
		}
	}
}

// complete hands a data reply to its slot; a reply whose slot holds
// another seq or is no longer pending is stale, and dropped. It runs on
// the receive goroutine: callbacks must not block.
func (s *Session) complete(rep *proto.ClientReply) {
	s.mu.Lock()
	sl := &s.ring[rep.Seq%proto.SessionWindow]
	if sl.seq != rep.Seq || !sl.pending {
		s.mu.Unlock()
		return
	}
	cb := sl.finish()
	s.advance()
	s.mu.Unlock()
	if rep.Flags&proto.ClientFlagReconfigured != 0 {
		// The node's group reconfigured since this session last heard:
		// refresh the membership view in the background.
		s.c.refreshAsync()
	}
	if cb == nil {
		return
	}
	err := statusErr(rep.Status)
	res := Result{Swapped: rep.Flags&proto.ClientFlagSwapped != 0, Err: err}
	if err == nil && len(rep.Value) > 0 {
		res.Value = append([]byte(nil), rep.Value...)
	}
	cb(res)
}

// failPending fails every unanswered op of the session with err.
func (s *Session) failPending(err error) {
	var cbs []func(Result)
	s.mu.Lock()
	for q := s.frontier + 1; q <= s.seq; q++ {
		if sl := &s.ring[q%proto.SessionWindow]; sl.pending {
			cbs = append(cbs, sl.finish())
		}
	}
	s.advance()
	s.mu.Unlock()
	for _, cb := range cbs {
		if cb != nil {
			cb(Result{Err: err})
		}
	}
}

// detach drops seq's waiter (its context expired). The op keeps
// retransmitting until acknowledged or expired so the server's in-order
// stream sees its seq — detaching never breaks the session. It reports
// false when the result was already taken for delivery.
func (s *Session) detach(seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := &s.ring[seq%proto.SessionWindow]
	if sl.seq != seq || !sl.pending || sl.cb == nil {
		return false
	}
	sl.cb = nil
	return true
}

// submitErr reports the session-state error that should fail a submission
// before it consumes a seq, or nil.
func (s *Session) submitErr() error {
	switch {
	case s.closed.Load():
		return ErrSessionClosed
	case s.c.closed.Load():
		return ErrClosed
	case s.broken.Load():
		return ErrSessionBroken
	default:
		return nil
	}
}

// reserve takes n window tokens, then mu; on ctx expiry or a session that
// can no longer submit (checked under mu, which Close fails slots under)
// it gives the tokens back.
func (s *Session) reserve(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		select {
		case s.window <- struct{}{}:
		case <-ctx.Done():
			s.unreserve(i)
			return kite.CanceledErr(ctx.Err())
		}
	}
	s.mu.Lock()
	if err := s.submitErr(); err != nil {
		s.mu.Unlock()
		s.unreserve(n)
		return err
	}
	return nil
}

func (s *Session) unreserve(n int) {
	for i := 0; i < n; i++ {
		<-s.window
	}
}

// claim assigns the next seq and loads its slot; the caller holds mu and
// the seq's window token, and sets the slot's frame or batch.
func (s *Session) claim(ctx context.Context, cb func(Result)) *opSlot {
	s.seq++
	sl := &s.ring[s.seq%proto.SessionWindow]
	for sl.sending.Load() {
		runtime.Gosched() // the previous op's first send is still in progress
	}
	sl.seq, sl.pending, sl.batch = s.seq, true, nil
	sl.ctx, sl.deadline, sl.cb = ctx, time.Now().Add(s.c.opts.OpTimeout), cb
	return sl
}

// submit sends op once under the next seq (retryLoop takes over), blocking
// while the window is full. The result goes to cb or, with own, to the
// slot's channel, returned with the seq. An error return delivers nothing.
func (s *Session) submit(ctx context.Context, op kite.Op, cb func(Result), own bool) (<-chan Result, uint64, error) {
	if err := s.submitErr(); err != nil {
		return nil, 0, err
	}
	// Before a seq is consumed: one never sent would wedge the server.
	if err := kite.ValidateOp(op); err != nil {
		return nil, 0, err
	}
	if err := s.reserve(ctx, 1); err != nil {
		return nil, 0, err
	}
	sl := s.claim(ctx, cb)
	if own {
		if sl.own == nil {
			sl.own = make(chan Result, 1)
			sl.toOwn = func(r Result) { sl.own <- r }
		}
		sl.cb = sl.toOwn
	}
	seq, done := sl.seq, sl.own
	req := proto.ClientRequest{
		Op: uint8(op.Code), Sess: s.id, Seq: seq, Acked: s.frontier + 1,
		Key: op.Key, Delta: op.Delta, Expected: op.Expected, Value: op.Value,
	}
	frame, _ := req.AppendMarshal(sl.frame[:0]) // cannot fail: payload sizes checked above
	sl.frame = frame
	sl.sending.Store(true)
	s.mu.Unlock()
	s.c.conn.Write(frame)
	sl.sending.Store(false)
	return done, seq, nil
}

// Do executes op and blocks until it completes or ctx is done. On context
// expiry Do returns an error matching kite.ErrCanceled and the context
// cause; the request itself stays on the wire until acknowledged or until
// OpTimeout, so the session survives cancellation.
func (s *Session) Do(ctx context.Context, op kite.Op) (Result, error) {
	done, seq, err := s.submit(ctx, op, nil, true)
	if err != nil {
		return Result{Err: err}, err
	}
	select {
	case r := <-done:
		return r, r.Err
	case <-ctx.Done():
		if !s.detach(seq) {
			// The result is on its way: take it, which also leaves the
			// slot's channel empty for its next op.
			r := <-done
			return r, r.Err
		}
		err := kite.CanceledErr(ctx.Err())
		return Result{Err: err}, err
	}
}

// DoAsync submits op and returns; cb (optional) receives the result on the
// client's receive goroutine and must not block. The op's slices are
// encoded into the wire frame before DoAsync returns, so the caller may
// reuse them immediately.
func (s *Session) DoAsync(op kite.Op, cb func(Result)) {
	if _, _, err := s.submit(context.Background(), op, cb, false); err != nil && cb != nil {
		cb(Result{Err: err})
	}
}

// DoBatch pipelines ops to the server in as few datagrams as possible
// (many ops per frame, consecutive seqs) and waits for all results —
// one round trip for a batch of relaxed accesses instead of one per op.
// Results are index-aligned with ops; the batch occupies consecutive
// positions in session order. If any op's payload is oversized the whole
// batch is rejected up front with ErrValueTooLong and no op executes.
func (s *Session) DoBatch(ctx context.Context, ops []kite.Op) ([]Result, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	// Validate everything before consuming any seq: batches are all-or-
	// nothing at the submission boundary.
	for _, op := range ops {
		if err := kite.ValidateOp(op); err != nil {
			return nil, err
		}
	}
	type idxRes struct {
		i int
		r Result
	}
	done := make(chan idxRes, len(ops))
	results := make([]Result, len(ops))
	seqs := make([]uint64, 0, len(ops)) // seqs[i] is op i's

	chunkMax := min(proto.MaxBatchOps, s.c.opts.MaxInflight)
	for base := 0; base < len(ops); {
		n, err := s.submitChunk(ctx, ops, base, chunkMax, &seqs, func(i int, r Result) {
			done <- idxRes{i: i, r: r}
		})
		base += n
		if err != nil {
			// Ops never submitted fail with the submission error; the
			// already-submitted prefix is collected below.
			for i := base; i < len(ops); i++ {
				results[i] = Result{Err: err}
			}
			break
		}
	}

	// On ctx expiry the ops stay on the wire (see Do); results already on
	// their way are still taken.
	var cerr error
	canceled := ctx.Done()
	for left := len(seqs); left > 0; {
		select {
		case x := <-done:
			results[x.i] = x.r
			left--
		case <-canceled:
			canceled, cerr = nil, kite.CanceledErr(ctx.Err())
			for i, seq := range seqs {
				if s.detach(seq) {
					results[i] = Result{Err: cerr}
					left--
				}
			}
		}
	}
	if cerr != nil {
		return results, cerr
	}
	for _, r := range results {
		if r.Err != nil {
			return results, r.Err
		}
	}
	return results, nil
}

// submitChunk packs ops[base:] into one batch frame — bounded by chunkMax
// ops, the frame-size budget, and the window — assigns their seqs
// (appended to seqs) and sends the frame once; the chunk's ops share it
// for retransmission. It returns how many ops it submitted; cb receives
// (absolute index, result) per op.
func (s *Session) submitChunk(ctx context.Context, ops []kite.Op, base, chunkMax int, seqs *[]uint64, cb func(int, Result)) (int, error) {
	if err := s.submitErr(); err != nil {
		return 0, err
	}
	// Pack by count and frame budget.
	n, size := 0, proto.BatchOverhead
	for base+n < len(ops) && n < chunkMax {
		opLen := proto.BatchOp{Expected: ops[base+n].Expected, Value: ops[base+n].Value}.WireLen()
		if n > 0 && size+opLen > proto.MaxClientFrameLen {
			break
		}
		size += opLen
		n++
	}
	b := proto.ClientBatch{Sess: s.id, Ops: make([]proto.BatchOp, n)}
	for i := 0; i < n; i++ {
		op := ops[base+i]
		b.Ops[i] = proto.BatchOp{
			Code: uint8(op.Code), Key: op.Key, Delta: op.Delta,
			Expected: op.Expected, Value: op.Value,
		}
	}
	if err := s.reserve(ctx, n); err != nil {
		return 0, err
	}
	b.Seq, b.Acked = s.seq+1, s.frontier+1
	frame, _ := b.AppendMarshal(nil) // cannot fail: ops validated by DoBatch
	group := &batchGroup{frame: frame}
	for i := 0; i < n; i++ {
		idx := base + i
		sl := s.claim(ctx, func(r Result) { cb(idx, r) })
		sl.batch = group
		*seqs = append(*seqs, sl.seq)
	}
	s.mu.Unlock()
	s.c.conn.Write(frame)
	return n, nil
}

// EncodeUint64 encodes a counter value in Kite's FAA/CAS convention
// (8-byte little-endian).
func EncodeUint64(x uint64) []byte { return core.EncodeUint64(x) }

// DecodeUint64 decodes a counter value; short or absent values read as zero.
func DecodeUint64(v []byte) uint64 { return core.DecodeUint64(v) }
