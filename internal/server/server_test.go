package server

import (
	"net"
	"testing"
	"time"

	"kite/internal/core"
	"kite/internal/proto"
	"kite/internal/transport"
)

// startNode runs a single-replica deployment (quorum 1: every op completes
// against the local store) with a session server, returning both plus a
// cleanup.
func startNode(t *testing.T, cfg Config) (*core.Node, *Server) {
	t.Helper()
	tr := transport.NewInProc(1, 1, 0)
	nd, err := core.NewNode(0, core.Config{
		Nodes: 1, Workers: 1, SessionsPerWorker: 4, KVSCapacity: 1 << 10,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := New(nd, cfg)
	if err != nil {
		nd.Stop()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		nd.Stop()
		tr.Close()
	})
	return nd, srv
}

// rawClient is a frame-level test client: no retries, no demux — it sends
// exactly the datagrams the test specifies and reads raw replies.
type rawClient struct {
	t       *testing.T
	conn    *net.UDPConn
	ctrlSeq uint64
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	ra, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, ra)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn}
}

func (rc *rawClient) send(req proto.ClientRequest) {
	rc.t.Helper()
	frame, err := req.AppendMarshal(nil)
	if err != nil {
		rc.t.Fatal(err)
	}
	if _, err := rc.conn.Write(frame); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawClient) recv() proto.ClientReply {
	rc.t.Helper()
	buf := make([]byte, 2048)
	rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := rc.conn.Read(buf)
	if err != nil {
		rc.t.Fatalf("no reply: %v", err)
	}
	var rep proto.ClientReply
	if err := rep.Unmarshal(buf[:n]); err != nil {
		rc.t.Fatal(err)
	}
	rep.Value = append([]byte(nil), rep.Value...)
	return rep
}

// open leases a session. Each open uses a fresh control seq — the server
// dedupes retransmitted opens by (addr, seq).
func (rc *rawClient) open() uint32 {
	rc.t.Helper()
	rc.ctrlSeq++
	rc.send(proto.ClientRequest{Op: proto.ClientOpOpen, Seq: rc.ctrlSeq})
	rep := rc.recv()
	if rep.Status != proto.ClientOK || rep.Sess == 0 {
		rc.t.Fatalf("open: %+v", rep)
	}
	return rep.Sess
}

func TestServerPingOpenRoundTrip(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())

	rc.send(proto.ClientRequest{Op: proto.ClientOpPing, Seq: 7})
	rep := rc.recv()
	if rep.Status != proto.ClientOK || rep.Seq != 7 || rep.Flags&proto.ClientFlagControl == 0 {
		t.Fatalf("ping reply: %+v", rep)
	}

	sess := rc.open()
	// Write then read back through the leased session.
	rc.send(proto.ClientRequest{Op: proto.ClientOpWrite, Sess: sess, Seq: 1, Key: 5, Value: []byte("v")})
	if rep := rc.recv(); rep.Status != proto.ClientOK || rep.Seq != 1 {
		t.Fatalf("write reply: %+v", rep)
	}
	rc.send(proto.ClientRequest{Op: proto.ClientOpRead, Sess: sess, Seq: 2, Key: 5})
	if rep := rc.recv(); rep.Status != proto.ClientOK || string(rep.Value) != "v" {
		t.Fatalf("read reply: %+v", rep)
	}
}

func TestServerDedupesRetransmits(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	// The same FAA sent three times must execute once: every reply reports
	// the same old value, and the counter advances by one delta only.
	for i := 0; i < 3; i++ {
		rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: 1, Key: 9, Delta: 10})
		rep := rc.recv()
		if rep.Status != proto.ClientOK || core.DecodeUint64(rep.Value) != 0 {
			t.Fatalf("faa retransmit %d: %+v", i, rep)
		}
	}
	if got := srv.Stats().Retransmits.Load(); got != 2 {
		t.Fatalf("Retransmits = %d, want 2", got)
	}
	rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: 2, Key: 9, Delta: 0})
	if rep := rc.recv(); core.DecodeUint64(rep.Value) != 10 {
		t.Fatalf("counter advanced more than once: %d", core.DecodeUint64(rep.Value))
	}
}

func TestServerReordersToSequence(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	// Seq 2 arrives before seq 1: the server must hold it and execute
	// 1 then 2 — the FAA old values prove the order.
	rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: 2, Key: 3, Delta: 100})
	time.Sleep(50 * time.Millisecond) // let it land (and be held)
	rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: 1, Key: 3, Delta: 1})

	got := map[uint64]uint64{} // seq -> old value
	for i := 0; i < 2; i++ {
		rep := rc.recv()
		if rep.Status != proto.ClientOK {
			t.Fatalf("reply: %+v", rep)
		}
		got[rep.Seq] = core.DecodeUint64(rep.Value)
	}
	if got[1] != 0 || got[2] != 1 {
		t.Fatalf("execution order wrong: olds=%v (want seq1->0, seq2->1)", got)
	}
	if srv.Stats().Held.Load() == 0 {
		t.Fatal("reordered request was not held")
	}
}

// sendBatch marshals and sends one batch frame — several data ops in a
// single datagram.
func (rc *rawClient) sendBatch(b proto.ClientBatch) {
	rc.t.Helper()
	frame, err := b.AppendMarshal(nil)
	if err != nil {
		rc.t.Fatal(err)
	}
	if _, err := rc.conn.Write(frame); err != nil {
		rc.t.Fatal(err)
	}
}

func TestServerBatchSingleDatagram(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	// Three ops pipelined in ONE datagram: two writes and an FAA whose old
	// value proves it executed after them in session order.
	rc.sendBatch(proto.ClientBatch{
		Sess: sess, Seq: 1,
		Ops: []proto.BatchOp{
			{Code: proto.ClientOpFAA, Key: 7, Delta: 3},
			{Code: proto.ClientOpWrite, Key: 8, Value: []byte("v8")},
			{Code: proto.ClientOpFAA, Key: 7, Delta: 10},
		},
	})
	olds := map[uint64]uint64{}
	for i := 0; i < 3; i++ {
		rep := rc.recv()
		if rep.Status != proto.ClientOK {
			t.Fatalf("batched op reply: %+v", rep)
		}
		if rep.Seq == 1 || rep.Seq == 3 {
			olds[rep.Seq] = core.DecodeUint64(rep.Value)
		}
	}
	// In-order execution inside the batch: the first FAA saw 0, the second
	// saw the first's delta.
	if olds[1] != 0 || olds[3] != 3 {
		t.Fatalf("batch executed out of order: olds=%v", olds)
	}
	if got := srv.Stats().BatchedOps.Load(); got != 3 {
		t.Fatalf("BatchedOps = %d, want 3 (>= 2 ops in a single datagram)", got)
	}
	// The read-back proves the write landed too.
	rc.send(proto.ClientRequest{Op: proto.ClientOpRead, Sess: sess, Seq: 4, Key: 8})
	if rep := rc.recv(); string(rep.Value) != "v8" {
		t.Fatalf("batched write lost: %+v", rep)
	}
}

func TestServerBatchRetransmitDedupes(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	b := proto.ClientBatch{
		Sess: sess, Seq: 1,
		Ops: []proto.BatchOp{
			{Code: proto.ClientOpFAA, Key: 5, Delta: 1},
			{Code: proto.ClientOpFAA, Key: 5, Delta: 1},
		},
	}
	// Original plus two retransmissions; each waits for its replies so the
	// retransmits hit their done slots rather than the still-inflight
	// ignore path. Every reply must answer from the same exactly-once
	// execution: seq 1 -> old 0, seq 2 -> old 1.
	for i := 0; i < 3; i++ {
		rc.sendBatch(b)
		for j := 0; j < 2; j++ {
			rep := rc.recv()
			old := core.DecodeUint64(rep.Value)
			if (rep.Seq == 1 && old != 0) || (rep.Seq == 2 && old != 1) {
				t.Fatalf("retransmitted batch re-executed: seq %d old %d", rep.Seq, old)
			}
		}
	}
	if srv.Stats().Retransmits.Load() != 4 {
		t.Fatalf("Retransmits = %d, want 4", srv.Stats().Retransmits.Load())
	}
	rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: 3, Key: 5, Delta: 0})
	if rep := rc.recv(); core.DecodeUint64(rep.Value) != 2 {
		t.Fatalf("counter = %d after retransmitted batch, want 2", core.DecodeUint64(rep.Value))
	}
}

func TestServerBatchReorderedToSequence(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	// The batch with seqs 2-3 arrives before seq 1: its ops must be held
	// and execute after seq 1, proven by FAA old values.
	rc.sendBatch(proto.ClientBatch{
		Sess: sess, Seq: 2,
		Ops: []proto.BatchOp{
			{Code: proto.ClientOpFAA, Key: 9, Delta: 10},
			{Code: proto.ClientOpFAA, Key: 9, Delta: 100},
		},
	})
	time.Sleep(50 * time.Millisecond)
	rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: 1, Key: 9, Delta: 1})

	got := map[uint64]uint64{}
	for i := 0; i < 3; i++ {
		rep := rc.recv()
		got[rep.Seq] = core.DecodeUint64(rep.Value)
	}
	if got[1] != 0 || got[2] != 1 || got[3] != 11 {
		t.Fatalf("execution order wrong: olds=%v (want 1->0, 2->1, 3->11)", got)
	}
	if srv.Stats().Held.Load() == 0 {
		t.Fatal("reordered batch ops were not held")
	}
}

func TestServerSessionErrors(t *testing.T) {
	_, srv := startNode(t, Config{MaxSessions: 2})
	rc := dialRaw(t, srv.Addr())

	// Unknown session.
	rc.send(proto.ClientRequest{Op: proto.ClientOpRead, Sess: 999, Seq: 1, Key: 1})
	if rep := rc.recv(); rep.Status != proto.ClientErrNoSession {
		t.Fatalf("unknown session: %+v", rep)
	}

	// Capacity: two leases succeed, the third is refused, close frees one.
	s1 := rc.open()
	s2 := rc.open()
	rc.send(proto.ClientRequest{Op: proto.ClientOpOpen, Seq: 100})
	if rep := rc.recv(); rep.Status != proto.ClientErrNoCapacity {
		t.Fatalf("over-capacity open: %+v", rep)
	}
	// A retransmitted open must not lease again: same (addr, seq) answers
	// from the open cache with the same id.
	rc.send(proto.ClientRequest{Op: proto.ClientOpOpen, Seq: rc.ctrlSeq})
	if rep := rc.recv(); rep.Status != proto.ClientOK || rep.Sess != s2 {
		t.Fatalf("retransmitted open: %+v, want sess %d", rep, s2)
	}
	rc.send(proto.ClientRequest{Op: proto.ClientOpClose, Sess: s1, Seq: 101})
	if rep := rc.recv(); rep.Status != proto.ClientOK {
		t.Fatalf("close: %+v", rep)
	}
	s3 := rc.open()
	if s3 == s1 {
		t.Fatal("session id reused")
	}
	// The closed lease is gone.
	rc.send(proto.ClientRequest{Op: proto.ClientOpRead, Sess: s1, Seq: 1, Key: 1})
	if rep := rc.recv(); rep.Status != proto.ClientErrNoSession {
		t.Fatalf("closed session still live: %+v", rep)
	}
}

func TestServerLeaseExpiry(t *testing.T) {
	_, srv := startNode(t, Config{LeaseTimeout: 100 * time.Millisecond})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Expired.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
	rc.send(proto.ClientRequest{Op: proto.ClientOpRead, Sess: sess, Seq: 1, Key: 1})
	if rep := rc.recv(); rep.Status != proto.ClientErrNoSession {
		t.Fatalf("expired session still live: %+v", rep)
	}
}

func TestServerStoppedNode(t *testing.T) {
	nd, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()
	nd.Stop()

	rc.send(proto.ClientRequest{Op: proto.ClientOpWrite, Sess: sess, Seq: 1, Key: 1, Value: []byte("x")})
	if rep := rc.recv(); rep.Status != proto.ClientErrStopped {
		t.Fatalf("op on stopped node: %+v", rep)
	}
}

func TestServerAckPrunesCache(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	rc.send(proto.ClientRequest{Op: proto.ClientOpWrite, Sess: sess, Seq: 1, Key: 1, Value: []byte("a")})
	rc.recv()
	// Acked=2 tells the server seq 1's reply arrived; its slot is free
	// from then on, so a (buggy, never happens with the real client)
	// retransmit of seq 1 is silently ignored rather than re-executed or
	// answered.
	rc.send(proto.ClientRequest{Op: proto.ClientOpWrite, Sess: sess, Seq: 2, Acked: 2, Key: 1, Value: []byte("b")})
	rc.recv()

	rc.send(proto.ClientRequest{Op: proto.ClientOpWrite, Sess: sess, Seq: 1, Key: 1, Value: []byte("a")})
	rc.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 256)
	if n, _ := rc.conn.Read(buf); n > 0 {
		t.Fatal("stale acked retransmit was answered")
	}
}

// TestServerWindowDropsBeyondAcked: a data frame at Acked+SessionWindow
// would share a slot with a seq the client has not acknowledged, so it is
// dropped and counted, with no reply. Once Acked advances, the same frame
// is inside the window and executes exactly once.
func TestServerWindowDropsBeyondAcked(t *testing.T) {
	_, srv := startNode(t, Config{})
	rc := dialRaw(t, srv.Addr())
	sess := rc.open()

	// Fill the window: seqs 1..SessionWindow, none acknowledged.
	for seq := uint64(1); seq <= proto.SessionWindow; seq += proto.MaxBatchOps {
		b := proto.ClientBatch{Sess: sess, Seq: seq, Acked: 1}
		for i := 0; i < proto.MaxBatchOps; i++ {
			b.Ops = append(b.Ops, proto.BatchOp{Code: proto.ClientOpWrite, Key: 1, Value: []byte("w")})
		}
		rc.sendBatch(b)
		for i := 0; i < proto.MaxBatchOps; i++ {
			if rep := rc.recv(); rep.Status != proto.ClientOK {
				t.Fatalf("write reply: %+v", rep)
			}
		}
	}

	beyond := uint64(1 + proto.SessionWindow)
	faa := proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: beyond, Acked: 1, Key: 9, Delta: 5}
	rc.send(faa)
	rc.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 256)
	if n, _ := rc.conn.Read(buf); n > 0 {
		t.Fatal("frame beyond the window was answered")
	}
	if got := srv.Stats().WindowDrops.Load(); got != 1 {
		t.Fatalf("WindowDrops = %d, want 1", got)
	}

	// Acked=2: seq 1's reply arrived, its slot is free for seq 257.
	faa.Acked = 2
	for i := 0; i < 2; i++ { // the second send is a retransmission
		rc.send(faa)
		rep := rc.recv()
		if rep.Status != proto.ClientOK || rep.Seq != beyond || core.DecodeUint64(rep.Value) != 0 {
			t.Fatalf("faa in window, send %d: %+v", i, rep)
		}
	}
	rc.send(proto.ClientRequest{Op: proto.ClientOpFAA, Sess: sess, Seq: beyond + 1, Acked: 3, Key: 9})
	if rep := rc.recv(); core.DecodeUint64(rep.Value) != 5 {
		t.Fatalf("counter = %d, want 5 (executed once)", core.DecodeUint64(rep.Value))
	}
	if got := srv.Stats().WindowDrops.Load(); got != 1 {
		t.Fatalf("WindowDrops = %d after the window advanced, want 1", got)
	}
}
