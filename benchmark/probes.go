package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"kite"
	"kite/benchmark/gen"
	"kite/client"
	"kite/internal/abd"
	"kite/internal/barrier"
	"kite/internal/es"
	"kite/internal/kvs"
	"kite/internal/llc"
	"kite/internal/paxos"
	"kite/internal/proto"
	"kite/internal/shard"
	"kite/internal/transport"
	"kite/internal/wal"
)

// Layer probes: tight single-goroutine loops timing calls into each layer's
// exported functions on the workload's own key stream, with nothing else
// running. They price a layer's work in isolation, which the end-to-end
// numbers cannot: a change that halves kvs.view_ns names the layer it
// touched whether or not the saving is visible through the whole stack.

type prober struct {
	w       *workload
	seed    uint64
	scratch string
	now     func() int64
	out     metricSet
	traced  bool

	keys []uint64 // value keys of the workload's stream, in stream order
	ops  []gen.Op
	val  []byte
	seq  uint64 // strictly increasing across every call of every loop

	spans  []span
	selfNs map[string]int64
	track  int
}

const (
	probeReps   = 5
	probeTarget = 3 * time.Millisecond // aimed length of one repetition
)

// loop times fn: a short calibration sizes a repetition to about
// probeTarget, then the median over probeReps repetitions of the time per
// call is returned. fn receives a number that never repeats. When tracing,
// one call in 64 is timed on its own and kept as a span.
func (p *prober) loop(name string, fn func(i uint64)) float64 { return p.loopN(name, 1<<17, fn) }

// loopN is loop with a cap on the calls per repetition, for calls that cost
// milliseconds (an fsync).
func (p *prober) loopN(name string, limit int, fn func(i uint64)) float64 {
	t0 := p.now()
	calib := min(128, limit)
	for i := 0; i < calib; i++ {
		p.seq++
		fn(p.seq)
	}
	per := float64(p.now()-t0) / float64(calib)
	n := int(float64(probeTarget) / max(per, 1))
	n = min(max(n, 64), limit)
	layer := name
	for i := range name {
		if name[i] == '.' {
			layer = name[:i]
			break
		}
	}
	p.track++
	begin := p.now()
	times := make([]float64, probeReps)
	for r := range times {
		start := p.now()
		for i := 0; i < n; i++ {
			p.seq++
			if p.traced && i%traceSampling == 0 {
				s := p.now()
				fn(p.seq)
				p.spans = append(p.spans, span{Name: name, Layer: layer, ID: int64(p.seq), Track: 100 + p.track, Start: s, End: p.now(), Parent: "probe " + name})
				continue
			}
			fn(p.seq)
		}
		times[r] = float64(p.now()-start) / float64(n)
	}
	end := p.now()
	if p.traced {
		p.spans = append(p.spans, span{Name: "probe " + name, Layer: "probe", ID: int64(p.seq), Track: 100 + p.track, Start: begin, End: end})
	}
	p.selfNs[layer] += end - begin
	return median(times)
}

func (p *prober) key(i uint64) uint64 { return p.keys[i%uint64(len(p.keys))] }

func (p *prober) runAll() error {
	p.selfNs = map[string]int64{}
	p.ops = gen.Stream(p.w.Spec, p.seed, 0, 1<<15)
	for _, o := range p.ops {
		if o.Code != kite.OpFAA {
			p.keys = append(p.keys, o.Key)
		}
	}
	p.val = make([]byte, valueLen)
	for i := range p.val {
		p.val[i] = byte(i)
	}
	p.storeProbes()
	p.protoProbes()
	p.out.layer("transport.inproc_hop_ns_per_msg", p.inprocHop())
	for _, step := range []func() error{p.udpHop, p.walProbes, p.shardPump, p.singleNode, p.singleNodeRemote, p.rejoinAndAdd} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// filledStore holds every probe key, written once and validated, the state
// a replica's store is in after the workload's prefill.
func (p *prober) filledStore() *kvs.Store {
	s := kvs.New(1 << 17)
	for _, k := range p.keys {
		s.Validate(k, s.LocalWrite(k, p.val, 0))
	}
	return s
}

// storeProbes covers kvs and the protocol layers that are functions over a
// store: es, abd, paxos, barrier.
func (p *prober) storeProbes() {
	buf := make([]byte, kvs.MaxValueLen)
	st := p.filledStore()
	// Stamps rise with the call number (and sit far above anything a
	// LocalWrite produced), so every remote-style install really applies.
	stamp := func(i uint64) llc.Stamp { return llc.Stamp{Ver: 1<<40 + i, MID: 1} }

	p.out.layer("kvs.view_ns", p.loop("kvs.view", func(i uint64) { st.View(p.key(i), buf) }))
	p.out.layer("kvs.view_valid_ns", p.loop("kvs.view_valid", func(i uint64) { st.ViewValid(p.key(i), 0, buf) }))
	p.out.layer("kvs.local_write_ns", p.loop("kvs.local_write", func(i uint64) { st.LocalWrite(p.key(i), p.val, 0) }))
	p.out.layer("kvs.apply_ns", p.loop("kvs.apply", func(i uint64) { st.Apply(p.key(i), p.val, stamp(i)) }))

	p.out.layer("es.handle_write_ns", p.loop("es.handle_write", func(i uint64) {
		m := proto.Message{Kind: proto.KindESWrite, From: 1, Key: p.key(i), OpID: i, Stamp: stamp(i), Value: p.val}
		es.HandleWrite(st, &m, 0)
	}))
	tr := es.NewTracker(replicas)
	p.out.layer("es.tracker_add_ack_ns", p.loop("es.tracker_add_ack", func(i uint64) {
		tr.Add(i, p.key(i), 0)
		tr.Ack(i, 1)
		tr.Ack(i, 2)
	}))

	p.out.layer("abd.handle_read_ns", p.loop("abd.handle_read", func(i uint64) {
		m := proto.Message{Kind: proto.KindAcqRead, From: 1, Key: p.key(i), OpID: i}
		abd.HandleRead(st, &m, 0, buf)
	}))
	p.out.layer("abd.handle_write_ns", p.loop("abd.handle_write", func(i uint64) {
		m := proto.Message{Kind: proto.KindABDWrite, From: 1, Key: p.key(i), OpID: i, Stamp: stamp(i), Value: p.val}
		abd.HandleWrite(st, &m, 0)
	}))

	// The full originator state machines against three local stores: every
	// message a release or an acquire exchanges, with zero network.
	stores := [replicas]*kvs.Store{st, p.filledStore(), p.filledStore()}
	p.out.layer("abd.write_round_ns", p.loop("abd.write_round", func(i uint64) {
		w := abd.NewWriteOp(p.key(i), i, p.val, replicas, false)
		m := w.ReadTSMsg(0, 0, proto.KindReadTS)
		for r, s := range stores {
			rep := abd.HandleReadTS(s, &m, uint8(r), proto.KindReadTSReply)
			w.OnReadTS(&rep)
		}
		vm := w.ValueMsg(stores[0].WriteAtLeast(w.Key, w.Val, w.MaxTS, 0, 0), 0, 0)
		for r, s := range stores {
			ack := abd.HandleWrite(s, &vm, uint8(r))
			w.OnWriteAck(&ack)
		}
	}))
	p.out.layer("abd.read_round_ns", p.loop("abd.read_round", func(i uint64) {
		rd := abd.NewReadOp(p.key(i), i, replicas, true)
		m := rd.ReadMsg(0, 0, proto.KindAcqRead)
		act := abd.ReadWait
		for r, s := range stores {
			rep := abd.HandleRead(s, &m, uint8(r), buf)
			if a := rd.OnReadReply(&rep); a != abd.ReadWait {
				act = a
			}
		}
		if act == abd.ReadWriteBackNow {
			wb := rd.WriteBackMsg(0, 0)
			for r, s := range stores {
				ack := abd.HandleWrite(s, &wb, uint8(r))
				rd.OnWriteAck(&ack)
			}
		}
	}))

	// Paxos acceptors: a store whose keys all sit at slot 0, so rising
	// ballots take the promise and accept paths every time.
	acc := kvs.New(1 << 17)
	cval := kite.EncodeUint64(1)
	p.out.layer("paxos.handle_propose_ns", p.loop("paxos.handle_propose", func(i uint64) {
		m := proto.Message{Kind: proto.KindPropose, From: 1, Key: p.key(i), OpID: i, Stamp: stamp(i)}
		paxos.HandlePropose(acc, &m, 0, buf)
	}))
	p.out.layer("paxos.handle_accept_ns", p.loop("paxos.handle_accept", func(i uint64) {
		m := proto.Message{Kind: proto.KindAccept, From: 1, Key: p.key(i), OpID: i, Origin: i, Stamp: stamp(i), Value: cval}
		paxos.HandleAccept(acc, &m, 0, buf)
	}))
	// Commits advance a key's slot by one each: call i commits slot
	// i/numCounters of counter i%numCounters, the FAA pattern.
	learner := kvs.New(1 << 12)
	var commits uint64
	p.out.layer("paxos.apply_commit_ns", p.loop("paxos.apply_commit", func(i uint64) {
		paxos.ApplyCommit(learner, counterBase+commits%numCounters, commits/numCounters, stamp(i), cval, i, nil)
		commits++
	}))

	var clear, set barrier.Vector
	p.out.layer("barrier.on_acquire_ns", p.loop("barrier.on_acquire", func(i uint64) { clear.OnAcquire(uint8(i%replicas), i) }))
	p.out.layer("barrier.on_slow_release_ns", p.loop("barrier.on_slow_release", func(i uint64) { set.OnSlowRelease(1 << 2) }))
}

const probeBatch = 16 // messages (or client ops) per encoded frame

// protoProbes prices the two wire codecs on frames shaped by the workload:
// a replica batch of ES writes and a client batch of the stream's first ops.
func (p *prober) protoProbes() {
	batch := make([]proto.Message, probeBatch)
	for i := range batch {
		batch[i] = proto.Message{Kind: proto.KindESWrite, Key: p.key(uint64(i)), OpID: uint64(i), Stamp: llc.Stamp{Ver: 7, MID: 1}, Value: p.val}
	}
	var (
		frame []byte
		msgs  []proto.Message
		arena []uint64
	)
	p.out.layer("proto.marshal_ns_per_msg", p.loop("proto.marshal", func(uint64) {
		frame, _ = proto.MarshalBatch(frame[:0], batch) // cannot fail: 16 small messages
	})/probeBatch)
	p.out.layer("proto.wire_bytes_per_msg", float64(len(frame))/probeBatch)
	p.out.layer("proto.unmarshal_ns_per_msg", p.loop("proto.unmarshal", func(uint64) {
		msgs, arena, _ = proto.UnmarshalBatchInto(msgs, arena, frame) // frame is our own encoding
	})/probeBatch)

	cb := proto.ClientBatch{Sess: 1, Seq: 1}
	for _, o := range p.ops[:probeBatch] {
		k := o.Kite(p.val)
		cb.Ops = append(cb.Ops, proto.BatchOp{Code: uint8(k.Code), Key: k.Key, Delta: k.Delta, Value: k.Value})
	}
	var cframe []byte
	p.out.layer("proto.client_batch_marshal_ns_per_op", p.loop("proto.client_batch_marshal", func(uint64) {
		cframe, _ = cb.AppendMarshal(cframe[:0]) // cannot fail: 16 ops fit a frame
	})/probeBatch)
	var back proto.ClientBatch
	p.out.layer("proto.client_batch_unmarshal_ns_per_op", p.loop("proto.client_batch_unmarshal", func(uint64) {
		_ = back.Unmarshal(cframe) // cframe is our own encoding
	})/probeBatch)
}

const hopBatch = 8 // messages per transport hop

func hopMessages(p *prober) []proto.Message {
	batch := make([]proto.Message, hopBatch)
	for i := range batch {
		batch[i] = proto.Message{Kind: proto.KindESWrite, From: 0, Key: p.key(uint64(i)), Stamp: llc.Stamp{Ver: 7}, Value: p.val}
	}
	return batch
}

// inprocHop times a batch through the in-process transport: send, receive,
// release.
func (p *prober) inprocHop() float64 {
	tr := transport.NewInProc(2, 1, 64)
	defer tr.Close()
	dst := transport.Endpoint{Node: 1}
	batch := hopMessages(p)
	return p.loop("transport.inproc_hop", func(uint64) {
		tr.Send(dst, batch)
		b := <-tr.Recv(dst)
		b.Release()
	}) / hopBatch
}

// udpHop times a batch from one UDP transport to another over loopback, one
// in flight at a time: marshal, ring, flush, sendmmsg, recvmmsg, unmarshal,
// deliver.
func (p *prober) udpHop() error {
	ports, err := reservePorts(2)
	if err != nil {
		return err
	}
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", ports[i]) }
	var trs [2]*transport.UDP
	for i := range trs {
		trs[i], err = transport.NewUDP(transport.UDPConfig{
			LocalNode: uint8(i), Workers: 1, Listen: []string{addr(i)},
			Peers: map[uint8][]string{uint8(1 - i): {addr(1 - i)}},
		})
		if err != nil {
			return err
		}
		defer trs[i].Close()
	}
	dst := transport.Endpoint{Node: 1}
	batch := hopMessages(p)
	lost := 0
	hop := func(uint64) {
		trs[0].Send(dst, batch)
		select {
		case b := <-trs[1].Recv(dst):
			b.Release()
		case <-time.After(time.Second): // UDP may drop; do not hang on it
			lost++
		}
	}
	var m0, m1 runtime.MemStats
	calls0 := p.seq
	runtime.ReadMemStats(&m0)
	ns := p.loop("transport.udp_hop", hop)
	runtime.ReadMemStats(&m1)
	if lost > 0 {
		return fmt.Errorf("udp hop probe lost %d datagrams on loopback", lost)
	}
	p.out.layer("transport.udp_hop_ns_per_msg", ns/hopBatch)
	p.out.layer("transport.udp_hop_allocs_per_batch", float64(m1.Mallocs-m0.Mallocs)/float64(p.seq-calls0))
	return nil
}

// walProbes appends value records to a log in a fresh directory.
func (p *prober) walProbes() error {
	dir, err := os.MkdirTemp(p.scratch, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(wal.Options{Dir: dir, SnapshotEvery: -1}, nil)
	if err != nil {
		return err
	}
	rec := func(i uint64) wal.Record {
		return wal.Record{Kind: wal.KindWrite, Key: p.key(i), Stamp: llc.Stamp{Ver: i, MID: 1}.Pack(), Value: p.val}
	}
	p.out.layer("wal.append_ns", p.loop("wal.append", func(i uint64) { l.Append(rec(i)) }))
	if err := l.Sync(); err != nil {
		return err
	}
	before := dirBytes(dir)
	// One record and one fsync per call.
	var syncErr error
	syncs := p.seq
	us := p.loopN("wal.sync", 8, func(i uint64) {
		l.Append(rec(i))
		if err := l.Sync(); err != nil {
			syncErr = err
		}
	}) / 1e3
	syncs = p.seq - syncs
	if syncErr != nil {
		return syncErr
	}
	p.out.layer("wal.sync_us", us)
	p.out.layer("wal.bytes_per_record", float64(dirBytes(dir)-before)/float64(syncs))
	return l.Close()
}

// instant is a sub-session that completes everything at once: what is left
// of a sharded session's cost is the shard layer's own routing and pump.
type instant struct{ kite.Ops }

func newInstant() *instant {
	s := &instant{}
	s.Ops = kite.Ops{Doer: s}
	return s
}

func (*instant) Do(context.Context, kite.Op) (kite.Result, error) { return kite.Result{}, nil }
func (*instant) DoAsync(_ kite.Op, cb func(kite.Result)) {
	if cb != nil {
		cb(kite.Result{})
	}
}
func (*instant) DoBatch(_ context.Context, ops []kite.Op) ([]kite.Result, error) {
	return make([]kite.Result, len(ops)), nil
}
func (*instant) Close() error { return nil }

func (p *prober) shardPump() error {
	s := shard.New([]kite.Session{newInstant(), newInstant()}, shard.NewMap(2))
	done := make(chan struct{}, 1)
	cb := func(kite.Result) { done <- struct{}{} }
	ns := p.loop("shard.pump_overhead", func(i uint64) {
		s.DoAsync(p.ops[i%uint64(len(p.ops))].Kite(p.val), cb)
		<-done
	})
	p.out.layer("shard.pump_overhead_ns", ns)
	return s.Close()
}

// singleNode is the no-replication baseline: the workload's ops, one at a
// time, through a one-replica in-process deployment.
func (p *prober) singleNode() error {
	c, err := kite.NewCluster(kite.Options{Nodes: 1, Workers: 1, SessionsPerWorker: 1, Capacity: 1 << 17})
	if err != nil {
		return err
	}
	defer c.Close()
	s := c.Session(0, 0)
	var opErr error
	ns := p.loop("core.single_node_op", func(i uint64) {
		if _, err := s.Do(context.Background(), p.ops[i%uint64(len(p.ops))].Kite(p.val)); err != nil {
			opErr = err
		}
	})
	p.out.layer("core.single_node_op_ns", ns)
	return opErr
}

// singleNodeRemote is the same baseline through the client, the session
// server and loopback UDP: a round trip per op, then 64-op batches.
func (p *prober) singleNodeRemote() error {
	nodes, err := startRemoteNodes(1)
	if err != nil {
		return err
	}
	defer nodes[0].close()
	c, err := client.Dial(nodes[0].srv.Addr(), dialOptions())
	if err != nil {
		return err
	}
	defer c.Close()
	s, err := c.NewSession()
	if err != nil {
		return err
	}
	defer s.Close()
	var opErr error
	ns := p.loop("client.single_node_rtt", func(i uint64) {
		if _, err := s.Do(context.Background(), p.ops[i%uint64(len(p.ops))].Kite(p.val)); err != nil {
			opErr = err
		}
	})
	p.out.layer("client.single_node_rtt_us", ns/1e3)
	const batch = proto.MaxBatchOps
	ops := make([]kite.Op, batch)
	nsBatch := p.loop("client.single_node_batch", func(i uint64) {
		for j := range ops {
			ops[j] = p.ops[(i*batch+uint64(j))%uint64(len(p.ops))].Kite(p.val)
		}
		if _, err := s.DoBatch(context.Background(), ops); err != nil {
			opErr = err
		}
	})
	p.out.layer("client.single_node_batch_ops_s", ratio(batch*1e9, nsBatch))
	return opErr
}

// rejoinAndAdd times recovery on a 3-replica deployment holding 2^14 keys:
// a replica restarted empty until its catch-up sweep completes, then a
// fourth replica added until it serves.
func (p *prober) rejoinAndAdd() error {
	c, err := kite.NewCluster(kite.Options{Nodes: replicas, Workers: 1, SessionsPerWorker: 1, Capacity: 1 << 15})
	if err != nil {
		return err
	}
	defer c.Close()
	s := c.Session(0, 0)
	const keys, chunk = 1 << 14, 512
	ops := make([]kite.Op, 0, chunk)
	for k := uint64(0); k < keys; k++ {
		if ops = append(ops, kite.WriteOp(k, p.val)); len(ops) == chunk {
			if _, err := s.DoBatch(context.Background(), ops); err != nil {
				return err
			}
			ops = ops[:0]
		}
	}
	begin := p.now()
	t0 := time.Now()
	if err := c.RestartNode(2); err != nil {
		return err
	}
	if !c.AwaitRejoin(2, 30*time.Second) {
		return fmt.Errorf("replica 2 did not rejoin within 30 s")
	}
	p.out.layer("catchup.rejoin_ms", float64(time.Since(t0))/1e6)
	mid := p.now()
	t0 = time.Now()
	id, err := c.AddNode()
	if err != nil {
		return err
	}
	if !c.AwaitRejoin(id, 30*time.Second) {
		return fmt.Errorf("added replica %d did not catch up within 30 s", id)
	}
	p.out.layer("membership.add_node_ms", float64(time.Since(t0))/1e6)
	end := p.now()
	p.selfNs["catchup"] += mid - begin
	p.selfNs["membership"] += end - mid
	if p.traced {
		p.track++
		p.spans = append(p.spans,
			span{Name: "catchup.rejoin", Layer: "catchup", Track: 100 + p.track, Start: begin, End: mid},
			span{Name: "membership.add_node", Layer: "membership", Track: 100 + p.track, Start: mid, End: end})
	}
	return nil
}
