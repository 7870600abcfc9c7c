package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kite/internal/llc"
	"kite/internal/proto"
	"kite/internal/transport"
)

// TestZeroAllocDispatchESWrite pins the replica side of a relaxed write at
// zero allocations: dispatching a peer's KindESWrite applies it to the store
// and stages the ack, and neither the reply nor anything else reaches the
// heap. The node is built but not started, so the measuring goroutine is
// the worker.
func TestZeroAllocDispatchESWrite(t *testing.T) {
	tr := transport.NewInProc(3, 1, 0)
	nd, err := NewNode(0, Config{Nodes: 3, Workers: 1, SessionsPerWorker: 1, KVSCapacity: 1 << 10}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	w := nd.workers[0]
	m := proto.Message{
		Kind: proto.KindESWrite, From: 1, Epoch: nd.ConfigEpoch(),
		Value: []byte("0123456789abcdef0123456789abcdef"),
	}
	var ver uint64
	step := func() {
		ver++
		m.Key, m.OpID, m.Stamp = ver%64, ver, llc.Stamp{Ver: ver, MID: 1}
		w.dispatch(&m)
		if len(w.out[1]) != 1 || w.out[1][0].Kind != proto.KindESAck {
			t.Fatalf("staged %v, want one ack to node 1", w.out[1])
		}
		w.out[1] = w.out[1][:0]
	}
	for i := 0; i < 64; i++ {
		step() // every key once: the store's entries exist from here on
	}
	if got := testing.AllocsPerRun(10000, step); got != 0 {
		t.Fatalf("dispatching a peer's ES write allocates %.2f/op, want 0", got)
	}
}

// esWriteTap sits between a FaultInjector and the in-proc transport and
// checks every KindESWrite that reaches it — including the delayed and
// duplicated copies the injector delivers from its timers — against the
// write that produced it. Values carry their key and a writer-unique tag; a
// message whose value names another key, or whose (origin, key, stamp)
// arrives with a different tag than its first copy did, carries bytes of a
// different write.
type esWriteTap struct {
	transport.Transport
	mu      sync.Mutex
	tags    map[[3]uint64]uint64
	checked atomic.Int64
	bad     atomic.Pointer[string]
}

func (tp *esWriteTap) Send(dst transport.Endpoint, batch []proto.Message) {
	for i := range batch {
		m := &batch[i]
		if m.Kind != proto.KindESWrite {
			continue
		}
		tp.checked.Add(1)
		if len(m.Value) != 16 || binary.LittleEndian.Uint64(m.Value) != m.Key {
			tp.fail(fmt.Sprintf("write to key %d stamp %v carries value %x", m.Key, m.Stamp, m.Value))
			continue
		}
		id := [3]uint64{uint64(m.From), m.Key, m.Stamp.Pack()}
		tag := binary.LittleEndian.Uint64(m.Value[8:])
		tp.mu.Lock()
		first, seen := tp.tags[id]
		if !seen {
			tp.tags[id] = tag
		}
		tp.mu.Unlock()
		if seen && first != tag {
			tp.fail(fmt.Sprintf("write to key %d stamp %v arrived as tag %d and as tag %d", m.Key, m.Stamp, first, tag))
		}
	}
	tp.Transport.Send(dst, batch)
}

func (tp *esWriteTap) fail(msg string) { tp.bad.CompareAndSwap(nil, &msg) }

// TestRecycledESWriteBuffersUnderDelayAndDup checks that recycling a write's
// ledger entry — and with it the value buffer its broadcast points into —
// never shows in a delivered message. The origin's links are delayed by far
// more than the retransmission interval and duplicate half their batches,
// so every write has several copies held in the injector's timers when its
// first copy is acked and its entry is recycled for a later write. Those late
// copies must still carry their own write's bytes: Send deep-copies.
func TestRecycledESWriteBuffersUnderDelayAndDup(t *testing.T) {
	cfg := testConfig(3)
	cfg.RetryInterval = 200 * time.Microsecond
	cfg.ReleaseTimeout = time.Second
	inner := transport.NewInProc(3, cfg.Workers, 0)
	tap := &esWriteTap{Transport: inner, tags: make(map[[3]uint64]uint64)}
	faults := transport.NewFaultInjector(tap, 1)
	for dst := uint8(1); dst < 3; dst++ {
		faults.DelayLink(0, dst, 2*time.Millisecond)
		faults.DupLink(0, dst, 0.5)
	}
	var nodes []*Node
	for id := uint8(0); id < 3; id++ {
		nd, err := NewNode(id, cfg, faults)
		if err != nil {
			t.Fatal(err)
		}
		nd.Start()
		nodes = append(nodes, nd)
	}
	defer func() {
		faults.Close() // timers still holding copies deliver nothing now
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	const window = 128
	var (
		tag  atomic.Uint64
		wg   sync.WaitGroup
		stop = time.Now().Add(300 * time.Millisecond)
	)
	for si := 0; si < nodes[0].Sessions(); si++ {
		s := nodes[0].Session(si)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(si)))
			sem := make(chan struct{}, window)
			for time.Now().Before(stop) {
				sem <- struct{}{}
				key := uint64(rng.Intn(512))
				val := make([]byte, 16)
				binary.LittleEndian.PutUint64(val, key)
				binary.LittleEndian.PutUint64(val[8:], tag.Add(1))
				s.Submit(&Request{Code: OpWrite, Key: key, Val: val, Done: func(*Request) { <-sem }})
			}
			for i := 0; i < window; i++ {
				sem <- struct{}{}
			}
		}()
	}
	wg.Wait()
	// Let the copies still in flight land.
	time.Sleep(10 * time.Millisecond)
	if msg := tap.bad.Load(); msg != nil {
		t.Fatal(*msg)
	}
	st := faults.Stats()
	t.Logf("%d writes, %d ES write copies checked, %d batches delayed, %d duplicated",
		tag.Load(), tap.checked.Load(), st.DelayedBatches.Load(), st.Duplicated.Load())
	if tap.checked.Load() <= 2*int64(tag.Load()) || st.Duplicated.Load() == 0 {
		t.Fatal("no write was retransmitted or duplicated: the run proves nothing")
	}
}
