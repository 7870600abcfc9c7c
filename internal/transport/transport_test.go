package transport

import (
	"net"
	"testing"
	"time"

	"kite/internal/proto"
)

func mkBatch(from uint8, n int) []proto.Message {
	b := make([]proto.Message, n)
	for i := range b {
		b[i] = proto.Message{Kind: proto.KindESWrite, From: from, Key: uint64(i)}
	}
	return b
}

func TestInProcDelivery(t *testing.T) {
	tr := NewInProc(3, 2, 16)
	defer tr.Close()
	dst := Endpoint{Node: 2, Worker: 1}
	tr.Send(dst, mkBatch(0, 3))
	select {
	case got := <-tr.Recv(dst):
		if len(got.Msgs) != 3 || got.Msgs[0].From != 0 {
			t.Fatalf("got %v", got.Msgs)
		}
		got.Release()
	case <-time.After(time.Second):
		t.Fatal("no delivery")
	}
	// Other endpoints untouched.
	select {
	case <-tr.Recv(Endpoint{Node: 1, Worker: 0}):
		t.Fatal("misrouted batch")
	default:
	}
}

func TestInProcDropOnFull(t *testing.T) {
	tr := NewInProc(1, 1, 2)
	defer tr.Close()
	dst := Endpoint{}
	for i := 0; i < 5; i++ {
		tr.Send(dst, mkBatch(0, 1))
	}
	if got := tr.Stats().DroppedFull.Load(); got != 3 {
		t.Fatalf("DroppedFull = %d, want 3", got)
	}
	if got := tr.Stats().SentBatches.Load(); got != 2 {
		t.Fatalf("SentBatches = %d, want 2", got)
	}
}

func TestInProcEmptyAndClosed(t *testing.T) {
	tr := NewInProc(1, 1, 2)
	dst := Endpoint{}
	tr.Send(dst, nil) // no-op
	tr.Close()
	tr.Send(dst, mkBatch(0, 1)) // dropped silently
	select {
	case <-tr.Recv(dst):
		t.Fatal("received after close")
	default:
	}
}

func TestFaultDrop(t *testing.T) {
	tr := NewInProc(2, 1, 64)
	f := NewFaultInjector(tr, 1)
	defer f.Close()
	f.DropLink(0, 1, 1.0)
	dst := Endpoint{Node: 1}
	for i := 0; i < 10; i++ {
		f.Send(dst, mkBatch(0, 1))
	}
	if got := f.Stats().DroppedFault.Load(); got != 10 {
		t.Fatalf("DroppedFault = %d", got)
	}
	// Reverse direction unaffected.
	f.Send(Endpoint{Node: 0}, mkBatch(1, 1))
	select {
	case <-tr.Recv(Endpoint{Node: 0}):
	case <-time.After(time.Second):
		t.Fatal("reverse link affected")
	}
}

func TestFaultCutAndClear(t *testing.T) {
	tr := NewInProc(2, 1, 64)
	f := NewFaultInjector(tr, 1)
	defer f.Close()
	f.CutLink(0, 1, true)
	f.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	if f.Stats().DroppedFault.Load() != 1 {
		t.Fatal("cut link delivered")
	}
	f.Clear()
	f.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	select {
	case <-tr.Recv(Endpoint{Node: 1}):
	case <-time.After(time.Second):
		t.Fatal("cleared link still cut")
	}
}

func TestFaultIsolateNode(t *testing.T) {
	tr := NewInProc(3, 1, 64)
	f := NewFaultInjector(tr, 1)
	defer f.Close()
	f.IsolateNode(1, true)
	f.Send(Endpoint{Node: 1}, mkBatch(0, 1)) // into isolated node
	f.Send(Endpoint{Node: 2}, mkBatch(1, 1)) // out of isolated node
	f.Send(Endpoint{Node: 2}, mkBatch(0, 1)) // unrelated link
	if got := f.Stats().DroppedFault.Load(); got != 2 {
		t.Fatalf("DroppedFault = %d, want 2", got)
	}
	select {
	case <-tr.Recv(Endpoint{Node: 2}):
	case <-time.After(time.Second):
		t.Fatal("healthy link affected")
	}
	f.IsolateNode(1, false)
	f.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	select {
	case <-tr.Recv(Endpoint{Node: 1}):
	case <-time.After(time.Second):
		t.Fatal("healed node unreachable")
	}
}

func TestFaultDelay(t *testing.T) {
	tr := NewInProc(2, 1, 64)
	f := NewFaultInjector(tr, 1)
	defer f.Close()
	f.DelayLink(0, 1, 30*time.Millisecond)
	start := time.Now()
	f.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	select {
	case <-tr.Recv(Endpoint{Node: 1}):
		if el := time.Since(start); el < 20*time.Millisecond {
			t.Fatalf("delivered too fast: %v", el)
		}
	case <-time.After(time.Second):
		t.Fatal("delayed batch lost")
	}
	if f.Stats().DelayedBatches.Load() != 1 {
		t.Fatal("delay not counted")
	}
}

func TestFaultDropProbabilistic(t *testing.T) {
	tr := NewInProc(2, 1, 4096)
	f := NewFaultInjector(tr, 42)
	defer f.Close()
	f.DropLink(0, 1, 0.5)
	const n = 2000
	for i := 0; i < n; i++ {
		f.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	}
	dropped := int(f.Stats().DroppedFault.Load())
	if dropped < n/3 || dropped > 2*n/3 {
		t.Fatalf("dropped %d of %d with p=0.5", dropped, n)
	}
}

func TestUDPLoopAndRemote(t *testing.T) {
	// Node 0 with 2 workers and node 1 with 2 workers, both on loopback.
	mk := func(node uint8) *UDP {
		u, err := NewUDP(UDPConfig{
			LocalNode: node,
			Workers:   2,
			Listen:    []string{"127.0.0.1:0", "127.0.0.1:0"},
			Peers:     map[uint8][]string{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	u0, u1 := mk(0), mk(1)
	defer u0.Close()
	defer u1.Close()
	u0.peers[1] = resolveAll(t, u1.LocalAddrs())
	u1.peers[0] = resolveAll(t, u0.LocalAddrs())

	// Local loopback.
	u0.Send(Endpoint{Node: 0, Worker: 1}, mkBatch(0, 2))
	select {
	case got := <-u0.Recv(Endpoint{Node: 0, Worker: 1}):
		if len(got.Msgs) != 2 {
			t.Fatalf("loopback got %d msgs", len(got.Msgs))
		}
		got.Release()
	case <-time.After(time.Second):
		t.Fatal("loopback lost")
	}

	// Remote delivery with a value payload (checks the pooled-buffer view).
	batch := mkBatch(0, 1)
	batch[0].Value = []byte("payload-123")
	u0.Send(Endpoint{Node: 1, Worker: 1}, batch)
	select {
	case got := <-u1.Recv(Endpoint{Node: 1, Worker: 1}):
		if len(got.Msgs) != 1 || string(got.Msgs[0].Value) != "payload-123" {
			t.Fatalf("remote got %+v", got.Msgs)
		}
		got.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("remote delivery lost")
	}

	// Unknown destination: dropped, not crashed.
	u0.Send(Endpoint{Node: 9, Worker: 0}, mkBatch(0, 1))
	if u0.Stats().DroppedFault.Load() != 1 {
		t.Fatal("unknown peer not counted as drop")
	}
}

func resolveAll(t *testing.T, addrs []string) []*UDPDest {
	t.Helper()
	out := make([]*UDPDest, len(addrs))
	for i, a := range addrs {
		ra, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = NewUDPDest(ra)
	}
	return out
}

// recvBatches drains n batches from ch (releasing each), failing the test on
// timeout. Returns the total number of messages seen.
func recvBatches(t *testing.T, ch <-chan Batch, n int, timeout time.Duration) int {
	t.Helper()
	msgs := 0
	deadline := time.After(timeout)
	for i := 0; i < n; i++ {
		select {
		case b := <-ch:
			msgs += len(b.Msgs)
			b.Release()
		case <-deadline:
			t.Fatalf("received %d/%d batches before timeout", i, n)
		}
	}
	return msgs
}

// udpPair builds two single-worker UDP transports wired to each other.
func udpPair(t *testing.T, cfg func(*UDPConfig)) (*UDP, *UDP) {
	t.Helper()
	mk := func(node uint8) *UDP {
		c := UDPConfig{
			LocalNode: node, Workers: 1,
			Listen: []string{"127.0.0.1:0"},
			Peers:  map[uint8][]string{},
		}
		if cfg != nil {
			cfg(&c)
		}
		u, err := NewUDP(c)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	u0, u1 := mk(0), mk(1)
	t.Cleanup(func() { u0.Close(); u1.Close() })
	u0.peers[1] = resolveAll(t, u1.LocalAddrs())
	u1.peers[0] = resolveAll(t, u0.LocalAddrs())
	return u0, u1
}

// TestUDPBatchSyscallCounters pins the batched-syscall accounting: remote
// traffic must show up either as batched syscalls (sendmmsg/recvmmsg alive)
// or as fallback syscalls (platform demoted) — never neither.
func TestUDPBatchSyscallCounters(t *testing.T) {
	u0, u1 := udpPair(t, nil)
	const n = 20
	for i := 0; i < n; i++ {
		u0.Send(Endpoint{Node: 1}, mkBatch(0, 2))
	}
	recvBatches(t, u1.Recv(Endpoint{Node: 1}), n, 5*time.Second)

	// The sender counts a syscall once it returns, which can be after the
	// receiver already holds the datagrams: let the ledger settle first.
	st := u0.Stats()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st.BatchedDatagrams.Load()+st.FallbackSyscalls.Load() >= n {
			break
		}
	}
	batched := st.BatchedSyscalls.Load()
	fallback := st.FallbackSyscalls.Load()
	if batched+fallback == 0 {
		t.Fatal("remote sends recorded neither batched nor fallback syscalls")
	}
	if u0.Batched() && st.BatchedDatagrams.Load() < n {
		t.Fatalf("BatchedDatagrams = %d, want >= %d on the active batch path",
			st.BatchedDatagrams.Load(), n)
	}
	// The receive side counts its syscalls too.
	rst := u1.Stats()
	if rst.BatchedSyscalls.Load()+rst.FallbackSyscalls.Load() == 0 {
		t.Fatal("receiver recorded no syscalls")
	}
}

// TestUDPFallbackPath forces the per-datagram fallback via the config escape
// hatch and checks delivery is indistinguishable (only the counters differ).
func TestUDPFallbackPath(t *testing.T) {
	u0, u1 := udpPair(t, func(c *UDPConfig) { c.DisableBatchIO = true })
	if u0.Batched() || u1.Batched() {
		t.Fatal("DisableBatchIO left the batch path active")
	}
	const n = 10
	for i := 0; i < n; i++ {
		u0.Send(Endpoint{Node: 1}, mkBatch(0, 3))
	}
	if msgs := recvBatches(t, u1.Recv(Endpoint{Node: 1}), n, 5*time.Second); msgs != 3*n {
		t.Fatalf("fallback path delivered %d msgs, want %d", msgs, 3*n)
	}
	if u0.Stats().FallbackSyscalls.Load() == 0 {
		t.Fatal("fallback sends not counted")
	}
	if u0.Stats().BatchedSyscalls.Load() != 0 {
		t.Fatal("batched syscalls counted on a disabled batch path")
	}
}

// TestBatchConnShortWriteRetry pins partial-batch handling: when a batch
// syscall moves fewer datagrams than asked (forced here via setLimit), the
// remainder must be retried from where it stopped — every datagram arrives,
// none dropped, none duplicated.
func TestBatchConnShortWriteRetry(t *testing.T) {
	for _, disable := range []bool{false, true} {
		name := "batched"
		if disable {
			name = "fallback"
		}
		t.Run(name, func(t *testing.T) {
			recvConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer recvConn.Close()
			sendConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer sendConn.Close()

			var st Stats
			bc := NewBatchConn(sendConn, &st)
			bc.setLimit(3) // every syscall moves at most 3 datagrams
			if disable {
				bc.DisableBatch()
			}
			dest := NewUDPDest(recvConn.LocalAddr().(*net.UDPAddr))
			const n = 10
			dgs := make([]Datagram, n)
			for i := range dgs {
				dgs[i] = Datagram{Buf: []byte{byte(i)}, Dest: dest}
			}
			sent, err := bc.WriteBatch(dgs)
			if err != nil || sent != n {
				t.Fatalf("WriteBatch = (%d, %v), want (%d, nil)", sent, err, n)
			}
			if bc.Batched() {
				// ceil(10/3) = 4 syscalls minimum on the capped batch path.
				if calls := st.BatchedSyscalls.Load(); calls < 4 {
					t.Fatalf("BatchedSyscalls = %d, want >= 4 with limit 3", calls)
				}
				if st.BatchedDatagrams.Load() != n {
					t.Fatalf("BatchedDatagrams = %d, want %d", st.BatchedDatagrams.Load(), n)
				}
			} else if st.FallbackSyscalls.Load() != n {
				t.Fatalf("FallbackSyscalls = %d, want %d", st.FallbackSyscalls.Load(), n)
			}

			// Every datagram arrives exactly once, via ReadBatch.
			rbc := NewBatchConn(recvConn, nil)
			if disable {
				rbc.DisableBatch()
			}
			recvConn.SetReadDeadline(time.Now().Add(5 * time.Second))
			var seen [n]bool
			bufs := make([][]byte, MaxIOBatch)
			for i := range bufs {
				bufs[i] = make([]byte, 64)
			}
			sizes := make([]int, MaxIOBatch)
			got := 0
			for got < n {
				k, err := rbc.ReadBatch(bufs, sizes)
				if err != nil {
					t.Fatalf("ReadBatch after %d datagrams: %v", got, err)
				}
				for i := 0; i < k; i++ {
					if sizes[i] != 1 {
						t.Fatalf("datagram %d has size %d, want 1", got+i, sizes[i])
					}
					id := int(bufs[i][0])
					if seen[id] {
						t.Fatalf("datagram %d delivered twice", id)
					}
					seen[id] = true
				}
				got += k
			}
		})
	}
}

// TestUDPPartialBatchUnderLimit runs whole-transport traffic with a batch
// limit forcing multi-syscall flushes: delivery stays complete.
func TestUDPPartialBatchUnderLimit(t *testing.T) {
	u0, u1 := udpPair(t, func(c *UDPConfig) {
		c.FlushDelay = 2 * time.Millisecond // encourage multi-datagram flushes
	})
	u0.setBatchLimit(2)
	const n = 24
	for i := 0; i < n; i++ {
		u0.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	}
	if msgs := recvBatches(t, u1.Recv(Endpoint{Node: 1}), n, 5*time.Second); msgs != n {
		t.Fatalf("delivered %d msgs, want %d", msgs, n)
	}
}

// TestSendCopiesPayloads pins Send's one contract on every path that can
// hold a batch past the call — an InProc mailbox, a FaultInjector's delayed
// and duplicated copies, a UDP node's loopback: once Send returns, the
// sender may overwrite the buffers its messages' Value and Origins point
// into, and every delivered copy still carries the bytes it was sent with.
func TestSendCopiesPayloads(t *testing.T) {
	check := func(t *testing.T, tr Transport, recv <-chan Batch, dst Endpoint, copies int) {
		t.Helper()
		val, origins := []byte("payload-before-reuse"), []uint64{7, 8, 9}
		batch := mkBatch(0, 2)
		batch[0].Value, batch[1].Origins = val, origins
		tr.Send(dst, batch)
		copy(val, "SCRIBBLED-AFTER-SEND")
		origins[0], origins[1], origins[2] = 0, 0, 0
		for i := 0; i < copies; i++ {
			select {
			case got := <-recv:
				if string(got.Msgs[0].Value) != "payload-before-reuse" {
					t.Fatalf("copy %d: Value %q", i, got.Msgs[0].Value)
				}
				if o := got.Msgs[1].Origins; len(o) != 3 || o[0] != 7 || o[1] != 8 || o[2] != 9 {
					t.Fatalf("copy %d: Origins %v", i, o)
				}
				got.Release()
			case <-time.After(2 * time.Second):
				t.Fatalf("copy %d never arrived", i)
			}
		}
	}
	t.Run("inproc", func(t *testing.T) {
		tr := NewInProc(2, 1, 8)
		check(t, tr, tr.Recv(Endpoint{Node: 1}), Endpoint{Node: 1}, 1)
	})
	t.Run("faults-delay-dup", func(t *testing.T) {
		tr := NewInProc(2, 1, 8)
		f := NewFaultInjector(tr, 1)
		defer f.Close()
		f.DelayLink(0, 1, 5*time.Millisecond)
		f.DupLink(0, 1, 1.0)
		check(t, f, tr.Recv(Endpoint{Node: 1}), Endpoint{Node: 1}, 2)
	})
	t.Run("udp-loopback", func(t *testing.T) {
		u, _ := udpPair(t, nil)
		check(t, u, u.Recv(Endpoint{}), Endpoint{}, 1)
	})
}
