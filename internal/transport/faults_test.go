// FaultInjector-focused tests: the injector is the instrument every fault
// and chaos suite leans on, so its own behaviour — seeded determinism,
// isolation symmetry, delayed-delivery rule snapshots, per-link ledgers and
// rule mutation under full concurrency — is pinned here (run with -race).
package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// drain empties an endpoint's mailbox, returning how many batches arrived.
func drain(tr *InProc, ep Endpoint) int {
	n := 0
	for {
		select {
		case <-tr.Recv(ep):
			n++
		default:
			return n
		}
	}
}

// TestFaultSeededDeterminism pins the reproducibility contract: two
// injectors built with the same seed make identical drop decisions for an
// identical send sequence; a different seed diverges.
func TestFaultSeededDeterminism(t *testing.T) {
	pattern := func(seed int64) string {
		tr := NewInProc(2, 1, 1024)
		f := NewFaultInjector(tr, seed)
		defer f.Close()
		f.DropLink(0, 1, 0.5)
		dst := Endpoint{Node: 1}
		out := make([]byte, 0, 256)
		for i := 0; i < 256; i++ {
			before := f.Stats().DroppedFault.Load()
			f.Send(dst, mkBatch(0, 1))
			if f.Stats().DroppedFault.Load() > before {
				out = append(out, 'd')
			} else {
				out = append(out, '.')
			}
		}
		return string(out)
	}
	a, b := pattern(42), pattern(42)
	if a != b {
		t.Fatalf("same seed, different drop decisions:\n%s\n%s", a, b)
	}
	if c := pattern(43); c == a {
		t.Fatal("different seeds produced identical 256-send drop patterns")
	}
}

// TestFaultIsolateSymmetry: isolating EITHER endpoint of a link kills
// traffic in BOTH directions, and healing restores both.
func TestFaultIsolateSymmetry(t *testing.T) {
	for _, isolate := range []uint8{0, 1} {
		t.Run(fmt.Sprintf("isolate-%d", isolate), func(t *testing.T) {
			tr := NewInProc(2, 1, 64)
			f := NewFaultInjector(tr, 1)
			defer f.Close()
			f.IsolateNode(isolate, true)
			f.Send(Endpoint{Node: 1}, mkBatch(0, 1)) // 0 -> 1
			f.Send(Endpoint{Node: 0}, mkBatch(1, 1)) // 1 -> 0
			if got := f.Stats().DroppedFault.Load(); got != 2 {
				t.Fatalf("DroppedFault = %d, want 2 (both directions)", got)
			}
			f.IsolateNode(isolate, false)
			f.Send(Endpoint{Node: 1}, mkBatch(0, 1))
			f.Send(Endpoint{Node: 0}, mkBatch(1, 1))
			if drain(tr, Endpoint{Node: 1}) != 1 || drain(tr, Endpoint{Node: 0}) != 1 {
				t.Fatal("healed node still partitioned")
			}
		})
	}
}

// TestFaultDelayedDeliveryHonorsLaterCut is the delayed-send/Clear
// interaction fix: a batch delayed BEFORE Clear must not sneak past a
// CutLink installed AFTER Clear — the rule set is consulted when the timer
// fires, not when the send was scheduled.
func TestFaultDelayedDeliveryHonorsLaterCut(t *testing.T) {
	tr := NewInProc(2, 1, 64)
	f := NewFaultInjector(tr, 1)
	defer f.Close()
	dst := Endpoint{Node: 1}

	f.DelayLink(0, 1, 60*time.Millisecond)
	f.Send(dst, mkBatch(0, 1)) // scheduled under the delay rule
	f.Clear()
	f.CutLink(0, 1, true) // the world changed while the batch was in flight

	time.Sleep(150 * time.Millisecond)
	if n := drain(tr, dst); n != 0 {
		t.Fatalf("delayed batch delivered through a cut link (%d batches)", n)
	}
	if got := f.Stats().DroppedFault.Load(); got != 1 {
		t.Fatalf("DroppedFault = %d, want 1 (the delayed batch)", got)
	}

	// Same scenario with IsolateNode standing in for the cut.
	f.Clear()
	f.DelayLink(0, 1, 60*time.Millisecond)
	f.Send(dst, mkBatch(0, 1))
	f.Clear()
	f.IsolateNode(1, true)
	time.Sleep(150 * time.Millisecond)
	if n := drain(tr, dst); n != 0 {
		t.Fatalf("delayed batch delivered to an isolated node (%d batches)", n)
	}

	// And the non-interference case: a delayed batch whose link stays
	// healthy after Clear IS delivered.
	f.Clear()
	f.DelayLink(0, 1, 30*time.Millisecond)
	f.Send(dst, mkBatch(0, 1))
	f.Clear()
	deadline := time.Now().Add(2 * time.Second)
	for drain(tr, dst) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delayed batch on a healthy link never delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFaultLinkStats pins the per-link ledger: drops and delays are counted
// on the exact link that suffered them, merged correctly through FaultSet,
// and survive Clear — the counters are the proof a "passed" chaos run
// actually injected faults.
func TestFaultLinkStats(t *testing.T) {
	tr := NewInProc(3, 1, 64)
	f := NewFaultInjector(tr, 1)
	defer f.Close()

	f.CutLink(0, 1, true)
	f.DelayLink(0, 2, 5*time.Millisecond)
	for i := 0; i < 4; i++ {
		f.Send(Endpoint{Node: 1}, mkBatch(0, 1)) // dropped: cut
	}
	for i := 0; i < 3; i++ {
		f.Send(Endpoint{Node: 2}, mkBatch(0, 1)) // delayed
	}
	f.IsolateNode(2, true)
	f.Send(Endpoint{Node: 0}, mkBatch(2, 1)) // dropped: isolation, link 2->0

	stats := f.LinkStats()
	want := []LinkStat{
		{From: 0, To: 1, Dropped: 4},
		{From: 0, To: 2, Delayed: 3},
		{From: 2, To: 0, Dropped: 1},
	}
	if len(stats) != len(want) {
		t.Fatalf("LinkStats = %+v, want %+v", stats, want)
	}
	for i := range want {
		if stats[i] != want[i] {
			t.Fatalf("LinkStats[%d] = %+v, want %+v", i, stats[i], want[i])
		}
	}

	// Clear heals rules but must preserve the ledger.
	f.Clear()
	after := f.LinkStats()
	if len(after) != len(want) || after[0].Dropped != 4 {
		t.Fatalf("Clear erased the fault ledger: %+v", after)
	}

	// FaultSet merges ledgers across injectors link-by-link.
	tr2 := NewInProc(3, 1, 64)
	f2 := NewFaultInjector(tr2, 2)
	defer f2.Close()
	f2.CutLink(0, 1, true)
	f2.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	set := NewFaultSet(f, f2)
	merged := set.LinkStats()
	if len(merged) != 3 || merged[0] != (LinkStat{From: 0, To: 1, Dropped: 5}) {
		t.Fatalf("merged LinkStats = %+v", merged)
	}
}

// TestFaultSetFanOut: rules applied through a FaultSet take effect on every
// member injector (only the member owning the sending node consults them,
// so the observable behaviour matches a single shared injector), including
// injectors a nested set gains after it was added — a sharded deployment's
// per-group set growing by an added replica.
func TestFaultSetFanOut(t *testing.T) {
	trA := NewInProc(2, 1, 64)
	trB := NewInProc(2, 1, 64)
	fA := NewFaultInjector(trA, 1)
	fB := NewFaultInjector(trB, 1)
	defer fA.Close()
	defer fB.Close()
	group := NewFaultSet(fA)
	set := NewFaultSet(group)
	group.Add(fB)

	set.CutLink(0, 1, true)
	fA.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	fB.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	if drain(trA, Endpoint{Node: 1})+drain(trB, Endpoint{Node: 1}) != 0 {
		t.Fatal("cut applied through FaultSet did not hold on every member")
	}
	set.Clear()
	fA.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	fB.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	if drain(trA, Endpoint{Node: 1}) != 1 || drain(trB, Endpoint{Node: 1}) != 1 {
		t.Fatal("FaultSet.Clear did not heal every member")
	}
}

// TestFaultDuplication pins DupLink: a duplicated batch is delivered twice,
// counted once in Stats().Duplicated and on the link's ledger.
func TestFaultDuplication(t *testing.T) {
	tr := NewInProc(2, 1, 64)
	f := NewFaultInjector(tr, 1)
	defer f.Close()
	f.DupLink(0, 1, 1.0)
	dst := Endpoint{Node: 1}
	const n = 10
	for i := 0; i < n; i++ {
		f.Send(dst, mkBatch(0, 1))
	}
	if got := drain(tr, dst); got != 2*n {
		t.Fatalf("delivered %d batches, want %d (every send duplicated)", got, 2*n)
	}
	if got := f.Stats().Duplicated.Load(); got != n {
		t.Fatalf("Duplicated = %d, want %d", got, n)
	}
	stats := f.LinkStats()
	if len(stats) != 1 || stats[0] != (LinkStat{From: 0, To: 1, Duplicated: n}) {
		t.Fatalf("LinkStats = %+v", stats)
	}
	// Reverse direction unaffected.
	f.Send(Endpoint{Node: 0}, mkBatch(1, 1))
	if drain(tr, Endpoint{Node: 0}) != 1 {
		t.Fatal("reverse link duplicated")
	}
}

// TestFaultDupWithDelay: duplication composes with delay — both copies ride
// the delayed path and both arrive.
func TestFaultDupWithDelay(t *testing.T) {
	tr := NewInProc(2, 1, 64)
	f := NewFaultInjector(tr, 1)
	defer f.Close()
	f.DupLink(0, 1, 1.0)
	f.DelayLink(0, 1, 20*time.Millisecond)
	start := time.Now()
	f.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	deadline := time.Now().Add(2 * time.Second)
	got := 0
	for got < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("got %d of 2 delayed duplicates", got)
		}
		got += drain(tr, Endpoint{Node: 1})
		time.Sleep(time.Millisecond)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("duplicates delivered too fast: %v", el)
	}
	if f.Stats().Duplicated.Load() != 1 || f.Stats().DelayedBatches.Load() != 1 {
		t.Fatalf("Duplicated/Delayed = %d/%d, want 1/1",
			f.Stats().Duplicated.Load(), f.Stats().DelayedBatches.Load())
	}
}

// TestFaultsOverUDPBatchPath runs the injector over the real UDP transport so
// loss, duplication and delay all traverse WriteBatch/ReadBatch (or the
// fallback, wherever the platform demoted) — the chaos suites wrap exactly
// this stack.
func TestFaultsOverUDPBatchPath(t *testing.T) {
	mkU := func(node uint8) *UDP {
		u, err := NewUDP(UDPConfig{
			LocalNode: node, Workers: 1,
			Listen: []string{"127.0.0.1:0"},
			Peers:  map[uint8][]string{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	u0, u1 := mkU(0), mkU(1)
	u0.peers[1] = resolveAll(t, u1.LocalAddrs())
	u1.peers[0] = resolveAll(t, u0.LocalAddrs())
	f := NewFaultInjector(u0, 3)
	defer f.Close() // closes u0
	defer u1.Close()
	dst := Endpoint{Node: 1}
	inbox := f.Recv(Endpoint{Node: 0}) // u0's own inbox (loopback sanity)
	_ = inbox

	// Cut: nothing crosses the wire.
	f.CutLink(0, 1, true)
	f.Send(dst, mkBatch(0, 1))
	if f.Stats().DroppedFault.Load() != 1 {
		t.Fatal("cut link over UDP did not drop")
	}

	// Duplication: every send arrives twice.
	f.Clear()
	f.DupLink(0, 1, 1.0)
	const n = 5
	for i := 0; i < n; i++ {
		f.Send(dst, mkBatch(0, 2))
	}
	if msgs := recvBatches(t, u1.Recv(dst), 2*n, 5*time.Second); msgs != 2*n*2 {
		t.Fatalf("duplicated UDP traffic delivered %d msgs, want %d", msgs, 2*n*2)
	}

	// Delay: delivery happens, later.
	f.Clear()
	f.DelayLink(0, 1, 20*time.Millisecond)
	start := time.Now()
	f.Send(dst, mkBatch(0, 1))
	recvBatches(t, u1.Recv(dst), 1, 5*time.Second)
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("delayed UDP batch arrived too fast: %v", el)
	}

	// The traffic really went through the socket syscall path.
	st := u0.Stats()
	if st.BatchedSyscalls.Load()+st.FallbackSyscalls.Load() == 0 {
		t.Fatal("fault-injected traffic bypassed the syscall counters")
	}
}

// TestFaultClearMidTrafficRace hammers Send from many goroutines while
// another goroutine churns every rule-mutating entry point, Clear included.
// The assertion is the race detector's: no data race, no panic, and the
// injector still both delivers and drops afterwards.
func TestFaultClearMidTrafficRace(t *testing.T) {
	tr := NewInProc(4, 1, 4096)
	f := NewFaultInjector(tr, 7)
	defer f.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := uint8(g)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				dst := Endpoint{Node: uint8((g + 1 + i) % 4)}
				f.Send(dst, mkBatch(from, 1))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 6 {
			case 0:
				f.DropLink(0, 1, 0.5)
			case 1:
				f.DelayLink(1, 2, time.Millisecond)
			case 2:
				f.CutLink(2, 3, i%2 == 0)
			case 3:
				f.IsolateNode(3, i%2 == 0)
			case 4:
				f.LinkStats()
			case 5:
				f.Clear()
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Still functional: a clean link delivers, a cut link drops.
	f.Clear()
	for i := 0; i < 4; i++ {
		drain(tr, Endpoint{Node: uint8(i)})
	}
	f.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	if drain(tr, Endpoint{Node: 1}) != 1 {
		t.Fatal("injector wedged after the churn")
	}
	f.CutLink(0, 1, true)
	before := f.Stats().DroppedFault.Load()
	f.Send(Endpoint{Node: 1}, mkBatch(0, 1))
	if f.Stats().DroppedFault.Load() != before+1 {
		t.Fatal("cut rule ignored after the churn")
	}
}
