package core

import (
	"fmt"
	"testing"
	"time"
)

// TestSlowPathUnderPartition is the paper's central correctness scenario
// (§4.1, Figure 1, proof case 2): the consumer's replica misses the
// producer's relaxed writes (its inbound link from the producer is cut), so
// the producer's release must time out, publish the DM-set, and the
// consumer's acquire must discover the delinquency, bump its epoch, and
// serve the subsequent relaxed read through the slow path — returning the
// producer's value, never the stale local one.
func TestSlowPathUnderPartition(t *testing.T) {
	cfg := testConfig(5)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	prod := c.Node(0).Session(0)
	cons := c.Node(4).Session(0)

	// Warm up the key on the consumer so it holds a stale local copy.
	write(t, prod, 100, "init")
	waitVisible(t, cons, 100, "init")

	// Cut producer -> consumer: ES writes (and everything else on that
	// link) vanish. Quorums still form through nodes 1-3.
	c.Faults().CutLink(0, 4, true)

	write(t, prod, 100, "payload")
	release(t, prod, 101, "go") // must take the slow-release path

	if got := acquire(t, cons, 101); got != "go" {
		t.Fatalf("acquire flag = %q (release lost?)", got)
	}
	// The acquire must have bumped the consumer's epoch...
	if got := c.Node(4).SlowPathStats().EpochBumps; got == 0 {
		t.Fatal("consumer never transitioned to the slow path")
	}
	// ...so this relaxed read goes through a quorum and sees the payload.
	if got := read(t, cons, 100); got != "payload" {
		t.Fatalf("read after acquire = %q, want payload (RC violation)", got)
	}
	if got := c.Node(4).SlowPathStats().SlowReads; got == 0 {
		t.Fatal("read was served locally despite the epoch bump")
	}
	if got := c.Node(0).SlowPathStats().SlowReleases; got == 0 {
		t.Fatal("producer never published a DM-set")
	}

	// Heal the link; the system returns to the fast path per key.
	c.Faults().Clear()
	write(t, prod, 100, "after-heal")
	waitVisible(t, cons, 100, "after-heal")
}

// TestRepeatedAcquiresDoNotRevert checks the reset-bit protocol (§4.2.1):
// after acquires discover the delinquency and reset the bits, further
// acquires must not keep bouncing the machine back to the slow path.
// Resets are sent only to the replicas whose counted replies flagged
// (Worker.sendResetBit), so a replica outside the first acquire's quorum
// may legitimately cause one more bump when it is first counted — each
// replica's Set bit costs at most one bump before its reset clears it, so
// total bumps are bounded by the replica count and then stop.
func TestRepeatedAcquiresDoNotRevert(t *testing.T) {
	c, err := NewCluster(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	prod := c.Node(0).Session(0)
	cons := c.Node(4).Session(0)

	c.Faults().CutLink(0, 4, true)
	write(t, prod, 200, "x")
	release(t, prod, 201, "go")
	c.Faults().Clear()

	if got := acquire(t, cons, 201); got != "go" {
		t.Fatalf("acquire = %q", got)
	}
	// Allow the reset-bits to land.
	time.Sleep(20 * time.Millisecond)
	if c.Node(4).SlowPathStats().EpochBumps == 0 {
		t.Fatal("first acquire did not bump the epoch")
	}
	for i := 0; i < 10; i++ {
		acquire(t, cons, 201)
	}
	settled := c.Node(4).SlowPathStats().EpochBumps
	if settled > 5 {
		t.Fatalf("epoch bumps %d exceed the replica-count bound", settled)
	}
	// Steady state: once every flagger has been reset, acquires stop
	// bumping entirely.
	for i := 0; i < 10; i++ {
		acquire(t, cons, 201)
	}
	if got := c.Node(4).SlowPathStats().EpochBumps; got != settled {
		t.Fatalf("epoch kept bumping: %d -> %d (reset-bit not working)", settled, got)
	}
}

// TestKeyRefreshedOncePerEpoch: after the slow-path transition, each key
// needs exactly one quorum access before going back to local reads (§4.2
// "Returning to fast path").
func TestKeyRefreshedOncePerEpoch(t *testing.T) {
	c, err := NewCluster(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	prod := c.Node(0).Session(0)
	cons := c.Node(4).Session(0)

	c.Faults().CutLink(0, 4, true)
	write(t, prod, 300, "v")
	release(t, prod, 301, "go")
	c.Faults().Clear()
	acquire(t, cons, 301)

	before := c.Node(4).SlowPathStats().SlowReads
	read(t, cons, 300) // slow (first touch after bump)
	mid := c.Node(4).SlowPathStats().SlowReads
	if mid != before+1 {
		t.Fatalf("first read after bump: slow reads %d -> %d", before, mid)
	}
	for i := 0; i < 10; i++ {
		read(t, cons, 300) // all fast now
	}
	if after := c.Node(4).SlowPathStats().SlowReads; after != mid {
		t.Fatalf("key refreshed more than once: %d -> %d", mid, after)
	}
}

// TestPauseParksIdleWorker: a replica paused while its worker idles must
// sleep for real. Its worker waits in idleWait (a long idle poll keeps it
// there), so the peer's write is the batch that would wake it. That write
// must stay unapplied and unacknowledged until the pause ends, so the
// peer's release takes the DM-set slow path.
func TestPauseParksIdleWorker(t *testing.T) {
	cfg := testConfig(3)
	cfg.Workers = 1
	cfg.IdlePoll = 100 * time.Millisecond
	cfg.ReleaseTimeout = 20 * time.Millisecond
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Node(0).Session(0)
	write(t, s, 40, "warm")
	time.Sleep(10 * time.Millisecond) // every worker back in idleWait

	const nap = time.Second
	slow := c.Node(0).SlowPathStats().SlowReleases
	start := time.Now()
	c.Node(2).Pause(nap)
	write(t, s, 40, "payload")
	release(t, s, 41, "flag")
	if got := c.Node(0).SlowPathStats().SlowReleases - slow; got != 1 {
		t.Fatalf("release with a paused replica took the slow path %d times, want 1", got)
	}
	var buf [64]byte
	if v, _, _, _ := c.Node(2).Store.View(40, buf[:]); string(v) == "payload" && time.Since(start) < nap {
		t.Fatal("the paused replica applied the write before it resumed")
	}
	// Once awake it catches up from the ledger's resends.
	deadline := time.Now().Add(nap + 5*time.Second)
	for {
		if v, _, _, _ := c.Node(2).Store.View(40, buf[:]); string(v) == "payload" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the woken replica never applied the write")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if time.Since(start) < nap {
		t.Fatal("the paused replica applied the write before it resumed")
	}
}

// TestAvailabilityDuringNodePause reproduces the failure study's headline
// (§8.4): with one replica asleep, the remaining majority keeps serving all
// operation classes.
func TestAvailabilityDuringNodePause(t *testing.T) {
	c, err := NewCluster(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.PauseNode(4, 300*time.Millisecond)

	s := c.Node(0).Session(0)
	for i := uint64(0); i < 10; i++ {
		write(t, s, 400+i, "w")
		release(t, s, 500+i, "r")
		if got := acquire(t, c.Node(1).Session(0), 500+i); got != "r" {
			t.Fatalf("acquire during pause = %q", got)
		}
		faa(t, s, 600, 1)
	}
	if got := faa(t, c.Node(2).Session(0), 600, 0); got != 10 {
		t.Fatalf("RMWs during pause lost: %d", got)
	}

	// After waking, the paused node recovers: acquires pull it back into
	// the fast path and new releases reach it again.
	time.Sleep(350 * time.Millisecond)
	release(t, s, 700, "post")
	if got := acquire(t, c.Node(4).Session(0), 700); got != "post" {
		t.Fatalf("woken node acquire = %q", got)
	}
	if got := read(t, c.Node(4).Session(0), 400); got != "w" {
		t.Fatalf("woken node read = %q", got)
	}
}

// TestLossyLinksEverywhere runs mixed traffic over a uniformly lossy
// network: correctness (RC visibility, RMW atomicity) must survive heavy
// message loss thanks to retransmissions and the slow path.
func TestLossyLinksEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy-network soak skipped in -short")
	}
	cfg := testConfig(3)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for from := uint8(0); from < 3; from++ {
		for to := uint8(0); to < 3; to++ {
			if from != to {
				c.Faults().DropLink(from, to, 0.10)
			}
		}
	}
	prod := c.Node(0).Session(0)
	cons := c.Node(1).Session(0)
	for i := 0; i < 15; i++ {
		val := fmt.Sprintf("v%d", i)
		write(t, prod, 800, val)
		release(t, prod, 801, val)
		for acquire(t, cons, 801) != val {
		}
		if got := read(t, cons, 800); got != val {
			t.Fatalf("iter %d: read %q want %q under loss", i, got, val)
		}
		faa(t, prod, 802, 1)
	}
	if got := faa(t, cons, 802, 0); got != 15 {
		t.Fatalf("FAA count under loss = %d", got)
	}
}

func waitVisible(t testing.TB, s *Session, key uint64, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := read(t, s, key); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %d never became %q", key, want)
		}
		time.Sleep(time.Millisecond)
	}
}
