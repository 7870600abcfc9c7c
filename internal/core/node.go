package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kite/internal/barrier"
	"kite/internal/kvs"
	"kite/internal/llc"
	"kite/internal/membership"
	"kite/internal/transport"
	"kite/internal/wal"
)

// Node is one Kite replica: the full KVS in memory, the machine epoch-id,
// the delinquency bit-vector, and a set of worker goroutines executing
// client sessions.
type Node struct {
	ID  uint8
	cfg Config

	// view is the node's installed group configuration (epoch + member
	// set). Quorum sizes, broadcast targets and full-ack masks all derive
	// from it; InstallConfig advances it monotonically and the workers pick
	// the change up at their loop top (applyConfig).
	view atomic.Pointer[membership.Config]

	Store  *kvs.Store
	Epoch  barrier.Epoch
	Delinq barrier.Vector

	tr       transport.Transport
	workers  []*Worker
	sessions []*Session
	// admin is a hidden extra session (owned by worker 0, not leased to
	// clients or returned by Session) that reconfiguration CASes run on, so
	// AddNode/RemoveNode never violates the one-submitter-per-session
	// contract of the public sessions. adminMu serialises its submitters.
	admin   *Session
	adminMu sync.Mutex

	// wal, when non-nil, is the node's write-ahead log (Config.WALDir).
	// walRestored marks a boot that replayed prior state from it: such a
	// node still runs the rejoin sweep (it may have missed writes while
	// down) but, unlike an amnesiac rejoiner, its store is complete up to
	// its last durable record — so it may answer peers' catch-up pulls
	// even mid-rejoin, which is what lets a whole cluster restart from
	// disk without deadlocking on each other's sweeps. walSync selects
	// synchronous mode (Config.FsyncInterval < 0): each worker fsyncs ALL
	// of its iteration's appends before shipping acks, instead of just
	// the consensus-critical ones every mode fsyncs (Worker.syncWAL).
	// walErr holds the first WAL failure; setting it crash-stops the node
	// (walFailed).
	wal         *wal.Log
	walRestored bool
	walSync     bool
	walErr      atomic.Pointer[error]

	paused  atomic.Bool
	stopped atomic.Bool
	// stopCh is closed when the node stops; background loops (WAL
	// snapshots) select on it.
	stopCh chan struct{}
	// removed is set when an installed configuration excludes this node:
	// the group has moved on without it. Workers exit exactly as on a stop
	// (a removed replica's store stops receiving writes, so continuing to
	// serve local reads would hand out stale data).
	removed atomic.Bool
	started bool
	wg      sync.WaitGroup

	// Rejoin / anti-entropy state (DESIGN.md "Recovery"). rejoining is set
	// for the node's whole catch-up phase: client requests buffer, read-type
	// quorum traffic is dropped, and worker 0 drives the sweep. catchupDone
	// is closed (once) when the sweep completes; for nodes that never
	// rejoin it is closed at construction.
	rejoining      atomic.Bool
	catchupDone    chan struct{}
	catchupStarted time.Time
	catchupElapsed atomic.Int64 // ns; set when the sweep completes
	catchupPulled  atomic.Uint64
	catchupApplied atomic.Uint64

	// stats
	completed      [opCodes]atomic.Uint64
	slowReads      atomic.Uint64 // relaxed accesses served via the slow path
	slowWrites     atomic.Uint64
	epochBumps     atomic.Uint64
	slowRels       atomic.Uint64 // releases that published a DM-set
	staleFrames    atomic.Uint64 // frames dropped by the config-epoch check
	configInstalls atomic.Uint64 // configurations installed (boot excluded)
	localAcqHits   atomic.Uint64 // acquires served locally off a valid key
	acqFallbacks   atomic.Uint64 // acquires that fell back to the ABD read
}

// NewNode creates (but does not start) a replica. All nodes of a deployment
// must share cfg and use transports wired to the same endpoint space.
func NewNode(id uint8, cfg Config, tr transport.Transport) (*Node, error) {
	cfg = cfg.withDefaults()
	boot := cfg.Initial
	if boot.Members == 0 {
		if cfg.Nodes < 1 || cfg.Nodes > llc.MaxNodes {
			return nil, fmt.Errorf("core: %d nodes outside [1,%d]", cfg.Nodes, llc.MaxNodes)
		}
		boot = membership.Initial(cfg.Nodes)
	}
	if boot.N() > llc.MaxNodes {
		return nil, fmt.Errorf("core: %d members exceed %d", boot.N(), llc.MaxNodes)
	}
	// The op-id layout (node 8 | incarnation 16 | session 8 | seq 32, see
	// Worker.nextOpID) bounds both the session count and the incarnation.
	if cfg.Workers*cfg.SessionsPerWorker+1 > 256 {
		return nil, fmt.Errorf("core: %d sessions exceed the 255 the op-id layout addresses",
			cfg.Workers*cfg.SessionsPerWorker)
	}
	if cfg.Incarnation >= 0xffff {
		return nil, fmt.Errorf("core: incarnation %d outside [0,65535)", cfg.Incarnation)
	}
	nd := &Node{
		ID:    id,
		cfg:   cfg,
		Store: kvs.New(cfg.KVSCapacity),
		tr:    tr,
	}
	nd.stopCh = make(chan struct{})
	// WAL replay happens before the membership check: it may both raise
	// the incarnation above the requested one and adopt a newer group
	// configuration the node had durably installed — including one that
	// removed this node while it was down, which must fail the boot.
	if cfg.WALDir != "" {
		if err := nd.openWAL(&boot); err != nil {
			return nil, err
		}
	}
	if !boot.Contains(id) {
		if nd.wal != nil {
			nd.wal.Close()
		}
		return nil, fmt.Errorf("core: node id %d not in boot config (%v)", id, boot)
	}
	nd.view.Store(&boot)
	nd.catchupDone = make(chan struct{})
	// A WAL-restored node always rejoins (its log is complete only up to
	// the crash; the sweep reconciles the delta) even if the caller
	// forgot to ask.
	if (cfg.Rejoin || nd.walRestored) && boot.N() > 1 {
		nd.rejoining.Store(true)
		nd.catchupStarted = time.Now()
	} else {
		close(nd.catchupDone)
	}
	nd.workers = make([]*Worker, cfg.Workers)
	for w := range nd.workers {
		nd.workers[w] = newWorker(nd, uint8(w))
	}
	nd.sessions = make([]*Session, 0, cfg.Workers*cfg.SessionsPerWorker)
	for i := 0; i < cfg.Workers*cfg.SessionsPerWorker; i++ {
		w := nd.workers[i%cfg.Workers]
		s := newSession(nd, w, i)
		w.sessions = append(w.sessions, s)
		nd.sessions = append(nd.sessions, s)
	}
	// The admin session rides on worker 0 with the next free index; it is
	// invisible to Sessions()/Session(i) and exists only for
	// reconfiguration CASes.
	nd.admin = newSession(nd, nd.workers[0], len(nd.sessions))
	nd.workers[0].sessions = append(nd.workers[0].sessions, nd.admin)
	// The mutation hook goes in only after replay: replayed records must
	// not re-log themselves.
	if nd.wal != nil {
		nd.Store.SetHook(nd.walHook)
	}
	return nd, nil
}

// View returns the node's installed group configuration.
func (nd *Node) View() membership.Config { return *nd.view.Load() }

// Incarnation returns the boot incarnation this node was created with
// (Config.Incarnation); the next incarnation of the same id must boot with
// a strictly higher value.
func (nd *Node) Incarnation() uint32 { return nd.cfg.Incarnation }

// SuccessorConfig is the configuration this node's next incarnation boots
// with after a crash-restart on the same id: base (the replica's usual
// config) in catch-up mode, with a strictly higher incarnation — the new
// node's op ids must never collide with ids this one left in the group's
// exactly-once registries — under view, the newest configuration the
// caller knows. Cluster.RestartNode and kite-node's in-place restart both
// derive their successors here.
func (nd *Node) SuccessorConfig(base Config, view membership.Config) Config {
	base.Rejoin = true
	base.Incarnation = nd.Incarnation() + 1
	base.Initial = view
	return base
}

// WALRestored reports whether this boot replayed prior state from its
// write-ahead log. Such a node rejoins on its own (sweeping only the
// delta it missed while down), even without Config.Rejoin.
func (nd *Node) WALRestored() bool { return nd.walRestored }

// ConfigEpoch returns the installed configuration epoch (the value stamped
// on every outgoing frame).
func (nd *Node) ConfigEpoch() uint32 { return nd.view.Load().Epoch }

// MembersMask returns the installed member bitmask.
func (nd *Node) MembersMask() uint16 { return nd.view.Load().Members }

// n, quorum and full derive from the installed configuration.
func (nd *Node) n() int        { return nd.view.Load().N() }
func (nd *Node) quorum() int   { return nd.view.Load().Quorum() }
func (nd *Node) full() uint16  { return nd.view.Load().Members }
func (nd *Node) Removed() bool { return nd.removed.Load() }

// InstallConfig adopts c if it is newer than the installed configuration,
// reporting whether it was installed. Installs are monotone in the epoch
// and safe from any goroutine; workers observe the change at their next
// loop iteration (retargeting trackers, broadcast sets and quorum sizes —
// see Worker.applyConfig). Installing a configuration that excludes this
// node marks it removed: its workers shut down like a crash-stop, since a
// non-member's store no longer receives the group's writes and must not
// serve reads from it.
func (nd *Node) InstallConfig(c membership.Config) bool {
	for {
		cur := nd.view.Load()
		if c.Epoch <= cur.Epoch {
			return false
		}
		cc := c
		if nd.view.CompareAndSwap(cur, &cc) {
			break
		}
	}
	nd.configInstalls.Add(1)
	// Installed configurations are durable: a restarted node must come
	// back under the newest view it ever acknowledged, or it could serve
	// quorums computed from a member set the group has moved past.
	if nd.wal != nil {
		nd.wal.Append(wal.Record{Kind: wal.KindConfig, Epoch: c.Epoch, Value: c.Encode()})
	}
	if !c.Contains(nd.ID) {
		nd.removed.Store(true)
	}
	return true
}

// maybeInstallEncoded installs a configuration observed as the committed
// value of the config key (Paxos commit/learn traffic, catch-up items).
// Malformed values are ignored — Decode validates.
func (nd *Node) maybeInstallEncoded(val []byte) {
	if c, err := membership.Decode(val); err == nil {
		nd.InstallConfig(c)
	}
}

// installConfigFromStore installs whatever configuration the local store
// holds under the config key — how a swept-in config takes effect when a
// (re)joining replica finishes catch-up.
func (nd *Node) installConfigFromStore() {
	var buf [kvs.MaxValueLen]byte
	if val, _, _, ok := nd.Store.View(membership.ConfigKey, buf[:]); ok {
		nd.maybeInstallEncoded(val)
	}
}

// Start launches the worker goroutines.
func (nd *Node) Start() {
	if nd.started {
		return
	}
	nd.started = true
	for _, w := range nd.workers {
		nd.wg.Add(1)
		go func(w *Worker) {
			defer nd.wg.Done()
			w.run()
		}(w)
	}
	if nd.wal != nil && nd.cfg.SnapshotEvery >= 0 {
		nd.wg.Add(1)
		go func() {
			defer nd.wg.Done()
			nd.snapshotLoop()
		}()
	}
}

// Stop terminates the workers, failing outstanding requests with
// ErrStopped, and waits for them to exit. Stopping a node mid-rejoin
// aborts its catch-up sweep: CatchingUp drops to false and AwaitCatchup
// unblocks, so waiters on a node that died sweeping (a repeated SIGHUP,
// a test teardown) do not hang for their full timeout — check Stopped to
// distinguish an aborted sweep from a completed one.
func (nd *Node) Stop() {
	if nd.stopped.Swap(true) {
		return
	}
	close(nd.stopCh)
	nd.wg.Wait()
	nd.finishCatchup()
	if nd.wal != nil {
		nd.wal.Close()
	}
}

// Crash stops the node the way SIGKILL would: workers exit as on Stop
// (in-process we cannot kill goroutines preemptively), but the WAL is
// abandoned mid-flush — buffered records reach the file, since a killed
// process's page cache survives, yet nothing is fsynced. Restarting
// from the same WALDir then exercises the real recovery path: replay up
// to the last durable record plus the rejoin sweep for the rest.
// Memory-only nodes crash exactly like Stop.
func (nd *Node) Crash() {
	if nd.stopped.Swap(true) {
		return
	}
	close(nd.stopCh)
	nd.wg.Wait()
	nd.finishCatchup()
	if nd.wal != nil {
		nd.wal.Crash()
	}
}

// Stopped reports whether the node has been stopped.
func (nd *Node) Stopped() bool { return nd.stopped.Load() }

// Pause makes the node unresponsive for d — workers stop processing
// messages and requests, exactly like the sleeping replica of the failure
// study (§8.4). Messages queued for it overflow and drop; its peers' releases
// time out, publish it in DM-sets and move on.
func (nd *Node) Pause(d time.Duration) {
	if nd.paused.Swap(true) {
		return
	}
	time.AfterFunc(d, func() { nd.paused.Store(false) })
}

// Paused reports whether the node is currently unresponsive.
func (nd *Node) Paused() bool { return nd.paused.Load() }

// CatchingUp reports whether the node is still running its rejoin sweep.
// A catching-up node buffers client requests and serves no acquires (or any
// other operation) until the sweep completes.
func (nd *Node) CatchingUp() bool { return nd.rejoining.Load() }

// AwaitCatchup blocks until the node's rejoin sweep completes, reporting
// whether it did so within d. Nodes that never rejoined return true
// immediately.
func (nd *Node) AwaitCatchup(d time.Duration) bool {
	select {
	case <-nd.catchupDone:
		return true
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-nd.catchupDone:
		return true
	case <-t.C:
		return false
	}
}

// CatchupStats is a snapshot of a node's rejoin sweep.
type CatchupStats struct {
	Active  bool          // the sweep is still running
	Pulled  uint64        // items received from peers
	Applied uint64        // items newer than local state (actually installed)
	Elapsed time.Duration // sweep duration (so far when Active)
}

// Catchup snapshots the node's rejoin-sweep progress. Nodes that booted
// normally report the zero value.
func (nd *Node) Catchup() CatchupStats {
	st := CatchupStats{
		Active:  nd.rejoining.Load(),
		Pulled:  nd.catchupPulled.Load(),
		Applied: nd.catchupApplied.Load(),
		Elapsed: time.Duration(nd.catchupElapsed.Load()),
	}
	if st.Active {
		st.Elapsed = time.Since(nd.catchupStarted)
	}
	return st
}

// finishCatchup transitions the node out of rejoin mode, exactly once. A
// completed sweep may have pulled a newer group configuration in with the
// rest of the key space; it takes effect here, before the node serves.
func (nd *Node) finishCatchup() {
	if nd.rejoining.Swap(false) {
		nd.installConfigFromStore()
		nd.catchupElapsed.Store(int64(time.Since(nd.catchupStarted)))
		close(nd.catchupDone)
	}
}

// Sessions returns the number of client sessions the node runs.
func (nd *Node) Sessions() int { return len(nd.sessions) }

// Session returns the i-th session handle.
func (nd *Node) Session(i int) *Session { return nd.sessions[i] }

// Config returns the node's effective configuration.
func (nd *Node) Config() Config { return nd.cfg }

// Completed returns how many operations of the given class this node's
// sessions have completed.
func (nd *Node) Completed(c OpCode) uint64 { return nd.completed[c].Load() }

// CompletedTotal sums completions across operation classes.
func (nd *Node) CompletedTotal() uint64 {
	var t uint64
	for i := range nd.completed {
		t += nd.completed[i].Load()
	}
	return t
}

// Stats is a snapshot of a node's slow-path activity.
type Stats struct {
	SlowReads    uint64 // relaxed reads served by quorum rounds
	SlowWrites   uint64 // relaxed writes that needed a TS quorum round
	EpochBumps   uint64 // acquire-side transitions to the slow path
	SlowReleases uint64 // releases that published a DM-set
	LocalAcqHits uint64 // acquires served locally off a validated key (DESIGN.md "Local reads")
	AcqFallbacks uint64 // acquires that fell back to the ABD quorum read
}

// Add accumulates o into s: the machine-level view of a replica per group.
func (s *Stats) Add(o Stats) {
	s.SlowReads += o.SlowReads
	s.SlowWrites += o.SlowWrites
	s.EpochBumps += o.EpochBumps
	s.SlowReleases += o.SlowReleases
	s.LocalAcqHits += o.LocalAcqHits
	s.AcqFallbacks += o.AcqFallbacks
}

// SlowPathStats snapshots the node's slow-path counters.
func (nd *Node) SlowPathStats() Stats {
	return Stats{
		SlowReads:    nd.slowReads.Load(),
		SlowWrites:   nd.slowWrites.Load(),
		EpochBumps:   nd.epochBumps.Load(),
		SlowReleases: nd.slowRels.Load(),
		LocalAcqHits: nd.localAcqHits.Load(),
		AcqFallbacks: nd.acqFallbacks.Load(),
	}
}
