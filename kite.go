// Package kite is a replicated, highly-available, in-memory key-value store
// offering RCLin — a linearizable variant of Release Consistency — in an
// asynchronous setting with crash-stop and network failures. It is a
// from-scratch Go reproduction of
//
//	Gavrielatos, Katsarakis, Nagarajan, Grot, Joshi.
//	"Kite: Efficient and Available Release Consistency for the Datacenter."
//	PPoPP 2020.
//
// # Programming model
//
// Kite exposes the Data-Race-Free contract of shared memory (§1.1 of the
// paper): annotate synchronisation operations and get strong consistency
// where it matters, eventual-consistency performance everywhere else.
//
//   - OpRead/OpWrite: relaxed accesses, run by Eventual Store — reads are
//     local, writes broadcast asynchronously (per-key SC).
//   - OpRelease: a write that acts as a one-way barrier — by the time it is
//     visible, every prior write of the session is visible (ABD).
//   - OpAcquire: a read that acts as a one-way barrier — accesses after it
//     see everything before the release it reads from (ABD).
//   - OpFAA / OpCASWeak / OpCASStrong: atomic read-modify-writes (per-key
//     Paxos). The weak CAS may complete locally when its comparison fails;
//     the strong variant always checks remote replicas.
//
// # One API, two deployments
//
// Every operation is an Op value executed through the Session interface:
// Do (synchronous, context-aware), DoAsync (pipelined, §6.1) and DoBatch
// (many ops, one submission — on the remote backend, one wire frame), plus
// the familiar convenience methods (Read, Write, ReleaseWrite, AcquireRead,
// FAA, CompareAndSwap) layered on top. A Session is a single logical thread
// of control: its operations take effect in submission order, and sync
// calls must not be interleaved from multiple goroutines.
//
// Two backends implement Session: the in-process Cluster below, and
// kite/client.Session for external processes talking UDP to a node's
// session server (kite-node -client-addr). Code written against the
// interface — the dstruct structures, the examples, the benchmark drivers —
// runs unchanged over either deployment.
//
// Contexts carry per-operation deadlines and cancellation; there is no
// hidden operation timeout. Failures surface as the shared taxonomy
// (ErrStopped, ErrValueTooLong, ErrCanceled, ErrSessionClosed), identical
// across backends.
//
// # Deployment
//
// NewCluster runs an N-replica deployment inside the calling process —
// replicas exchange messages over an in-memory lossy transport with
// pluggable fault injection, which is also how the paper's failure studies
// are reproduced. Multi-process deployments over UDP are available via
// cmd/kite-node and the kite/client package.
package kite

import (
	"time"

	"kite/internal/core"
	"kite/internal/transport"
)

// MaxValueLen is the largest value (in bytes) Kite stores. Oversized values
// are rejected at submission with ErrValueTooLong.
const MaxValueLen = 64

// Options configure a Cluster. The zero value of any field selects the
// evaluation default (5 replicas, 4 workers, 1 ms release timeout...).
type Options struct {
	// Nodes is the replication degree, 1-16 (paper: 3-9, default 5).
	Nodes int
	// Workers is the number of worker goroutines per replica.
	Workers int
	// SessionsPerWorker fixes how many sessions each worker executes.
	SessionsPerWorker int
	// Capacity hints the per-replica store size in keys.
	Capacity int
	// ReleaseTimeout bounds the release barrier's wait for all-replica
	// acks before it publishes a DM-set and proceeds via the slow path.
	// It trades performance (longer) against availability (shorter); see
	// §8.4 of the paper.
	ReleaseTimeout time.Duration
	// RetryInterval is the protocol retransmission period.
	RetryInterval time.Duration
	// DisableFastPath forces all relaxed accesses through quorum rounds
	// (ablation studies only).
	DisableFastPath bool
	// DisableLocalAcquires forces every acquire through the ABD quorum
	// read instead of the Hermes-style local fast path on validated keys
	// (DESIGN.md "Local reads"). Ablation/baseline studies only.
	DisableLocalAcquires bool
	// WALDir, when non-empty, enables per-replica durability: each node
	// appends a write-ahead log (and periodic store snapshots) under its
	// own subdirectory of WALDir, and RestartNode recovers from it instead
	// of rejoining empty. Empty (the default) keeps replicas memory-only,
	// exactly as the paper evaluates Kite.
	WALDir string
	// FsyncInterval is the WAL group-commit deadline: appends become
	// power-loss durable at most this long after they are buffered. Zero
	// selects the default (10ms); negative means fsync before every
	// operation acknowledgment (strict durability, one fsync per worker
	// iteration). Ignored without WALDir.
	FsyncInterval time.Duration
	// SnapshotEvery is the number of WAL records between background store
	// snapshots, which bound replay time and truncate old segments. Zero
	// selects the default (65536); negative disables snapshots (the log
	// grows without bound). Ignored without WALDir.
	SnapshotEvery int
}

func (o Options) toConfig() core.Config {
	return core.Config{
		Nodes:                o.Nodes,
		Workers:              o.Workers,
		SessionsPerWorker:    o.SessionsPerWorker,
		KVSCapacity:          o.Capacity,
		ReleaseTimeout:       o.ReleaseTimeout,
		RetryInterval:        o.RetryInterval,
		DisableFastPath:      o.DisableFastPath,
		DisableLocalAcquires: o.DisableLocalAcquires,
		WALDir:               o.WALDir,
		FsyncInterval:        o.FsyncInterval,
		SnapshotEvery:        o.SnapshotEvery,
	}
}

// Cluster is an in-process Kite deployment. Its lifecycle methods are the
// module's one replica-lifecycle method set (core.Deployment), shared with
// sharded.Cluster and the test harness.
type Cluster struct {
	c *core.Cluster
}

var _ core.Deployment = (*Cluster)(nil)

// NewCluster starts an in-process deployment with the given options.
func NewCluster(opts Options) (*Cluster, error) {
	c, err := core.NewCluster(opts.toConfig())
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// Nodes returns the number of replica slots ever created: the boot members
// plus every AddNode since. Removed replicas keep their slot (stopped); the
// live member set is Members().
func (c *Cluster) Nodes() int { return c.c.Nodes() }

// Membership is a replica group's current configuration: the member node
// ids and the configuration epoch that names this exact set. The epoch
// increments by one per committed AddNode/RemoveNode and is carried on
// every protocol frame of the group (DESIGN.md "Membership").
type Membership struct {
	Epoch uint32
	Nodes []int
}

// Members returns the cluster's current membership.
func (c *Cluster) Members() Membership {
	v := c.c.Members()
	m := Membership{Epoch: v.Epoch}
	for _, id := range v.MemberIDs() {
		m.Nodes = append(m.Nodes, int(id))
	}
	return m
}

// AddNode grows the deployment by one replica while it serves: the grown
// configuration (epoch+1) is committed through the group's own consensus,
// then a fresh replica with the returned id boots in catch-up mode — it
// applies live writes immediately but buffers its own clients and serves
// nothing until its anti-entropy sweep completes (gate on AwaitRejoin).
// Concurrent reconfigurations are serialized by the config consensus; a
// loser returns an error and changes nothing.
func (c *Cluster) AddNode() (int, error) { return c.c.AddNode() }

// RemoveNode shrinks the deployment: the configuration excluding the
// replica is committed, surviving replicas retarget their quorums and
// write ledgers (nothing waits on the leaver's acks), and the leaver is
// crash-stopped. Its session handles fail with ErrStopped; its id is never
// reused. Removing the last member is rejected.
func (c *Cluster) RemoveNode(node int) error { return c.c.RemoveNode(node) }

// SessionsPerNode returns how many sessions each replica offers.
func (c *Cluster) SessionsPerNode() int { return c.c.SessionsPerNode() }

// Session opens a handle to session sess of replica node, as the unified
// Session interface. Handles are single-threaded: synchronous calls must
// not be made concurrently on one handle, and two handles to the same
// (node, sess) pair must not be used concurrently.
func (c *Cluster) Session(node, sess int) Session {
	return newClusterSession(c.c.Node(node).Session(sess))
}

// PauseNode makes a replica unresponsive for d — the sleeping-replica
// failure of the paper's §8.4 study. The cluster stays available as long as
// a majority is awake.
func (c *Cluster) PauseNode(node int, d time.Duration) { c.c.PauseNode(node, d) }

// StopNode crash-stops a replica: its workers exit and outstanding
// operations fail with ErrStopped. Unlike a pause, the replica's in-memory
// state is lost — bring the slot back with RestartNode.
func (c *Cluster) StopNode(node int) { c.c.StopNode(node) }

// CrashNode kills a replica the way SIGKILL would: like StopNode, but a
// WAL-enabled replica's log is abandoned without a final fsync, so recovery
// sees exactly what had reached the operating system — not a graceful
// shutdown's tidy tail. On memory-only deployments it is indistinguishable
// from StopNode. Pair with RestartNode to exercise crash recovery.
func (c *Cluster) CrashNode(node int) { c.c.CrashNode(node) }

// RestartNode replaces a replica with a fresh node of the same id — the
// crash-recovery failure, one step beyond the paper's sleeping replica. A
// memory-only replica comes back empty; with Options.WALDir it first
// replays its own snapshot + log, recovering everything durable at the
// crash. Either way the new incarnation rejoins via the anti-entropy
// catch-up sweep (DESIGN.md "Recovery"): it buffers operations and serves
// nothing until it has reconciled the key space with enough surviving
// peers (with a WAL, only the post-crash delta). Session handles opened
// before the restart fail with ErrStopped; open fresh ones with Session
// once AwaitRejoin reports the node caught up.
func (c *Cluster) RestartNode(node int) error { return c.c.RestartNode(node) }

// AwaitRejoin blocks until a restarted (or freshly added) replica's
// catch-up sweep completes, reporting whether it did within timeout.
// Replicas that never restarted return true immediately; a replica stopped
// or removed mid-sweep (its sweep aborted, it will never serve) reports
// false rather than masquerading as caught up.
func (c *Cluster) AwaitRejoin(node int, timeout time.Duration) bool {
	return c.c.AwaitRejoin(node, timeout)
}

// NodeCatchup reports a replica's rejoin-sweep progress (zero value for
// replicas that never restarted).
func (c *Cluster) NodeCatchup(node int) core.CatchupStats { return c.c.Node(node).Catchup() }

// Faults exposes the network's fault surface (drop/delay/cut links,
// partition nodes) for failure testing.
func (c *Cluster) Faults() *transport.FaultSet { return c.c.Faults() }

// NodeStats reports a replica's slow-path activity counters.
func (c *Cluster) NodeStats(node int) core.Stats { return c.c.NodeStats(node) }

// CompletedOps returns the total operations completed by replica node.
func (c *Cluster) CompletedOps(node int) uint64 { return c.c.Node(node).CompletedTotal() }

// OpClassCounts returns per-class completed-operation counts for a replica:
// [read, write, release, acquire, faa, cas-weak, cas-strong, flush].
func (c *Cluster) OpClassCounts(node int) [8]uint64 {
	var out [8]uint64
	nd := c.c.Node(node)
	for i := range out {
		out[i] = nd.Completed(core.OpCode(i))
	}
	return out
}

// Close stops every replica; outstanding operations fail with ErrStopped.
func (c *Cluster) Close() { c.c.Close() }
