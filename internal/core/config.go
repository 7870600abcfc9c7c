package core

import (
	"time"

	"kite/internal/catchup"
	"kite/internal/membership"
)

// Config parameterises a Kite deployment. The zero value is not usable; use
// DefaultConfig or fill every field.
type Config struct {
	// Nodes is the replication degree (the paper targets 3-9; max 16).
	Nodes int
	// Workers is the number of worker goroutines per node.
	Workers int
	// SessionsPerWorker is how many client sessions each worker executes.
	SessionsPerWorker int
	// KVSCapacity sizes each node's store (keys).
	KVSCapacity int
	// ReleaseTimeout bounds how long a release gathers acks from all
	// replicas before publishing the DM-set and proceeding via the slow
	// path. Larger values favour staying on the fast path when replicas
	// are slow; smaller values favour availability (§4.2, §8.4).
	ReleaseTimeout time.Duration
	// RetryInterval is the retransmission period of every round on a lossy
	// network: the quorum rounds (ABD, Paxos, slow-release) and each
	// relaxed write in a session's ledger, resent to the members that have
	// not acked it.
	RetryInterval time.Duration
	// MailboxDepth bounds each worker's transport receive queue.
	MailboxDepth int
	// MaxPendingWrites throttles a session once this many of its relaxed
	// writes await full acknowledgement (flow control, not correctness).
	MaxPendingWrites int
	// IdlePoll is how long an idle worker blocks before re-checking
	// deadlines.
	IdlePoll time.Duration
	// DisableFastPath forces every relaxed access through the slow path
	// (quorum rounds). Used by the ablation benchmarks to price the fast
	// path; never set in normal operation.
	DisableFastPath bool
	// DisableLocalAcquires forces every acquire through the ABD quorum
	// read, ignoring per-key valid bits (DESIGN.md "Local reads"). Used by
	// the latency figure to measure the ABD baseline in the same binary;
	// never set in normal operation. DisableFastPath implies it.
	DisableLocalAcquires bool
	// Incarnation distinguishes successive boots of the same node id. A
	// replica restarted after a crash MUST boot with a strictly higher
	// incarnation than any prior boot of its id: the value is folded into
	// every operation id the node issues (see Worker.nextOpID), and reusing
	// one would let a fresh session's op ids collide with pre-crash op ids
	// still held in peers' per-key exactly-once registries — a collision
	// makes the Paxos layer judge a brand-new RMW "already committed" and
	// complete it without executing it (a lost update). The deployment
	// layer tracks it (core.Cluster.RestartNode bumps it automatically;
	// kite-node exposes -incarnation); multi-process operators must persist
	// or monotonically derive it across restarts. Must be below 65535.
	Incarnation uint32
	// Rejoin marks this node as restarting into an existing deployment
	// with its state lost. It boots in catch-up mode: client requests are
	// buffered, read-type quorum traffic is dropped, and the node sweeps
	// its peers' key spaces (internal/catchup) until enough of them have
	// been covered to restore quorum intersection — only then does it serve.
	// Ignored for single-node deployments, which have nobody to sweep.
	Rejoin bool
	// CatchupChunk bounds how many key entries a peer packs into one
	// catch-up chunk (0 means catchup.DefaultChunk). Tests shrink it to
	// stretch the sweep; operators normally leave it alone.
	CatchupChunk int
	// Initial is the group configuration the node boots with. The zero
	// value derives the epoch-0 config from Nodes (members 0..Nodes-1);
	// replicas joining or rejoining a group that has reconfigured pass the
	// current config instead. The live configuration thereafter evolves by
	// committed reconfigurations (Node.ReconfigureAdd/ReconfigureRemove)
	// and by configs learned from peers — Initial is only the starting
	// point.
	Initial membership.Config

	// WALDir, when non-empty, enables the per-node write-ahead log
	// (internal/wal): every durable transition — ES/ABD value installs,
	// Paxos promises/accepts/commits, catch-up imports, config commits —
	// is logged, and on restart the node replays snapshot + log before
	// running its rejoin sweep, so a full-quorum crash no longer loses
	// acknowledged data or accepted-but-uncommitted Paxos rounds. Empty
	// (the default) keeps the memory-only fast path: no logging, no
	// replay, restart semantics exactly as before. One directory per
	// node; the deployment layer derives per-node subdirectories.
	WALDir string
	// FsyncInterval is the WAL group-commit deadline: appended records
	// are written eagerly but fsynced in batches at this cadence, so a
	// power loss can take back at most one interval of acknowledged
	// operations (a process kill loses only what the flusher had not
	// written — the page cache survives). Zero means
	// wal.DefaultFsyncInterval; negative selects synchronous mode, where
	// each worker fsyncs its iteration's appends before shipping acks
	// (the per-op-durability ablation — measured by `kite-bench -fig
	// durability`, not meant for production). Ignored without WALDir.
	FsyncInterval time.Duration
	// SnapshotEvery is how many WAL records are appended between store
	// snapshots; snapshots bound replay length and let old segments be
	// truncated. Zero means wal.DefaultSnapshotEvery; negative disables
	// snapshotting (testing only). Ignored without WALDir.
	SnapshotEvery int
}

// DefaultConfig returns the configuration used throughout the evaluation:
// a 5-replica deployment, matching the paper's testbed.
func DefaultConfig() Config {
	return Config{
		Nodes:             5,
		Workers:           4,
		SessionsPerWorker: 4,
		KVSCapacity:       1 << 16,
		ReleaseTimeout:    time.Millisecond,
		RetryInterval:     2 * time.Millisecond,
		MailboxDepth:      4096,
		MaxPendingWrites:  64,
		IdlePoll:          200 * time.Microsecond,
		CatchupChunk:      catchup.DefaultChunk,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.SessionsPerWorker == 0 {
		c.SessionsPerWorker = d.SessionsPerWorker
	}
	if c.KVSCapacity == 0 {
		c.KVSCapacity = d.KVSCapacity
	}
	if c.ReleaseTimeout == 0 {
		c.ReleaseTimeout = d.ReleaseTimeout
	}
	if c.RetryInterval == 0 {
		c.RetryInterval = d.RetryInterval
	}
	if c.MailboxDepth == 0 {
		c.MailboxDepth = d.MailboxDepth
	}
	if c.MaxPendingWrites == 0 {
		c.MaxPendingWrites = d.MaxPendingWrites
	}
	if c.IdlePoll == 0 {
		c.IdlePoll = d.IdlePoll
	}
	if c.CatchupChunk == 0 {
		c.CatchupChunk = d.CatchupChunk
	}
	return c
}
