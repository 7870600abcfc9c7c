// Command kite-node runs one Kite replica over real UDP, for multi-process
// deployments (the in-process Cluster is the default for tests and
// benchmarks; this binary exercises the same node code over the datagram
// transport, which has exactly the RDMA-UD delivery contract the paper
// assumes: no reliability, protocol-level retries).
//
// A 3-replica local deployment serving external clients:
//
//	kite-node -id 0 -nodes 3 -base 7000 -client-addr :9000 &
//	kite-node -id 1 -nodes 3 -base 7000 -client-addr :9001 &
//	kite-node -id 2 -nodes 3 -base 7000 -client-addr :9002 &
//	kite-cli -addr 127.0.0.1:9000
//
// Every replica binds workers UDP ports starting at
// base+(group*16+id)*workers for replica-to-replica traffic — the port
// block is strided by the maximum group size (16), not the current -nodes,
// so replicas added later (-join) have well-known addresses that every peer
// derived at boot. With -client-addr, the replica additionally runs a
// session server on that UDP address: external processes connect with the
// kite/client package (or cmd/kite-cli) and lease the node's sessions to
// run operations remotely. With -demo, the node instead runs a small
// producer-consumer self-test through its local sessions once the
// deployment is up; otherwise it serves until interrupted.
//
// Sharded deployments run several independent replica groups over one key
// space (-groups G -group g): replica traffic stays inside each group, the
// session server advertises the node's (group, groups) to clients, and
// clients shard with client.DialSharded / kite-cli -addrs, one address per
// group. A 2-group × 2-replica deployment on one machine:
//
//	kite-node -groups 2 -group 0 -id 0 -nodes 2 -base 7000 -client-addr :9000 &
//	kite-node -groups 2 -group 0 -id 1 -nodes 2 -base 7000 -client-addr :9001 &
//	kite-node -groups 2 -group 1 -id 0 -nodes 2 -base 7000 -client-addr :9100 &
//	kite-node -groups 2 -group 1 -id 1 -nodes 2 -base 7000 -client-addr :9101 &
//	kite-cli -addrs 127.0.0.1:9000,127.0.0.1:9100
//
// Restarts: SIGHUP restarts the replica in place (state discarded, rejoin
// via the anti-entropy catch-up sweep, session server kept alive), and
// -rejoin boots a replacement process in catch-up mode when it re-enters a
// live deployment. Catch-up progress is logged once per second. See
// OPERATIONS.md for the full runbook.
//
// Durability: -wal-dir gives the replica a write-ahead log (plus periodic
// store snapshots) in that directory. A restarted process pointed at the
// same directory replays it before rejoining, recovering everything
// durable at the crash — including the boot incarnation, so -incarnation
// bookkeeping becomes automatic — and the rejoin sweep reconciles only
// what the replica missed while down. -fsync-interval sets the
// group-commit deadline (default 10ms; 0 means default, a negative value
// fsyncs before every acknowledgment); -snapshot-every sets the record
// count between snapshots. Memory-only (no -wal-dir) remains the default
// and matches the paper's evaluation. See OPERATIONS.md "Durability".
//
// Live membership: -join adds this replica to a RUNNING group. The flag
// names any existing member's client address; the new process asks that
// member to commit the grown configuration, then boots in catch-up mode
// under it and serves once covered. Removal is driven from the outside
// (kite-cli remove -node N against a surviving member); a replica that
// learns it has been removed logs the fact and exits. kite-cli members
// shows a group's configuration epoch and member set.
//
//	kite-node -id 3 -nodes 3 -base 7000 -join 127.0.0.1:9000 -client-addr :9003 &
//	kite-cli -addr 127.0.0.1:9000 members
//	kite-cli -addr 127.0.0.1:9000 remove 1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kite/client"
	"kite/internal/core"
	"kite/internal/llc"
	"kite/internal/membership"
	"kite/internal/server"
	"kite/internal/transport"
)

func main() {
	var (
		id          = flag.Int("id", 0, "this replica's id (0..nodes-1)")
		nodes       = flag.Int("nodes", 3, "replication degree (per group)")
		groups      = flag.Int("groups", 1, "replica groups in the deployment (sharded key space)")
		group       = flag.Int("group", 0, "this replica's group (0..groups-1)")
		workers     = flag.Int("workers", 2, "workers per node (same on all nodes)")
		base        = flag.Int("base", 7000, "base UDP port; node i of group g binds base+(g*nodes+i)*workers...")
		host        = flag.String("host", "127.0.0.1", "bind/peer host")
		clientAddr  = flag.String("client-addr", "", "UDP address for the client session server (empty: no external clients)")
		clientMax   = flag.Int("client-sessions", 0, "max sessions leased to external clients (0: all)")
		rejoin      = flag.Bool("rejoin", false, "boot in catch-up mode: this replica is re-entering a LIVE deployment after losing its state (see OPERATIONS.md)")
		incarnation = flag.Uint("incarnation", 0, "boot incarnation of this replica id; every restart after a crash MUST pass a strictly higher value than the previous boot (see OPERATIONS.md)")
		join        = flag.String("join", "", "client address of an EXISTING member: commit a grown configuration that includes this replica, then boot in catch-up mode (live add; see OPERATIONS.md)")
		demo        = flag.Bool("demo", false, "run a producer-consumer self-test then exit")
		walDir      = flag.String("wal-dir", "", "write-ahead log directory for this replica (empty: memory-only, the paper's configuration); restarts pointed at the same directory recover from it")
		fsyncEvery  = flag.Duration("fsync-interval", 0, "WAL group-commit deadline (0: default 10ms; negative: fsync before every acknowledgment)")
		snapEvery   = flag.Int("snapshot-every", 0, "WAL records between store snapshots (0: default 65536; negative: never snapshot)")
	)
	flag.Parse()
	if *demo && *clientAddr != "" {
		// The demo drives the node's own sessions directly; leasing the
		// same sessions to external clients would break the one-submitter-
		// per-session contract.
		log.Fatal("kite-node: -demo and -client-addr are mutually exclusive")
	}
	if *groups < 1 || *group < 0 || *group >= *groups {
		log.Fatalf("kite-node: -group %d outside [0,%d)", *group, *groups)
	}

	// Replica traffic never crosses groups: each group owns a contiguous
	// port block, strided by the maximum group size so that replicas added
	// after boot (-join, ids beyond -nodes) have addresses every peer
	// already derived. The address book covers the whole id space — ports
	// of ids that never run are just dark.
	udpCfg := transport.GroupUDPConfig(uint8(*id), *workers, llc.MaxNodes, func(n, w int) string {
		return fmt.Sprintf("%s:%d", *host, *base+(*group*llc.MaxNodes+n)**workers+w)
	})
	tr, err := transport.NewUDP(udpCfg)
	if err != nil {
		log.Fatalf("kite-node: transport: %v", err)
	}
	defer tr.Close()

	cfg := core.Config{Nodes: *nodes, Workers: *workers,
		// UDP RTTs are far above in-process latencies; widen the release
		// timeout accordingly so healthy deployments stay on the fast path.
		ReleaseTimeout: 20 * time.Millisecond,
		RetryInterval:  50 * time.Millisecond,
		WALDir:         *walDir,
		FsyncInterval:  *fsyncEvery,
		SnapshotEvery:  *snapEvery,
	}
	cfg.Incarnation = uint32(*incarnation)
	bootCfg := cfg
	bootCfg.Rejoin = *rejoin
	if *join != "" {
		// Live add: ask the named member to commit a configuration that
		// includes us, then boot under it in catch-up mode. The group's
		// writes start flowing to this replica the moment the config
		// commits; the sweep backfills everything older.
		boot, err := requestJoin(*join, uint8(*id))
		if err != nil {
			log.Fatalf("kite-node: join via %s: %v", *join, err)
		}
		log.Printf("kite-node %d: joining group at %v", *id, boot)
		bootCfg.Initial = boot
		bootCfg.Rejoin = true
	}
	nd, err := core.NewNode(uint8(*id), bootCfg, tr)
	if err != nil {
		log.Fatalf("kite-node: %v", err)
	}
	nd.Start()
	defer func() { nd.Stop() }()
	log.Printf("kite-node %d/%d (group %d/%d) up: %v", *id, *nodes, *group, *groups, udpCfg.Listen)
	if nd.WALRestored() {
		log.Printf("kite-node %d: recovered from WAL (incarnation %d) — rejoining to sweep the delta", *id, nd.Incarnation())
	}
	if *rejoin || *join != "" || nd.WALRestored() {
		go logCatchup(nd, *id)
	}
	go watchRemoval(nd, *id)

	var srv *server.Server
	if *clientAddr != "" {
		srv, err = server.New(nd, server.Config{
			Addr: *clientAddr, MaxSessions: *clientMax,
			Groups: *groups, Group: *group,
		})
		if err != nil {
			log.Fatalf("kite-node: session server: %v", err)
		}
		defer srv.Close()
		log.Printf("kite-node %d: serving clients on %s", *id, srv.Addr())
	}

	if *demo {
		runDemo(nd, *id)
		return
	}
	// SIGHUP restarts the replica in place: the old node is crash-stopped
	// (its state discarded, as if the process had died), a fresh node of
	// the same id rejoins over the same sockets via the anti-entropy
	// catch-up sweep, and the session server — clients' dial target — is
	// rebound without ever going down. See OPERATIONS.md "Restarting a
	// replica" for what clients observe.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGHUP)
	for s := range sig {
		if s != syscall.SIGHUP {
			break
		}
		if *walDir != "" {
			log.Printf("kite-node %d: SIGHUP — restarting replica (recovering from WAL, rejoining)", *id)
		} else {
			log.Printf("kite-node %d: SIGHUP — restarting replica (state discarded, rejoining)", *id)
		}
		nd.Stop()
		// SIGHUP restarts stay in-process, so the successor incarnation is
		// derived locally; crash-restarts of the whole process must pass a
		// higher -incarnation instead. The successor rejoins under the
		// configuration this incarnation last installed — reconfigurations
		// slept through are healed by the sweep (the config key transfers
		// like any key) and the epoch check's config exchange.
		next, err := core.NewNode(uint8(*id), nd.SuccessorConfig(cfg, nd.View()), tr)
		if err != nil {
			log.Fatalf("kite-node: restart: %v", err)
		}
		next.Start()
		if srv != nil {
			srv.Rebind(next)
		}
		nd = next
		go logCatchup(next, *id)
		go watchRemoval(next, *id)
	}
	log.Printf("kite-node %d: shutting down", *id)
}

// requestJoin asks an existing member (by client address) to commit a
// configuration that includes node id, returning it.
func requestJoin(addr string, id uint8) (membership.Config, error) {
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		return membership.Config{}, err
	}
	defer c.Close()
	epoch, nodes, err := c.Join(id)
	if err != nil {
		return membership.Config{}, err
	}
	cfg := membership.Config{Epoch: epoch}
	for _, n := range nodes {
		cfg.Members |= 1 << n
	}
	return cfg, nil
}

// watchRemoval notices the replica learning of its own removal (an
// installed configuration that excludes it) and exits the process: a
// removed replica's store no longer receives the group's writes, so there
// is nothing sound left for it to serve. The watcher dies quietly with its
// node incarnation on restarts.
func watchRemoval(nd *core.Node, id int) {
	for !nd.Removed() {
		if nd.Stopped() {
			return
		}
		time.Sleep(time.Second)
	}
	log.Printf("kite-node %d: removed from the group (epoch %d) — exiting; re-add with -join", id, nd.ConfigEpoch())
	nd.Stop()
	os.Exit(0)
}

// logCatchup narrates a rejoining replica's sweep: periodic progress while
// it runs, a summary when it completes. This is the operator's view of the
// catch-up (OPERATIONS.md "Reading catch-up progress").
func logCatchup(nd *core.Node, id int) {
	for !nd.AwaitCatchup(time.Second) {
		st := nd.Catchup()
		log.Printf("kite-node %d: catch-up in progress: %d items pulled (%d applied), %v elapsed",
			id, st.Pulled, st.Applied, st.Elapsed.Round(time.Millisecond))
	}
	st := nd.Catchup()
	if nd.Stopped() {
		// The node was restarted (or shut down) before its sweep finished;
		// the replacement incarnation runs its own sweep and its own logger.
		log.Printf("kite-node %d: catch-up aborted after %v (node stopped mid-sweep; %d items pulled)",
			id, st.Elapsed.Round(time.Millisecond), st.Pulled)
		return
	}
	log.Printf("kite-node %d: catch-up complete in %v: %d items pulled, %d applied — serving",
		id, st.Elapsed.Round(time.Millisecond), st.Pulled, st.Applied)
}

// runDemo drives a producer-consumer check through this node's sessions —
// the write and the flag propagate through real UDP quorums.
func runDemo(nd *core.Node, id int) {
	time.Sleep(500 * time.Millisecond) // let peers come up
	s := nd.Session(0)
	do := func(r *core.Request) *core.Request {
		done := make(chan struct{})
		r.Done = func(*core.Request) { close(done) }
		s.Submit(r)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			log.Fatalf("demo: %v timed out (are the peers running?)", r.Code)
		}
		return r
	}
	for i := uint64(0); i < 100; i++ {
		do(&core.Request{Code: core.OpWrite, Key: 1000 + i, Val: []byte(fmt.Sprintf("v%d", i))})
	}
	do(&core.Request{Code: core.OpRelease, Key: 2000, Val: []byte("ready")})
	got := do(&core.Request{Code: core.OpAcquire, Key: 2000})
	old := do(&core.Request{Code: core.OpFAA, Key: 3000, Delta: 1})
	log.Printf("demo on node %d: acquire(flag)=%q, FAA old=%d — UDP quorums working",
		id, got.Out, old.Uint64Out())
}
