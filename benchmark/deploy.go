package main

import (
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"time"

	"kite"
	"kite/client"
	"kite/internal/core"
	"kite/internal/server"
	"kite/internal/transport"
	"kite/sharded"
)

// counters is one reading of every boundary counter a deployment exposes
// through public accessors; per-layer metrics are differences of two
// readings taken around the sat phase.
type counters struct {
	core  core.Stats
	class [8]uint64 // completed ops by kite.OpCode
	// Replica-to-replica transport and session server: the remote backend
	// only. kite.Cluster keeps its in-proc transport private, so in-proc
	// workloads report these as 0.
	sentBatches, sentMsgs, droppedFull    uint64
	batchedSyscalls, batchedDatagrams     uint64
	fallbackSyscalls                      uint64
	requests, retransmits, droppedReplies uint64
	walBytes                              uint64
}

// deployment is a running system under test plus the handles the benchmark
// needs on it.
type deployment struct {
	sessions []kite.Session // numSessions, in driver order
	pause    func(node int, d time.Duration)
	read     func() counters
	close    func()
}

func addStats(t *core.Stats, s core.Stats) {
	t.SlowReads += s.SlowReads
	t.SlowWrites += s.SlowWrites
	t.EpochBumps += s.EpochBumps
	t.SlowReleases += s.SlowReleases
	t.LocalAcqHits += s.LocalAcqHits
	t.AcqFallbacks += s.AcqFallbacks
}

func dirBytes(dir string) uint64 {
	var n uint64
	// A file vanishing mid-walk (segment truncation) is not an error here.
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += uint64(fi.Size())
			}
		}
		return nil
	})
	return n
}

// Snapshots are off on the WAL workload. At the default of one per 65536
// records a saturating writer makes a snapshot due at every 100 ms poll, so
// three replicas spend the run rewriting their 2^17-key stores in the
// background: that measures the snapshotter, not wal append/fsync, and starves
// replicas into missing even the widened release timeout. Without snapshots
// the log only grows, which also makes its growth the bytes logged.
func kiteOptions(w *workload, walDir string) kite.Options {
	return kite.Options{
		Nodes: replicas, Workers: 1, SessionsPerWorker: sessionsPerDriver,
		Capacity: 1 << 18, WALDir: walDir, ReleaseTimeout: releaseTimeout, SnapshotEvery: -1,
	}
}

// deploy builds w's deployment from the same public constructors an
// application (or cmd/kite-node) uses and opens the eight sessions. scratch
// is a directory the deployment may write under (WAL).
func deploy(w *workload, scratch string) (*deployment, error) {
	walDir := ""
	if w.WAL {
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, err
		}
		walDir = dir
	}
	var (
		d   *deployment
		err error
	)
	switch w.Backend {
	case backendInProc:
		d, err = deployInProc(w, walDir)
	case backendSharded:
		d, err = deploySharded(w, walDir)
	case backendRemote:
		d, err = deployRemote(w)
	}
	if err != nil {
		if walDir != "" {
			os.RemoveAll(walDir)
		}
		return nil, err
	}
	if walDir != "" {
		inner, readInner := d.close, d.read
		d.close = func() { inner(); os.RemoveAll(walDir) }
		d.read = func() counters {
			c := readInner()
			c.walBytes = dirBytes(walDir)
			return c
		}
	}
	return d, nil
}

func deployInProc(w *workload, walDir string) (*deployment, error) {
	c, err := kite.NewCluster(kiteOptions(w, walDir))
	if err != nil {
		return nil, err
	}
	d := &deployment{pause: c.PauseNode, close: c.Close}
	next := make([]int, replicas)
	for _, home := range w.Homes {
		d.sessions = append(d.sessions, c.Session(home, next[home]))
		next[home]++
	}
	d.read = func() counters {
		var r counters
		for n := 0; n < replicas; n++ {
			addStats(&r.core, c.NodeStats(n))
			for i, v := range c.OpClassCounts(n) {
				r.class[i] += v
			}
		}
		return r
	}
	return d, nil
}

func deploySharded(w *workload, walDir string) (*deployment, error) {
	c, err := sharded.NewCluster(w.Groups, kiteOptions(w, walDir))
	if err != nil {
		return nil, err
	}
	d := &deployment{pause: c.PauseNode}
	next := make([]int, replicas)
	for _, home := range w.Homes {
		d.sessions = append(d.sessions, c.Session(home, next[home]))
		next[home]++
	}
	d.close = func() {
		// Sharded sessions own a pump goroutine each; retire them before
		// the groups stop.
		for _, s := range d.sessions {
			s.Close()
		}
		c.Close()
	}
	d.read = func() counters {
		var r counters
		for n := 0; n < replicas; n++ {
			addStats(&r.core, c.NodeStats(n))
			for g := 0; g < c.Groups(); g++ {
				for i, v := range c.Group(g).OpClassCounts(n) {
					r.class[i] += v
				}
			}
		}
		return r
	}
	return d, nil
}

// reservePorts grabs n free loopback UDP ports. The sockets are closed before
// use, so another process could take one in between; a run that loses that
// race fails at bind and reports it.
func reservePorts(n int) ([]int, error) {
	ports := make([]int, n)
	conns := make([]*net.UDPConn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := range ports {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
		ports[i] = c.LocalAddr().(*net.UDPAddr).Port
	}
	return ports, nil
}

// remoteNode is one replica of a loopback-UDP deployment, wired the way
// cmd/kite-node wires a process: UDP transport, core node, session server.
type remoteNode struct {
	udp *transport.UDP
	nd  *core.Node
	srv *server.Server
}

func (r *remoteNode) close() {
	if r.srv != nil {
		r.srv.Close()
	}
	if r.nd != nil {
		r.nd.Stop()
	}
	if r.udp != nil {
		r.udp.Close()
	}
}

// startRemoteNodes boots n replicas over loopback UDP with kite-node's
// timeouts (UDP round trips are far above in-process latencies).
func startRemoteNodes(n int) ([]*remoteNode, error) {
	ports, err := reservePorts(n)
	if err != nil {
		return nil, err
	}
	addr := func(node int) string { return fmt.Sprintf("127.0.0.1:%d", ports[node]) }
	cfg := core.Config{
		Nodes: n, Workers: 1, SessionsPerWorker: sessionsPerDriver, KVSCapacity: 1 << 18,
		ReleaseTimeout: releaseTimeout, RetryInterval: 50 * time.Millisecond,
	}
	var nodes []*remoteNode
	fail := func(err error) ([]*remoteNode, error) {
		for _, r := range nodes {
			r.close()
		}
		return nil, err
	}
	for id := 0; id < n; id++ {
		peers := make(map[uint8][]string)
		for p := 0; p < n; p++ {
			if p != id {
				peers[uint8(p)] = []string{addr(p)}
			}
		}
		r := &remoteNode{}
		nodes = append(nodes, r)
		if r.udp, err = transport.NewUDP(transport.UDPConfig{
			LocalNode: uint8(id), Workers: 1, Listen: []string{addr(id)}, Peers: peers,
		}); err != nil {
			return fail(err)
		}
		if r.nd, err = core.NewNode(uint8(id), cfg, r.udp); err != nil {
			return fail(err)
		}
		r.nd.Start()
		if r.srv, err = server.New(r.nd, server.Config{Addr: "127.0.0.1:0"}); err != nil {
			return fail(err)
		}
	}
	return nodes, nil
}

func dialOptions() client.Options {
	return client.Options{
		DialTimeout: 2 * time.Second, OpTimeout: 15 * time.Second,
		RetryInterval: 25 * time.Millisecond, MaxInflight: 2 * pacedWindow,
	}
}

func deployRemote(w *workload) (*deployment, error) {
	nodes, err := startRemoteNodes(replicas)
	if err != nil {
		return nil, err
	}
	d := &deployment{pause: func(node int, dur time.Duration) { nodes[node].nd.Pause(dur) }}
	var clients []*client.Client
	d.close = func() {
		for _, s := range d.sessions {
			s.Close()
		}
		for _, c := range clients {
			c.Close()
		}
		for _, r := range nodes {
			r.close()
		}
	}
	// One connection (one socket) per driver, to the home of its sessions.
	for drv := 0; drv < numDrivers; drv++ {
		home := w.Homes[drv*sessionsPerDriver]
		c, err := client.Dial(nodes[home].srv.Addr(), dialOptions())
		if err != nil {
			d.close()
			return nil, fmt.Errorf("dial replica %d: %w", home, err)
		}
		clients = append(clients, c)
		for i := 0; i < sessionsPerDriver; i++ {
			s, err := c.NewSession()
			if err != nil {
				d.close()
				return nil, fmt.Errorf("lease session on replica %d: %w", home, err)
			}
			d.sessions = append(d.sessions, s)
		}
	}
	d.read = func() counters {
		var r counters
		for _, n := range nodes {
			addStats(&r.core, n.nd.SlowPathStats())
			for i := range r.class {
				r.class[i] += n.nd.Completed(core.OpCode(i))
			}
			ts := n.udp.Stats()
			r.sentBatches += ts.SentBatches.Load()
			r.sentMsgs += ts.SentMsgs.Load()
			r.droppedFull += ts.DroppedFull.Load()
			r.batchedSyscalls += ts.BatchedSyscalls.Load()
			r.batchedDatagrams += ts.BatchedDatagrams.Load()
			r.fallbackSyscalls += ts.FallbackSyscalls.Load()
			ss := n.srv.Stats()
			r.requests += ss.Requests.Load()
			r.retransmits += ss.Retransmits.Load()
			r.droppedReplies += ss.DroppedReplies.Load()
		}
		return r
	}
	return d, nil
}
