package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"kite/internal/llc"
	"kite/internal/membership"
	"kite/internal/transport"
)

// Deployment is the one replica-lifecycle method set of this module: a
// Cluster (one replica group over any Network), a GroupSet (a sharded
// deployment), and the public kite.Cluster and sharded.Cluster built on
// them all offer exactly these methods, so harnesses and the chaos runner
// drive every deployment through one interface. Node arguments are replica
// ids; on a sharded deployment an id names a machine, which hosts one
// replica of every group.
type Deployment interface {
	// Nodes is the number of replica slots ever created (boot members plus
	// added replicas; removed replicas keep their slot, stopped).
	Nodes() int
	SessionsPerNode() int
	PauseNode(node int, d time.Duration)
	StopNode(node int)
	// CrashNode is StopNode as SIGKILL: a WAL-enabled replica's log is
	// abandoned without a final fsync.
	CrashNode(node int)
	// RestartNode replaces a member with a fresh incarnation, which serves
	// only once AwaitRejoin reports its catch-up sweep complete.
	RestartNode(node int) error
	AwaitRejoin(node int, timeout time.Duration) bool
	AddNode() (int, error)
	RemoveNode(node int) error
	NodeStats(node int) Stats
	Faults() *transport.FaultSet
	Close()
}

// Network connects a Cluster's replicas. NewCluster runs on an in-process
// one; internal/testcluster supplies loopback UDP fronted by a session
// server per replica. The Cluster owns every lifecycle decision — who
// boots, with which configuration and incarnation — and the network only
// carries traffic and hears about each incarnation. Endpoint and Started
// run under the cluster's lifecycle lock, which keeps a restart and its
// announcement atomic: they must not call back into the Cluster.
type Network interface {
	// Endpoint returns replica id's transport. It is asked at every boot of
	// the slot; a slot keeps its endpoint across restarts.
	Endpoint(id uint8) (transport.Transport, error)
	// Started is told about every node the cluster starts — boot members,
	// added replicas and restarted incarnations — once it runs.
	Started(nd *Node) error
	// Faults is the fault surface over every endpoint, live as it grows.
	Faults() *transport.FaultSet
	// Close releases every endpoint; the nodes have stopped.
	Close()
}

// inprocNetwork is one shared in-memory transport behind one fault
// injector: every replica's endpoint.
type inprocNetwork struct {
	faults *transport.FaultInjector
}

func (n inprocNetwork) Endpoint(uint8) (transport.Transport, error) { return n.faults, nil }
func (inprocNetwork) Started(*Node) error                           { return nil }
func (n inprocNetwork) Faults() *transport.FaultSet                 { return transport.NewFaultSet(n.faults) }
func (n inprocNetwork) Close()                                      { n.faults.Close() }

// Cluster is one replica group and its lifecycle: N nodes wired through a
// Network, as used by the tests, benchmarks, examples and the loopback-UDP
// test harness. kite-node runs a single Node per process instead.
type Cluster struct {
	cfg Config
	net Network

	// mu guards nodes: RestartNode swaps a slot while harness goroutines
	// read others (never a hot path — protocol traffic does not touch it).
	mu    sync.RWMutex
	nodes []*Node
}

var _ Deployment = (*Cluster)(nil)

// NewCluster builds and starts an in-process deployment. Config.WALDir,
// when set, is the deployment's base directory: each replica logs under
// its own node-<id> subdirectory, and restarts of the same slot reuse it
// (which is the whole point — RestartNode recovers from it).
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	// Mailboxes exist for the whole id space, not just the boot members:
	// AddNode assigns fresh ids beyond the initial n.
	inner := transport.NewInProc(llc.MaxNodes, cfg.Workers, cfg.MailboxDepth)
	return NewClusterOn(cfg, inprocNetwork{faults: transport.NewFaultInjector(inner, 1)})
}

// NewClusterOn builds and starts cfg.Nodes replicas over net. The cluster
// owns net from here on: Close (or a failed boot) closes it.
func NewClusterOn(cfg Config, net Network) (*Cluster, error) {
	c := &Cluster{cfg: cfg.withDefaults(), net: net}
	for id := 0; id < c.cfg.Nodes; id++ {
		nd, err := c.newNode(uint8(id), c.nodeConfig(uint8(id)))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		if err := c.start(nd); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// nodeConfig derives replica id's config from the cluster's: same
// everything, but its own WAL subdirectory.
func (c *Cluster) nodeConfig(id uint8) Config {
	cfg := c.cfg
	if cfg.WALDir != "" {
		cfg.WALDir = filepath.Join(cfg.WALDir, fmt.Sprintf("node-%02d", id))
	}
	return cfg
}

// newNode builds (but does not start) a node on slot id's endpoint.
func (c *Cluster) newNode(id uint8, cfg Config) (*Node, error) {
	tr, err := c.net.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return NewNode(id, cfg, tr)
}

// start runs nd and tells the network about it.
func (c *Cluster) start(nd *Node) error {
	nd.Start()
	return c.net.Started(nd)
}

// Nodes returns the number of replica slots ever created (boot members plus
// added replicas; removed replicas keep their slot, stopped). The live
// member set is Members().
func (c *Cluster) Nodes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// SessionsPerNode returns how many sessions each replica offers.
func (c *Cluster) SessionsPerNode() int { return c.cfg.Workers * c.cfg.SessionsPerWorker }

// Members returns the group's current configuration — the newest installed
// view among live replicas.
func (c *Cluster) Members() membership.Config {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.membersLocked()
}

func (c *Cluster) membersLocked() membership.Config {
	var best membership.Config
	for _, nd := range c.nodes {
		if nd.Stopped() || nd.Removed() {
			continue
		}
		if v := nd.View(); best.Members == 0 || v.Epoch > best.Epoch {
			best = v
		}
	}
	return best
}

// proposerLocked picks a live member to drive a reconfiguration CAS,
// excluding id `not` (pass llc.MaxNodes to exclude nobody).
func (c *Cluster) proposerLocked(not uint8) *Node {
	members := c.membersLocked()
	for _, nd := range c.nodes {
		if nd.Stopped() || nd.Removed() || nd.ID == not {
			continue
		}
		if members.Contains(nd.ID) && !nd.CatchingUp() {
			return nd
		}
	}
	return nil
}

// installLocked hands a committed configuration straight to every live
// replica. Belt and braces: the commit broadcast installs it at every
// member that heard it; this closes the window for replicas the broadcast
// missed (they would converge via the epoch check anyway).
func (c *Cluster) installLocked(next membership.Config) {
	for _, nd := range c.nodes {
		if !nd.Stopped() {
			nd.InstallConfig(next)
		}
	}
}

// AddNode grows the group by one replica: a fresh node with the next unused
// id. The successor configuration (epoch+1, members ∪ {id}) is committed
// first, through a live member — so every write from that moment on counts
// the joiner in its full-ack set and new quorums are majorities of the
// grown group — and only then is the replica booted, in catch-up mode: it
// applies (and acks) live writes immediately, buffers client requests, and
// serves nothing until its anti-entropy sweep over the new configuration's
// coverage set completes (the rejoin gate; see DESIGN.md "Membership").
// Returns the new replica's id; gate on AwaitRejoin before leasing its
// sessions.
func (c *Cluster) AddNode() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := uint8(len(c.nodes))
	if int(id) >= llc.MaxNodes {
		return -1, fmt.Errorf("core: no free node ids (max %d)", llc.MaxNodes)
	}
	prop := c.proposerLocked(llc.MaxNodes)
	if prop == nil {
		return -1, fmt.Errorf("core: no live member to drive the reconfiguration")
	}
	next, err := prop.ReconfigureAdd(id, 0)
	if err != nil {
		return -1, err
	}
	c.installLocked(next)
	cfg := c.nodeConfig(id)
	cfg.Rejoin = true
	cfg.Initial = next
	nd, err := c.newNode(id, cfg)
	if err != nil {
		return -1, err
	}
	c.nodes = append(c.nodes, nd)
	if err := c.start(nd); err != nil {
		return -1, err
	}
	return int(id), nil
}

// RemoveNode shrinks the group: the configuration excluding replica id is
// committed through a surviving member, every live replica installs it
// (their write ledgers refit, so nothing waits on the leaver's acks), and
// the leaver is crash-stopped. Its slot remains (ids are never reused);
// session handles on it fail with ErrStopped.
func (c *Cluster) RemoveNode(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("core: no node %d", id)
	}
	prop := c.proposerLocked(uint8(id))
	if prop == nil {
		return fmt.Errorf("core: no surviving member to drive the reconfiguration")
	}
	next, err := prop.ReconfigureRemove(uint8(id), 0)
	if err != nil {
		return err
	}
	c.installLocked(next)
	c.nodes[id].Stop()
	return nil
}

// Node returns the i-th replica (the current incarnation, after restarts).
func (c *Cluster) Node(i int) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[i]
}

// Faults exposes the network's fault surface for failure studies: drop or
// delay links, partition nodes.
func (c *Cluster) Faults() *transport.FaultSet { return c.net.Faults() }

// PauseNode makes replica i unresponsive for d (the sleeping-replica
// failure of §8.4).
func (c *Cluster) PauseNode(i int, d time.Duration) { c.Node(i).Pause(d) }

// StopNode crash-stops replica i: its workers exit, outstanding requests
// fail with ErrStopped, and — unlike a pause — its in-memory state is as
// good as gone, because only RestartNode brings the slot back.
func (c *Cluster) StopNode(i int) { c.Node(i).Stop() }

// CrashNode kills replica i the way SIGKILL would: workers exit, but a
// WAL-enabled replica's log is abandoned without a final fsync (see
// Node.Crash). Pair with RestartNode to exercise crash recovery; on
// memory-only deployments it is indistinguishable from StopNode.
func (c *Cluster) CrashNode(i int) { c.Node(i).Crash() }

// RestartNode replaces replica i with a fresh node of the same id on the
// same endpoint — the crash-recovery failure the sleeping-replica study
// cannot model. On a memory-only deployment the new incarnation is
// empty: it has lost every write it ever acknowledged. With a WAL
// (Config.WALDir) it first replays its own snapshot + log, restoring
// everything durable at the crash, including accepted-but-uncommitted
// Paxos rounds. Either way it boots in catch-up mode (Config.Rejoin):
// it buffers client requests and serves nothing until its anti-entropy
// sweep against the surviving peers completes (see internal/catchup) —
// with a WAL the sweep reconciles only the post-crash delta. Session
// handles obtained before the restart fail with ErrStopped; acquire
// fresh ones once AwaitRejoin reports the replica caught up.
func (c *Cluster) RestartNode(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.nodes[i]
	old.Stop()
	// Boot with the newest configuration any live replica has installed
	// (falling back to the dead node's own last view): the restarted
	// replica may have slept through reconfigurations, and the config key
	// swept in by catch-up — plus the epoch check's config exchange — heals
	// whatever staleness remains.
	view := c.membersLocked()
	if view.Members == 0 {
		view = old.View()
	}
	if !view.Contains(old.ID) {
		return fmt.Errorf("core: node %d is no longer a member (%v); rejoin it with AddNode", i, view)
	}
	nd, err := c.newNode(old.ID, old.SuccessorConfig(c.nodeConfig(old.ID), view))
	if err != nil {
		return err
	}
	c.nodes[i] = nd
	return c.start(nd)
}

// AwaitRejoin blocks until replica i's catch-up sweep completes, reporting
// whether it did within timeout. Replicas that never restarted return true
// immediately; a replica stopped or removed mid-sweep (its sweep aborted,
// it will never serve) reports false rather than masquerading as caught up.
func (c *Cluster) AwaitRejoin(i int, timeout time.Duration) bool {
	nd := c.Node(i)
	return nd.AwaitCatchup(timeout) && !nd.Stopped() && !nd.Removed()
}

// NodeStats reports replica i's slow-path activity counters.
func (c *Cluster) NodeStats(i int) Stats { return c.Node(i).SlowPathStats() }

// Close stops every node, then the network.
func (c *Cluster) Close() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, nd := range c.nodes {
		nd.Stop()
	}
	c.net.Close()
}

// GroupSet is a sharded deployment's lifecycle: replica groups that share
// machine ids, so node i names the machine hosting replica i of every group
// and each method applies to all of them — a paused, stopped or restarted
// machine takes its replica of every group with it, and a new machine joins
// every group under one id. Groups share nothing but the key routing: each
// restarted replica catches up against its own group's peers, and until a
// group's sweep completes its replica buffers operations and (acking only
// writes it has actually applied) can never satisfy the cross-shard flush
// fence early.
type GroupSet []Deployment

var _ Deployment = GroupSet(nil)

// Nodes returns the number of replica slots in each group.
func (s GroupSet) Nodes() int { return s[0].Nodes() }

// SessionsPerNode returns how many sessions each replica offers (identical
// across groups).
func (s GroupSet) SessionsPerNode() int { return s[0].SessionsPerNode() }

// PauseNode makes machine node unresponsive for d in every group.
func (s GroupSet) PauseNode(node int, d time.Duration) {
	for _, g := range s {
		g.PauseNode(node, d)
	}
}

// StopNode crash-stops machine node's replica in every group.
func (s GroupSet) StopNode(node int) {
	for _, g := range s {
		g.StopNode(node)
	}
}

// CrashNode SIGKILLs machine node's replica in every group.
func (s GroupSet) CrashNode(node int) {
	for _, g := range s {
		g.CrashNode(node)
	}
}

// RestartNode restarts machine node's replica in every group.
func (s GroupSet) RestartNode(node int) error {
	for g, d := range s {
		if err := d.RestartNode(node); err != nil {
			return fmt.Errorf("group %d: %w", g, err)
		}
	}
	return nil
}

// AwaitRejoin blocks until machine node's catch-up sweep completes in every
// group, reporting whether all did within timeout.
func (s GroupSet) AwaitRejoin(node int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for _, g := range s {
		if !g.AwaitRejoin(node, time.Until(deadline)) {
			return false
		}
	}
	return true
}

// AddNode grows every group by one replica on the same new machine id.
// Each group commits its own configuration and its joiner catches up
// independently; gate on AwaitRejoin before leasing the new machine's
// sessions. On a partial failure the error names the group that refused —
// earlier groups keep their new replica (their reconfigurations
// committed; retry after fixing the cause, or remove the id again).
func (s GroupSet) AddNode() (int, error) {
	id := -1
	for g, d := range s {
		nid, err := d.AddNode()
		if err != nil {
			return -1, fmt.Errorf("group %d: %w", g, err)
		}
		if id >= 0 && nid != id {
			return -1, fmt.Errorf("group %d assigned id %d, group 0 assigned %d", g, nid, id)
		}
		id = nid
	}
	return id, nil
}

// RemoveNode removes machine node's replica from every group.
func (s GroupSet) RemoveNode(node int) error {
	for g, d := range s {
		if err := d.RemoveNode(node); err != nil {
			return fmt.Errorf("group %d: %w", g, err)
		}
	}
	return nil
}

// NodeStats sums machine node's slow-path counters across groups.
func (s GroupSet) NodeStats(node int) Stats {
	var t Stats
	for _, g := range s {
		t.Add(g.NodeStats(node))
	}
	return t
}

// Faults is every group's fault surface behind one fan-out: a rule applied
// here hits the same machine pair in each group, the way a real network
// fault hits every replica a machine hosts.
func (s GroupSet) Faults() *transport.FaultSet {
	set := transport.NewFaultSet()
	for _, g := range s {
		set.Add(g.Faults())
	}
	return set
}

// Close stops every group.
func (s GroupSet) Close() {
	for _, g := range s {
		g.Close()
	}
}
