// Package testcluster boots any of the module's four deployments — one
// replica group or a sharded key space, each either in process or over
// loopback UDP behind real session servers and clients — behind one type,
// so the conformance, restart, membership and structure suites, the chaos
// tests and cmd/kite-chaos drive every backend through one method set:
// core.Deployment for the replica lifecycle, plus Session.
//
// The in-process backends are the public kite.Cluster and sharded.Cluster.
// The remote backends run core.Cluster over a loopback-UDP Network: the
// replica lifecycle (restart incarnations, reconfiguration, rejoin gating)
// is core's, and this package adds only sockets, fault injectors, session
// servers and clients.
package testcluster

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"kite"
	"kite/client"
	"kite/internal/core"
	"kite/internal/llc"
	"kite/internal/server"
	"kite/internal/shard"
	"kite/internal/transport"
	"kite/sharded"
)

// TB is the slice of testing.TB this package needs; *testing.T satisfies
// it unchanged. (Importing testing here would register its flags in every
// binary that uses the harness, cmd/kite-chaos included.)
type TB interface {
	Helper()
	Fatal(args ...any)
	Fatalf(format string, args ...any)
	Cleanup(func())
}

// Backend names one of the four deployments.
type Backend string

const (
	InProc        Backend = "inproc"         // one group, in process (kite.Cluster)
	Remote        Backend = "remote"         // one group over loopback UDP, via kite/client
	ShardedInProc Backend = "sharded-inproc" // sharded.Cluster
	ShardedRemote Backend = "sharded-remote" // groups over loopback UDP, via client.DialSharded
)

// Backends lists all four: the conformance matrix.
func Backends() []Backend { return []Backend{InProc, Remote, ShardedInProc, ShardedRemote} }

func (b Backend) remote() bool  { return b == Remote || b == ShardedRemote }
func (b Backend) sharded() bool { return b == ShardedInProc || b == ShardedRemote }

// Options configure a deployment. Zero fields take the harness defaults.
type Options struct {
	// Backend picks the deployment (default InProc).
	Backend Backend
	// Groups is the replica-group count of a sharded backend (default 2);
	// the unsharded backends run one group.
	Groups int
	// Options configure every group: default 3 replicas, 2 workers × 4
	// sessions, 4096-key stores. The remote backends widen unset timeouts
	// for loopback round trips (50 ms release timeout, 25 ms retries).
	// WALDir, when set, is the base directory of the whole deployment.
	kite.Options
	// OpTimeout is the remote clients' per-operation timeout (default 15 s).
	OpTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Backend == "" {
		o.Backend = InProc
	}
	switch {
	case !o.Backend.sharded():
		o.Groups = 1
	case o.Groups == 0:
		o.Groups = 2
	}
	if o.Nodes == 0 {
		o.Nodes = 3
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.SessionsPerWorker == 0 {
		o.SessionsPerWorker = 4
	}
	if o.Capacity == 0 {
		o.Capacity = 1 << 12
	}
	if o.Backend.remote() {
		if o.ReleaseTimeout == 0 {
			o.ReleaseTimeout = 50 * time.Millisecond
		}
		if o.RetryInterval == 0 {
			o.RetryInterval = 25 * time.Millisecond
		}
	}
	if o.OpTimeout == 0 {
		o.OpTimeout = 15 * time.Second
	}
	return o
}

// Cluster is one running deployment. The embedded core.Deployment is the
// lifecycle: a kite.Cluster, a sharded.Cluster, one remote group's
// core.Cluster, or a core.GroupSet of them.
type Cluster struct {
	core.Deployment
	backend Backend
	m       shard.Map

	// inproc opens in-process sessions; nil on the remote backends.
	inproc func(node, sess int) kite.Session
	// The remote backends: one UDP network per group, and one client per
	// machine, dialed on first lease.
	nets []*udpNetwork
	dial client.Options

	mu      sync.Mutex
	leasers map[int]func() (kite.Session, error)
	clients []interface{ Close() error }
}

// Start boots a deployment and registers its teardown with t.Cleanup.
func Start(t TB, o Options) *Cluster {
	t.Helper()
	c, err := New(o)
	if err != nil {
		t.Fatalf("testcluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// New boots a deployment; the caller owns Close.
func New(o Options) (*Cluster, error) {
	o = o.withDefaults()
	c := &Cluster{
		backend: o.Backend, m: shard.NewMap(o.Groups),
		leasers: make(map[int]func() (kite.Session, error)),
		dial: client.Options{
			DialTimeout: 2 * time.Second, OpTimeout: o.OpTimeout,
			RetryInterval: 25 * time.Millisecond,
		},
	}
	switch o.Backend {
	case InProc:
		kc, err := kite.NewCluster(o.Options)
		if err != nil {
			return nil, err
		}
		c.Deployment, c.inproc = kc, kc.Session
	case ShardedInProc:
		sc, err := sharded.NewCluster(o.Groups, o.Options)
		if err != nil {
			return nil, err
		}
		c.Deployment, c.inproc = sc, sc.Session
	case Remote, ShardedRemote:
		var set core.GroupSet
		for g := 0; g < o.Groups; g++ {
			net, err := newUDPNetwork(o.Workers, o.Groups, g)
			if err != nil {
				set.Close()
				return nil, err
			}
			cl, err := core.NewClusterOn(groupConfig(o, g), net)
			if err != nil {
				set.Close()
				return nil, fmt.Errorf("group %d: %w", g, err)
			}
			c.nets, set = append(c.nets, net), append(set, cl)
		}
		c.Deployment = set
		if len(set) == 1 {
			c.Deployment = set[0]
		}
	default:
		return nil, fmt.Errorf("unknown backend %q (want one of %v)", o.Backend, Backends())
	}
	return c, nil
}

// groupConfig is group g's replica configuration on a remote backend: the
// options, with WAL directories laid out as sharded.Cluster lays them out.
func groupConfig(o Options, g int) core.Config {
	cfg := core.Config{
		Nodes: o.Nodes, Workers: o.Workers, SessionsPerWorker: o.SessionsPerWorker,
		KVSCapacity: o.Capacity, ReleaseTimeout: o.ReleaseTimeout, RetryInterval: o.RetryInterval,
		DisableFastPath: o.DisableFastPath, DisableLocalAcquires: o.DisableLocalAcquires,
		WALDir: o.WALDir, FsyncInterval: o.FsyncInterval, SnapshotEvery: o.SnapshotEvery,
	}
	if cfg.WALDir != "" && o.Backend.sharded() {
		cfg.WALDir = filepath.Join(cfg.WALDir, fmt.Sprintf("group-%02d", g))
	}
	return cfg
}

// Backend names the deployment ("inproc", "remote", "sharded-inproc",
// "sharded-remote") for reports.
func (c *Cluster) Backend() string { return string(c.backend) }

// GroupOf reports which replica group owns key (always 0 when unsharded).
func (c *Cluster) GroupOf(key uint64) int { return c.m.Group(key) }

// Session opens a session at coordinates (node, sess). In process that is
// a new handle on replica node's session sess, which abandons any earlier
// handle at the same coordinates; remotely, a fresh lease from the
// machine's client (sess only names the slot: the server picks a free
// session), returned to the server's pool on Close.
func (c *Cluster) Session(node, sess int) (kite.Session, error) {
	if c.inproc != nil {
		return c.inproc(node, sess), nil
	}
	lease, err := c.leaser(node)
	if err != nil {
		return nil, err
	}
	return lease()
}

// Lease is Session for tests: a failed lease is fatal.
func (c *Cluster) Lease(t TB, node, sess int) kite.Session {
	t.Helper()
	s, err := c.Session(node, sess)
	if err != nil {
		t.Fatalf("lease session %d on node %d: %v", sess, node, err)
	}
	return s
}

// leaser returns machine node's session source, dialing its client (one
// per group on a sharded deployment, composed by client.DialSharded) on
// first use.
func (c *Cluster) leaser(node int) (func() (kite.Session, error), error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lease := c.leasers[node]; lease != nil {
		return lease, nil
	}
	var lease func() (kite.Session, error)
	if c.backend.sharded() {
		sc, err := client.DialSharded(c.Addrs(node), c.dial)
		if err != nil {
			return nil, err
		}
		c.clients, lease = append(c.clients, sc), sc.NewSession
	} else {
		cl, err := client.Dial(c.Addr(node), c.dial)
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, cl)
		lease = func() (kite.Session, error) { return cl.NewSession() }
	}
	c.leasers[node] = lease
	return lease, nil
}

// Addrs returns machine node's session-server address in every group — the
// shard map client.DialSharded takes. Remote backends only.
func (c *Cluster) Addrs(node int) []string {
	addrs := make([]string, len(c.nets))
	for g, n := range c.nets {
		addrs[g] = n.server(uint8(node)).Addr()
	}
	return addrs
}

// Addr returns replica node's session-server address (group 0's on a
// sharded deployment). Remote backends only.
func (c *Cluster) Addr(node int) string { return c.Server(node).Addr() }

// Server returns replica node's session server (group 0's on a sharded
// deployment). Remote backends only.
func (c *Cluster) Server(node int) *server.Server { return c.nets[0].server(uint8(node)) }

// Close closes the harness's clients, then the deployment.
func (c *Cluster) Close() {
	c.mu.Lock()
	for _, cl := range c.clients {
		cl.Close()
	}
	c.clients = nil
	c.mu.Unlock()
	c.Deployment.Close()
}

// udpNetwork is one replica group's loopback-UDP core.Network: a
// fault-wrapped UDP transport per replica, on ports reserved for the whole
// id space up front (so AddNode needs no re-wiring), and a session server
// per replica that advertises the group's place in the shard map and is
// rebound to every new incarnation, so clients keep their dial target
// across restarts. Fault injectors outlive incarnations too: installed
// rules survive a replica's restart.
type udpNetwork struct {
	ports         []int
	workers       int
	groups, group int
	faults        *transport.FaultSet

	mu      sync.Mutex
	eps     map[uint8]*transport.FaultInjector
	servers map[uint8]*server.Server
}

func newUDPNetwork(workers, groups, group int) (*udpNetwork, error) {
	ports, err := reservePorts(llc.MaxNodes * workers)
	if err != nil {
		return nil, err
	}
	return &udpNetwork{
		ports: ports, workers: workers, groups: groups, group: group,
		faults:  transport.NewFaultSet(),
		eps:     make(map[uint8]*transport.FaultInjector),
		servers: make(map[uint8]*server.Server),
	}, nil
}

func (n *udpNetwork) Endpoint(id uint8) (transport.Transport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if fi := n.eps[id]; fi != nil {
		return fi, nil
	}
	udp, err := transport.NewUDP(transport.GroupUDPConfig(id, n.workers, llc.MaxNodes, func(node, w int) string {
		return fmt.Sprintf("127.0.0.1:%d", n.ports[node*n.workers+w])
	}))
	if err != nil {
		return nil, err
	}
	fi := transport.NewFaultInjector(udp, int64(id)+1)
	n.eps[id] = fi
	n.faults.Add(fi)
	return fi, nil
}

func (n *udpNetwork) Started(nd *core.Node) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if srv := n.servers[nd.ID]; srv != nil {
		srv.Rebind(nd)
		return nil
	}
	srv, err := server.New(nd, server.Config{Addr: "127.0.0.1:0", Groups: n.groups, Group: n.group})
	if err != nil {
		return err
	}
	n.servers[nd.ID] = srv
	return nil
}

func (n *udpNetwork) Faults() *transport.FaultSet { return n.faults }

func (n *udpNetwork) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, srv := range n.servers {
		srv.Close()
	}
	for _, fi := range n.eps {
		fi.Close()
	}
}

func (n *udpNetwork) server(id uint8) *server.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.servers[id]
}

// reservePorts grabs n free loopback UDP ports. The sockets are closed
// before use, so a clashing process could steal one — fine for tests.
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
