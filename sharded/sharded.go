// Package sharded runs N independent Kite replica groups over one key
// space, in-process, and exposes them through the same kite.Session
// interface as a single-group deployment. It is the scaling layer above
// kite.Cluster: a single group's throughput is bounded by its replication
// degree (every relaxed write broadcasts to all replicas; every
// release/acquire quorum spans the whole membership), so machines beyond
// the replication degree buy nothing — partitioning the key space into
// groups is what converts machines into throughput.
//
// Keys are routed to groups by a fixed hash (kite/internal/shard.Map);
// Release Consistency is preserved across groups by fencing a session's
// relaxed writes in every group it touched before a release (or RMW)
// executes in its own group. See that package and DESIGN.md "Sharding" for
// the protocol argument.
//
// The multi-process equivalent is kite-node's -groups/-group flags plus
// client.DialSharded.
package sharded

import (
	"fmt"
	"path/filepath"

	"kite"
	"kite/internal/core"
	"kite/internal/shard"
)

// Cluster is an in-process sharded Kite deployment: Groups independent
// replica groups, each a complete kite.Cluster with its own membership and
// transport, plus the key routing that binds them into one key space.
//
// Its lifecycle methods — PauseNode, StopNode, CrashNode, RestartNode,
// AwaitRejoin, AddNode, RemoveNode, NodeStats, Faults, Close — are
// core.GroupSet's: a node id names a machine, which hosts one replica of
// every group, so each applies to that machine's replica in every group
// (the machine sleeps, dies, restarts or joins as a whole), stats sum
// across groups, and a fault rule hits the same machine pair in each group.
type Cluster struct {
	core.GroupSet
	groups []*kite.Cluster
	m      shard.Map
}

// NewCluster starts groups independent replica groups, each configured by
// opts (so the deployment has groups × opts.Nodes replicas in total).
// groups < 1 is rejected; groups == 1 is exactly a kite.Cluster behind the
// sharded routing (the identity map). When opts.WALDir is set, each group
// logs under its own group-<g> subdirectory, so one base directory holds
// the whole deployment's durable state and restarts of the same layout
// recover from it.
func NewCluster(groups int, opts kite.Options) (*Cluster, error) {
	if groups < 1 {
		return nil, fmt.Errorf("sharded: %d groups; need at least 1", groups)
	}
	c := &Cluster{m: shard.NewMap(groups)}
	base := opts.WALDir
	for g := 0; g < groups; g++ {
		if base != "" {
			opts.WALDir = filepath.Join(base, fmt.Sprintf("group-%02d", g))
		}
		kc, err := kite.NewCluster(opts)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("sharded: group %d: %w", g, err)
		}
		c.groups = append(c.groups, kc)
		c.GroupSet = append(c.GroupSet, kc)
	}
	return c, nil
}

// Groups returns the number of replica groups.
func (c *Cluster) Groups() int { return len(c.groups) }

// Members returns each group's current membership, index-aligned with
// Group. Groups reconfigure independently, so epochs may differ; a machine
// added with AddNode appears in every group's set.
func (c *Cluster) Members() []kite.Membership {
	out := make([]kite.Membership, len(c.groups))
	for g, kc := range c.groups {
		out[g] = kc.Members()
	}
	return out
}

// GroupOf reports which replica group owns key — useful for tests and
// diagnostics that need group-local keys.
func (c *Cluster) GroupOf(key uint64) int { return c.m.Group(key) }

// Group exposes one underlying replica group (stats, fault injection).
func (c *Cluster) Group(g int) *kite.Cluster { return c.groups[g] }

// Session opens a sharded session at coordinates (node, sess): one
// sub-session leased at the same coordinates in every group, composed into
// a single kite.Session over the whole key space. The coordinates carry the
// usual contract — handles are single logical threads of control, and two
// handles to the same coordinates must not be used concurrently.
func (c *Cluster) Session(node, sess int) kite.Session {
	subs := make([]kite.Session, len(c.groups))
	for g, kc := range c.groups {
		subs[g] = kc.Session(node, sess)
	}
	return shard.New(subs, c.m)
}

// CompletedOps sums operations completed at replica node across groups.
func (c *Cluster) CompletedOps(node int) uint64 {
	var t uint64
	for _, kc := range c.groups {
		t += kc.CompletedOps(node)
	}
	return t
}
