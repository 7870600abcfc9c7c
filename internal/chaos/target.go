package chaos

import (
	"kite"
	"kite/internal/core"
)

// Target is a running Kite deployment a chaos run drives: the module's one
// replica-lifecycle method set plus workload sessions. internal/testcluster
// provides one for each of the four backends.
//
// Lifecycle errors are returned, not fatal: mid-chaos a restart can
// legitimately race a concurrent fault, and the runner records rather than
// aborts.
type Target interface {
	core.Deployment
	// Backend names the deployment flavour for reports ("inproc",
	// "sharded-remote", ...).
	Backend() string
	// Session leases (or re-leases) the session at the coordinates. A
	// fresh handle abandons any previous one at the same coordinates —
	// workloads re-lease after errors.
	Session(node, sess int) (kite.Session, error)
}
