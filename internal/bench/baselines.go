package bench

import (
	"time"

	"kite"
	"kite/internal/derecho"
	"kite/internal/zab"
)

// ZabOpts parameterises a ZAB baseline run (reads are local, writes are
// leader-ordered; sync and RMW fractions are meaningless here — every ZAB
// write already has total-order semantics).
type ZabOpts struct {
	Config     zab.Config
	WriteRatio float64
	Keys       uint64
	Window     int
	Warmup     time.Duration
	Measure    time.Duration
}

// RunZab measures the ZAB baseline under the given read/write mix.
func RunZab(o ZabOpts) Result {
	l := Load{Mix: Mix{WriteRatio: o.WriteRatio}, Keys: o.Keys, Window: o.Window,
		Warmup: o.Warmup, Measure: o.Measure}
	l.defaults()
	c := zab.NewCluster(o.Config)
	defer c.Close()
	var issuers []issuer
	for n := range c.Nodes() {
		nd := c.Node(n)
		for si := range nd.Sessions() {
			s := nd.Session(si)
			issuers = append(issuers, issuer{
				async: func(op kite.Op, cb func(kite.Result)) {
					s.WriteAsync(op.Key, op.Value, func() { cb(kite.Result{}) })
				},
				local: func(op kite.Op) bool {
					if op.Code != kite.OpRead {
						return false
					}
					s.Read(op.Key)
					return true
				},
			})
		}
	}
	return throughput(issuers, l, extras{})
}

// DerechoOpts parameterises the Derecho-like SMR baseline (write-only sends,
// matching §8.2's write-only study).
type DerechoOpts struct {
	Config  derecho.Config
	Keys    uint64
	Window  int
	Warmup  time.Duration
	Measure time.Duration
}

// RunDerecho measures ordered or unordered atomic multicast throughput
// (completed local sends per second across the deployment).
func RunDerecho(o DerechoOpts) Result {
	l := Load{Mix: Mix{WriteRatio: 1}, Keys: o.Keys, Window: o.Window,
		Warmup: o.Warmup, Measure: o.Measure}
	l.defaults()
	c := derecho.NewCluster(o.Config)
	defer c.Close()
	issuers := make([]issuer, o.Config.Nodes)
	for n := range issuers {
		nd := c.Node(n)
		issuers[n] = issuer{async: func(op kite.Op, cb func(kite.Result)) {
			nd.Send(1+op.Key, op.Value, func() { cb(kite.Result{}) })
		}}
	}
	return throughput(issuers, l, extras{})
}
