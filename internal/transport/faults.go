package transport

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kite/internal/proto"
)

// FaultInjector wraps a Transport with programmable network misbehaviour:
// per-link drop probability, per-link one-way partitions, and fixed delivery
// delays. It is the instrument behind the failure study (§8.4) and the
// fault-injection tests — it is what turns "asynchrony is rare in a
// datacenter" into a dial we can sweep.
//
// Drops are decided per batch with a deterministic PRNG so failure tests are
// reproducible. Delays re-enqueue the batch from a timer goroutine, which
// models an arbitrarily slow link without blocking the sender; the partition
// rules are re-checked when the timer fires (see deliverDelayed), so a link
// cut while a delayed batch was in flight still swallows it — rule state is
// snapshotted at delivery time, not send time.
//
// Per-link drop/delay counters accumulate for the lifetime of the injector
// and survive Clear, so a chaos run can prove its nemeses actually touched
// traffic even after every rule has been healed.
type FaultInjector struct {
	inner Transport
	stats Stats

	mu    sync.RWMutex
	rng   *rand.Rand
	rules map[linkKey]*linkRule
	// counters is the per-link fault ledger. Separate from rules — and
	// never reset — because Clear must heal the network without erasing
	// the evidence that faults were injected.
	counters map[linkKey]*linkCounters
	// nodeCut[n] severs every link to and from node n (bidirectional
	// partition), the blunt instrument used to isolate a replica.
	nodeCut [64]atomic.Bool

	closed atomic.Bool
}

type linkKey struct{ from, to uint8 }

type linkRule struct {
	dropProb float64
	dupProb  float64
	delay    time.Duration
	cut      bool
}

type linkCounters struct {
	dropped    atomic.Uint64
	delayed    atomic.Uint64
	duplicated atomic.Uint64
}

// LinkStat reports one link's accumulated fault counters: batches dropped
// (by drop probability, cut links or node isolation — at send or at delayed
// delivery), batches delayed, and batches duplicated.
type LinkStat struct {
	From       uint8  `json:"from"`
	To         uint8  `json:"to"`
	Dropped    uint64 `json:"dropped"`
	Delayed    uint64 `json:"delayed"`
	Duplicated uint64 `json:"duplicated,omitempty"`
}

// NewFaultInjector wraps inner. Seed fixes the drop PRNG.
func NewFaultInjector(inner Transport, seed int64) *FaultInjector {
	return &FaultInjector{
		inner:    inner,
		rng:      rand.New(rand.NewSource(seed)),
		rules:    make(map[linkKey]*linkRule),
		counters: make(map[linkKey]*linkCounters),
	}
}

// DropLink sets the probability in [0,1] that a batch from node `from` to
// node `to` is silently discarded.
func (f *FaultInjector) DropLink(from, to uint8, prob float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rule(from, to).dropProb = prob
}

// DupLink sets the probability in [0,1] that a batch from node `from` to
// node `to` is delivered twice — the UD-transport failure mode that protocol
// retries already create, but injected deterministically. Duplicate delivery
// is what the reset-bit and exactly-once machinery must survive (§7).
func (f *FaultInjector) DupLink(from, to uint8, prob float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rule(from, to).dupProb = prob
}

// DelayLink adds a fixed one-way delivery delay on the link.
func (f *FaultInjector) DelayLink(from, to uint8, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rule(from, to).delay = d
}

// CutLink severs the one-way link (drops everything).
func (f *FaultInjector) CutLink(from, to uint8, cut bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rule(from, to).cut = cut
}

// IsolateNode cuts every link touching node n (a full partition of the
// replica). Passing false heals it.
func (f *FaultInjector) IsolateNode(n uint8, isolated bool) {
	f.nodeCut[n].Store(isolated)
}

// Clear removes all link rules (node isolation flags included). The
// per-link counters are deliberately preserved: healing the network must
// not destroy the record of what the faults did while they were active.
func (f *FaultInjector) Clear() {
	f.mu.Lock()
	f.rules = make(map[linkKey]*linkRule)
	f.mu.Unlock()
	for i := range f.nodeCut {
		f.nodeCut[i].Store(false)
	}
}

func (f *FaultInjector) rule(from, to uint8) *linkRule {
	k := linkKey{from, to}
	r := f.rules[k]
	if r == nil {
		r = &linkRule{}
		f.rules[k] = r
	}
	return r
}

// counter returns the (lazily created) fault ledger for a link.
func (f *FaultInjector) counter(from, to uint8) *linkCounters {
	k := linkKey{from, to}
	f.mu.RLock()
	c := f.counters[k]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.counters[k]; c == nil {
		c = &linkCounters{}
		f.counters[k] = c
	}
	return c
}

func (f *FaultInjector) countDrop(from, to uint8) {
	f.stats.DroppedFault.Add(1)
	f.counter(from, to).dropped.Add(1)
}

// Send implements Transport. The sender's node id is taken from the first
// message of the batch (all messages in a batch share an origin).
func (f *FaultInjector) Send(dst Endpoint, batch []proto.Message) {
	if len(batch) == 0 || f.closed.Load() {
		return
	}
	from := batch[0].From
	if f.nodeCut[from].Load() || f.nodeCut[dst.Node].Load() {
		f.countDrop(from, dst.Node)
		return
	}
	var (
		delay             time.Duration
		dropProb, dupProb float64
	)
	f.mu.RLock()
	if r, ok := f.rules[linkKey{from, dst.Node}]; ok {
		if r.cut {
			f.mu.RUnlock()
			f.countDrop(from, dst.Node)
			return
		}
		dropProb, dupProb, delay = r.dropProb, r.dupProb, r.delay
	}
	f.mu.RUnlock()

	dup := false
	if dropProb > 0 || dupProb > 0 {
		// rand.Rand is not concurrency-safe; roll under the write lock.
		// Each active rule consumes exactly one roll, so drop-only seeds
		// keep the exact sequences the older tests were pinned to.
		f.mu.Lock()
		dropRoll, dupRoll := 1.0, 1.0
		if dropProb > 0 {
			dropRoll = f.rng.Float64()
		}
		if dupProb > 0 {
			dupRoll = f.rng.Float64()
		}
		f.mu.Unlock()
		if dropRoll < dropProb {
			f.countDrop(from, dst.Node)
			return
		}
		dup = dupRoll < dupProb
	}
	if dup {
		f.stats.Duplicated.Add(1)
		f.counter(from, dst.Node).duplicated.Add(1)
	}
	if delay > 0 {
		f.stats.DelayedBatches.Add(1)
		f.counter(from, dst.Node).delayed.Add(1)
		// The caller owns batch and its payloads and may reuse them the
		// moment Send returns; a delayed delivery outlives that, so it rides
		// its own deep copy (the fault path may allocate — only the healthy
		// path is budgeted).
		held, _, _ := copyBatch(nil, nil, nil, batch)
		time.AfterFunc(delay, func() { f.deliverDelayed(from, dst, held) })
		if dup {
			time.AfterFunc(delay, func() { f.deliverDelayed(from, dst, held) })
		}
		return
	}
	f.inner.Send(dst, batch)
	if dup {
		f.inner.Send(dst, batch)
	}
}

// deliverDelayed completes a DelayLink'd send when its timer fires. The
// partition rules are re-evaluated here, against the CURRENT rule set: a
// CutLink or IsolateNode installed after the batch was scheduled — even
// across an intervening Clear — still applies, exactly as a real slow link
// drops whatever is in flight when it is severed. Drop probability and
// further delay are not re-applied (the batch already paid its toll; a
// still-standing delay rule must not compound forever).
func (f *FaultInjector) deliverDelayed(from uint8, dst Endpoint, batch []proto.Message) {
	if f.closed.Load() {
		return
	}
	if f.nodeCut[from].Load() || f.nodeCut[dst.Node].Load() {
		f.countDrop(from, dst.Node)
		return
	}
	f.mu.RLock()
	cut := false
	if r, ok := f.rules[linkKey{from, dst.Node}]; ok {
		cut = r.cut
	}
	f.mu.RUnlock()
	if cut {
		f.countDrop(from, dst.Node)
		return
	}
	f.inner.Send(dst, batch)
}

// Recv implements Transport.
func (f *FaultInjector) Recv(ep Endpoint) <-chan Batch { return f.inner.Recv(ep) }

// Close implements Transport.
func (f *FaultInjector) Close() error {
	f.closed.Store(true)
	return f.inner.Close()
}

// Stats exposes the fault counters.
func (f *FaultInjector) Stats() *Stats { return &f.stats }

// LinkStats snapshots the per-link fault ledger, sorted by (from, to).
// Links that never saw a fault event are omitted.
func (f *FaultInjector) LinkStats() []LinkStat {
	f.mu.RLock()
	out := make([]LinkStat, 0, len(f.counters))
	for k, c := range f.counters {
		s := LinkStat{
			From: k.from, To: k.to,
			Dropped:    c.dropped.Load(),
			Delayed:    c.delayed.Load(),
			Duplicated: c.duplicated.Load(),
		}
		if s.Dropped > 0 || s.Delayed > 0 || s.Duplicated > 0 {
			out = append(out, s)
		}
	}
	f.mu.RUnlock()
	sortLinkStats(out)
	return out
}

func sortLinkStats(s []LinkStat) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].From != s[j].From {
			return s[i].From < s[j].From
		}
		return s[i].To < s[j].To
	})
}

// Faults is the rule surface a FaultInjector and a FaultSet share, so a
// deployment of any shape — one injector over a shared transport, one per
// node, one set per replica group — exposes the same controls.
type Faults interface {
	DropLink(from, to uint8, prob float64)
	DupLink(from, to uint8, prob float64)
	DelayLink(from, to uint8, d time.Duration)
	CutLink(from, to uint8, cut bool)
	IsolateNode(n uint8, isolated bool)
	Clear()
	LinkStats() []LinkStat
}

// FaultSet fans one fault surface out over several members — injectors,
// or other sets. A multi-process-style deployment gives every node its own
// transport (and therefore its own injector); a sharded one has a set per
// replica group. Rules are applied to every member; since an injector only
// consults rules matching its own outgoing traffic, the fan-out is harmless
// and the set behaves exactly like one injector wrapping a shared
// transport. A set over a single injector is the degenerate (in-process)
// case, so chaos tooling can target every shape through one type.
type FaultSet struct {
	mu      sync.RWMutex
	members []Faults
}

// NewFaultSet builds a set over the given members.
func NewFaultSet(members ...Faults) *FaultSet {
	return &FaultSet{members: append([]Faults(nil), members...)}
}

// Add grows the set (a deployment booting another node mid-run). Members
// that are sets stay live: whatever they grow by later is covered too.
func (s *FaultSet) Add(m Faults) {
	s.mu.Lock()
	s.members = append(s.members, m)
	s.mu.Unlock()
}

func (s *FaultSet) each(fn func(Faults)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, m := range s.members {
		fn(m)
	}
}

// DropLink applies the drop rule to every member.
func (s *FaultSet) DropLink(from, to uint8, prob float64) {
	s.each(func(m Faults) { m.DropLink(from, to, prob) })
}

// DupLink applies the duplication rule to every member.
func (s *FaultSet) DupLink(from, to uint8, prob float64) {
	s.each(func(m Faults) { m.DupLink(from, to, prob) })
}

// DelayLink applies the delay rule to every member.
func (s *FaultSet) DelayLink(from, to uint8, d time.Duration) {
	s.each(func(m Faults) { m.DelayLink(from, to, d) })
}

// CutLink applies the cut rule to every member.
func (s *FaultSet) CutLink(from, to uint8, cut bool) {
	s.each(func(m Faults) { m.CutLink(from, to, cut) })
}

// IsolateNode partitions (or heals) node n on every member.
func (s *FaultSet) IsolateNode(n uint8, isolated bool) {
	s.each(func(m Faults) { m.IsolateNode(n, isolated) })
}

// Clear heals every member (counters preserved, as on the
// injectors themselves).
func (s *FaultSet) Clear() {
	s.each(func(m Faults) { m.Clear() })
}

// LinkStats merges every member's per-link ledger, summing per link and
// sorting by (from, to).
func (s *FaultSet) LinkStats() []LinkStat {
	acc := make(map[linkKey]*LinkStat)
	s.each(func(m Faults) {
		for _, ls := range m.LinkStats() {
			k := linkKey{ls.From, ls.To}
			if a := acc[k]; a != nil {
				a.Dropped += ls.Dropped
				a.Delayed += ls.Delayed
				a.Duplicated += ls.Duplicated
			} else {
				cp := ls
				acc[k] = &cp
			}
		}
	})
	out := make([]LinkStat, 0, len(acc))
	for _, a := range acc {
		out = append(out, *a)
	}
	sortLinkStats(out)
	return out
}
