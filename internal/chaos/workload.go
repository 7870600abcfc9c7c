package chaos

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kite"
)

// Prober is the verified workload: the chaos runner drives it under a
// nemesis schedule, and kite-audit stands it up against a live deployment.
// It mirrors the repo's conformance shape so the verifier has teeth on
// every protocol class: producer/consumer pairs exercise the
// release/acquire contract over relaxed payload writes, scan workers hit
// the local-acquire fast path, FAA workers hammer one counter from two
// sessions, and a CAS worker advances a unique-value chain. Every written
// value carries Nonce, so values are unique per key across runs against
// one deployment (the verifier's matching assumption, and the one duty
// Partial-mode auditing puts on its callers).
//
// Keys are laid out relative to Base:
//
//	Base + pair*16 + k            payload keys (k < 4)
//	Base + 7000                   the FAA counter
//	Base + 7001                   the CAS chain
//	Base + 8000 + pair            release/acquire flags
//	Base + 11000 + burst*24 + i   burst keys (unrecorded, never read back)
//
// Chaos discipline: any error abandons the current round, re-leases the
// session at the same slot and starts a fresh round under a fresh recorded
// session — so every release's covered writes live in the release's own
// recorded session, which is exactly the granularity the RC check
// verifies at.
//
// Set the fields, then Start; Halt stops and joins the workers.
type Prober struct {
	// Session leases the session for worker slot (slots number the
	// workers from 0 in start order). The prober re-leases after errors.
	Session func(slot int) (kite.Session, error)
	// Record wraps a recorded worker's session; burst sessions stay raw.
	Record func(kite.Session) kite.Session
	// Base is the first key of the range above.
	Base uint64
	// Pairs is the number of producer/consumer pairs, at most MaxPairs.
	Pairs int
	// Bursts adds that many unrecorded high-fanout relaxed-write sessions
	// (see (*Prober).burst).
	Bursts int
	// Nonce prefixes every written value.
	Nonce int64

	prefix   string // "n<Nonce>"
	burstOps atomic.Uint64
	errs     atomic.Uint64
	stop     atomic.Bool
	wg       sync.WaitGroup
}

const (
	payloadKeys = 4
	faaOff      = 7000
	casOff      = 7001
	flagOff     = 8000
	burstOff    = 11000
	burstFanout = 24 // writes per DoBatch round

	// MaxPairs keeps the payload keys below the counters.
	MaxPairs = faaOff / 16

	opTimeout  = 5 * time.Second
	leaseRetry = 50 * time.Millisecond
)

// Start launches the workers.
func (p *Prober) Start() {
	p.prefix = fmt.Sprintf("n%d", p.Nonce)
	slot := 0
	next := func() int {
		slot++
		return slot - 1
	}
	for i := 0; i < p.Pairs; i++ {
		i, ps, cs := i, next(), next()
		p.go_(func() { p.producer(i, ps) })
		p.go_(func() { p.consumer(i, cs) })
	}
	for i := 0; i < 2; i++ {
		s := next()
		p.go_(func() { p.faa(s) })
	}
	s := next()
	p.go_(func() { p.cas(s) })
	if p.Pairs > 0 {
		for i := 0; i < 2; i++ {
			s := next()
			p.go_(func() { p.scan(s) })
		}
	}
	for b := 0; b < p.Bursts; b++ {
		b, s := b, next()
		p.go_(func() { p.burst(b, s) })
	}
}

// Workers is the number of workers Start launches, each holding one
// session lease at a time.
func (p *Prober) Workers() int {
	n := 2*p.Pairs + 3 + p.Bursts // pairs, two FAA workers, one CAS
	if p.Pairs > 0 {
		n += 2 // the scanners
	}
	return n
}

// Halt stops the workers and waits for them to exit.
func (p *Prober) Halt() {
	p.stop.Store(true)
	p.wg.Wait()
}

// BurstOps counts completed burst writes — the evidence that the burst
// load actually ran.
func (p *Prober) BurstOps() uint64 { return p.burstOps.Load() }

// Errors counts abandoned rounds and failed leases.
func (p *Prober) Errors() uint64 { return p.errs.Load() }

func (p *Prober) go_(fn func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn()
	}()
}

// lease opens (or re-opens) the session at slot, recorded unless raw,
// retrying while the deployment is down.
func (p *Prober) lease(slot int, raw bool) kite.Session {
	for !p.stop.Load() {
		s, err := p.Session(slot)
		if err == nil {
			if raw {
				return s
			}
			return p.Record(s)
		}
		p.errs.Add(1)
		time.Sleep(leaseRetry)
	}
	return nil
}

// release closes a session that hit an error (freeing its lease on remote
// backends — leases are a finite per-node resource) and leases afresh.
func (p *Prober) release(s kite.Session, slot int, raw bool) kite.Session {
	if s != nil {
		s.Close()
	}
	p.errs.Add(1)
	time.Sleep(leaseRetry)
	return p.lease(slot, raw)
}

func do(s kite.Session, op kite.Op) (kite.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return s.Do(ctx, op)
}

func (p *Prober) payloadKey(pair, k int) uint64 { return p.Base + uint64(pair*16+k) }

// value renders a written value under the run's nonce.
func (p *Prober) value(format string, args ...any) []byte {
	return []byte(p.prefix + fmt.Sprintf(format, args...))
}

// producer writes its payload keys then releases its flag, one round per
// iteration; round numbers never repeat, even across error retries.
func (p *Prober) producer(pair, slot int) {
	s := p.lease(slot, false)
	for r := 1; s != nil && !p.stop.Load(); r++ {
		ok := true
		for k := 0; k < payloadKeys; k++ {
			if _, err := do(s, kite.WriteOp(p.payloadKey(pair, k), p.value("p%dr%dk%d", pair, r, k))); err != nil {
				ok = false
				break
			}
		}
		if ok {
			if _, err := do(s, kite.ReleaseOp(p.Base+flagOff+uint64(pair), p.value("p%dr%d", pair, r))); err != nil {
				ok = false
			}
		}
		if !ok {
			// Round abandoned: fresh session, fresh recorded thread.
			s = p.release(s, slot, false)
			continue
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// consumer acquires its pair's flag and reads the payload keys; the
// verifier decides what those reads were allowed to return.
func (p *Prober) consumer(pair, slot int) {
	s := p.lease(slot, false)
	for s != nil && !p.stop.Load() {
		if _, err := do(s, kite.AcquireOp(p.Base+flagOff+uint64(pair))); err != nil {
			s = p.release(s, slot, false)
			continue
		}
		bad := false
		for k := 0; k < payloadKeys; k++ {
			if _, err := do(s, kite.ReadOp(p.payloadKey(pair, k))); err != nil {
				bad = true
				break
			}
		}
		if bad {
			s = p.release(s, slot, false)
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scan hammers the local-acquire fast path (DESIGN.md "Local reads"):
// acquires of the relaxed-only payload keys are served off the local store
// whenever a key's valid bit survives the nemeses, and fall back to the ABD
// quorum read whenever it doesn't — exactly the invalidate→validate window
// the local-reads schedule attacks. Payload keys are never sync-written and
// their values never collide with flag values, so the verifier judges these
// acquires as plain reads of relaxed data.
func (p *Prober) scan(slot int) {
	s := p.lease(slot, false)
	for i := 0; s != nil && !p.stop.Load(); i++ {
		if _, err := do(s, kite.AcquireOp(p.payloadKey(i%p.Pairs, (i/p.Pairs)%payloadKeys))); err != nil {
			s = p.release(s, slot, false)
			continue
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// burst keeps the transport's flush deadlines hot: every round issues one
// high-fanout DoBatch of relaxed writes to its private key range, so the
// inter-replica broadcast path always has multi-message batches in flight
// and the adaptive flusher decides on size rather than idling into its
// linger deadline — which is exactly the state the wire-batching nemeses
// attack. The session is unrecorded (its writes are pure load, never read
// back) and the keys are disjoint from every verified range, so the
// verifier's judgement rests solely on the recorded workers running
// alongside.
func (p *Prober) burst(b, slot int) {
	s := p.lease(slot, true)
	ops := make([]kite.Op, burstFanout)
	for r := 1; s != nil && !p.stop.Load(); r++ {
		for i := range ops {
			ops[i] = kite.WriteOp(p.Base+burstOff+uint64(b*burstFanout+i), p.value("b%dr%dk%d", b, r, i))
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		_, err := s.DoBatch(ctx, ops)
		cancel()
		if err != nil {
			s = p.release(s, slot, true)
			continue
		}
		p.burstOps.Add(burstFanout)
		time.Sleep(2 * time.Millisecond)
	}
}

// faa increments the shared counter; contention between the two FAA
// workers is what gives the lost-update check its power.
func (p *Prober) faa(slot int) {
	s := p.lease(slot, false)
	for s != nil && !p.stop.Load() {
		if _, err := do(s, kite.FAAOp(p.Base+faaOff, 1)); err != nil {
			s = p.release(s, slot, false)
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cas advances a unique-value chain: each successful swap consumes the
// previous value exactly once. After an indeterminate failure the next
// attempt's comparand is stale on purpose — its benign failure re-reads
// the current value (as does the first attempt against a chain an earlier
// run left behind).
func (p *Prober) cas(slot int) {
	s := p.lease(slot, false)
	var expected []byte
	for i := 0; s != nil && !p.stop.Load(); i++ {
		next := p.value("c%d", i)
		res, err := do(s, kite.CASOp(p.Base+casOff, expected, next, false))
		switch {
		case err != nil:
			s = p.release(s, slot, false)
		case res.Swapped:
			expected = next
		default:
			expected = res.Value
		}
		time.Sleep(5 * time.Millisecond)
	}
}
