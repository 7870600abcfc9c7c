package bench

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kite"
)

// sampleEvery is the timeline sampling period.
const sampleEvery = 20 * time.Millisecond

// TimePoint is one sample of a timeline.
type TimePoint struct {
	At      time.Duration
	PerNode []float64 // mreqs per node over the sample
	Total   float64   // mreqs across nodes
}

// step is one scheduled action of a timeline run.
type step struct {
	at time.Duration // offset into the sampled span
	do func() error
}

// timeline is the one sampled-timeline runner behind the failure, recovery
// and reconfiguration studies: drivers on chosen nodes of an in-process
// cluster, per-node completion counters sampled on a fixed cadence, and
// scheduled actions (pause, kill/rejoin, add/remove) applied mid-run.
type timeline struct {
	c       *kite.Cluster
	l       Load
	counted []atomic.Uint64 // per node slot, joiners included
	stop    chan struct{}
	wg      sync.WaitGroup
}

func newTimeline(c *kite.Cluster, l Load, slots int) *timeline {
	return &timeline{c: c, l: l, counted: make([]atomic.Uint64, slots), stop: make(chan struct{})}
}

// drive starts a driver on every session of node n. A driver stops at its
// first failed operation: its node was killed, and the study restarts
// drivers on the new incarnation's sessions once it serves again.
func (t *timeline) drive(n int) {
	for si := range t.c.SessionsPerNode() {
		s := t.c.Session(n, si)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			drive(issuer{async: s.DoAsync}, t.l, int64(n*1000+si), extras{}, t.stop, func(c completion) bool {
				if c.err != nil {
					return false
				}
				t.counted[n].Add(1)
				return true
			})
		}()
	}
}

// run warms up for l.Warmup, then samples every node slot's throughput each
// sampleEvery for l.Measure while applying steps in order on one goroutine:
// each no earlier than its offset and never before its predecessor returned
// (a removal waits for the add before it). Completions from the warmup are
// not sampled. It stops every driver, and returns the timeline with the
// first step error.
func (t *timeline) run(steps ...step) ([]TimePoint, error) {
	time.Sleep(t.l.Warmup)
	start := time.Now()
	prev := make([]uint64, len(t.counted))
	for i := range t.counted {
		prev[i] = t.counted[i].Load()
	}
	stepsDone := make(chan error, 1)
	go func() {
		for _, s := range steps {
			time.Sleep(time.Until(start.Add(s.at)))
			if err := s.do(); err != nil {
				stepsDone <- err
				return
			}
		}
		stepsDone <- nil
	}()

	var tl []TimePoint
	for last := time.Duration(0); last < t.l.Measure; {
		time.Sleep(sampleEvery)
		now := time.Since(start)
		tp := TimePoint{At: now, PerNode: make([]float64, len(t.counted))}
		dt := (now - last).Seconds()
		for i := range t.counted {
			cur := t.counted[i].Load()
			tp.PerNode[i] = float64(cur-prev[i]) / dt / 1e6
			tp.Total += tp.PerNode[i]
			prev[i] = cur
		}
		tl = append(tl, tp)
		last = now
	}
	err := <-stepsDone
	close(t.stop)
	t.wg.Wait()
	return tl, err
}

func avgTotal(tps []TimePoint) float64 {
	if len(tps) == 0 {
		return 0
	}
	var sum float64
	for _, tp := range tps {
		sum += tp.Total
	}
	return sum / float64(len(tps))
}

// avgPerOperational averages per-node throughput over nodes other than
// excluded (-1 = none).
func avgPerOperational(tps []TimePoint, excluded int) float64 {
	var sum float64
	var cnt int
	for _, tp := range tps {
		for i, v := range tp.PerNode {
			if i != excluded {
				sum += v
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// FormatTimeline renders a timeline as an aligned text table, starring the
// marked node's column (-1 = none).
func FormatTimeline(tl []TimePoint, marked int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %10s", "t(ms)", "total")
	for i := range tl[0].PerNode {
		tag := fmt.Sprintf("node%d", i)
		if i == marked {
			tag += "*"
		}
		fmt.Fprintf(&b, " %9s", tag)
	}
	b.WriteString("\n")
	for _, tp := range tl {
		fmt.Fprintf(&b, "%8.0f %10.3f", float64(tp.At.Milliseconds()), tp.Total)
		for _, v := range tp.PerNode {
			fmt.Fprintf(&b, " %9.3f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}
