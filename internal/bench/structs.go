package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"kite"
	"kite/dstruct"
)

// StructKind selects the §8.3 workload.
type StructKind uint8

// Data-structure workloads of Figure 8.
const (
	TreiberStack StructKind = iota
	MSQueue
	HMList
)

func (k StructKind) String() string {
	switch k {
	case TreiberStack:
		return "TS"
	case MSQueue:
		return "MSQ"
	default:
		return "HML"
	}
}

// StructOpts parameterises a Figure-8 run.
type StructOpts struct {
	Kind    StructKind
	Fields  int // payload fields per object (4 or 32 in the paper)
	Options kite.Options
	// Structs is the number of data-structure instances (paper: 5000).
	Structs int
	// SessionsPerNode drives this many concurrent sessions per replica.
	SessionsPerNode int
	// Private gives each session its own instance — the conflict-free
	// "Kite-ideal" upper bound of §8.3.
	Private bool
	// WeakCAS enables the weak compare-and-swap (§6.1) in the ports.
	WeakCAS bool
	Warmup  time.Duration
	Measure time.Duration
}

// listKeys bounds the HML sort-key range per list.
const listKeys = 16

// StructResult reports a Figure-8 measurement: structure operations per
// second (one op = push+pop pair, enqueue+dequeue pair, or insert+delete
// pair) plus the underlying Kite API request counts, which give the
// sync-per metric (§8.3) and the ZAB-ideal conversion factors.
type StructResult struct {
	Ops      uint64 // structure op pairs completed
	Duration time.Duration
	// APICalls counts Kite API requests issued during the whole run, for
	// deriving requests-per-op and the effective write ratio.
	APIReads, APIWrites, APISync, APIRMW uint64
}

// Mops returns structure operation pairs per second in millions.
func (r StructResult) Mops() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds() / 1e6
}

// ReqsPerOp returns Kite API requests per structure op pair.
func (r StructResult) ReqsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.APIReads+r.APIWrites+r.APISync+r.APIRMW) / float64(r.Ops)
}

// WriteRatio returns the effective write ratio of the workload (writes,
// releases and RMWs over all requests) — the input to the ZAB-ideal bound.
func (r StructResult) WriteRatio() float64 {
	total := r.APIReads + r.APIWrites + r.APISync + r.APIRMW
	if total == 0 {
		return 0
	}
	// Half the sync ops are acquires (reads); writes+RMWs plus releases.
	return (float64(r.APIWrites) + float64(r.APISync)/2 + float64(r.APIRMW)) / float64(total)
}

// SyncPer returns the fraction of requests that synchronise (the paper's
// "sync-per", which correlates with the Kite/ZAB gap).
func (r StructResult) SyncPer() float64 {
	total := r.APIReads + r.APIWrites + r.APISync + r.APIRMW
	if total == 0 {
		return 0
	}
	return (float64(r.APISync) + float64(r.APIRMW)) / float64(total)
}

// RunStructs measures one Figure-8 workload.
func RunStructs(o StructOpts) (StructResult, error) {
	c, err := kite.NewCluster(o.Options)
	if err != nil {
		return StructResult{}, err
	}
	defer c.Close()

	// Key layout: instance i anchors at (i+1) * 16.
	anchor := func(i int) uint64 { return uint64(i+1) * 16 }

	// Initialise queues (stacks and lists need no init).
	if o.Kind == MSQueue {
		setup := c.Session(0, 0)
		n := o.Structs
		if o.Private {
			n = c.Nodes() * o.SessionsPerNode
		}
		for i := 0; i < n; i++ {
			if err := dstruct.InitQueue(setup, anchor(i), o.Fields, uint64(1<<20+i)); err != nil {
				return StructResult{}, err
			}
		}
	}

	var counting, stop atomic.Bool
	var pairs atomic.Uint64
	var wg sync.WaitGroup
	var firstErr atomic.Value

	sessIdx := 0
	for n := 0; n < c.Nodes(); n++ {
		for si := 0; si < o.SessionsPerNode && si < c.SessionsPerNode(); si++ {
			owner := uint64(n)<<16 | uint64(si)
			myStruct := sessIdx
			sessIdx++
			wg.Add(1)
			go func(n, si int, owner uint64, myStruct int) {
				defer wg.Done()
				sess := c.Session(n, si)
				rng := rand.New(rand.NewSource(int64(owner)))
				fields := make([][]byte, o.Fields)
				for i := range fields {
					fields[i] = make([]byte, 32)
					rng.Read(fields[i])
				}
				// Handles are created once per (session, instance): a
				// handle owns a node-key arena, and arenas must never be
				// recreated mid-run (key reuse would corrupt live nodes).
				stacks := map[int]*dstruct.Stack{}
				queues := map[int]*dstruct.Queue{}
				lists := map[int]*dstruct.List{}
				for !stop.Load() {
					inst := myStruct
					if !o.Private {
						inst = rng.Intn(o.Structs)
					}
					instOwner := owner<<12 | uint64(inst&0xfff)
					var err error
					switch o.Kind {
					case TreiberStack:
						st := stacks[inst]
						if st == nil {
							st = dstruct.NewStack(sess, anchor(inst), o.Fields, instOwner, o.WeakCAS)
							stacks[inst] = st
						}
						err = stackPair(st, o, fields)
					case MSQueue:
						q := queues[inst]
						if q == nil {
							q = dstruct.NewQueue(sess, anchor(inst), o.Fields, instOwner, o.WeakCAS)
							queues[inst] = q
						}
						err = queuePair(q, o, fields)
					default:
						l := lists[inst]
						if l == nil {
							l = dstruct.NewList(sess, anchor(inst), o.Fields, instOwner, o.WeakCAS)
							lists[inst] = l
						}
						err = listPair(l, rng, fields)
					}
					if err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					if counting.Load() {
						pairs.Add(1)
					}
				}
			}(n, si, owner, myStruct)
		}
	}

	var api [][4]uint64 // at both edges of the counted window
	elapsed := measure(Load{Warmup: o.Warmup, Measure: o.Measure}, func(on bool) {
		counting.Store(on)
		api = append(api, apiCounts(c))
	})
	stop.Store(true)
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return StructResult{}, err
	}

	before, after := api[0], api[1]
	return StructResult{
		Ops: pairs.Load(), Duration: elapsed,
		APIReads:  after[0] - before[0],
		APIWrites: after[1] - before[1],
		APISync:   after[2] - before[2],
		APIRMW:    after[3] - before[3],
	}, nil
}

// stackPair is the §8.3 Treiber stack unit of work: push an object then pop
// one; popping immediately after pushing guarantees pops never see an empty
// stack, so every pop pays its full cost.
func stackPair(st *dstruct.Stack, o StructOpts, fields [][]byte) error {
	if _, err := st.Push(fields); err != nil {
		return err
	}
	popped, ok, err := st.Pop()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("bench: pop found empty stack (correctness check, §8.3)")
	}
	if len(popped) != o.Fields {
		return dstruct.ErrCorrupt
	}
	return nil
}

func queuePair(q *dstruct.Queue, o StructOpts, fields [][]byte) error {
	if err := q.Enqueue(fields); err != nil {
		return err
	}
	got, ok, err := q.Dequeue()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("bench: dequeue found empty queue after enqueue")
	}
	if len(got) != o.Fields {
		return dstruct.ErrCorrupt
	}
	return nil
}

func listPair(l *dstruct.List, rng *rand.Rand, fields [][]byte) error {
	k := 1 + rng.Uint64()%listKeys
	if _, err := l.Insert(k, fields); err != nil {
		return err
	}
	if _, err := l.Delete(k); err != nil {
		return err
	}
	return nil
}

// apiCounts sums per-class completions across the cluster:
// [reads, writes, sync(rel+acq), rmw].
func apiCounts(c *kite.Cluster) [4]uint64 {
	var out [4]uint64
	for n := 0; n < c.Nodes(); n++ {
		cl := c.OpClassCounts(n)
		out[0] += cl[0]
		out[1] += cl[1]
		out[2] += cl[2] + cl[3]
		out[3] += cl[4] + cl[5] + cl[6]
	}
	return out
}
