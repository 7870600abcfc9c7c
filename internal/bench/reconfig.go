package bench

import (
	"cmp"
	"fmt"
	"runtime"
	"time"

	"kite"
)

// The reconfiguration study (DESIGN.md "Membership"): a 3-replica group
// serves a steady mixed workload while the operator grows it to 4 and then
// removes an original replica. Measured: the throughput timeline across
// both reconfigurations, the time from AddNode to the joiner serving
// (config commit + catch-up sweep), and the dip each handoff costs — the
// membership counterpart of the recovery study's kill/rejoin timeline.

// ReconfigOpts parameterises the reconfiguration study; Load.Measure is the
// sampled span.
type ReconfigOpts struct {
	Options kite.Options
	Load
	// Prefill writes (and fences) this many keys before the run so the
	// joiner's sweep transfers a real store.
	Prefill int
	// AddAt / RemoveAt are the offsets of AddNode and RemoveNode within
	// the sampled span; RemoveNode removes replica 0.
	AddAt    time.Duration
	RemoveAt time.Duration
}

// ReconfigOutcome summarises a reconfiguration run.
type ReconfigOutcome struct {
	Timeline []TimePoint
	// Steady-state throughput in the three membership phases (mreqs):
	// before AddNode, with 4 members, and after RemoveNode(0).
	PreAdd, FourMembers, PostRemove float64
	// JoinTime is the wall time from the AddNode call to the joiner
	// serving (configuration commit + catch-up sweep).
	JoinTime time.Duration
	// SweptItems/AppliedItems are the joiner's sweep statistics.
	SweptItems, AppliedItems uint64
	// FinalEpoch/FinalMembers are the configuration after both changes.
	FinalEpoch   uint32
	FinalMembers []int
}

// RunReconfigStudy grows a serving group by one replica and then removes an
// original member, under load. Drivers run on replicas 1..n-1 so the
// removal of replica 0 retires no driver sessions mid-flight; the joiner
// gets its own drivers once its sweep completes.
func RunReconfigStudy(o ReconfigOpts) (ReconfigOutcome, error) {
	o.defaults()
	c, err := kite.NewCluster(o.Options)
	if err != nil {
		return ReconfigOutcome{}, err
	}
	defer c.Close()
	boot := c.Nodes()
	if err := prefill(c.Session(1, 0), o.Prefill, o.Keys); err != nil {
		return ReconfigOutcome{}, err
	}

	t := newTimeline(c, o.Load, boot+1)
	for n := 1; n < boot; n++ {
		t.drive(n)
	}
	out := ReconfigOutcome{}
	tl, err := t.run(
		step{o.AddAt, func() error {
			t0 := time.Now()
			id, err := c.AddNode()
			if err != nil {
				return fmt.Errorf("AddNode: %w", err)
			}
			if !c.AwaitRejoin(id, time.Minute) {
				return fmt.Errorf("joiner still catching up after 1m")
			}
			out.JoinTime = time.Since(t0)
			st := c.NodeCatchup(id)
			out.SweptItems, out.AppliedItems = st.Pulled, st.Applied
			t.drive(id)
			return nil
		}},
		step{o.RemoveAt, func() error {
			if err := c.RemoveNode(0); err != nil {
				return fmt.Errorf("RemoveNode: %w", err)
			}
			return nil
		}},
	)
	if err != nil {
		return ReconfigOutcome{}, err
	}

	out.Timeline = tl
	m := c.Members()
	out.FinalEpoch, out.FinalMembers = m.Epoch, m.Nodes
	joinedAt := o.AddAt + out.JoinTime
	var pre, four, post []TimePoint
	for _, tp := range tl {
		switch {
		case tp.At < o.AddAt:
			pre = append(pre, tp)
		case tp.At > joinedAt+30*time.Millisecond && tp.At < o.RemoveAt:
			four = append(four, tp)
		case tp.At > o.RemoveAt+50*time.Millisecond:
			post = append(post, tp)
		}
	}
	out.PreAdd = avgTotal(pre)
	out.FourMembers = avgTotal(four)
	out.PostRemove = avgTotal(post)
	return out, nil
}

// ReconfigReport is the machine-readable output of FigureReconfig — the
// format committed as BENCH_2.json.
type ReconfigReport struct {
	Name         string        `json:"name"`
	Nodes        int           `json:"nodes"`
	Workers      int           `json:"workers"`
	Sessions     int           `json:"sessions_per_worker"`
	Keys         uint64        `json:"keys"`
	Prefill      int           `json:"prefill_keys"`
	Total        time.Duration `json:"total_ns"`
	GoMaxProcs   int           `json:"gomaxprocs"`
	PreAdd       float64       `json:"pre_add_mreqs"`
	FourMembers  float64       `json:"four_members_mreqs"`
	PostRemove   float64       `json:"post_remove_mreqs"`
	JoinMillis   float64       `json:"join_ms"`
	SweptItems   uint64        `json:"swept_items"`
	AppliedItems uint64        `json:"applied_items"`
	FinalEpoch   uint32        `json:"final_epoch"`
	FinalMembers []int         `json:"final_members"`
}

// FigureReconfig runs the reconfiguration study (prefill 0 = 2^14 keys),
// prints the timeline and summary, and returns the machine-readable report.
func FigureReconfig(fc FigureConfig, prefill int) (*ReconfigReport, error) {
	opts := ReconfigOpts{
		Options:  fc.kiteOptions(),
		Load:     fc.timelineLoad(),
		Prefill:  cmp.Or(prefill, 1<<14),
		AddAt:    150 * time.Millisecond,
		RemoveAt: 500 * time.Millisecond,
	}
	out, err := RunReconfigStudy(opts)
	if err != nil {
		return nil, err
	}
	fc.printf("# Reconfiguration study: AddNode at %v, RemoveNode(0) at %v\n",
		opts.AddAt, opts.RemoveAt)
	fc.printf("%s", FormatTimeline(out.Timeline, 0))
	fc.printf("\npre-add total (3):    %8.3f mreqs\n", out.PreAdd)
	fc.printf("four members:         %8.3f mreqs\n", out.FourMembers)
	fc.printf("post-remove total (3):%8.3f mreqs\n", out.PostRemove)
	fc.printf("join: %v from AddNode to serving; %d items swept, %d applied\n",
		out.JoinTime.Round(time.Millisecond), out.SweptItems, out.AppliedItems)
	fc.printf("final config: epoch %d, members %v\n", out.FinalEpoch, out.FinalMembers)
	return &ReconfigReport{
		Name:         "reconfig",
		Nodes:        fc.Nodes,
		Workers:      fc.Workers,
		Sessions:     fc.SessionsPerWorker,
		Keys:         fc.Keys,
		Prefill:      opts.Prefill,
		Total:        opts.Measure,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		PreAdd:       out.PreAdd,
		FourMembers:  out.FourMembers,
		PostRemove:   out.PostRemove,
		JoinMillis:   float64(out.JoinTime.Microseconds()) / 1000,
		SweptItems:   out.SweptItems,
		AppliedItems: out.AppliedItems,
		FinalEpoch:   out.FinalEpoch,
		FinalMembers: out.FinalMembers,
	}, nil
}
