package chaos

import (
	"fmt"
	"sort"
	"time"

	"kite"
	"kite/internal/audit"
	"kite/internal/history"
	"kite/internal/transport"
	"kite/internal/verifier"
)

// OpStats tallies recorded operations by outcome.
type OpStats struct {
	Total int `json:"total"`
	OK    int `json:"ok"`
	Maybe int `json:"maybe"`
	Never int `json:"never"`
}

// Report is a chaos run's JSON-serialisable result.
type Report struct {
	Seed     int64         `json:"seed"`
	Backend  string        `json:"backend"`
	Duration time.Duration `json:"duration"`
	// Timeline is the full generated schedule — deterministic in Seed, so
	// re-running with the same flags replays it exactly.
	Timeline []Action `json:"timeline"`
	// Injected counts executed nemeses by kind; Errors collects lifecycle
	// failures (a restart refused mid-run, a join that never completed).
	Injected map[NemesisKind]int `json:"injected"`
	Errors   []string            `json:"errors,omitempty"`
	Ops      OpStats             `json:"ops"`
	// BurstOps counts completed unrecorded burst writes (Config.
	// BurstSessions — the wire-batching schedule's load shape). Zero when
	// no burst sessions were requested.
	BurstOps uint64 `json:"burst_ops,omitempty"`
	// Faults is the per-link evidence ledger: a run that drops and delays
	// nothing proves nothing, so Passed requires it to be non-trivial
	// whenever link nemeses were scheduled.
	Faults   []transport.LinkStat `json:"faults"`
	Verifier *verifier.Report     `json:"verifier"`
	// Audit is the standing online auditor's coverage and verdicts
	// (Config.OnlineAudit). Soundness gate: every violation here must be
	// confirmed by Verifier on the full recorded history, or the run fails.
	Audit  *audit.Summary `json:"audit,omitempty"`
	Passed bool           `json:"passed"`
}

// keyBase places the workload's keys (see Prober): the sharded legs' group
// placement depends on the exact keys.
const keyBase = 1000

// Run generates the schedule for cfg, executes it against the target while
// the recording workload runs, heals everything, and verifies the recorded
// history. The returned history accompanies the report so failures can be
// re-verified (or re-examined) offline.
func Run(tg Target, cfg Config) (*Report, *history.Recorded) {
	cfg.Nodes = tg.Nodes()
	cfg.defaults()
	sched := Generate(cfg)
	rep := &Report{
		Seed: cfg.Seed, Backend: tg.Backend(), Duration: cfg.Duration,
		Timeline: sched.Actions, Injected: make(map[NemesisKind]int),
	}

	log := history.New()
	var aud *audit.Auditor
	if cfg.OnlineAudit {
		aud = audit.New(audit.Config{})
	}
	// One recorder per workload session feeds the offline log and, when
	// auditing, the online auditor: both judges see the same events.
	nodes := tg.Nodes()
	wl := &Prober{
		Session: func(slot int) (kite.Session, error) { return tg.Session(slot%nodes, slot/nodes) },
		Record: func(s kite.Session) kite.Session {
			if aud == nil {
				return log.Wrap(s)
			}
			return history.Record(s, log.Sink(), aud.Sink(1))
		},
		Base: keyBase, Pairs: 2, Bursts: cfg.BurstSessions, Nonce: cfg.Seed,
	}
	wl.Start()
	faults := tg.Faults()
	start := time.Now()

	// One executor goroutine walks the inject/heal events in time order;
	// lifecycle heals block it (they are exclusive in the schedule, so
	// nothing else was due anyway).
	type event struct {
		at   time.Duration
		heal bool
		a    *Action
	}
	var evs []event
	for i := range sched.Actions {
		a := &sched.Actions[i]
		evs = append(evs, event{a.At, false, a}, event{a.Heal, true, a})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })

	addedID := -1
	for _, ev := range evs {
		if d := ev.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		a := ev.a
		switch a.Kind {
		case KindDropLink:
			if ev.heal {
				faults.DropLink(a.From, a.To, 0)
			} else {
				faults.DropLink(a.From, a.To, a.Prob)
			}
		case KindDelayLink:
			if ev.heal {
				faults.DelayLink(a.From, a.To, 0)
			} else {
				faults.DelayLink(a.From, a.To, a.Delay)
			}
		case KindCutLink:
			faults.CutLink(a.From, a.To, !ev.heal)
		case KindIsolateNode:
			faults.IsolateNode(uint8(a.Node), !ev.heal)
		case KindStopRestart:
			if !ev.heal {
				tg.StopNode(a.Node)
				break
			}
			if err := tg.RestartNode(a.Node); err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("restart node %d: %v", a.Node, err))
				break
			}
			if !tg.AwaitRejoin(a.Node, cfg.RejoinTimeout) {
				rep.Errors = append(rep.Errors, fmt.Sprintf("node %d never finished its catch-up sweep", a.Node))
			}
		case KindCrashAll:
			if !ev.heal {
				// SIGKILL the whole boot membership at once: no survivor
				// holds any key, so recovery is possible only from disk.
				for n := 0; n < tg.Nodes(); n++ {
					tg.CrashNode(n)
				}
				break
			}
			// Restart everything BEFORE awaiting anyone: during a
			// whole-cluster recovery every node is mid-rejoin, and the
			// sweeps complete only because WAL-restored nodes answer each
			// other's catch-up pulls. On a memory-only target no node can
			// vouch for anything and every wait below times out — which is
			// exactly the failure the durability pinning test asserts.
			for n := 0; n < tg.Nodes(); n++ {
				if err := tg.RestartNode(n); err != nil {
					rep.Errors = append(rep.Errors, fmt.Sprintf("crash-all: restart node %d: %v", n, err))
				}
			}
			for n := 0; n < tg.Nodes(); n++ {
				if !tg.AwaitRejoin(n, cfg.RejoinTimeout) {
					rep.Errors = append(rep.Errors, fmt.Sprintf("crash-all: node %d never finished its catch-up sweep", n))
				}
			}
		case KindAddRemove:
			if !ev.heal {
				id, err := tg.AddNode()
				if err != nil {
					rep.Errors = append(rep.Errors, fmt.Sprintf("add node: %v", err))
					break
				}
				if !tg.AwaitRejoin(id, cfg.RejoinTimeout) {
					rep.Errors = append(rep.Errors, fmt.Sprintf("added node %d never finished its catch-up sweep", id))
				}
				addedID = id
				break
			}
			if addedID < 0 {
				break // the add failed; nothing to remove
			}
			if err := tg.RemoveNode(addedID); err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("remove node %d: %v", addedID, err))
			}
			addedID = -1
		}
		if ev.heal {
			rep.Injected[a.Kind]++
		}
	}

	// Heal the world, let the workload settle on the clean cluster, then
	// quiesce and judge.
	faults.Clear()
	if d := cfg.Duration - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	time.Sleep(1500 * time.Millisecond)
	wl.Halt()
	rep.BurstOps = wl.BurstOps()

	rec := log.Snapshot()
	for i := range rec.Events {
		rep.Ops.Total++
		switch rec.Events[i].Outcome {
		case history.OutcomeOK:
			rep.Ops.OK++
		case history.OutcomeMaybe:
			rep.Ops.Maybe++
		default:
			rep.Ops.Never++
		}
	}
	rep.Faults = faults.LinkStats()
	rep.Verifier = verifier.Check(rec)
	if aud != nil {
		aud.Close()
		rep.Audit = aud.Summary()
	}

	rep.Passed = rep.Verifier.OK() && len(rep.Errors) == 0 && rep.Ops.OK > 0

	// Online-audit soundness gate: the live auditor judges a sampled stream
	// under watermarks and eviction, so everything it reports must be
	// confirmed (by kind and key) by the offline verifier over the full
	// recorded history — an unconfirmed verdict means the audit invented a
	// violation. A run that audited nothing proves nothing and fails too.
	if rep.Audit != nil {
		confirmed := make(map[string]bool)
		for _, v := range rep.Verifier.Violations {
			confirmed[fmt.Sprintf("%s/%d", v.Kind, v.Key)] = true
		}
		for _, v := range rep.Audit.Report.Violations {
			if !confirmed[fmt.Sprintf("%s/%d", v.Kind, v.Key)] {
				rep.Passed = false
				rep.Errors = append(rep.Errors, fmt.Sprintf(
					"online audit reported [%s] key %d unconfirmed by the offline verifier: %s", v.Kind, v.Key, v.Msg))
			}
		}
		if rep.Audit.Stats.SampledOps == 0 {
			rep.Passed = false
			rep.Errors = append(rep.Errors, "online audit sampled no operations")
		}
	}
	kinds := cfg.Kinds
	linkEvidence := false
	needEvidence := false
	for _, ls := range rep.Faults {
		if ls.Dropped+ls.Delayed > 0 {
			linkEvidence = true
		}
	}
	for _, k := range kinds {
		if rep.Injected[k] == 0 {
			rep.Passed = false
			rep.Errors = append(rep.Errors, fmt.Sprintf("nemesis kind %s was never injected", k))
		}
		switch k {
		case KindDropLink, KindDelayLink, KindCutLink, KindIsolateNode:
			needEvidence = true
		}
	}
	if needEvidence && !linkEvidence {
		rep.Passed = false
		rep.Errors = append(rep.Errors, "link nemeses were scheduled but the fault ledger shows no dropped or delayed traffic")
	}
	return rep, rec
}
