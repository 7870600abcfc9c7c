package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// The traced run records spans from the benchmark's own files, around its
// calls into the system: per generated op a root span from due time to
// completion (layer loadgen), a child around the DoAsync/callback pair
// (layer session) and a grandchild around the DoAsync call itself (layer
// submit); per probe, one span for a sampled 1/64 of the calls into the
// layer's exported functions. Spans stay in memory until the run ends.

// span is one timed interval; times are nanoseconds since the run's epoch.
type span struct {
	Name   string
	Layer  string
	ID     int64 // spans of one op share it
	Track  int   // session, or a track of its own per probe
	Start  int64
	End    int64
	Parent string // name of the span that caused it ("" for a root)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover: overlapping children count once and a child is clipped to
// its parent.
func selfTime(start, end int64, children [][2]int64) int64 {
	if end <= start {
		return 0
	}
	if len(children) == 1 { // every op span: no sorting, no allocation
		c0, c1 := max(children[0][0], start), min(children[0][1], end)
		return end - start - max(c1-c0, 0)
	}
	cs := make([][2]int64, 0, len(children))
	for _, c := range children {
		if c[0] < start {
			c[0] = start
		}
		if c[1] > end {
			c[1] = end
		}
		if c[1] > c[0] {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i][0] < cs[j][0] })
	covered, edge := int64(0), start
	for _, c := range cs {
		if c[0] > edge {
			edge = c[0]
		}
		if c[1] > edge {
			covered += c[1] - edge
			edge = c[1]
		}
	}
	return end - start - covered
}

// opSelfTimes splits one op's life between the three layers its spans name:
// waiting in the load generator for its turn (due to issue), inside the
// DoAsync call, and in flight inside the system until the callback.
func opSelfTimes(s *sample) (wait, submit, inflight int64) {
	wait = selfTime(s.due, s.done, [][2]int64{{s.issue, s.done}})
	inflight = selfTime(s.issue, s.done, [][2]int64{{s.issue, s.submitted}})
	submit = selfTime(s.issue, s.submitted, nil)
	return
}

// opSpans renders a sample as its three spans.
func opSpans(s *sample, id int64) []span {
	name := s.code.String()
	return []span{
		{Name: "op " + name, Layer: "loadgen", ID: id, Track: int(s.sess), Start: s.due, End: s.done},
		{Name: "session " + name, Layer: "session", ID: id, Track: int(s.sess), Start: s.issue, End: s.done, Parent: "op " + name},
		{Name: "DoAsync", Layer: "submit", ID: id, Track: int(s.sess), Start: s.issue, End: s.submitted, Parent: "session " + name},
	}
}

// traceSampling is how many probe calls (and at least how many ops) stand
// behind each one whose spans are written out; self times are summed over
// all of them.
const (
	traceSampling = 64
	maxTracedOps  = 1 << 14
)

// writeTrace writes spans in Chrome's trace-event format (load it at
// chrome://tracing or ui.perfetto.dev) with the per-layer self times
// alongside.
func writeTrace(path string, spans []span, selfUs map[string]float64) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]any{"op": s.ID, "parent": s.Parent},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"selfTimeUs":      selfUs,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
