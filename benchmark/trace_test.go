package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"kite"
)

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name       string
		start, end int64
		children   [][2]int64
		want       int64
	}{
		{"no children", 10, 110, nil, 100},
		{"one child", 10, 110, [][2]int64{{20, 50}}, 70},
		{"child covers parent", 10, 110, [][2]int64{{10, 110}}, 0},
		{"disjoint children", 0, 100, [][2]int64{{10, 20}, {50, 80}}, 60},
		{"overlapping children count once", 0, 100, [][2]int64{{10, 60}, {40, 80}}, 30},
		{"nested children count once", 0, 100, [][2]int64{{10, 90}, {20, 30}}, 20},
		{"children clipped to the parent", 50, 100, [][2]int64{{0, 60}, {90, 200}}, 30},
		{"child outside the parent", 50, 100, [][2]int64{{0, 10}, {20, 40}}, 50},
		{"unsorted children", 0, 100, [][2]int64{{70, 80}, {0, 10}, {5, 20}}, 70},
		{"empty parent", 10, 10, [][2]int64{{0, 20}}, 0},
	} {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// An op's three self times partition its life from due time to completion.
func TestOpSelfTimesPartition(t *testing.T) {
	s := sample{due: 1000, issue: 1400, submitted: 1450, done: 2000, code: kite.OpAcquire, sess: 3}
	wait, submit, inflight := opSelfTimes(&s)
	if wait != 400 || submit != 50 || inflight != 550 {
		t.Fatalf("self times %d/%d/%d, want 400/50/550", wait, submit, inflight)
	}
	if wait+submit+inflight != s.done-s.due {
		t.Fatal("self times do not add up to the root span")
	}
	spans := opSpans(&s, 7)
	if len(spans) != 3 || spans[0].Parent != "" || spans[1].Parent != spans[0].Name || spans[2].Parent != spans[1].Name {
		t.Fatalf("span chain wrong: %+v", spans)
	}
	for _, sp := range spans {
		if sp.ID != 7 || sp.Track != 3 {
			t.Fatalf("spans of one op must share its id and track: %+v", sp)
		}
	}
}

func TestWriteTraceIsChromeFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	s := sample{due: 1000, issue: 1400, submitted: 1450, done: 2000}
	if err := writeTrace(path, opSpans(&s, 1), map[string]float64{"loadgen": 0.4}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Ts, Dur       float64
		}
		SelfTimeUs map[string]float64
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.TraceEvents) != 3 || got.TraceEvents[0].Ph != "X" || got.TraceEvents[0].Ts != 1 || got.TraceEvents[0].Dur != 1 {
		t.Fatalf("events %+v", got.TraceEvents)
	}
	if got.SelfTimeUs["loadgen"] != 0.4 {
		t.Fatalf("self times %+v", got.SelfTimeUs)
	}
}
