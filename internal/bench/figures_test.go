package bench

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestFigureReports runs every figure that writes a -json report at a tiny
// size and checks that the report keeps the field names of its committed
// baseline (BENCH_0–4) and that its headline numbers are non-zero.
func TestFigureReports(t *testing.T) {
	fc := FigureConfig{
		Nodes: 3, Workers: 1, SessionsPerWorker: 1, Keys: 1 << 10,
		Warmup: 10 * time.Millisecond, Measure: 40 * time.Millisecond,
		Out: io.Discard,
	}
	for _, tc := range []struct {
		name, baseline string
		run            func(t *testing.T) (report any, headline []float64)
	}{
		{"shard", "BENCH_0.json", func(t *testing.T) (any, []float64) {
			rep, err := FigureShard(fc, 2, []int{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Points) != 2 {
				t.Fatalf("got %d points, want 2", len(rep.Points))
			}
			var h []float64
			for _, pt := range rep.Points {
				h = append(h, pt.RelaxedMreqs, pt.MixedMreqs, pt.SyncMreqs)
			}
			return rep, h
		}},
		{"recovery", "BENCH_1.json", func(t *testing.T) (any, []float64) {
			rep, err := FigureRecovery(fc, 1<<9)
			if err != nil {
				t.Fatal(err)
			}
			return rep, []float64{rep.PreRestart, rep.Intermediate, rep.PostRejoin,
				rep.CatchupMillis, float64(rep.SweptItems), float64(rep.AppliedItems)}
		}},
		{"reconfig", "BENCH_2.json", func(t *testing.T) (any, []float64) {
			rep, err := FigureReconfig(fc, 1<<9)
			if err != nil {
				t.Fatal(err)
			}
			return rep, []float64{rep.PreAdd, rep.FourMembers, rep.PostRemove,
				rep.JoinMillis, float64(rep.SweptItems), float64(rep.FinalEpoch)}
		}},
		{"durability", "BENCH_3.json", func(t *testing.T) (any, []float64) {
			rep, err := FigureDurability(fc)
			if err != nil {
				t.Fatal(err)
			}
			var h []float64
			for _, pt := range rep.Points {
				h = append(h, pt.Mreqs, pt.RelativeToOff)
			}
			return rep, h
		}},
		{"latency", "BENCH_4.json", func(t *testing.T) (any, []float64) {
			rep, err := FigureLatency(fc)
			if err != nil {
				t.Fatal(err)
			}
			return rep, []float64{float64(rep.Overall.Count), rep.Overall.P50Micro,
				rep.RelaxedMreqs, float64(rep.LocalAcqHits)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, headline := tc.run(t)
			for i, v := range headline {
				if v <= 0 {
					t.Errorf("headline number %d is %v: %+v", i, v, rep)
				}
			}
			b, err := os.ReadFile(filepath.Join("..", "..", tc.baseline))
			if err != nil {
				t.Fatal(err)
			}
			got, want := fieldNames(t, rep), fieldNames(t, json.RawMessage(b))
			if !slices.Equal(got, want) {
				t.Fatalf("report fields drifted from %s:\n got  %v\n want %v", tc.baseline, got, want)
			}
		})
	}
}

// fieldNames lists the dotted JSON field paths of v, sorted; an array
// contributes its first element's fields.
func fieldNames(t *testing.T, v any) []string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(b, &tree); err != nil {
		t.Fatal(err)
	}
	var out []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				out = append(out, prefix+k)
				walk(prefix+k+".", x)
			}
		case []any:
			if len(v) > 0 {
				walk(prefix, v[0])
			}
		}
	}
	walk("", tree)
	slices.Sort(out)
	return out
}
