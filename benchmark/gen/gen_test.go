package gen

import (
	"bytes"
	"math"
	"testing"

	"kite"
)

var hot = Spec{
	Mix:  Mix{WriteRatio: 0.40, SyncFrac: 0.50, RMWFrac: 0.20},
	Keys: 4096, Theta: 0.99, Counters: 1024, CounterBase: 1 << 32,
}

func TestSameSeedSameBytes(t *testing.T) {
	a := Bytes(Stream(hot, 7, 3, 50000))
	b := Bytes(Stream(hot, 7, 3, 50000))
	if !bytes.Equal(a, b) {
		t.Fatal("same (spec, seed, session) generated different streams")
	}
	if bytes.Equal(a, Bytes(Stream(hot, 8, 3, 50000))) {
		t.Fatal("a different seed generated the same stream")
	}
	if bytes.Equal(a, Bytes(Stream(hot, 7, 4, 50000))) {
		t.Fatal("a different session generated the same stream")
	}
}

func TestClassSharesWithinOnePercent(t *testing.T) {
	for _, m := range []Mix{
		{0.20, 0.05, 0.02}, {0.40, 0.50, 0.20}, {0.90, 0.05, 0.02}, {0.20, 0.20, 0.02},
	} {
		s := hot
		s.Mix = m
		const n = 400000
		var got [5]float64
		for _, o := range Stream(s, 1, 0, n) {
			got[o.Code]++
		}
		want := m.Shares()
		var sum float64
		for c := range want {
			sum += want[c]
			if d := math.Abs(got[c]/n - want[c]); d > 0.01 {
				t.Errorf("mix %+v: class %v share %.4f, want %.4f", m, kite.OpCode(c), got[c]/n, want[c])
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("mix %+v: shares sum to %v", m, sum)
		}
	}
}

func TestKeyRangesDisjoint(t *testing.T) {
	for _, o := range Stream(hot, 2, 0, 100000) {
		inCounters := o.Key >= hot.CounterBase && o.Key < hot.CounterBase+hot.Counters
		if (o.Code == kite.OpFAA) != inCounters {
			t.Fatalf("%v on key %d: FAAs and only FAAs use the counter range", o.Code, o.Key)
		}
		if !inCounters && o.Key >= hot.Keys {
			t.Fatalf("value key %d outside [0,%d)", o.Key, hot.Keys)
		}
	}
	bad := hot
	bad.CounterBase = 100
	if bad.Validate() == nil {
		t.Fatal("overlapping counter range accepted")
	}
	if hot.Validate() != nil {
		t.Fatal(hot.Validate())
	}
}

// At theta 0.99 over 4096 keys the hottest key draws 1/zeta of the accesses
// (about 11 %) and the ten hottest about a third.
func TestZipfHeadMass(t *testing.T) {
	s := hot
	s.Mix = Mix{} // reads only: every op draws a value key
	const n = 400000
	counts := map[uint64]float64{}
	for _, o := range Stream(s, 3, 0, n) {
		counts[o.Key]++
	}
	zeta := Zeta(s.Keys, s.Theta)
	var want10, got10 float64
	for r := uint64(0); r < 10; r++ {
		want10 += math.Pow(float64(r+1), -s.Theta) / zeta
		got10 += counts[KeyOfRank(r, s.Keys)] / n
	}
	got1, want1 := counts[KeyOfRank(0, s.Keys)]/n, 1/zeta
	if math.Abs(got1-want1) > 0.01 {
		t.Errorf("hottest key mass %.4f, want %.4f", got1, want1)
	}
	// The closed-form inversion is approximate beyond rank 1.
	if math.Abs(got10-want10) > 0.03 {
		t.Errorf("ten hottest keys mass %.4f, want %.4f", got10, want10)
	}
	if want1 < 0.10 || want1 > 0.13 {
		t.Errorf("theoretical head mass %.4f outside the expected 10-13%%", want1)
	}
}
