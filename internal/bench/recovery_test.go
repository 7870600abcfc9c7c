package bench

import (
	"testing"
	"time"
)

// TestRunRecoveryStudySmoke is the miniature recovery study: kill one
// replica under load, rejoin it via the catch-up sweep, and assert the
// liveness properties (survivors keep serving; the sweep completes and
// actually moves state) rather than absolute numbers.
func TestRunRecoveryStudySmoke(t *testing.T) {
	out, err := RunRecoveryStudy(RecoveryOpts{
		Options: smokeOptions(),
		Load: Load{Mix: Mix{WriteRatio: 0.05, SyncFrac: 0.05}, Keys: 1 << 10, Window: smokeWindow(),
			Warmup: 30 * time.Millisecond, Measure: 300 * time.Millisecond},
		Prefill: 1 << 9, RestartNode: 2, RestartAt: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Timeline) == 0 || out.PreRestart == 0 {
		t.Fatalf("empty timeline: %+v", out)
	}
	// Availability: the surviving majority keeps serving through the kill
	// and the victim's catch-up.
	if out.Intermediate <= 0 {
		t.Fatal("throughput collapsed while the victim was down")
	}
	// The rejoin really happened and really transferred state.
	if out.CatchupTime <= 0 {
		t.Fatalf("no catch-up measured: %+v", out)
	}
	if out.Catchup.Pulled == 0 || out.Catchup.Applied == 0 {
		t.Fatalf("sweep moved no state: %+v", out.Catchup)
	}
	if out.Catchup.Active {
		t.Fatal("victim still marked catching up after the run")
	}
}
