package chaos

import (
	"testing"
	"time"

	"kite/internal/testcluster"
)

// TestCrashAllWAL is the durability acceptance run: a seeded crash-all
// schedule against a WAL-enabled cluster. Every node is SIGKILLed at once
// — no survivor holds any key — and the cluster must come back from its
// own disks with every acknowledged write intact (the verifier checks the
// recorded history against the replayed stores).
func TestCrashAllWAL(t *testing.T) {
	rep, rec := Run(deploy(t, testcluster.InProc, 4, t.TempDir()), Config{
		Seed: 7, Duration: 6 * time.Second,
		Kinds: []NemesisKind{KindCrashAll},
	})
	if !rep.Passed {
		t.Fatalf("crash-all over WAL cluster failed: errors=%v verifier:\n%s",
			rep.Errors, rep.Verifier.String())
	}
	if rep.Injected[KindCrashAll] == 0 {
		t.Fatalf("crash-all never injected; injected=%v", rep.Injected)
	}
	if rec == nil || rep.Ops.OK == 0 {
		t.Fatalf("no completed operations recorded: %+v", rep.Ops)
	}
}

// TestCrashAllMemoryOnlyFails pins that the acceptance above is not
// vacuous: the same nemesis against a memory-only cluster must FAIL —
// with every replica's state gone no node can vouch for anything, the
// rejoin sweeps can never complete, and the run reports it. If this test
// ever starts passing, crash-all stopped certifying durability.
func TestCrashAllMemoryOnlyFails(t *testing.T) {
	rep, _ := Run(deploy(t, testcluster.InProc, 4, ""), Config{
		Seed: 7, Duration: 3 * time.Second,
		Kinds: []NemesisKind{KindCrashAll},
		// Short: these sweeps are expected to hang forever, and each
		// crash-all heal waits for all of them.
		RejoinTimeout: time.Second,
	})
	if rep.Passed {
		t.Fatal("crash-all passed on a memory-only cluster; it no longer certifies durability")
	}
	if len(rep.Errors) == 0 {
		t.Fatalf("memory-only crash-all failed without recording why: %+v", rep)
	}
}
