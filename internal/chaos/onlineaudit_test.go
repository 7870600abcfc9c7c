package chaos

import (
	"testing"

	"kite/internal/testcluster"
)

// TestChaosOnlineAuditSharded runs the online-audit schedule: the standing
// internal/audit verifier rides every recorded workload session over the
// sharded backend while the nemesis mix runs. The runner's soundness gate
// fails the run if the live auditor reports any violation the offline
// verifier does not confirm on the full recorded history — so a pass here
// certifies both the deployment (no real violations) and the auditor (no
// invented ones, under real latency, retries and session churn).
func TestChaosOnlineAuditSharded(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Kinds = OnlineAuditKinds()
	cfg.OnlineAudit = true
	rep, _ := Run(deploy(t, testcluster.ShardedInProc, 4, ""), cfg)
	if !rep.Passed {
		t.Fatalf("online-audit chaos run failed: errors=%v verifier:\n%s\naudit:\n%s",
			rep.Errors, rep.Verifier.String(), rep.Audit.Report.String())
	}
	if rep.Audit == nil {
		t.Fatal("OnlineAudit requested but report carries no audit summary")
	}
	st := rep.Audit.Stats
	if st.SampledOps == 0 || st.JudgedEvents == 0 || st.CheckedReads == 0 {
		t.Fatalf("auditor rode along but saw nothing: %+v", st)
	}
	if !rep.Audit.Report.OK() {
		// Passed==true means every verdict was offline-confirmed; a healthy
		// cluster should have produced none at all.
		t.Fatalf("healthy sharded run: online auditor reported violations:\n%s", rep.Audit.Report.String())
	}
}

// TestChaosOnlineAuditInproc is the per-PR CI smoke shape: the same gate on
// the cheap in-process backend.
func TestChaosOnlineAuditInproc(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Kinds = OnlineAuditKinds()
	cfg.OnlineAudit = true
	rep, _ := Run(deploy(t, testcluster.InProc, 4, ""), cfg)
	if !rep.Passed {
		t.Fatalf("online-audit chaos run failed: errors=%v verifier:\n%s", rep.Errors, rep.Verifier.String())
	}
	if rep.Audit == nil || rep.Audit.Stats.SampledOps == 0 {
		t.Fatalf("no audit coverage: %+v", rep.Audit)
	}
}
