// Package audit is the online half of Kite's consistency story: a
// sampling verifier that runs against a live deployment instead of over a
// recorded run. internal/verifier judges finished histories after the
// fact; this package records production sessions through the same
// recorder (history.Record) and streams a sample of the invoke/complete
// records through the same incremental Checker, so violations surface
// while the deployment is serving — the chaos stack turned from a nightly
// batch job into a standing safety net.
//
// # Architecture
//
// Each recorded session feeds the Auditor through a history.Sink of its
// own: Auditor.Wrap is history.Record with that sink alone, and
// Auditor.Sink hands it to a Record that feeds other sinks too (the chaos
// runner records into a history.Log as well, so both judges see identical
// events). Whether an operation is streamed is decided by two
// deterministic coins: a per-key coin (a salted hash of the key against
// Config.KeyRate — the same key is sampled everywhere or nowhere, so
// per-key checks see complete sub-histories) and a per-session coin
// (Config.SessionRate, or the rate given to WrapRate or Sink, decided when
// the session's sink is made); the sink's Keep tosses them before the
// recorder builds anything, so an unsampled op costs the wrapped call
// alone. Sampled operations emit two records — one
// at invocation (carrying the written value, so the key's value census is
// complete before any read of that value is judged) and one at completion
// — onto a bounded channel.
// A single pump goroutine drains the channel into a verifier.Checker in
// Partial mode and periodically seals a watermark Config.Grace behind the
// present, judging every event the watermark has passed. The checker
// retains at most Config.MaxEvents judged events; beyond that the oldest
// are evicted from every index and counted.
//
// # Soundness
//
// Sampling may miss violations; it must never invent them. Every check the
// partial-mode checker runs is existential over the observed subset: a
// reported violation is witnessed entirely by operations that really
// executed, with their real values and real time intervals, under
// preserved per-session program order (the sink assigns its own dense
// indices to sampled events). Removing events — an unsampled key, an
// unsampled session, a dropped record, an evicted window — only removes
// potential witnesses: a value-census miss makes a check skip, never fire.
// The one check that is universal over writers ("read-from-nowhere":
// NOBODY wrote this value) is suppressed in partial mode, because under
// sampling the true writer may simply not have been recorded. The checks
// assume written values are unique per key (as the offline verifier does);
// kite-audit and the chaos runner drive one workload (chaos.Prober) that
// guarantees it, and duplicate values degrade toward missed violations,
// not false ones.
//
// FuzzAuditWindow pins the contract: random sampled interleavings with
// out-of-order completion, dropped records and aggressive eviction are
// oracle-checked against the batch verifier on the same sub-history.
package audit
