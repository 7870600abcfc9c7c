// Command kite-audit attaches a standing consistency audit to a live Kite
// deployment. It dials the deployment through the public client, leases
// prober sessions recorded into the internal/audit auditor, drives the
// chaos runner's verified workload (internal/chaos Prober) over a
// dedicated key range, and streams the sampled invoke/complete records
// through the incremental RC / k-atomicity checker while the deployment
// serves — reporting violations with their minimal counterexample
// windows, plus coverage counters.
//
// The audit is sound by subsetting: it samples, so it can miss violations,
// but everything it reports is witnessed entirely by operations that really
// executed (see internal/audit). Memory is bounded by -budget.
//
// Usage:
//
//	kite-audit -addrs 127.0.0.1:7001                     # unsharded node
//	kite-audit -addrs 127.0.0.1:7001,127.0.0.1:7101     # one node per group
//	kite-audit -addrs ... -duration 0                    # stand until SIGINT
//	kite-audit -addrs ... -sample-keys 0.25 -budget 65536
//	kite-audit -selftest                                 # injected-violation drill
//
// The prober uses only keys in [-key-base, -key-base+8000+pairs) (payload
// keys at -key-base + pair*16 + k, the FAA counter and CAS chain at +7000
// and +7001, release flags at +8000 + pair); point it at a range the
// deployment does not use for real data.
//
// Exit status: 0 — audited clean; 1 — consistency violations reported;
// 2 — the audit itself failed (dial error, no coverage).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kite"
	"kite/client"
	"kite/internal/audit"
	"kite/internal/chaos"
)

func main() {
	var (
		addrs    = flag.String("addrs", "", "comma-separated client addresses, one node per replica group (required unless -selftest)")
		duration = flag.Duration("duration", 60*time.Second, "how long to audit; 0 means until SIGINT/SIGTERM")
		pairs    = flag.Int("pairs", 1, "producer/consumer prober pairs (the prober leases 2*pairs+5 sessions on each node)")
		keyBase  = flag.Uint64("key-base", 900000, "first key of the prober's dedicated range")
		sampleK  = flag.Float64("sample-keys", 1, "per-key sampling rate in (0,1]")
		sampleS  = flag.Float64("sample-sessions", 1, "per-session sampling rate in (0,1]")
		budget   = flag.Int("budget", 1<<16, "memory budget: max judged events retained by the checker")
		grace    = flag.Duration("grace", 250*time.Millisecond, "watermark lag: completions older than this are judged")
		k        = flag.Int("k", 1, "k-atomicity bound for the synchronisation sweep (1 = atomic)")
		interval = flag.Duration("interval", 50*time.Millisecond, "seal cadence")
		seed     = flag.Int64("seed", 0, "sampling-coin salt")
		jsonPath = flag.String("json", "", "write the JSON audit summary here ('-' for stdout)")
		selftest = flag.Bool("selftest", false, "run the injected-violation drill through the full pipeline and exit")
	)
	flag.Parse()

	if *selftest {
		sum, err := audit.SelfTest()
		if err != nil {
			fmt.Fprintf(os.Stderr, "kite-audit: selftest: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "kite-audit: selftest ok: both injected violations caught (%d ops sampled)\n",
			sum.Stats.SampledOps)
		writeSummary(*jsonPath, sum)
		return
	}
	if *addrs == "" {
		fatalf("-addrs is required (or -selftest)")
	}
	if *pairs < 0 || *pairs > chaos.MaxPairs {
		fatalf("-pairs %d outside [0,%d]", *pairs, chaos.MaxPairs)
	}

	sc, err := client.DialSharded(strings.Split(*addrs, ","), client.Options{})
	if err != nil {
		fatalf("dial: %v", err)
	}
	defer sc.Close()

	a := audit.New(audit.Config{
		KeyRate: *sampleK, SessionRate: *sampleS, K: *k,
		Grace: *grace, MaxEvents: *budget, Interval: *interval, Seed: *seed,
	})

	// Chaos's verified workload, without burst load: every session is
	// recorded through the auditor, and the run nonce keeps written values
	// unique per key across audits of the same deployment (values from
	// earlier runs resolve as census misses, which the partial-mode checker
	// skips).
	p := &chaos.Prober{
		Record: a.Wrap,
		Base:   *keyBase, Pairs: *pairs, Nonce: time.Now().UnixNano(),
	}
	// Lease every worker's first session up front: a node without enough
	// free sessions fails the audit here instead of starving a worker for
	// the whole run. Later leases (after errors) go to the client.
	first := make([]kite.Session, p.Workers())
	for i := range first {
		s, err := sc.NewSession()
		if err != nil {
			for _, s := range first[:i] {
				s.Close()
			}
			fatalf("lease prober session %d of %d: %v (every node needs %d free sessions: lower -pairs, or give the nodes more -workers)",
				i+1, len(first), err, len(first))
		}
		first[i] = s
	}
	p.Session = func(slot int) (kite.Session, error) {
		if s := first[slot]; s != nil {
			first[slot] = nil
			return s, nil
		}
		return sc.NewSession()
	}
	p.Start()

	fmt.Fprintf(os.Stderr, "kite-audit: auditing %s (pairs=%d keys@%d sample=%g/%g budget=%d k=%d)\n",
		*addrs, *pairs, *keyBase, *sampleK, *sampleS, *budget, *k)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var timeout <-chan time.Time
	if *duration > 0 {
		timeout = time.After(*duration)
	}
	status := time.NewTicker(10 * time.Second)
	defer status.Stop()
loop:
	for {
		select {
		case <-timeout:
			break loop
		case <-sig:
			fmt.Fprintln(os.Stderr, "kite-audit: signal received, stopping")
			break loop
		case <-status.C:
			st := a.Stats()
			rep := a.Report()
			fmt.Fprintf(os.Stderr, "kite-audit: sampled=%d judged=%d reads=%d dropped=%d evicted=%d retained=%d violations=%d\n",
				st.SampledOps, st.JudgedEvents, st.CheckedReads, st.DroppedEvents, st.Evictions, st.Retained,
				len(rep.Violations)+rep.Truncated)
		}
	}

	p.Halt()
	a.Close()
	sum := a.Summary()
	writeSummary(*jsonPath, sum)

	st := sum.Stats
	fmt.Fprintf(os.Stderr, "kite-audit: done: sampled=%d skipped=%d judged=%d reads=%d dropped=%d evicted=%d prober-errors=%d\n",
		st.SampledOps, st.SkippedOps, st.JudgedEvents, st.CheckedReads, st.DroppedEvents, st.Evictions, p.Errors())
	fmt.Fprintln(os.Stderr, sum.Report.String())
	switch {
	case !sum.Report.OK():
		fmt.Fprintln(os.Stderr, "kite-audit: VIOLATIONS")
		os.Exit(1)
	case st.SampledOps == 0 || st.CheckedReads == 0:
		fmt.Fprintln(os.Stderr, "kite-audit: no coverage — the audit proved nothing")
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "kite-audit: PASSED")
}

func writeSummary(path string, sum *audit.Summary) {
	if path == "" {
		return
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fatalf("write summary: %v", err)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fatalf("write summary: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kite-audit: "+format+"\n", args...)
	os.Exit(2)
}
