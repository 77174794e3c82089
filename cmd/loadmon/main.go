// Command loadmon runs a named load scenario against the cloud monitor
// and reports throughput, latency percentiles and verdict tallies.
//
// By default it deploys the simulated cloud and the monitor in process
// (no sockets) and hammers the proxy:
//
//	loadmon -scenario cinder-mixed -json
//	loadmon -scenario cinder-read-heavy -clients 32
//	loadmon -list
//
// Chaos runs wrap the in-process cloud in the fault injector and pick a
// degradation policy for the monitor; -verify asserts the structural
// verdict invariants afterwards and exits non-zero on violation:
//
//	loadmon -scenario cinder-mixed -requests 600 \
//	        -faults internal/faults/testdata/chaos.json \
//	        -fail-policy open -verify
//
// With -target it instead drives an already-running monitor over HTTP,
// authenticating each role against the cloud (-cloud, -project must point
// at the deployment cloudsim printed):
//
//	loadmon -target http://127.0.0.1:8000 -cloud http://127.0.0.1:8776 \
//	        -project <id> -scenario cinder-mixed
package main

import (
	"crypto/ed25519"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cloudmon/internal/core"
	"cloudmon/internal/evidence"
	"cloudmon/internal/faults"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/loadgen"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/osclient"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadmon:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadmon", flag.ContinueOnError)
	scenario := fs.String("scenario", "cinder-mixed", "named scenario to run (see -list)")
	list := fs.Bool("list", false, "list scenarios and exit")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	clients := fs.Int("clients", 0, "override concurrent clients")
	requests := fs.Int("requests", 0, "override total request budget")
	duration := fs.Duration("duration", 0, "override run duration (used when -requests is 0)")
	rate := fs.Float64("rate", -1, "override open-loop arrival rate (req/s; 0 = closed loop)")
	seed := fs.Int64("seed", -1, "override mix seed")
	warmup := fs.Int("warmup", -1, "override warmup request count")
	modeName := fs.String("mode", "enforce", "monitor mode for the in-process deployment: enforce | observe")
	levelName := fs.String("level", "full", "check level for the in-process deployment: full | pre-only")
	postName := fs.String("post", "sync", "post-verification mode: sync | async (defer post-checks to a bounded worker queue)")
	postQueue := fs.Int("post-queue", 0, "async post queue capacity (0 = default)")
	postWorkers := fs.Int("post-workers", 0, "async post worker pool size (0 = default)")
	backpressureName := fs.String("post-backpressure", "block", "saturated async queue policy: block | shed")
	faultsPath := fs.String("faults", "", "fault-injection profile (JSON) for the in-process cloud")
	fleetN := fs.Int("fleet", 0, "deploy a sharded fleet of this many monitor instances behind a consistent-hash front (in-process only)")
	fleetProjects := fs.Int("fleet-projects", 0, "tenant projects the fleet workload spreads across (needs -fleet; 0 = 4 × fleet size)")
	fleetRTT := fs.Duration("fleet-rtt", 0, "simulated network round trip on every monitor→cloud request (needs -fleet)")
	fleetConns := fs.Int("fleet-conns", 0, "per-instance backend connection budget (needs -fleet; 0 = unlimited)")
	policyName := fs.String("fail-policy", "closed", "snapshot-failure policy: closed | open")
	cloudTimeout := fs.Duration("cloud-timeout", 0, "shared cloud-facing deadline (snapshot attempts and forwards; 0 = default)")
	retryAttempts := fs.Int("retry-attempts", 0, "override snapshot retry attempts (0 = default)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "enable the snapshot circuit breaker at this consecutive-failure threshold (0 = off)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "circuit-breaker open cooldown (0 = default)")
	verify := fs.Bool("verify", false, "assert structural verdict invariants after the run (in-process only)")
	auditDir := fs.String("audit-dir", "", "audit-trail directory for the in-process monitor (-verify defaults to a temp dir)")
	packOut := fs.String("pack", "", "write a signed evidence pack of the run's audit trail here (dir or .zip; in-process only)")
	packKey := fs.String("pack-key", "", "Ed25519 private key file for -pack (see auditctl keygen; empty = ephemeral run key)")
	metricsAddr := fs.String("metrics-addr", "", "scrape this /metrics endpoint after the run (with -target; e.g. http://127.0.0.1:8002)")
	target := fs.String("target", "", "drive an external monitor at this URL instead of deploying in process")
	cloudURL := fs.String("cloud", "", "cloud URL for role authentication (required with -target)")
	project := fs.String("project", "", "project id (required with -target)")
	creds := fs.String("credentials", "admin=alice:pw-alice,member=bob:pw-bob,user=carol:pw-carol",
		"role=user:password list for -target authentication")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, sc := range loadgen.Scenarios() {
			fmt.Fprintf(out, "%-18s %s\n", sc.Name, sc.Description)
		}
		return nil
	}

	sc, err := loadgen.Lookup(*scenario)
	if err != nil {
		return err
	}
	if *clients > 0 {
		sc.Clients = *clients
	}
	if *requests > 0 {
		sc.Requests = *requests
	}
	if *duration > 0 {
		sc.Duration = *duration
		if *requests == 0 {
			sc.Requests = 0
		}
	}
	if *rate >= 0 {
		sc.Rate = *rate
	}
	if *seed >= 0 {
		sc.Seed = *seed
	}
	if *warmup >= 0 {
		sc.Warmup = *warmup
	}

	var policy monitor.FailPolicy
	switch *policyName {
	case "closed", "":
		policy = monitor.FailClosed
	case "open":
		policy = monitor.FailOpen
	default:
		return fmt.Errorf("unknown fail-policy %q (want closed or open)", *policyName)
	}

	postMode, err := monitor.ParsePostMode(*postName)
	if err != nil {
		return err
	}
	backpressure, err := monitor.ParseBackpressure(*backpressureName)
	if err != nil {
		return err
	}

	if *fleetN == 0 {
		// The fleet knobs shape a fleet; a lone monitor would ignore them.
		var stray string
		fs.Visit(func(f *flag.Flag) {
			if stray == "" && strings.HasPrefix(f.Name, "fleet-") {
				stray = f.Name
			}
		})
		if stray != "" {
			return fmt.Errorf("-%s needs -fleet", stray)
		}
	}

	var tgt loadgen.Target
	var dep *loadgen.Deployment
	var opts loadgen.Options
	if *target != "" {
		if *fleetN > 0 {
			return fmt.Errorf("-fleet deploys in process and cannot combine with -target")
		}
		if *verify {
			return fmt.Errorf("-verify needs the in-process deployment (it reads monitor counters)")
		}
		if *packOut != "" {
			return fmt.Errorf("-pack needs the in-process deployment (it reads the local audit trail)")
		}
		tgt, err = externalTarget(*target, *cloudURL, *project, *creds)
		if err != nil {
			return err
		}
	} else {
		var mode monitor.Mode
		switch *modeName {
		case "enforce":
			mode = monitor.Enforce
		case "observe":
			mode = monitor.Observe
		default:
			return fmt.Errorf("unknown mode %q (want enforce or observe)", *modeName)
		}
		var level monitor.CheckLevel
		switch *levelName {
		case "full":
			level = monitor.CheckFull
		case "pre-only":
			level = monitor.CheckPreOnly
		default:
			return fmt.Errorf("unknown level %q (want full or pre-only)", *levelName)
		}
		opts = loadgen.Options{
			Monitor: core.Options{
				Mode:             mode,
				Level:            level,
				FailPolicy:       policy,
				Post:             postMode,
				PostQueueCap:     *postQueue,
				PostWorkers:      *postWorkers,
				PostBackpressure: backpressure,
				CloudTimeout:     *cloudTimeout,
			},
			Instances:   *fleetN,
			TenantCount: *fleetProjects,
			RTT:         *fleetRTT,
			Conns:       *fleetConns,
		}
		if *retryAttempts > 0 {
			opts.Monitor.Retry.MaxAttempts = *retryAttempts
		}
		if *breakerThreshold > 0 {
			opts.Monitor.Breaker = &osclient.BreakerConfig{
				FailureThreshold: *breakerThreshold,
				Cooldown:         *breakerCooldown,
			}
		}
		if *faultsPath != "" {
			profile, err := faults.LoadProfile(*faultsPath)
			if err != nil {
				return err
			}
			opts.Faults = profile
		}
		opts.AuditDir = *auditDir
		if opts.AuditDir == "" && (*verify || *packOut != "") {
			// -verify cross-checks audit counts against verdict counters,
			// and -pack snapshots the trail — both always need one.
			tmp, err := os.MkdirTemp("", "loadmon-audit-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			opts.AuditDir = tmp
		}
		dep, err = loadgen.Deploy(opts)
		if err != nil {
			return err
		}
		defer dep.Close()
		tgt = dep.Target
	}

	report, err := loadgen.Run(sc, tgt)
	if err != nil {
		return err
	}
	if *metricsAddr != "" {
		if err := scrapeMetrics(*metricsAddr, report, out); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else if _, err := fmt.Fprint(out, report.Text()); err != nil {
		return err
	}
	if dep != nil && dep.Front != nil {
		printFleetSummary(dep, out)
	}
	if *verify {
		if err := verifyRun(dep, opts, sc, report, out); err != nil {
			return err
		}
	}
	if *packOut != "" {
		if err := emitPack(dep, sc, *packOut, *packKey, out); err != nil {
			return err
		}
	}
	return nil
}

// who names an instance in -verify and -pack lines: "m-00: " for a fleet
// member, nothing for a lone monitor.
func who(in *loadgen.Instance) string {
	if in.ID == "" {
		return ""
	}
	return in.ID + ": "
}

// buildPack cuts a signed evidence pack of one instance's audit trail:
// the verdicts, their snapshots and the contract-set digest, hashed,
// signed and portable.
func buildPack(in *loadgen.Instance, sc loadgen.Scenario, path string, key ed25519.PrivateKey) (*evidence.BuildResult, error) {
	return evidence.BuildPack(in.Audit.Dir(), path, evidence.PackOptions{
		Key:       key,
		Scenario:  sc.Name,
		SetDigest: in.Sys.Contracts.Digest(),
		Tool:      "loadmon",
	})
}

// emitPack writes what -pack hands to an external auditor: one signed
// evidence pack per instance, a lone monitor's at outPath itself and a
// fleet member's at outPath/<id>. An instance whose trail is empty
// judged nothing non-OK and gets no pack.
func emitPack(dep *loadgen.Deployment, sc loadgen.Scenario, outPath, keyFile string, out io.Writer) error {
	var priv ed25519.PrivateKey
	var err error
	if keyFile != "" {
		if priv, err = evidence.LoadPrivateKey(keyFile); err != nil {
			return err
		}
	} else {
		// Ephemeral run key: the pack still proves integrity (the public
		// half is embedded); origin proof needs -pack-key with a kept key.
		if _, priv, err = evidence.GenerateKey(nil); err != nil {
			return err
		}
	}
	for _, in := range dep.Instances {
		if err := in.Audit.Sync(); err != nil {
			return fmt.Errorf("pack: %ssync audit log: %w", who(in), err)
		}
		segs, err := obs.AuditSegments(in.Audit.Dir())
		if err != nil {
			return fmt.Errorf("pack: %s%w", who(in), err)
		}
		if len(segs) == 0 {
			fmt.Fprintf(out, "pack: %saudit trail is empty (no non-OK verdicts), no pack written\n", who(in))
			continue
		}
		res, err := buildPack(in, sc, filepath.Join(outPath, in.ID), priv)
		if err != nil {
			return fmt.Errorf("pack: %s%w", who(in), err)
		}
		fmt.Fprintf(out, "pack: %s%d records in %d segments -> %s (pack %s, key %s)\n",
			who(in), res.Records, res.Segments, res.Path, res.PackID, res.KeyID)
	}
	return nil
}

// scrapeMetrics pulls an external monitor's /metrics endpoint after the
// run, prints its verdict counters, and fills the report's stage
// breakdown from the scraped latency histograms. The scraped values are
// cumulative over the monitor's lifetime, not diffed around the run.
func scrapeMetrics(addr string, r *loadgen.Report, out io.Writer) error {
	url := strings.TrimSuffix(addr, "/") + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := httpkit.ReadBounded(resp.Body, httpkit.MaxScrapeBytes)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	samples, err := obs.ParseText(body)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", url, err)
	}
	verdicts := obs.CounterByLabel(samples, "cloudmon_verdicts_total", "outcome")
	outcomes := make([]string, 0, len(verdicts))
	for o, n := range verdicts {
		if n > 0 {
			outcomes = append(outcomes, o)
		}
	}
	sort.Strings(outcomes)
	fmt.Fprintf(out, "scraped %s:", url)
	for _, o := range outcomes {
		fmt.Fprintf(out, " %s=%.0f", o, verdicts[o])
	}
	fmt.Fprintln(out)
	if len(r.Stages) == 0 {
		stages := make(map[string]obs.StageSummary)
		for _, name := range obs.StageNames() {
			snap, ok := obs.HistogramFromSamples(samples, "cloudmon_stage_duration_seconds", "stage", name)
			if !ok || snap.Count == 0 {
				continue
			}
			stages[name] = obs.SummarizeHistogram(snap)
		}
		if len(stages) > 0 {
			r.Stages = stages
		}
	}
	return nil
}

// verifyRun is -verify's one pipeline over the deployment's instances.
// Per instance: /metrics agrees with the outcome counters, the trail
// verifies on disk, every record carries the instance's stamp, every
// Rejected record names a SecReq, and the trail packs and replays clean.
// Over all instances: the report's verdict invariants, audit records ≡
// verdicts, the merged trail replays clean, the fetch economy and the
// async pipeline. A fleet adds the front's checks.
func verifyRun(dep *loadgen.Deployment, opts loadgen.Options, sc loadgen.Scenario, r *loadgen.Report, out io.Writer) error {
	if err := verifyReport(sc, r, opts.Monitor.FailPolicy, opts.Monitor.Post); err != nil {
		return err
	}
	// Every instance's verdict counters, read back through the merged
	// exposition under its instance label ("" for a lone monitor) — both
	// read the same atomics, so a drift is a collector or federation bug.
	samples, err := obs.ParseText([]byte(dep.Metrics()))
	if err != nil {
		return fmt.Errorf("verify: parse /metrics: %w", err)
	}
	scraped := map[string]map[string]float64{}
	for _, s := range obs.Find(samples, "cloudmon_verdicts_total") {
		id := s.Labels["instance"]
		if scraped[id] == nil {
			scraped[id] = map[string]float64{}
		}
		scraped[id][s.Labels["outcome"]] += s.Value
	}

	tmp, err := os.MkdirTemp("", "loadmon-pack-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	_, priv, err := evidence.GenerateKey(nil)
	if err != nil {
		return err
	}
	replayer, err := monitor.NewReplayer(dep.Instances[0].Sys.Contracts)
	if err != nil {
		return fmt.Errorf("verify: build replayer: %w", err)
	}
	var merged []obs.AuditRecord
	var tally trailTally
	packs := 0
	for _, in := range dep.Instances {
		for outcome, n := range in.Sys.Monitor.Outcomes() {
			if got := int(scraped[in.ID][outcome.String()]); got != n {
				return fmt.Errorf("verify: %s/metrics reports %s=%d, monitor counters say %d", who(in), outcome, got, n)
			}
		}
		empty, err := verifyTrail(in, &tally)
		if err != nil {
			return err
		}
		if empty {
			// Nothing non-OK was judged here; the audit ≡ verdict check
			// below confirms it.
			fmt.Fprintf(out, "verify: %saudit trail is empty (no non-OK verdicts), nothing to pack or replay\n", who(in))
			continue
		}
		recs, err := packReplay(in, sc, filepath.Join(tmp, "pack", in.ID), priv, replayer)
		if err != nil {
			return err
		}
		merged = append(merged, recs...)
		packs++
	}

	// The audit diff must match the verdict diff on every non-OK
	// outcome: each violation produced exactly one audit record.
	for outcome, n := range r.Verdicts {
		if outcome != monitor.OK.String() && r.Audit[outcome] != n {
			return fmt.Errorf("verify: %d %s verdicts but %d audit records", n, outcome, r.Audit[outcome])
		}
	}
	for outcome, n := range r.Audit {
		if r.Verdicts[outcome] != n {
			return fmt.Errorf("verify: %d audit records for %s but %d verdicts", n, outcome, r.Verdicts[outcome])
		}
	}
	sum := replayer.ReplayAll(merged)
	if !sum.OK() {
		return fmt.Errorf("verify: merged trail replay diverged on %d of %d verdicts", sum.Diverged, sum.Total)
	}
	if err := verifyFetch(sc, r, dep); err != nil {
		return err
	}
	if err := verifyAsync(dep, opts, sc, r, tally, out); err != nil {
		return err
	}
	if packs > 0 {
		what := "evidence pack replays"
		if dep.Front != nil {
			what = fmt.Sprintf("%d instance pack(s) and the merged trail replay", packs)
		}
		fmt.Fprintf(out, "verify: %s clean (%d/%d packed verdicts reproduced, %d skipped)\n",
			what, sum.Matched, sum.Total, sum.Skipped)
	}
	fmt.Fprintln(out, "verify: structural invariants hold (verdicts ≡ metrics ≡ audit ≡ fetch economy)")
	if dep.Front == nil {
		return nil
	}
	return verifyFront(dep, opts, out)
}

// trailTally counts the async records across every instance's trail.
type trailTally struct {
	shed, lateViolations int
}

// verifyTrail checks one instance's trail on disk: the chain verifies
// (contiguous, no torn lines), every record carries the instance's stamp,
// every Rejected record names at least one SecReq — the trail's purpose
// is tracing violations back to requirements — and every async record is
// well-formed. It reports whether the trail is empty.
func verifyTrail(in *loadgen.Instance, tally *trailTally) (bool, error) {
	if err := in.Audit.Sync(); err != nil {
		return false, fmt.Errorf("verify: %ssync audit log: %w", who(in), err)
	}
	read, err := obs.ReadAuditDir(in.Audit.Dir())
	if err != nil {
		return false, fmt.Errorf("verify: %sread audit dir: %w", who(in), err)
	}
	if res := obs.VerifyChain(read); !res.OK() {
		return false, fmt.Errorf("verify: %saudit chain problems: %s", who(in), strings.Join(res.Problems, "; "))
	}
	for _, rec := range read.Records {
		switch {
		case rec.Instance != in.ID:
			return false, fmt.Errorf("verify: %saudit record %d is stamped %q", who(in), rec.Seq, rec.Instance)
		case rec.Outcome == monitor.Rejected.String() && len(rec.SecReqs) == 0:
			return false, fmt.Errorf("verify: %saudit record %d (%s %s) is Rejected but names no SecReq",
				who(in), rec.Seq, rec.Trigger, rec.Resource)
		case rec.Shed && rec.Outcome != monitor.Unverified.String():
			return false, fmt.Errorf("verify: %saudit record %d is shed but %s, want %s",
				who(in), rec.Seq, rec.Outcome, monitor.Unverified)
		case rec.Late && rec.LagNanos < 0:
			return false, fmt.Errorf("verify: %saudit record %d has negative detection lag %d ns", who(in), rec.Seq, rec.LagNanos)
		case rec.Late && rec.ReturnUnixNano <= 0:
			return false, fmt.Errorf("verify: %slate audit record %d lacks a response-return timestamp", who(in), rec.Seq)
		}
		if rec.Shed {
			tally.shed++
		}
		if rec.Late && rec.Outcome == monitor.ViolationPostcondition.String() {
			tally.lateViolations++
		}
	}
	return len(read.Segments) == 0, nil
}

// packReplay closes one instance's evidence loop: pack the trail, verify
// the pack envelope, then replay each packed verdict against its packed
// snapshots and require zero divergence — the trail must reproduce the
// monitor's decisions, not merely describe them. It returns the packed
// records.
func packReplay(in *loadgen.Instance, sc loadgen.Scenario, path string, priv ed25519.PrivateKey, replayer *monitor.Replayer) ([]obs.AuditRecord, error) {
	if _, err := buildPack(in, sc, path, priv); err != nil {
		return nil, fmt.Errorf("verify: %sbuild evidence pack: %w", who(in), err)
	}
	p, err := evidence.OpenPack(path)
	if err != nil {
		return nil, fmt.Errorf("verify: %sopen evidence pack: %w", who(in), err)
	}
	defer p.Close()
	rep, err := p.Verify(priv.Public().(ed25519.PublicKey))
	if err != nil {
		return nil, fmt.Errorf("verify: %sverify evidence pack: %w", who(in), err)
	}
	if !rep.PackOK() {
		return nil, fmt.Errorf("verify: %sevidence pack envelope failed: %s", who(in), strings.Join(rep.Problems, "; "))
	}
	recs, err := p.Records()
	if err != nil {
		return nil, fmt.Errorf("verify: %sread packed records: %w", who(in), err)
	}
	if sum := replayer.ReplayAll(recs.Records); !sum.OK() {
		msg := fmt.Sprintf("verify: %sevidence replay diverged on %d of %d packed verdicts", who(in), sum.Diverged, sum.Total)
		if len(sum.Failures) > 0 {
			f := sum.Failures[0]
			msg += fmt.Sprintf(" (first: seq %d %s: %s)", f.Seq, f.Trigger, f.Reason)
		}
		return nil, fmt.Errorf("%s", msg)
	}
	return recs.Records, nil
}

// verifyReport asserts the structural verdict invariants a chaotic run
// must preserve: the monitor answered every request (no transport
// errors), every issued request produced exactly one verdict, and a
// fail-closed monitor never recorded an unverified forward — except the
// explicitly accounted async-queue sheds, which must match the shed
// counter one-for-one.
func verifyReport(sc loadgen.Scenario, r *loadgen.Report, policy monitor.FailPolicy, post monitor.PostMode) error {
	if r.Errors > 0 {
		return fmt.Errorf("verify: %d transport errors — the monitor itself failed under faults", r.Errors)
	}
	if sc.Requests > 0 {
		sum := 0
		for _, n := range r.Verdicts {
			sum += n
		}
		if sum != sc.Requests {
			return fmt.Errorf("verify: verdict counters sum to %d, want %d (one per issued request)", sum, sc.Requests)
		}
	}
	if policy == monitor.FailClosed {
		unverified := r.Verdicts[monitor.Unverified.String()]
		// Fail-closed synchronous checks turn snapshot failures into
		// Error, never Unverified — so under async post every Unverified
		// verdict must be an accounted queue shed, and without async
		// there must be none at all.
		var shed int
		if post == monitor.PostAsync && r.AsyncPost != nil {
			shed = int(r.AsyncPost.Shed)
		}
		if unverified != shed {
			return fmt.Errorf("verify: fail-closed run recorded %d unverified verdicts, want %d (= async sheds)",
				unverified, shed)
		}
	}
	return nil
}

// verifyAsync asserts the deferred-verification invariants (all zero
// under synchronous post): the queues drained, every accepted capture
// landed one lag histogram sample, and the trails hold one shed-tagged
// record per shed capture and one late postcondition violation per
// counted one. On a serial, fault-free async run it then replays the
// identical scenario against a synchronous twin deployment and requires
// the verdict multisets to be identical — the async pipeline may delay
// verdicts, never change them.
func verifyAsync(dep *loadgen.Deployment, opts loadgen.Options, sc loadgen.Scenario, r *loadgen.Report, tally trailTally, out io.Writer) error {
	st := dep.AsyncPostStats()
	if st.Pending != 0 {
		return fmt.Errorf("verify: async post queues still hold %d captures after drain", st.Pending)
	}
	if st.Lag.Count != st.Enqueued {
		return fmt.Errorf("verify: %d captures enqueued but %d lag samples observed", st.Enqueued, st.Lag.Count)
	}
	if tally.shed != int(st.Shed) {
		return fmt.Errorf("verify: monitors shed %d captures but the trails hold %d shed records", st.Shed, tally.shed)
	}
	if tally.lateViolations != int(st.LateViolations) {
		return fmt.Errorf("verify: monitors counted %d late violations but the trails hold %d", st.LateViolations, tally.lateViolations)
	}
	// The sync twin needs a deterministic replay: one client, closed
	// loop, no fault injection, nothing shed (a shed abandons a post
	// phase the twin will evaluate, so the multisets could not match).
	if opts.Monitor.Post != monitor.PostAsync || sc.Clients != 1 || sc.Rate != 0 || opts.Faults != nil || st.Shed != 0 {
		return nil
	}
	twin := opts
	twin.Monitor.Post = monitor.PostSync
	twin.Monitor.PostQueueCap, twin.Monitor.PostWorkers, twin.Monitor.PostBackpressure = 0, 0, 0
	twin.AuditDir = ""
	tdep, err := loadgen.Deploy(twin)
	if err != nil {
		return fmt.Errorf("verify: deploy sync twin: %w", err)
	}
	defer tdep.Close()
	trep, err := loadgen.Run(sc, tdep.Target)
	if err != nil {
		return fmt.Errorf("verify: run sync twin: %w", err)
	}
	for _, verdicts := range []map[string]int{r.Verdicts, trep.Verdicts} {
		for outcome := range verdicts {
			if r.Verdicts[outcome] != trep.Verdicts[outcome] {
				return fmt.Errorf("verify: async run saw %d %s verdicts, sync twin %d — deferred verification changed a verdict",
					r.Verdicts[outcome], outcome, trep.Verdicts[outcome])
			}
		}
	}
	fmt.Fprintln(out, "verify: async verdict multiset ≡ synchronous twin")
	return nil
}

// verifyFetch asserts the run's fetch-economy invariants: the monitors
// never read more of the cloud than the paper's whole-snapshot workflow
// would (the whole-snapshot bound: two full snapshots per checked
// request), and a serial closed loop coalesces nothing — with one client
// there is never a concurrent identical read in flight to share.
func verifyFetch(sc loadgen.Scenario, r *loadgen.Report, dep *loadgen.Deployment) error {
	if r.Fetch == nil || r.Fetch.Requests == 0 {
		return nil
	}
	perRequest := 0
	for _, c := range dep.Instances[0].Sys.Contracts.Contracts {
		if n := 2 * len(c.StatePaths()); n > perRequest {
			perRequest = n
		}
	}
	bound := perRequest * r.Fetch.Requests
	if r.Fetch.CloudGets > bound {
		return fmt.Errorf("verify: %d cloud GETs for %d checked requests exceeds the whole-snapshot bound %d (2 snapshots × %d paths each)",
			r.Fetch.CloudGets, r.Fetch.Requests, bound, perRequest/2)
	}
	if sc.Clients == 1 && sc.Rate == 0 && r.Fetch.Coalesced != 0 {
		return fmt.Errorf("verify: serial closed loop coalesced %d fetches (nothing can be in flight to share)",
			r.Fetch.Coalesced)
	}
	return nil
}

// externalTarget authenticates each role against the cloud and aims the
// workload at a running monitor.
func externalTarget(targetURL, cloudURL, project, creds string) (loadgen.Target, error) {
	if cloudURL == "" || project == "" {
		return loadgen.Target{}, fmt.Errorf("-target needs -cloud and -project for role authentication")
	}
	tokens := map[string]string{loadgen.RoleAnonymous: ""}
	for _, ent := range strings.Split(creds, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		role, userPass, ok := strings.Cut(ent, "=")
		if !ok {
			return loadgen.Target{}, fmt.Errorf("bad -credentials entry %q (want role=user:password)", ent)
		}
		user, pass, ok := strings.Cut(userPass, ":")
		if !ok {
			return loadgen.Target{}, fmt.Errorf("bad -credentials entry %q (want role=user:password)", ent)
		}
		auth := osclient.Client{BaseURL: cloudURL}
		tok, err := auth.Authenticate(user, pass, project)
		if err != nil {
			return loadgen.Target{}, fmt.Errorf("authenticate %s: %w", user, err)
		}
		tokens[role] = tok
	}
	return loadgen.Target{
		BaseURL: targetURL,
		Tenants: []loadgen.Tenant{{ProjectID: project, Tokens: tokens}},
	}, nil
}
