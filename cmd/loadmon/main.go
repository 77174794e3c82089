// Command loadmon runs a named load scenario against the cloud monitor
// and reports throughput, latency percentiles and verdict tallies.
//
// By default it deploys the simulated cloud and the monitor in process
// (no sockets) and hammers the proxy:
//
//	loadmon -scenario cinder-mixed -json
//	loadmon -scenario cinder-read-heavy -cache-ttl 50ms -clients 32
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

	"cloudmon/internal/evidence"
	"cloudmon/internal/faults"
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
	evalName := fs.String("eval", "compiled", "evaluation engine for the in-process deployment: compiled | lazy | eager")
	postName := fs.String("post", "sync", "post-verification mode: sync | async (defer post-checks to a bounded worker queue)")
	postQueue := fs.Int("post-queue", 0, "async post queue capacity (0 = default)")
	postWorkers := fs.Int("post-workers", 0, "async post worker pool size (0 = default)")
	backpressureName := fs.String("post-backpressure", "block", "saturated async queue policy: block | shed")
	noFacts := fs.Bool("no-facts", false, "disable compile-time fact pruning in the lazy engine (A/B baseline)")
	cacheTTL := fs.Duration("cache-ttl", 0, "pre-state read-cache TTL (0 = disabled)")
	faultsPath := fs.String("faults", "", "fault-injection profile (JSON) for the in-process cloud")
	fleetN := fs.Int("fleet", 0, "deploy a sharded fleet of this many monitor instances behind a consistent-hash front (in-process only)")
	fleetProjects := fs.Int("fleet-projects", 0, "tenant projects the fleet workload spreads across (0 = 4 × fleet size)")
	fleetRTT := fs.Duration("fleet-rtt", 0, "simulated network round trip on every monitor→cloud request (fleet runs)")
	fleetConns := fs.Int("fleet-conns", 0, "per-instance backend connection budget (fleet runs; 0 = unlimited)")
	policyName := fs.String("fail-policy", "closed", "snapshot-failure policy: closed | open | degrade")
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
	case "degrade":
		policy = monitor.Degrade
	default:
		return fmt.Errorf("unknown fail-policy %q (want closed, open or degrade)", *policyName)
	}

	postMode, err := monitor.ParsePostMode(*postName)
	if err != nil {
		return err
	}
	backpressure, err := monitor.ParseBackpressure(*backpressureName)
	if err != nil {
		return err
	}

	var tgt loadgen.Target
	var dep *loadgen.Deployment
	var fdep *loadgen.FleetDeployment
	var depOpts loadgen.DeployOptions
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
		evalMode, err := monitor.ParseEvalMode(*evalName)
		if err != nil {
			return err
		}
		if policy == monitor.Degrade && *cacheTTL <= 0 {
			return fmt.Errorf("-fail-policy degrade needs -cache-ttl > 0 (the policy falls back to the pre-state cache)")
		}
		opts := loadgen.DeployOptions{
			Mode:             mode,
			Level:            level,
			Eval:             evalMode,
			NoFacts:          *noFacts,
			FailPolicy:       policy,
			Post:             postMode,
			PostQueueCap:     *postQueue,
			PostWorkers:      *postWorkers,
			PostBackpressure: backpressure,
			PreStateCacheTTL: *cacheTTL,
			CloudTimeout:     *cloudTimeout,
		}
		if *retryAttempts > 0 {
			opts.Retry.MaxAttempts = *retryAttempts
		}
		if *breakerThreshold > 0 {
			opts.Breaker = &osclient.BreakerConfig{
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
		if *verify && sc.Requests > 0 {
			// Keep every verdict so the counters can be cross-checked
			// against the log.
			opts.MaxLog = sc.Requests + 1024
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
		if *fleetN > 0 {
			fdep, err = loadgen.DeployFleet(loadgen.FleetOptions{
				DeployOptions: opts,
				Instances:     *fleetN,
				TenantCount:   *fleetProjects,
				RTT:           *fleetRTT,
				Conns:         *fleetConns,
			})
			if err != nil {
				return err
			}
			defer fdep.Close()
			tgt = fdep.Target
		} else {
			dep, err = loadgen.Deploy(opts)
			if err != nil {
				return err
			}
			defer dep.Close()
			tgt = dep.Target
		}
		depOpts = opts
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
	if fdep != nil {
		printFleetSummary(fdep, out)
	}
	if *verify {
		if err := verifyReport(sc, report, policy, postMode, report.AsyncPost); err != nil {
			return err
		}
		if fdep != nil {
			if err := verifyFleet(fdep, sc, report, depOpts, out); err != nil {
				return err
			}
			fmt.Fprintln(out, "verify: fleet invariants hold (aggregate verdicts ≡ federated metrics ≡ merged audit; routing stable; resize bounded)")
		} else {
			if err := verifyObs(dep, report); err != nil {
				return err
			}
			if err := verifyFetch(sc, report, dep); err != nil {
				return err
			}
			if err := verifyAsync(sc, report, dep, depOpts, out); err != nil {
				return err
			}
			if err := verifyPackReplay(dep, sc, out); err != nil {
				return err
			}
			fmt.Fprintln(out, "verify: structural invariants hold (verdicts ≡ metrics ≡ audit ≡ fetch economy)")
		}
	}
	if *packOut != "" {
		if fdep != nil {
			if err := emitFleetPacks(fdep, sc, *packOut, *packKey, out); err != nil {
				return err
			}
		} else if err := emitPack(dep, sc, *packOut, *packKey, out); err != nil {
			return err
		}
	}
	return nil
}

// emitPack cuts a signed evidence pack of the run's audit trail: the
// verdicts, their snapshots and the contract-set digest, hashed,
// signed and portable — what -pack hands to an external auditor.
func emitPack(dep *loadgen.Deployment, sc loadgen.Scenario, outPath, keyFile string, out io.Writer) error {
	if dep == nil || dep.Audit == nil {
		return fmt.Errorf("-pack needs the in-process deployment with an audit trail")
	}
	if err := dep.Audit.Sync(); err != nil {
		return fmt.Errorf("pack: sync audit log: %w", err)
	}
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
	res, err := evidence.BuildPack(dep.Audit.Dir(), outPath, evidence.PackOptions{
		Key:       priv,
		Scenario:  sc.Name,
		SetDigest: dep.Sys.Contracts.Digest(),
		Tool:      "loadmon",
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pack: %d records in %d segments -> %s (pack %s, key %s)\n",
		res.Records, res.Segments, res.Path, res.PackID, res.KeyID)
	return nil
}

// verifyPackReplay closes the evidence loop on every -verify run: pack
// the trail, verify the pack envelope, then replay each packed verdict
// against its packed snapshots and require zero divergence — the trail
// must reproduce the monitor's decisions, not merely describe them.
func verifyPackReplay(dep *loadgen.Deployment, sc loadgen.Scenario, out io.Writer) error {
	if dep == nil || dep.Audit == nil {
		return nil
	}
	if err := dep.Audit.Sync(); err != nil {
		return fmt.Errorf("verify: sync audit log: %w", err)
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
	packPath := filepath.Join(tmp, "pack")
	if _, err := evidence.BuildPack(dep.Audit.Dir(), packPath, evidence.PackOptions{
		Key:       priv,
		Scenario:  sc.Name,
		SetDigest: dep.Sys.Contracts.Digest(),
		Tool:      "loadmon",
	}); err != nil {
		return fmt.Errorf("verify: build evidence pack: %w", err)
	}
	p, err := evidence.OpenPack(packPath)
	if err != nil {
		return fmt.Errorf("verify: open evidence pack: %w", err)
	}
	defer p.Close()
	rep, err := p.Verify(priv.Public().(ed25519.PublicKey))
	if err != nil {
		return fmt.Errorf("verify: verify evidence pack: %w", err)
	}
	if !rep.PackOK() {
		return fmt.Errorf("verify: evidence pack envelope failed: %s", strings.Join(rep.Problems, "; "))
	}
	recs, err := p.Records()
	if err != nil {
		return fmt.Errorf("verify: read packed records: %w", err)
	}
	replayer, err := monitor.NewReplayer(dep.Sys.Contracts)
	if err != nil {
		return fmt.Errorf("verify: build replayer: %w", err)
	}
	sum := replayer.ReplayAll(recs.Records)
	if !sum.OK() {
		msg := fmt.Sprintf("verify: evidence replay diverged on %d of %d packed verdicts", sum.Diverged, sum.Total)
		if len(sum.Failures) > 0 {
			f := sum.Failures[0]
			msg += fmt.Sprintf(" (first: seq %d %s: %s)", f.Seq, f.Trigger, f.Reason)
		}
		return fmt.Errorf("%s", msg)
	}
	fmt.Fprintf(out, "verify: evidence pack replays clean (%d/%d packed verdicts reproduced, %d skipped)\n",
		sum.Matched, sum.Total, sum.Skipped)
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
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
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

// verifyObs cross-checks the run's three observability signals against
// each other: the report's verdict tallies (diffed monitor counters),
// the /metrics registry (scraped in process), and the audit trail on
// disk. All three must agree exactly — they claim to be views of the
// same requests.
func verifyObs(dep *loadgen.Deployment, r *loadgen.Report) error {
	if dep == nil {
		return nil
	}
	// 1. The metrics registry must agree with the monitor's cumulative
	// outcome counters (both read the same atomics; a drift means a
	// collector bug).
	samples, err := obs.ParseText([]byte(dep.Sys.Metrics.Render()))
	if err != nil {
		return fmt.Errorf("verify: render /metrics: %w", err)
	}
	scraped := obs.CounterByLabel(samples, "cloudmon_verdicts_total", "outcome")
	for outcome, n := range dep.Sys.Monitor.Outcomes() {
		if int(scraped[outcome.String()]) != n {
			return fmt.Errorf("verify: /metrics reports %s=%.0f, monitor counters say %d",
				outcome.String(), scraped[outcome.String()], n)
		}
	}
	if dep.Audit == nil {
		return nil
	}
	// 2. The audit diff must match the verdict diff on every non-OK
	// outcome: each violation produced exactly one audit record.
	for outcome, n := range r.Verdicts {
		if outcome == monitor.OK.String() {
			continue
		}
		if r.Audit[outcome] != n {
			return fmt.Errorf("verify: %d %s verdicts but %d audit records", n, outcome, r.Audit[outcome])
		}
	}
	for outcome, n := range r.Audit {
		if r.Verdicts[outcome] != n {
			return fmt.Errorf("verify: %d audit records for %s but %d verdicts", n, outcome, r.Verdicts[outcome])
		}
	}
	if err := dep.Audit.Sync(); err != nil {
		return fmt.Errorf("verify: sync audit log: %w", err)
	}
	// 3. The trail on disk must verify (contiguous chain, no torn lines)
	// and every Rejected record must carry at least one SecReq ID — the
	// trail's purpose is tracing violations back to requirements.
	res, err := obs.VerifyAuditDir(dep.Audit.Dir())
	if err != nil {
		return fmt.Errorf("verify: audit chain: %w", err)
	}
	if !res.OK() {
		return fmt.Errorf("verify: audit chain problems: %s", strings.Join(res.Problems, "; "))
	}
	read, err := obs.ReadAuditDir(dep.Audit.Dir())
	if err != nil {
		return fmt.Errorf("verify: read audit dir: %w", err)
	}
	for _, rec := range read.Records {
		if rec.Outcome == monitor.Rejected.String() && len(rec.SecReqs) == 0 {
			return fmt.Errorf("verify: audit record %d (%s %s) is Rejected but names no SecReq",
				rec.Seq, rec.Trigger, rec.Resource)
		}
	}
	return nil
}

// verifyReport asserts the structural verdict invariants a chaotic run
// must preserve: the monitor answered every request (no transport
// errors), every issued request produced exactly one verdict, and a
// fail-closed monitor never recorded an unverified forward — except the
// explicitly accounted async-queue sheds, which must match the shed
// counter one-for-one.
func verifyReport(sc loadgen.Scenario, r *loadgen.Report, policy monitor.FailPolicy, post monitor.PostMode, ap *loadgen.AsyncPostReport) error {
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
		if post == monitor.PostAsync && ap != nil {
			shed = int(ap.Shed)
		}
		if unverified != shed {
			return fmt.Errorf("verify: fail-closed run recorded %d unverified verdicts, want %d (= async sheds)",
				unverified, shed)
		}
	}
	return nil
}

// verifyAsync asserts the deferred-verification invariants of a -post
// async run: every shed surfaced as exactly one shed-tagged Unverified
// audit record, every late record's detection lag is non-negative and
// every accepted capture landed one lag histogram sample; on a serial,
// fault-free run it then replays the identical scenario against a
// synchronous twin deployment and requires the verdict multisets to be
// identical — the async pipeline may delay verdicts, never change them.
func verifyAsync(sc loadgen.Scenario, r *loadgen.Report, dep *loadgen.Deployment, opts loadgen.DeployOptions, out io.Writer) error {
	if dep == nil || opts.Post != monitor.PostAsync {
		return nil
	}
	st := dep.Sys.Monitor.AsyncPostStats()
	if st.Pending != 0 {
		return fmt.Errorf("verify: async post queue still holds %d captures after drain", st.Pending)
	}
	if st.Lag.Count != st.Enqueued {
		return fmt.Errorf("verify: %d captures enqueued but %d lag samples observed", st.Enqueued, st.Lag.Count)
	}
	if dep.Audit != nil {
		if err := dep.Audit.Sync(); err != nil {
			return fmt.Errorf("verify: sync audit log: %w", err)
		}
		read, err := obs.ReadAuditDir(dep.Audit.Dir())
		if err != nil {
			return fmt.Errorf("verify: read audit dir: %w", err)
		}
		shedRecs, lateViol := 0, 0
		for _, rec := range read.Records {
			if rec.Shed {
				shedRecs++
				if rec.Outcome != monitor.Unverified.String() {
					return fmt.Errorf("verify: audit record %d is shed but %s, want %s",
						rec.Seq, rec.Outcome, monitor.Unverified)
				}
			}
			if rec.Late {
				if rec.LagNanos < 0 {
					return fmt.Errorf("verify: audit record %d has negative detection lag %d ns", rec.Seq, rec.LagNanos)
				}
				if rec.ReturnUnixNano <= 0 {
					return fmt.Errorf("verify: late audit record %d lacks a response-return timestamp", rec.Seq)
				}
				if rec.Outcome == monitor.ViolationPostcondition.String() {
					lateViol++
				}
			}
		}
		if shedRecs != int(st.Shed) {
			return fmt.Errorf("verify: monitor shed %d captures but the trail holds %d shed records", st.Shed, shedRecs)
		}
		if lateViol != int(st.LateViolations) {
			return fmt.Errorf("verify: monitor counted %d late violations but the trail holds %d", st.LateViolations, lateViol)
		}
	}
	// The sync twin needs a deterministic replay: one client, closed
	// loop, no fault injection, nothing shed (a shed abandons a post
	// phase the twin will evaluate, so the multisets could not match).
	if sc.Clients != 1 || sc.Rate != 0 || opts.Faults != nil || st.Shed != 0 {
		return nil
	}
	twin := opts
	twin.Post = monitor.PostSync
	twin.PostQueueCap, twin.PostWorkers, twin.PostBackpressure = 0, 0, 0
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
	for outcome, n := range r.Verdicts {
		if trep.Verdicts[outcome] != n {
			return fmt.Errorf("verify: async run saw %d %s verdicts, sync twin %d — deferred verification changed a verdict",
				n, outcome, trep.Verdicts[outcome])
		}
	}
	for outcome, n := range trep.Verdicts {
		if r.Verdicts[outcome] != n {
			return fmt.Errorf("verify: sync twin saw %d %s verdicts, async run %d — deferred verification changed a verdict",
				n, outcome, r.Verdicts[outcome])
		}
	}
	fmt.Fprintln(out, "verify: async verdict multiset ≡ synchronous twin")
	return nil
}

// verifyFetch asserts the run's fetch-economy invariants: the monitor
// never reads more of the cloud than the eager engine's worst case (two
// full snapshots per checked request), and a serial closed loop coalesces
// nothing — with one client there is never a concurrent identical read in
// flight to share.
func verifyFetch(sc loadgen.Scenario, r *loadgen.Report, dep *loadgen.Deployment) error {
	if dep == nil || r.Fetch == nil || r.Fetch.Requests == 0 {
		return nil
	}
	perRequest := 0
	for _, c := range dep.Sys.Contracts.Contracts {
		if n := 2 * len(c.StatePaths()); n > perRequest {
			perRequest = n
		}
	}
	bound := perRequest * r.Fetch.Requests
	if r.Fetch.CloudGets > bound {
		return fmt.Errorf("verify: %d cloud GETs for %d checked requests exceeds the eager bound %d (2 snapshots × %d paths each)",
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
		BaseURL:   targetURL,
		ProjectID: project,
		Tokens:    tokens,
	}, nil
}
