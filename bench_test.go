// Benchmark harness for the paper's experiments (see EXPERIMENTS.md):
//
//	E5  BenchmarkMonitorOverhead    proxy cost vs direct cloud access
//	E6  BenchmarkContractGeneration model-size sweep
//	E7  BenchmarkOCLEval            formula-size sweep (+ parse)
//	E8  BenchmarkCodegen            resources-count sweep
//	E13 BenchmarkMonitorThroughput  concurrent hot path in process, and
//	    under simulated network latency
//	E15 BenchmarkEvalPlan           demand-driven evaluation with per-op
//	    cloud-GET economy, serial and concurrent, under simulated latency
//	E17 BenchmarkCompiledEval       closure-chain compiled clauses vs the
//	    tree-walking reference on the in-process OK path
//	E34 BenchmarkCoreBuild          one whole assembly (core.Build) on the
//	    Cinder and Nova models
//
// plus supporting micro-benchmarks for the substrate (policy checks,
// XMI round-trips, router dispatch).
package cloudmon_test

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudmon/internal/codegen"
	"cloudmon/internal/contract"
	"cloudmon/internal/core"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/monitor"
	"cloudmon/internal/ocl"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
	"cloudmon/internal/rbac"
	"cloudmon/internal/uml"
	"cloudmon/internal/xmi"
)

// benchDeployment wires cloud + monitor in process for the overhead bench.
type benchDeployment struct {
	cloud     *openstack.Cloud
	sys       *core.System
	projectID string
	volumeID  string
	direct    *osclient.Client // straight to the cloud
	monitored *osclient.Client // through the monitor
}

func newBenchDeployment(b *testing.B, mode monitor.Mode) *benchDeployment {
	b.Helper()
	cloud := openstack.New(openstack.Config{})
	seed := cloud.ApplySeed(openstack.Seed{
		ProjectName: "bench",
		Quota:       cinder.QuotaSet{Volumes: 1000000, Gigabytes: 1 << 30},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
			{Name: "cm-svc", Password: "pw", Group: paper.GroupProjAdministrator},
		},
	})
	cloudHTTP := httpkit.HandlerClient(cloud)
	sys, err := core.Build(core.Options{
		Model:    paper.CinderModel(),
		CloudURL: "http://cloud.internal",
		ServiceAccount: osbinding.ServiceAccount{
			User: "cm-svc", Password: "pw", ProjectID: seed.ProjectID,
		},
		Mode:       mode,
		HTTPClient: cloudHTTP,
	})
	if err != nil {
		b.Fatal(err)
	}
	auth := osclient.Client{BaseURL: "http://cloud.internal", HTTPClient: cloudHTTP}
	tok, err := auth.Authenticate("alice", "pw", seed.ProjectID)
	if err != nil {
		b.Fatal(err)
	}
	direct := osclient.New("http://cloud.internal")
	direct.HTTPClient = cloudHTTP
	monitored := osclient.New("http://monitor.internal")
	monitored.HTTPClient = httpkit.HandlerClient(sys.Monitor)

	d := &benchDeployment{
		cloud:     cloud,
		sys:       sys,
		projectID: seed.ProjectID,
		direct:    direct.WithToken(tok),
		monitored: monitored.WithToken(tok),
	}
	v, _, err := d.direct.CreateVolume(d.projectID, "bench", 1)
	if err != nil {
		b.Fatal(err)
	}
	d.volumeID = v.ID
	return d
}

// BenchmarkMonitorOverhead (E5) compares a GET on the volume resource
// issued directly against the cloud with the same GET through the cloud
// monitor (pre-snapshot + pre-check + forward + post-snapshot +
// post-check), plus the write path (POST+DELETE pairs).
func BenchmarkMonitorOverhead(b *testing.B) {
	b.Run("GET/direct", func(b *testing.B) {
		d := newBenchDeployment(b, monitor.Enforce)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := d.direct.GetVolume(d.projectID, d.volumeID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GET/monitored", func(b *testing.B) {
		d := newBenchDeployment(b, monitor.Enforce)
		path := "/projects/" + d.projectID + "/volumes/" + d.volumeID
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.monitored.Do(http.MethodGet, path, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CreateDelete/direct", func(b *testing.B) {
		d := newBenchDeployment(b, monitor.Enforce)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, _, err := d.direct.CreateVolume(d.projectID, "x", 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.direct.DeleteVolume(d.projectID, v.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CreateDelete/monitored", func(b *testing.B) {
		d := newBenchDeployment(b, monitor.Enforce)
		collection := "/projects/" + d.projectID + "/volumes"
		in := map[string]map[string]any{"volume": {"name": "x", "size": 1}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var out struct {
				Volume cinder.Volume `json:"volume"`
			}
			if _, err := d.monitored.Do(http.MethodPost, collection, in, &out, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := d.monitored.Do(http.MethodDelete, collection+"/"+out.Volume.ID, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// delayTransport adds a fixed latency to every backend round trip — a
// stand-in for a monitor deployed across a network from the cloud.
type delayTransport struct {
	base  http.RoundTripper
	delay time.Duration
}

func (t delayTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	time.Sleep(t.delay)
	return t.base.RoundTrip(r)
}

// newThroughputDeployment wires cloud + monitor in process with an
// optional per-backend-request delay and arbitrary core option tweaks
// (testing.TB so experiment tests can reuse it alongside benchmarks).
func newThroughputDeployment(b testing.TB, delay time.Duration, mutate func(*core.Options)) *benchDeployment {
	b.Helper()
	cloud := openstack.New(openstack.Config{})
	seed := cloud.ApplySeed(openstack.Seed{
		ProjectName: "bench",
		Quota:       cinder.QuotaSet{Volumes: 1000000, Gigabytes: 1 << 30},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
			{Name: "cm-svc", Password: "pw", Group: paper.GroupProjAdministrator},
		},
	})
	cloudHTTP := httpkit.HandlerClient(cloud)
	monHTTP := cloudHTTP
	if delay > 0 {
		monHTTP = &http.Client{Transport: delayTransport{base: cloudHTTP.Transport, delay: delay}}
	}
	opts := core.Options{
		Model:    paper.CinderModel(),
		CloudURL: "http://cloud.internal",
		ServiceAccount: osbinding.ServiceAccount{
			User: "cm-svc", Password: "pw", ProjectID: seed.ProjectID,
		},
		Mode:       monitor.Enforce,
		HTTPClient: monHTTP,
	}
	if mutate != nil {
		mutate(&opts)
	}
	sys, err := core.Build(opts)
	if err != nil {
		b.Fatal(err)
	}
	auth := osclient.Client{BaseURL: "http://cloud.internal", HTTPClient: cloudHTTP}
	tok, err := auth.Authenticate("alice", "pw", seed.ProjectID)
	if err != nil {
		b.Fatal(err)
	}
	direct := osclient.New("http://cloud.internal")
	direct.HTTPClient = cloudHTTP
	monitored := osclient.New("http://monitor.internal")
	monitored.HTTPClient = httpkit.HandlerClient(sys.Monitor)
	d := &benchDeployment{
		cloud:     cloud,
		sys:       sys,
		projectID: seed.ProjectID,
		direct:    direct.WithToken(tok),
		monitored: monitored.WithToken(tok),
	}
	v, _, err := d.direct.CreateVolume(d.projectID, "bench", 1)
	if err != nil {
		b.Fatal(err)
	}
	d.volumeID = v.ID
	return d
}

// BenchmarkMonitorThroughput (E13) drives a concurrent monitored GET
// workload. The in-process variant measures software overhead under
// contention (lock-free counters, precomputed state paths) against the direct
// cloud call; the netsim variant adds 1ms of simulated network latency per
// backend request, where a request's pre-state paths travel in one
// concurrent call, so a GET pays two snapshot round trips instead of five.
func BenchmarkMonitorThroughput(b *testing.B) {
	b.Run("GET/direct", func(b *testing.B) {
		d := newThroughputDeployment(b, 0, nil)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := d.direct.GetVolume(d.projectID, d.volumeID); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("GET/default", func(b *testing.B) {
		d := newThroughputDeployment(b, 0, nil)
		path := "/projects/" + d.projectID + "/volumes/" + d.volumeID
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := d.monitored.Do(http.MethodGet, path, nil, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	// Simulated network latency: the deployment regime the one pre-phase
	// call exists for. Sequential client, latency-bound.
	b.Run("netsim-1ms/default", func(b *testing.B) {
		d := newThroughputDeployment(b, time.Millisecond, nil)
		path := "/projects/" + d.projectID + "/volumes/" + d.volumeID
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.monitored.Do(http.MethodGet, path, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalPlan (E15) runs the demand-driven evaluation engine
// (compiled plans, per-path fetches, effect-frame post reuse) on the read
// and write paths, in process and under 1ms of simulated network latency
// per backend round trip. Each sub-benchmark reports the cloud-read
// economy as cloudGETs/op; the paper's whole-contract snapshot workflow
// reads 8 paths per GET and 10 per DELETE (the monitor package's
// TestLazyFetchEconomyOnPaperModel pins both against its oracle). With
// network latency in the loop, saved GETs convert directly into saved
// milliseconds.
func BenchmarkEvalPlan(b *testing.B) {
	reportGets := func(b *testing.B, d *benchDeployment, before uint64) {
		b.ReportMetric(float64(d.sys.Provider.Stats().Gets-before)/float64(b.N), "cloudGETs/op")
	}
	b.Run("GET", func(b *testing.B) {
		d := newThroughputDeployment(b, 0, nil)
		path := "/projects/" + d.projectID + "/volumes/" + d.volumeID
		b.ReportAllocs()
		before := d.sys.Provider.Stats().Gets
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.monitored.Do(http.MethodGet, path, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportGets(b, d, before)
	})
	b.Run("CreateDelete", func(b *testing.B) {
		d := newThroughputDeployment(b, 0, nil)
		collection := "/projects/" + d.projectID + "/volumes"
		in := map[string]map[string]any{"volume": {"name": "x", "size": 1}}
		b.ReportAllocs()
		before := d.sys.Provider.Stats().Gets
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var out struct {
				Volume cinder.Volume `json:"volume"`
			}
			if _, err := d.monitored.Do(http.MethodPost, collection, in, &out, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := d.monitored.Do(http.MethodDelete, collection+"/"+out.Volume.ID, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		// Two monitored requests per iteration.
		b.ReportMetric(float64(d.sys.Provider.Stats().Gets-before)/float64(2*b.N), "cloudGETs/req")
	})
	b.Run("netsim-1ms/GET", func(b *testing.B) {
		d := newThroughputDeployment(b, time.Millisecond, nil)
		path := "/projects/" + d.projectID + "/volumes/" + d.volumeID
		before := d.sys.Provider.Stats().Gets
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.monitored.Do(http.MethodGet, path, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportGets(b, d, before)
	})
	// Concurrent GETs against a slow backend: every request reads its own
	// pre-state, so the per-op GET count stays at the serial figure as
	// parallelism rises.
	b.Run("netsim-1ms/GET/parallel", func(b *testing.B) {
		d := newThroughputDeployment(b, time.Millisecond, nil)
		path := "/projects/" + d.projectID + "/volumes/" + d.volumeID
		// The workload is latency-bound, not CPU-bound: pin 8 client
		// goroutines per proc so in-flight fetches overlap even on a
		// single-core runner.
		b.SetParallelism(8)
		before := d.sys.Provider.Stats().Gets
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := d.monitored.Do(http.MethodGet, path, nil, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		reportGets(b, d, before)
	})
}

// BenchmarkMonitorAblation compares the full workflow against the
// pre-only ablation (no post-state snapshot, no effect check) on the write
// path — the cost the post-condition verification adds, to be read against
// the mutants only it can kill (see TestAblationPreOnlyMissesLostEffects).
func BenchmarkMonitorAblation(b *testing.B) {
	run := func(b *testing.B, level monitor.CheckLevel) {
		cloud := openstack.New(openstack.Config{})
		seed := cloud.ApplySeed(openstack.Seed{
			ProjectName: "bench",
			Quota:       cinder.QuotaSet{Volumes: 1000000, Gigabytes: 1 << 30},
			GroupRoles:  paper.GroupRole(),
			Users: []openstack.SeedUser{
				{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
				{Name: "cm-svc", Password: "pw", Group: paper.GroupProjAdministrator},
			},
		})
		cloudHTTP := httpkit.HandlerClient(cloud)
		sys, err := core.Build(core.Options{
			Model:    paper.CinderModel(),
			CloudURL: "http://cloud.internal",
			ServiceAccount: osbinding.ServiceAccount{
				User: "cm-svc", Password: "pw", ProjectID: seed.ProjectID,
			},
			Level:      level,
			HTTPClient: cloudHTTP,
		})
		if err != nil {
			b.Fatal(err)
		}
		auth := osclient.Client{BaseURL: "http://cloud.internal", HTTPClient: cloudHTTP}
		tok, err := auth.Authenticate("alice", "pw", seed.ProjectID)
		if err != nil {
			b.Fatal(err)
		}
		client := osclient.New("http://monitor.internal").WithToken(tok)
		client.HTTPClient = httpkit.HandlerClient(sys.Monitor)
		collection := "/projects/" + seed.ProjectID + "/volumes"
		in := map[string]map[string]any{"volume": {"name": "x", "size": 1}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var out struct {
				Volume cinder.Volume `json:"volume"`
			}
			if _, err := client.Do(http.MethodPost, collection, in, &out, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := client.Do(http.MethodDelete, collection+"/"+out.Volume.ID, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("full", func(b *testing.B) { run(b, monitor.CheckFull) })
	b.Run("pre-only", func(b *testing.B) { run(b, monitor.CheckPreOnly) })
}

// syntheticModel builds a chain state machine with the given number of
// states (and one POST transition between consecutive states) over a
// two-resource model — the workload for the generation sweeps.
func syntheticModel(states int) *uml.Model {
	rm := &uml.ResourceModel{
		Name: "synthetic",
		Resources: []*uml.ResourceDef{
			{Name: "things", Kind: uml.KindCollection},
			{Name: "thing", Kind: uml.KindNormal, Attributes: []uml.Attribute{
				{Name: "id", Type: uml.TypeString},
				{Name: "count", Type: uml.TypeInteger},
			}},
		},
		Associations: []uml.Association{
			{From: "things", To: "thing", Role: "thing", Mult: uml.Multiplicity{Min: 0, Max: uml.Many}},
		},
	}
	bm := &uml.BehavioralModel{Name: "synthetic_sm"}
	for i := 0; i < states; i++ {
		bm.States = append(bm.States, &uml.State{
			Name:      "s" + strconv.Itoa(i),
			Initial:   i == 0,
			Invariant: "thing.count = " + strconv.Itoa(i),
		})
	}
	for i := 0; i+1 < states; i++ {
		bm.Transitions = append(bm.Transitions, &uml.Transition{
			From: "s" + strconv.Itoa(i), To: "s" + strconv.Itoa(i+1),
			Trigger: uml.Trigger{Method: uml.POST, Resource: "thing"},
			Guard:   "user.id.groups='admin' and thing.count >= " + strconv.Itoa(i),
			Effect:  "thing.count = pre(thing.count) + 1",
			SecReqs: []string{"1." + strconv.Itoa(i%4)},
		})
	}
	return &uml.Model{Resource: rm, Behavioral: bm}
}

// BenchmarkContractGeneration (E6) sweeps the behavioral-model size.
func BenchmarkContractGeneration(b *testing.B) {
	for _, states := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("states=%d", states), func(b *testing.B) {
			m := syntheticModel(states)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := contract.Generate(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// conjFormula builds a conjunction of n comparison clauses.
func conjFormula(n int) string {
	clauses := make([]string, n)
	for i := range clauses {
		clauses[i] = fmt.Sprintf("project.volumes->size() >= %d", i%3)
	}
	return strings.Join(clauses, " and ")
}

// BenchmarkOCLEval (E7) sweeps the formula size for evaluation cost.
func BenchmarkOCLEval(b *testing.B) {
	env := ocl.MapEnv{
		"project.volumes": ocl.CollectionVal(ocl.StringVal("a"), ocl.StringVal("b"), ocl.StringVal("c")),
	}
	ctx := ocl.Context{Cur: env}
	for _, n := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("clauses=%d", n), func(b *testing.B) {
			e := ocl.MustParse(conjFormula(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ocl.EvalBool(e, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOCLParse measures parsing cost over the same sweep.
func BenchmarkOCLParse(b *testing.B) {
	for _, n := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("clauses=%d", n), func(b *testing.B) {
			src := conjFormula(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ocl.Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOCLEvalPaperDelete evaluates the real DELETE(volume) pre- and
// post-condition the monitor runs per request.
func BenchmarkOCLEvalPaperDelete(b *testing.B) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		b.Fatal(err)
	}
	c, _ := set.For(uml.Trigger{Method: uml.DELETE, Resource: "volume"})
	pre := ocl.MapEnv{
		"project.id":        ocl.StringVal("p"),
		"project.volumes":   ocl.CollectionVal(ocl.StringVal("a"), ocl.StringVal("b")),
		"quota_sets.volume": ocl.IntVal(10),
		"volume.status":     ocl.StringVal("available"),
		"user.id.groups":    ocl.StringsVal("admin"),
	}
	post := ocl.MapEnv{
		"project.id":        ocl.StringVal("p"),
		"project.volumes":   ocl.CollectionVal(ocl.StringVal("a")),
		"quota_sets.volume": ocl.IntVal(10),
		"volume.status":     ocl.StringVal("available"),
		"user.id.groups":    ocl.StringsVal("admin"),
	}
	b.Run("pre", func(b *testing.B) {
		ctx := ocl.Context{Cur: pre}
		for i := 0; i < b.N; i++ {
			if _, err := ocl.EvalBool(c.Pre, ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("post", func(b *testing.B) {
		ctx := ocl.Context{Cur: post, Pre: pre}
		for i := 0; i < b.N; i++ {
			if _, err := ocl.EvalBool(c.Post, ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompiledEval (E17) pits the compiled closure-chain engine
// against the single-pass tree walk on the in-process OK path: the full
// pre-check of the paper's DELETE(volume) contract — clause programs in
// model order to the first true disjunct — over an already-fetched state.
// The compiled arm resets and refills a pooled slot frame every
// iteration (that refill is part of the engine's per-request cost) and
// must run allocation-free; the tree-walk arm evaluates the same clauses
// with ocl.Eval over the same map environment. The post sub-benchmarks
// extend the comparison through the consequent programs over a
// turned-around frame.
func BenchmarkCompiledEval(b *testing.B) {
	set, err := contract.Generate(paper.CinderModel())
	if err != nil {
		b.Fatal(err)
	}
	c, _ := set.For(uml.Trigger{Method: uml.DELETE, Resource: "volume"})
	plan := c.Plan()
	comp := plan.Compiled
	pre := ocl.MapEnv{
		"project.id":        ocl.StringVal("p"),
		"project.volumes":   ocl.CollectionVal(ocl.StringVal("a"), ocl.StringVal("b")),
		"quota_sets.volume": ocl.IntVal(10),
		"volume.status":     ocl.StringVal("available"),
		"user.id.groups":    ocl.StringsVal("admin"),
	}
	post := ocl.MapEnv{
		"project.id":        ocl.StringVal("p"),
		"project.volumes":   ocl.CollectionVal(ocl.StringVal("a")),
		"quota_sets.volume": ocl.IntVal(10),
		"volume.status":     ocl.StringVal("available"),
		"user.id.groups":    ocl.StringsVal("admin"),
	}
	// Slot bindings are resolved once per environment — the monitor knows
	// every slot index from the compiled path table (and each Demand
	// carries its Index), so per-request fill is a straight copy into the
	// banks with no path hashing.
	type binding struct {
		val     ocl.Value
		present bool
	}
	bind := func(env ocl.MapEnv) []binding {
		bs := make([]binding, len(comp.Paths()))
		for i, p := range comp.Paths() {
			bs[i].val, bs[i].present = env[p]
		}
		return bs
	}
	preBind, postBind := bind(pre), bind(post)
	fill := func(fr *contract.Frame, bs []binding) {
		for i := range bs {
			fr.SetCurSlot(i, bs[i].val, bs[i].present)
		}
	}
	preCheckCompiled := func(fr *contract.Frame) bool {
		fr.Reset()
		fill(fr, preBind)
		for _, pc := range plan.Pre {
			v, err := comp.PreProgram(pc.Index).Run(fr)
			if err != nil {
				b.Fatal(err)
			}
			if ok, defined, isBool := ocl.KernelBool(v); isBool && defined && ok {
				return true
			}
		}
		return false
	}
	preCheckTree := func() bool {
		ctx := ocl.Context{Cur: pre}
		for _, pc := range plan.Pre {
			v, err := ocl.Eval(c.Cases[pc.Index].Pre, ctx)
			if err != nil {
				b.Fatal(err)
			}
			if ok, defined, isBool := ocl.KernelBool(v); isBool && defined && ok {
				return true
			}
		}
		return false
	}
	b.Run("pre/compiled", func(b *testing.B) {
		fr := comp.NewFrame()
		defer comp.Release(fr)
		if !preCheckCompiled(fr) {
			b.Fatal("pre-check did not pass")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			preCheckCompiled(fr)
		}
	})
	b.Run("pre/tree-walk", func(b *testing.B) {
		if !preCheckTree() {
			b.Fatal("pre-check did not pass")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			preCheckTree()
		}
	})
	// The post-check runs consequent programs only: antecedent verdicts
	// carry over from the pre-check. Case 0 is the admin DELETE
	// transition, the active clause on this state.
	active := -1
	for i, cs := range c.Cases {
		v, err := ocl.Eval(cs.Pre, ocl.Context{Cur: pre})
		if err != nil {
			b.Fatal(err)
		}
		if ok, defined, isBool := ocl.KernelBool(v); isBool && defined && ok {
			active = i
			break
		}
	}
	if active < 0 {
		b.Fatal("no active case on the OK pre-state")
	}
	b.Run("post/compiled", func(b *testing.B) {
		fr := comp.NewFrame()
		defer comp.Release(fr)
		run := func() {
			fr.Reset()
			fill(fr, preBind)
			fr.BeginPost()
			fill(fr, postBind)
			if _, err := comp.PostProgram(active).Run(fr); err != nil {
				b.Fatal(err)
			}
		}
		run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	b.Run("post/tree-walk", func(b *testing.B) {
		ctx := ocl.Context{Cur: post, Pre: pre}
		run := func() {
			if _, err := ocl.Eval(c.Cases[active].Post, ctx); err != nil {
				b.Fatal(err)
			}
		}
		run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}

// syntheticResourceModel builds a resource model with n normal resources
// hanging off one collection.
func syntheticResourceModel(n int) *uml.Model {
	rm := &uml.ResourceModel{
		Name:      "wide",
		Resources: []*uml.ResourceDef{{Name: "roots", Kind: uml.KindCollection}},
	}
	bm := &uml.BehavioralModel{Name: "wide_sm"}
	bm.States = append(bm.States,
		&uml.State{Name: "empty", Initial: true},
		&uml.State{Name: "busy"})
	for i := 0; i < n; i++ {
		name := "res" + strconv.Itoa(i)
		rm.Resources = append(rm.Resources, &uml.ResourceDef{
			Name: name, Kind: uml.KindNormal,
			Attributes: []uml.Attribute{
				{Name: "id", Type: uml.TypeString},
				{Name: "size", Type: uml.TypeInteger},
			},
		})
		rm.Associations = append(rm.Associations, uml.Association{
			From: "roots", To: name, Role: name, Mult: uml.Multiplicity{Min: 0, Max: uml.Many},
		})
		bm.Transitions = append(bm.Transitions, &uml.Transition{
			From: "empty", To: "busy",
			Trigger: uml.Trigger{Method: uml.POST, Resource: name},
			Guard:   "user.id.groups='admin'",
			SecReqs: []string{"1.1"},
		})
	}
	return &uml.Model{Resource: rm, Behavioral: bm}
}

// BenchmarkCodegen (E8) sweeps the resource count for skeleton generation.
func BenchmarkCodegen(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("resources=%d", n), func(b *testing.B) {
			m := syntheticResourceModel(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codegen.Generate(m, codegen.Options{Project: "bench", Runtime: "."}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPolicyCheck measures a policy.json rule evaluation, the cost
// the simulated cloud pays per request.
func BenchmarkPolicyCheck(b *testing.B) {
	p := cinder.DefaultPolicy()
	creds := rbac.Credentials{UserID: "u", ProjectID: "p", Roles: []string{"member"}}
	target := rbac.Target{"project_id": "p"}
	for i := 0; i < b.N; i++ {
		if _, err := p.Check(cinder.ActionCreate, creds, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXMIRoundTrip measures model import/export.
func BenchmarkXMIRoundTrip(b *testing.B) {
	m := paper.CinderModel()
	data, err := xmi.Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xmi.Encode(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xmi.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAsyncPost (E18) measures the mutating-request throughput
// ceiling of deferred post verification under 1ms of simulated network
// latency per backend round trip. Each op is a monitored create+delete
// pair — both carry post-conditions, so the synchronous monitor pays the
// post-state round trips on the response path while the async pipeline
// overlaps them with the next request's pre phase (the write fence keeps
// the verdicts equivalent). Effect-frame reuse keeps the sync post down
// to ~1 round trip per request. The async arm drains outside the timed
// window, mirroring loadgen, and reports the p99 detection lag the
// overlap costs.
func BenchmarkAsyncPost(b *testing.B) {
	const delay = time.Millisecond
	for _, mode := range []monitor.PostMode{monitor.PostSync, monitor.PostAsync} {
		mode := mode
		b.Run("create-delete/frame-reuse/"+mode.String(), func(b *testing.B) {
			d := newThroughputDeployment(b, delay, func(o *core.Options) { o.Post = mode })
			defer d.sys.Monitor.Close()
			collection := "/projects/" + d.projectID + "/volumes"
			in := map[string]map[string]any{"volume": {"name": "bench-async", "size": 1}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var out struct {
					Volume struct {
						ID string `json:"id"`
					} `json:"volume"`
				}
				if _, err := d.monitored.Do(http.MethodPost, collection, in, &out, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := d.monitored.Do(http.MethodDelete, collection+"/"+out.Volume.ID, nil, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if mode == monitor.PostAsync {
				d.sys.Monitor.DrainPost()
				st := d.sys.Monitor.AsyncPostStats()
				b.ReportMetric(float64(st.Lag.Quantile(0.99).Microseconds())/1e3, "p99-lag-ms")
			}
		})
	}
}

// BenchmarkCoreBuild (E34) times one whole assembly — model, validation,
// contract generation, compiled plans, routes, state provider and
// monitor — on each shipped model: the set-up the end-to-end benchmark's
// setup_s reports. Every iteration builds its own model (~4 µs), as a
// deployment does, so nothing one assembly derives can serve the next.
func BenchmarkCoreBuild(b *testing.B) {
	for _, tc := range []struct {
		name  string
		model func() *uml.Model
	}{
		{"cinder", paper.CinderModel},
		{"nova", paper.NovaModel},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := core.Build(core.Options{Model: tc.model(), CloudURL: "http://cloud.internal"})
				if err != nil {
					b.Fatal(err)
				}
				sys.Monitor.Close()
			}
		})
	}
}
