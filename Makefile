# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build vet lint test race cover bench benchsmoke planbench compbench asyncbench fleetbench fleet fleet-oop examples experiments artifacts fuzz chaos obs evidence

all: build vet lint test

build:
	go build ./...

vet:
	go vet ./...

# Static analysis of every model the examples construct (the two paper
# models and the SecReq-1.4 audit slice), plus the repo's own analyzers
# (hot-path allocation discipline, atomic counters). Fails on any
# error-severity diagnostic or lint finding.
lint:
	go run ./cmd/modelvet -example cinder
	go run ./cmd/modelvet -example nova
	go run ./cmd/modelvet -example cinder-secreq-1.4
	go run ./cmd/repolint .

test:
	go test ./...

race:
	go test -race ./...

cover:
	go test -cover ./...

bench:
	go test -run XXX -bench . -benchmem .

# Smoke of the seeded end-to-end benchmark (bench/, its own module, which
# the root `go test ./...` does not build): its vet and tests, then every
# workload untraced and traced. bench/run.sh exits 1 when any output
# check fails. Six seconds per workload give the traced run's p99 figures
# about a thousand samples on the RTT workloads.
benchsmoke:
	cd bench && go vet ./... && go test ./...
	bash bench/run.sh --workload all --seed 1 --seconds 6 --trace 0
	bash bench/run.sh --workload all --seed 1 --seconds 6 --trace 1

# E15: the demand-driven evaluation engine's per-op cloud-GET economy,
# serial and under 1 ms of simulated latency with concurrent clients
# coalescing their reads (see EXPERIMENTS.md; the whole-snapshot figures
# it is measured against are the test oracle's).
planbench:
	go test -run XXX -bench BenchmarkEvalPlan -benchmem .

# E17: the compiled closure-chain clauses vs the single-pass tree walk
# on the in-process OK path (see EXPERIMENTS.md). Results land in
# BENCH_compiled.json for cross-commit tracking.
compbench:
	go test -run XXX -bench BenchmarkCompiledEval -benchmem . \
		| go run ./cmd/benchjson -out BENCH_compiled.json

# E18: synchronous vs deferred (async) post-verification on a mutating
# create/delete workload at 1 ms simulated RTT, with p99 detection lag
# (see EXPERIMENTS.md). Results land in BENCH_async.json.
asyncbench:
	go test -run XXX -bench BenchmarkAsyncPost -benchtime 25x . \
		| go run ./cmd/benchjson -out BENCH_async.json

# E20: aggregate throughput of the sharded fleet at N ∈ {1,2,4}
# instances behind the consistent-hash front, each instance throttled to
# a small backend connection budget at 1 ms simulated RTT (see
# EXPERIMENTS.md). The experiment logs its per-N results as JSON and
# fails if N=4 is not ≥ 2.5× N=1.
fleetbench:
	go test -run TestExperimentE20FleetScaling -v .

# Fleet soundness: the fleet package and in-process fleet scenarios
# (verdict conservation, mid-run resize remap invariant, chaos soak
# through the front) under the race detector, then a full
# loadmon -fleet run with -verify's checks, and a serial async fleet run
# whose verdicts must match a synchronous twin fleet's.
fleet:
	go test -race ./internal/fleet/
	go test -race -run 'TestFleet' ./internal/loadgen/
	go run ./cmd/loadmon -fleet 4 -fleet-projects 16 -requests 1200 \
		-warmup 0 -clients 16 -verify
	go run ./cmd/loadmon -fleet 2 -fleet-projects 4 -requests 300 \
		-clients 1 -post async -verify

# The fleet out of process: cloudsim, two `cloudmon -instance` members
# and a `cloudmon -fleet-front`, each its own process on a loopback port,
# driven by `loadmon -target` through the front. Fails on any request
# error or a member missing from the front's federated /metrics.
fleet-oop:
	bash scripts/fleet-oop.sh

# Seed-corpus fuzzing already runs under `make test`; this target fuzzes
# each parser for 30s, plus the compiled clause programs against the
# tree-walking reference and the state provider's response scanner
# against json.Unmarshal.
fuzz:
	go test -fuzz FuzzParse -fuzztime 30s ./internal/ocl/
	go test -fuzz FuzzEval -fuzztime 30s ./internal/ocl/
	go test -fuzz FuzzParseRule -fuzztime 30s ./internal/rbac/
	go test -fuzz FuzzCompiledEval -fuzztime 30s ./internal/contract/
	go test -run XXX -fuzz FuzzBindingDecode -fuzztime 30s ./internal/osbinding/

# Chaos: the fault×policy matrix and the chaotic soaks under the race
# detector, then a fault-ridden loadmon run with invariant verification.
chaos:
	go test -race ./internal/faults/... -run TestFaultPolicyMatrix
	go test -race -run 'TestSoakChaos' ./internal/loadgen/
	go run ./cmd/loadmon -scenario cinder-mixed -requests 600 -clients 16 \
		-faults internal/faults/testdata/chaos.json -fail-policy open -verify

# Observability smoke: a chaotic loadmon run writing an audit trail,
# verified three ways (verdict counters ≡ /metrics ≡ audit records),
# then the trail inspected and chain-checked with auditctl.
obs:
	rm -rf /tmp/cloudmon-obs-audit
	go run ./cmd/loadmon -scenario cinder-mixed -requests 600 -clients 16 \
		-faults internal/faults/testdata/chaos.json -fail-policy open \
		-audit-dir /tmp/cloudmon-obs-audit -verify
	go run ./cmd/auditctl verify -dir /tmp/cloudmon-obs-audit
	go run ./cmd/auditctl summarize -dir /tmp/cloudmon-obs-audit

# Evidence soundness: a chaotic loadmon run is cut into a signed
# evidence pack; the pack must verify and every packed verdict must
# replay to the same outcome (exit 5 on divergence). Then one byte of a
# packed segment is flipped and verification must fail (exit 4) with a
# pointed manifest-mismatch error.
evidence:
	rm -rf /tmp/cloudmon-evidence
	mkdir -p /tmp/cloudmon-evidence
	go run ./cmd/loadmon -scenario cinder-mixed -requests 600 -clients 16 \
		-faults internal/faults/testdata/chaos.json -fail-policy open \
		-audit-dir /tmp/cloudmon-evidence/trail -verify
	go run ./cmd/auditctl keygen -out /tmp/cloudmon-evidence/sign.key
	go run ./cmd/auditctl pack -dir /tmp/cloudmon-evidence/trail \
		-out /tmp/cloudmon-evidence/run.pack -key /tmp/cloudmon-evidence/sign.key \
		-scenario cinder-mixed
	go run ./cmd/auditctl verify -pack /tmp/cloudmon-evidence/run.pack \
		-pub /tmp/cloudmon-evidence/sign.key.pub
	go run ./cmd/auditctl replay -pack /tmp/cloudmon-evidence/run.pack
	printf '\0' | dd of=$$(ls /tmp/cloudmon-evidence/run.pack/segments/audit-*.jsonl | head -1) \
		bs=1 seek=120 count=1 conv=notrunc
	! go run ./cmd/auditctl verify -pack /tmp/cloudmon-evidence/run.pack
	@echo "evidence: pack verified, replay clean, tamper detected"

examples:
	go run ./examples/quickstart
	go run ./examples/cinder-volumes
	go run ./examples/mutation-testing
	go run ./examples/codegen
	go run ./examples/multiservice
	go run ./examples/slicing

# Regenerate every paper artifact (EXPERIMENTS.md index).
experiments:
	go test -v -run TestExperiment .

artifacts:
	go run ./cmd/mutantlab -table1
	go run ./cmd/mutantlab -listing1
	go run ./cmd/mutantlab -paper
