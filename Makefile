# Verification targets; `make check` is the tier-1 gate plus vet, the
# race-enabled telemetry/sim/cluster tests, the portable (purego) build, the
# arm64 cross-build and a one-iteration run of the RHS benchmarks. `make
# verify` runs the full
# exact-solution verification ladder and writes VERIFY.json
# (docs/verification.md).

GO ?= go

.PHONY: check vet build bin test race purego arm64 bench-smoke flake bench benchmark benchmark-smoke smoke-net verify verify-short fuzz-seed chaos obs-smoke service-smoke

check: vet build test race purego arm64 bench-smoke

# vet fails on any file gofmt would rewrite, then runs go vet.
vet:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

build:
	$(GO) build ./...

# Binaries for multi-process runs: mpcf-launch and mpcf-serve look for
# mpcf-sim next to themselves, so all land in bin/.
bin:
	$(GO) build -o bin/mpcf-sim ./cmd/mpcf-sim
	$(GO) build -o bin/mpcf-launch ./cmd/mpcf-launch
	$(GO) build -o bin/mpcf-serve ./cmd/mpcf-serve

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/telemetry ./internal/sim ./internal/cluster ./internal/layout ./internal/node ./internal/transport ./internal/mpi ./internal/service ./internal/compress ./internal/dump ./internal/core
	$(GO) test -race -count=50 -run TestPool ./internal/node

# The portable build: the purego tag drops the assembly row kernels
# (internal/core/*_amd64.s: WENO, HLLE, SUM, UP and CONV), so every kernel
# runs its Go loop. The solver packages must vet and pass their tests that
# way too, and the portable path's gate (BenchmarkTable9Fused, with
# BenchmarkRHSRows and BenchmarkUpdateRows) runs one iteration.
PUREGO_PKGS = ./internal/core ./internal/node ./internal/cluster
purego:
	$(GO) vet -tags purego $(PUREGO_PKGS)
	$(GO) test -tags purego $(PUREGO_PKGS)
	$(GO) test -tags purego -run '^$$' -bench 'Table9|RHSRows|UpdateRows' -benchtime 1x . ./internal/core

# arm64 has no assembly kernels and no emulator here: cross-build everything
# and vet the kernel package.
arm64:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/core

# One iteration of Table 9's staged/fused pair on the row driver, of its
# grind-time benchmark (BenchmarkRHSRows), of the UP row kernel's
# (BenchmarkUpdateRows) and of the checkpoint write and restore
# (BenchmarkCheckpointWrite/Restore), so they run on every check, not only
# compile.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Table9|RHSRows|UpdateRows' -benchtime 1x . ./internal/core
	$(GO) test -run '^$$' -bench 'Checkpoint' -benchtime 1x ./internal/checkpoint

# Flake sweep of the concurrency packages — the per-step collective
# schedule (sim, cluster, mpi), the worker pool (node), the wire (transport,
# launch), the telemetry sinks, the service with its scenario builds, and
# the snapshot path (dump, checkpoint, compress, layout) and the kernel
# package (core, whose Go-loop and AVX2 dispatch subtests run in parallel):
# shuffled repeats, a single-P leg and a race leg (CI runs it nightly).
FLAKE_PKGS = ./internal/sim ./internal/cluster ./internal/mpi ./internal/service \
	./internal/node ./internal/transport ./internal/launch ./internal/telemetry ./internal/scenario \
	. ./cmd/mpcf-sim ./internal/dump ./internal/checkpoint ./internal/compress ./internal/layout \
	./internal/core
flake:
	$(GO) test -count=20 -shuffle=on $(FLAKE_PKGS)
	GOMAXPROCS=1 $(GO) test -count=5 $(FLAKE_PKGS)
	$(GO) test -race -count=10 $(FLAKE_PKGS)

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# The repository benchmark (BENCHMARK.json, benchmark/README.md): its own Go
# module, outside `go test ./...`. benchmark-smoke vets it and runs its
# tests; benchmark runs one workload with the per-layer trace, e.g.
# `make benchmark W=tiny8_tcp2`.
W ?= cloud32_node
benchmark-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

benchmark:
	bash benchmark/run.sh --workload $(W) --seed 42 --seconds 25 --trace 1

# Observatory smoke: a 2-rank TCP run through mpcf-launch must leave the
# merged clock-aligned trace and the imbalance report (docs/observability.md).
obs-smoke: bin
	@rm -rf obs-smoke.tmp && mkdir obs-smoke.tmp
	./bin/mpcf-launch -n 2 -- -case sod -ranks 2,1,1 -blocks 2,2,2 -n 8 -steps 6 \
		-quiet -diag-every 0 \
		-obs-trace obs-smoke.tmp/trace_merged.json \
		-obs-report obs-smoke.tmp/imbalance.txt \
		-obs-report-json obs-smoke.tmp/imbalance.json
	@test -s obs-smoke.tmp/trace_merged.json
	@test -s obs-smoke.tmp/imbalance.txt
	cat obs-smoke.tmp/imbalance.txt
	@echo "obs-smoke: merged trace and imbalance report written"

# End-to-end service smoke (docs/service.md): mpcf-serve fields one
# in-process and one 2-rank fleet job over the REST API, both event streams
# drain to a terminal success and the metrics endpoint reports zero stuck
# jobs.
service-smoke: bin
	bash scripts/service_smoke.sh

# End-to-end transport correctness: the same small Sod problem through two
# real OS processes over tcp — clean wire AND a seeded faulty wire (drops,
# duplications, resets masked by the reliability layer) — must produce
# conserved-field checksums bitwise identical to the in-process transport.
# A checkpoint written by the 2-process run at step 3 must resume in one
# hilbert-layout process to the same step-5 checksums. A scenario leg runs
# the registry's cloud case both ways, long enough for its audit cadence
# (every 20 steps) to fire: the checksums and the observables (mass_drift
# among them) must match byte for byte. A skewed-box leg bounds start-up:
# a 1024-block hilbert layout of 512×1×1 per rank must build and step in
# well under 10 s (its curve order costs O(B log B) in the block count).
smoke-net: bin
	@rm -rf smoke-net.tmp && mkdir smoke-net.tmp
	timeout 10 ./bin/mpcf-sim -case sod -ranks 2,1,1 -blocks 512,1,1 -n 8 -layout hilbert -steps 1 -quiet
	./bin/mpcf-sim -case sod -ranks 2,1,1 -blocks 2,2,2 -n 8 -steps 5 \
		-quiet -diag-every 0 -sums smoke-net.tmp/inproc.sums
	./bin/mpcf-launch -n 2 -- -case sod -ranks 2,1,1 -blocks 2,2,2 -n 8 -steps 5 \
		-quiet -diag-every 0 -sums smoke-net.tmp/tcp.sums
	cmp smoke-net.tmp/inproc.sums smoke-net.tmp/tcp.sums
	./bin/mpcf-launch -n 2 -- -case sod -ranks 2,1,1 -blocks 2,2,2 -n 8 -steps 5 \
		-quiet -diag-every 0 -sums smoke-net.tmp/chaos.sums \
		-net-chaos "drop=0.05,dup=0.05,reset=0.01,seed=11" \
		-net-heartbeat 50ms -net-retransmit 150ms -net-peer-timeout 20s
	cmp smoke-net.tmp/inproc.sums smoke-net.tmp/chaos.sums
	./bin/mpcf-launch -n 2 -- -case sod -ranks 2,1,1 -blocks 2,2,2 -n 8 -steps 5 \
		-quiet -diag-every 0 -sums smoke-net.tmp/migrate.sums \
		-layout hilbert -rebalance-force-step 2 \
		-net-chaos "drop=0.05,dup=0.05,reset=0.01,seed=11" \
		-net-heartbeat 50ms -net-retransmit 150ms -net-peer-timeout 20s
	cmp smoke-net.tmp/inproc.sums smoke-net.tmp/migrate.sums
	./bin/mpcf-launch -n 2 -- -case sod -ranks 2,1,1 -blocks 2,2,2 -n 8 -steps 3 \
		-quiet -diag-every 0 -checkpoint-every 3 -checkpoint smoke-net.tmp/step3.ckp
	./bin/mpcf-sim -case sod -ranks 1,1,1 -blocks 4,2,2 -n 8 -steps 5 -layout hilbert \
		-quiet -diag-every 0 -restore smoke-net.tmp/step3.ckp -sums smoke-net.tmp/restore.sums
	cmp smoke-net.tmp/inproc.sums smoke-net.tmp/restore.sums
	./bin/mpcf-sim -scenario cloud -ranks 2,1,1 -blocks 1,2,2 -n 8 -steps 21 -quiet \
		-sums smoke-net.tmp/scn-inproc.sums -observables smoke-net.tmp/scn-inproc.json
	./bin/mpcf-launch -n 2 -- -scenario cloud -ranks 2,1,1 -blocks 1,2,2 -n 8 -steps 21 -quiet \
		-sums smoke-net.tmp/scn-tcp.sums -observables smoke-net.tmp/scn-tcp.json
	cmp smoke-net.tmp/scn-inproc.sums smoke-net.tmp/scn-tcp.sums
	cmp smoke-net.tmp/scn-inproc.json smoke-net.tmp/scn-tcp.json
	grep -q mass_drift smoke-net.tmp/scn-tcp.json
	@echo "smoke-net: skewed-box start-up bounded; checksums bitwise identical across transports (clean + chaos + hilbert migration + cross-process checkpoint restore + cloud scenario)"
	@rm -rf smoke-net.tmp

# The chaos suite under the race detector: fault-injected transport
# conformance, reconnect/replay/escalation paths, frame fuzz seeds, and the
# sim-level proofs over the wire — every tcp and faults row of the bitwise
# matrix (migrations and checkpoint restarts among them) and the streamed
# dump frames under faults.
chaos:
	$(GO) test -race -count=1 ./internal/transport ./internal/transport/faulty ./internal/mpi
	$(GO) test -race -count=1 -run '^(TestBitwiseMatrix|TestFrameStreamBitwiseUnderChaos)$$/(tcp|faults)' ./internal/sim
	$(GO) test -race -count=1 ./cmd/mpcf-launch

# Full-ladder verification: convergence orders, conservation audit and the
# Rayleigh-collapse comparison, gated on testdata/tolerances.json. Exits
# non-zero when any tolerance band fails.
verify:
	$(GO) run ./cmd/mpcf-verify -mode full -o VERIFY.json

# The coarse ladder (same one `go test ./internal/verify` runs).
verify-short:
	$(GO) run ./cmd/mpcf-verify -mode short -o VERIFY.json

# Replay the checked-in fuzz seed corpora without fuzzing new inputs.
fuzz-seed:
	$(GO) test -run 'Fuzz' ./internal/core ./internal/compress ./internal/dump ./internal/checkpoint ./internal/transport ./internal/service ./internal/telemetry
