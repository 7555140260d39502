# Verification targets; `make check` is the tier-1 gate plus vet and the
# race-enabled telemetry/sim/cluster tests. `make verify` runs the full
# exact-solution verification ladder and writes VERIFY.json
# (docs/verification.md).

GO ?= go

.PHONY: check vet build bin test race bench benchmark benchmark-smoke smoke-net verify verify-short fuzz-seed chaos obs-smoke service-smoke

check: vet build test race

vet:
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
	$(GO) test -race ./internal/telemetry ./internal/sim ./internal/cluster ./internal/layout ./internal/node ./internal/transport ./internal/mpi ./internal/service ./internal/compress ./internal/dump
	$(GO) test -race -count=50 -run TestPool ./internal/node

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
smoke-net: bin
	@rm -rf smoke-net.tmp && mkdir smoke-net.tmp
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
	@echo "smoke-net: checksums bitwise identical across transports (clean + chaos + hilbert migration)"
	@rm -rf smoke-net.tmp

# The chaos suite under the race detector: fault-injected transport
# conformance, reconnect/replay/escalation paths, frame fuzz seeds, and the
# sim-level bitwise-under-chaos and checkpoint-restart proofs.
chaos:
	$(GO) test -race -count=1 ./internal/transport ./internal/transport/faulty ./internal/mpi
	$(GO) test -race -count=1 -run 'TestSimBitwiseUnderChaos|TestRestoreResumesBitwise|TestSimMigrationBitwiseOverTCPChaos|TestFrameStreamBitwiseUnderChaos' ./internal/sim
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
	$(GO) test -run 'Fuzz' ./internal/compress ./internal/dump ./internal/transport ./internal/service
