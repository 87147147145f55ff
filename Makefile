# Development gate for this repository. `make check` is the tier-1+ gate a
# change must pass before merging: vet, build, the project's own static
# analyzers (wblint), the full test suite under the race detector (which
# also exercises the serial-vs-parallel equivalence properties), and a
# short fuzz smoke over the decoder and message-framing fuzz targets.

GO ?= go

.PHONY: all build vet test lint race fuzz bench bench-stream bench-sim metrics-golden chaos faults-golden serve chaos-serve check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Project-specific static analysis (determinism, pool hygiene, float
# comparisons, unit discipline). `wblint -json ./...` emits the findings
# machine-readably; see README "Static gates" for the codes.
lint:
	$(GO) run ./cmd/wblint ./...

race:
	$(GO) test -race ./...

# Ten seconds per target catches shallow panics cheaply; explore deeper
# with e.g. `go test -fuzz=FuzzDecodeCSI -fuzztime=5m ./internal/uplink/`.
fuzz:
	$(GO) test -fuzz=FuzzDecodeCSI -fuzztime=10s ./internal/uplink/
	$(GO) test -fuzz=FuzzDecodeLongRange -fuzztime=10s ./internal/uplink/
	$(GO) test -fuzz=FuzzParsePayload -fuzztime=10s ./internal/downlink/
	$(GO) test -fuzz=FuzzMessageRoundTrip -fuzztime=10s ./internal/downlink/
	$(GO) test -fuzz=FuzzScheduleCodec -fuzztime=10s ./internal/faults/
	$(GO) test -fuzz=FuzzStreamPush -fuzztime=10s ./internal/uplink/
	$(GO) test -fuzz=FuzzDecodeVariant -fuzztime=10s ./internal/uplink/
	$(GO) test -fuzz=FuzzWireProtocol -fuzztime=10s ./internal/serve/
	$(GO) test -fuzz=FuzzConditionTwoPass -fuzztime=10s ./internal/dsp/

bench:
	$(GO) test -bench=. -benchmem

# Streaming decode contract: BenchmarkStream* report the per-push and
# per-frame cost with -benchmem, and the same package run re-asserts
# TestStreamPushSteadyStateAllocs (steady-state Push must not allocate —
# the test is skipped under -race, so this plain-build run is the gate).
# BenchmarkCondition* times the conditioning kernel alone, frame-decode
# shaped case included. The last, plain run of the dsp and uplink packages
# at GOMAXPROCS 1, 2 and 4 re-checks the bit-exact kernel oracle and the
# pool's allocation-free round trip (sync.Pool caches per P) at each.
bench-stream:
	$(GO) test -bench 'BenchmarkStream' -benchmem -run TestStreamPushSteadyStateAllocs ./internal/uplink/
	$(GO) test -run xxx -bench BenchmarkCondition -benchmem ./internal/dsp/
	$(GO) test -count=1 -cpu 1,2,4 ./internal/dsp/ ./internal/uplink/

# Channel synthesis contract: BenchmarkMultiChannelObserve reports one
# measurement's Observe (fresh rows) and ObserveInto (reused buffer) with
# -benchmem, and the same run re-asserts TestObserveIntoAllocs (a warmed
# ObserveInto must not allocate; skipped under -race, so this plain run is
# the gate). The last, plain run of the radio and core packages at
# GOMAXPROCS 1, 2 and 4 re-checks the bit-exact channel oracle against the
# direct per-tap evaluation at each.
bench-sim:
	$(GO) test -run TestObserveIntoAllocs -bench BenchmarkMultiChannelObserve -benchmem ./internal/radio/
	$(GO) test -count=1 -cpu 1,2,4 ./internal/radio/ ./internal/core/

# Pins the observability contract: the aggregated pipeline metrics from an
# instrumented sweep must match testdata/metrics_golden.json byte for byte
# and be identical at every -workers value. Regenerate after an intentional
# instrumentation change with `go test ./internal/eval/ -run TestMetricsGolden -update`.
metrics-golden:
	$(GO) test ./internal/eval/ -run 'TestMetricsGolden|TestMetricsWorkerInvariance'

# Chaos suite: every built-in fault profile driven through the real uplink,
# downlink and transaction pipelines under the race detector, plus the
# backoff/ARF behaviour under injected loss. See README "Fault injection".
chaos:
	$(GO) test -race ./internal/faults/... ./internal/core/... ./internal/wifi/...

# Pins the fault-injection observability contract (wbbench -faults):
# faulted-sweep metrics must match testdata/faults_golden.json byte for
# byte at every -workers value. Regenerate an intentional change with
# `go test ./internal/eval/ -run TestFaultsGolden -update`.
faults-golden:
	$(GO) test ./internal/eval/ -run 'TestFaultsGolden|TestFaultsWorkerInvariance'

# Serving-layer concurrency gate, always run fresh (-count=1): 64
# concurrent TCP sessions byte-identical to batch decode, overload
# rejection, poison isolation, drain under load — all race-enabled —
# plus the wbserved drain loop and the wbload replay-equivalence client.
# The second, plain run of the serving package at GOMAXPROCS 1, 2 and 4
# keeps the race detector's slowdown from hiding a scheduling bug, and
# runs the allocation checks -race skips. See README "Serving" and
# DESIGN.md §12.
serve:
	$(GO) test -race -count=1 ./internal/serve/ ./cmd/wbserved/ ./cmd/wbload/
	$(GO) test -count=1 -cpu 1,2,4 ./internal/serve/

# Wire-level chaos gate, race-enabled and always fresh: the fault-injecting
# TCP proxy's compile-once determinism contract, and the wbload chaos runs —
# resume-equals-batch under wire-flaky at 1 and 8 workers, byte-identical
# -metrics snapshots for the same (seed, spec, trace). See EXPERIMENTS.md
# "Chaos replay".
chaos-serve:
	$(GO) test -race -count=1 ./internal/serve/chaosproxy/
	$(GO) test -race -count=1 -run 'TestChaos' ./cmd/wbload/

check: vet build lint race fuzz bench-stream bench-sim metrics-golden chaos faults-golden serve chaos-serve
