GO ?= go

# Minimum total test coverage (go tool cover -func, statements). CI
# fails below this; re-baseline deliberately when adding code, never to
# paper over deleted tests. Raised to 77.0 at PR 8 (77.3% measured);
# held at 77.0 at PR 9 (77.1% measured — the loadgen/bench harness
# additions outgrew their tests slightly; a 0.1-margin raise would
# only flap CI) and at PR 10 (77.0% measured exactly: the assembly
# kernels are invisible to Go coverage while their dispatch wrappers
# and the cmd/bench kernel rows count as statements).
COVER_FLOOR ?= 77.0

.PHONY: all build test race cover vet doclint bench chaos fuzz

all: vet doclint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector — the sharded query
# fan-out, parallel builders and chunked codecs all cross goroutines.
race:
	$(GO) test -race ./...

# cover enforces the coverage floor recorded above.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | sed 's/[^0-9.]*//g'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

vet:
	$(GO) vet ./...

# doclint fails if any exported symbol of the public itemsketch package
# is missing a doc comment.
doclint:
	$(GO) run ./cmd/doclint

# bench runs the operational benchmark suite, records the results, and
# gates the construction, mining, count-sketch, WAL and windowed-ingest
# benchmarks, the memoized service read paths (service_hh_mg_hot,
# service_mine_hot) and the dispatched bitvec word kernels (kernel_*)
# against the previous numbers; bump the output/baseline names with
# each recorded run to keep the perf trajectory. If the shared
# reference container's clock has drifted since the baseline was
# recorded (untouched families moving >20%), re-measure the baseline
# tree (git worktree add) on the same day rather than comparing
# wall-clock numbers across weeks —
# BENCH_7/8/9_remeasured.json are all such same-day re-baselines
# (BENCH_9_remeasured: untouched families like wal_append and
# scan_serial moved +33–52% on the byte-identical PR 9 tree).
bench:
	$(GO) run ./cmd/bench -out BENCH_10.json -compare BENCH_9_remeasured.json

# chaos runs the fault-injection suites — checkpoint recovery sweeps,
# codec fault classification, and the mixed-load kill-shards service
# test — under the race detector, across several fault seeds. Any seed
# may be reproduced standalone with FAULT_SEED=<n>.
chaos:
	for seed in 1 42 31337; do \
		FAULT_SEED=$$seed $(GO) test -race -run 'Fault|Chaos|Recovery' ./... || exit 1; \
	done

# fuzz exercises the decoder/query surfaces — the exact-query paths,
# the one-shot wire-envelope decoder, and the streaming decoder (v1 +
# v2, chunked, compressed) — plus the bitvec word kernels, whose fuzz
# target differentially checks the dispatched (possibly assembly)
# kernels against bits.OnesCount references on arbitrary operands.
fuzz:
	$(GO) test ./internal/bitvec/ -run '^$$' -fuzz FuzzWordKernels -fuzztime 30s
	$(GO) test ./internal/dataset/ -run '^$$' -fuzz FuzzCountPaths -fuzztime 30s
	$(GO) test . -run '^$$' -fuzz FuzzUnmarshalEnvelope -fuzztime 30s
	$(GO) test . -run '^$$' -fuzz FuzzUnmarshalFromEnvelope -fuzztime 30s
