GO ?= go

.PHONY: all build test race bench benchdiff benchbase verify figures loc clean

all: verify

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Race-enabled run of the full suite. The concurrent paths (sharded buffer
# pool, parallel MT-index probes, batch worker pool) carry dedicated
# multi-goroutine tests that only bite under -race; keep this green.
race: build
	$(GO) test -race ./...

# The repo's verification recipe: tier-1 tests plus the race detector.
# errcheck runs when installed (CI installs it; locally it is optional).
verify: build
	$(GO) vet ./...
	@if command -v errcheck >/dev/null 2>&1; then \
		echo errcheck ./...; \
		errcheck -ignoretests ./...; \
	else \
		echo "errcheck not installed; skipping (go install github.com/kisielk/errcheck@latest)"; \
	fi
	$(GO) test ./...
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

# Distance-kernel and lower-bound micro-benchmarks: the blocked
# Euclidean/polar kernels, the shared-cosine pair kernel, the
# flat-vs-cascade lower-bound pair, the bound on index rectangles (ns per
# internal entry), the NN search that runs on all of them, one
# file-backed range probe (ns, B and allocs per probe), one file-backed,
# logged insert (the same plus WAL bytes and page writes) and the reopen
# of a file-backed index (the same plus the pages it reads and the bytes
# it keeps).
KERNEL_BENCH = -bench 'BenchmarkKernel|BenchmarkLB|BenchmarkNNResolve|BenchmarkRangeProbeDisk|BenchmarkInsertDisk|BenchmarkOpenIndex' -run xxx -benchtime 200ms -count 6
KERNEL_PKGS  = ./internal/series/ ./internal/transform/ ./internal/core/

# benchbase refreshes the checked-in kernel benchmark baseline that
# benchdiff compares against. Run it on the reference machine after an
# intentional kernel change and commit bench/kernels.txt.
benchbase:
	$(GO) test $(KERNEL_BENCH) $(KERNEL_PKGS) | tee bench/kernels.txt

# benchdiff reruns the kernel benchmarks and compares them against the
# checked-in baseline with benchstat. Like errcheck, benchstat is used
# when installed and skipped otherwise
# (go install golang.org/x/perf/cmd/benchstat@latest).
benchdiff:
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) test $(KERNEL_BENCH) $(KERNEL_PKGS) > bench/kernels.new.txt; \
		benchstat bench/kernels.txt bench/kernels.new.txt; \
		rm -f bench/kernels.new.txt; \
	else \
		echo "benchstat not installed; skipping (go install golang.org/x/perf/cmd/benchstat@latest)"; \
		$(GO) test $(KERNEL_BENCH) -count 1 $(KERNEL_PKGS); \
	fi

# loc prints the size ROADMAP item 2 tracks: non-blank, non-comment,
# non-test Go lines in internal/core plus the root package.
loc:
	@cat $$(ls internal/core/*.go *.go | grep -v _test.go) | grep -vcE '^\s*(//.*)?$$'

figures:
	$(GO) run ./cmd/tsbench -fig all -out figures

clean:
	$(GO) clean ./...
