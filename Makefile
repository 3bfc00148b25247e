# Build and verification entry points. CI runs `make vet`; run it
# locally before pushing — it is the consolidated static gate (gofmt,
# go vet, mutls-vet, and staticcheck when installed).

GO ?= go
# Pinned staticcheck version: CI and developers must agree on the
# checker vocabulary or the gate flaps across versions.
STATICCHECK_VERSION ?= 2023.1.7

.PHONY: all build test race race-repeat vet fmt mutls-vet staticcheck smoke chaos loc

# Seed for the fault-injection sweep; override to replay a failing CI
# run's plans: `make chaos CHAOS_SEED=<seed from the log>`.
CHAOS_SEED ?= 7

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-repeat reruns the packages whose tests are about interleavings: the
# join protocol, the pay-off guard and host-aware fork admission on 1, 2 and
# 4 procs (the whole of internal/core — the guard's window and probe
# schedule tests and TestTinyLoopStopsForking, TestForkAdmissionFollowsTheProcs,
# TestForkAdmissionOffOnOneProc, TestRunCountsSurviveGoexit, the PointFor
# tests, the sole-committer commit's TestCommitPathsKeepEquivalence and
# TestSiblingReadBeforeACommitRollsBack, the region-entry snapshot's
# TestWriteDuringRegionRollsBack (a table of the non-speculative thread's
# direct write paths, each of which must stamp its page), the stack-variable
# protocol's TestStackvarCommitAndPointerMapping and
# TestStackvarRollbackLeavesHome, and the polls' TestCtxCancelUnwindsAtTheNextPoll,
# TestRunCtxCancelMidRun, TestNoGoroutineBesidesTheWorkers and
# TestWatchdogKillsRunaway among them — the guard's, the stage groups', the
# fork points' and Tree's cancellation driver tests in mutls and the
# pipeline's re-entry detector, the pool's
# two-lease test, Do's release on return, error and panic and its refusals,
# and Acquire's refusal of a done context), then the pool and the serving
# layer once more at the host's own width. The hand-off tests skip under
# -race: TestWorkerStaysThroughForkGaps, TestSpinPipelineRarelyParks,
# TestPipelineTokenDoesNotAllocate and the allocation tests
# TestStencilAllocationsDoNotGrowWithTokens, TestPipelineCallStateStaysSmall
# and TestFFTWorksInPerRankScratch run plain in CI's hand-off step instead.
# TestStencilPipelineForksOneBalancedGroup runs in neither: it fails 2-5
# times in 20 on a shared host (ROADMAP item 13), so only `make test` has it.
race-repeat:
	$(GO) test -race -count=2 -cpu 1,2,4 ./internal/core
	$(GO) test -race -count=2 -cpu 1,2,4 -run 'TinyBodies|GuardInactive|GroupsKeepTheirOwn|CutStages|StageNeverRunsBesideItself|DriversStartedOnSpeculative|DriverRunsUseDistinct|TreeCancelUnwinds' ./mutls
	$(GO) test -race -count=2 -cpu 1,2,4 -run 'ConcurrentLeasesDoNotForkPastTheProcs|PoolDoReleasesOnEveryPath|PoolDoRefusesWithoutCallingFn|PoolAcquireContext' ./mutls/pool
	$(GO) test -race -count=2 ./mutls/pool ./internal/serve

# vet is the consolidated static-analysis gate:
#   1. gofmt       — formatting drift fails the build
#   2. go vet      — the standard suite
#   3. mutls-vet   — the speculation-contract analyzers (internal/analysis)
#   4. staticcheck — only when present at the pinned version (the CI
#      container has no network; the gate must not depend on go install)
vet: fmt
	$(GO) vet ./...
	$(GO) run ./cmd/mutls-vet -timing ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ($$(staticcheck -version 2>/dev/null | head -n1), pinned: $(STATICCHECK_VERSION))"; \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (pin: $(STATICCHECK_VERSION) — go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# mutls-vet alone (text findings; see also -json and -run <analyzer>).
mutls-vet:
	$(GO) run ./cmd/mutls-vet ./...

staticcheck:
	staticcheck ./...

# smoke runs every go-test benchmark, the wall-clock benchmark (all five
# workloads and the ladder, then the /run service once more race-built) and
# the ablation tables once, at the smallest size: they must still build, run
# and verify their checksums.
smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' . ./internal/gbuf ./internal/core ./internal/mem
	$(GO) test -bench='ForkJoin|PipelineToken' -benchtime=1000x -run='^$$' ./internal/core ./mutls
	$(GO) run ./benchmark -quick > /dev/null
	$(GO) run -race ./benchmark -quick -workload serve-closed > /dev/null
	$(GO) run ./cmd/mutls-bench -fig gbuf -cpus 4
	$(GO) run ./cmd/mutls-bench -fig pipeline -cpus 4

# chaos is the fault-injection smoke: seeded storms over the quick kernel
# subset under the race detector, asserting checksum equivalence, typed
# containment and zero goroutine leaks. The seed fixes each seam's decision
# stream; how many decisions a run draws follows the schedule, so a rerun
# replays the plans, not necessarily the same faults.
# The refusal storm is the same contract under a different disturbance: the
# CPU limit moving under running matmults, bit-exact checksums.
chaos:
	$(GO) run -race ./cmd/mutls-bench -chaos -quick -seed $(CHAOS_SEED)
	$(GO) test -race -run TestMatmultRefusalStorm -count=3 ./internal/bench

# loc reports the size ROADMAP aim 2 tracks: non-test Go outside the
# benchmark and the analyzers' testdata, against the deletion round's
# target; the second line is the static-analysis suite's share of it. It
# fails above the ceiling — the count of the last PR that moved it — so a
# PR that grows the tree has to raise the number here, in its own diff.
loc:
	@n=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l); \
	echo "non-test Go outside benchmark/ and testdata/: $$n lines (ceiling 15029, target 15000)"; \
	v=$$(find internal/analysis cmd/mutls-vet -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l); \
	echo "  of which internal/analysis + cmd/mutls-vet: $$v lines"; \
	if [ $$n -gt 15029 ]; then echo "code size is over the ceiling: shrink, or raise it in the Makefile" >&2; exit 1; fi
