# ParaCrash-Go development targets. Everything is stdlib Go; no network or
# host file-system access is needed.

GO ?= go

.PHONY: all build crossbuild vet fmtcheck doclint persistlint test race ci benchcheck experiments fuzz fuzz-smoke chaos representative incremental emulate classify legal selfcheck sloc clean

all: build vet test

build:
	$(GO) build ./...

# `make crossbuild`: the tree must also build for the platforms without
# inotify, which take the polling fallback in internal/serve/watch_other.go.
crossbuild:
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean.
fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Documentation gates: godoc coverage (a package comment on every package,
# a doc comment on every exported identifier), every `make` target the docs
# cite defined here, and docs/API.md kept in lockstep with the routes
# actually registered on the serve mux (both directions).
doclint:
	$(GO) run ./internal/tools/doclint .
	$(GO) run ./internal/tools/routedoc .

# Single-persistence-layer gate: daemon state packages must route every
# durable write through internal/statefs (the crash-tested layer), never
# raw os.Create/os.Rename/os.WriteFile/os.OpenFile/os.CreateTemp.
persistlint:
	$(GO) test ./internal/tools/persistlint/ -count=1
	$(GO) run ./internal/tools/persistlint ./internal/serve ./internal/paracrash

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Everything a change must pass before it lands, in order, stopping at the
# first failure; each target's wall time is printed as it finishes, and all
# of them again at the end.
CI_TARGETS = build crossbuild vet fmtcheck doclint persistlint test race fuzz-smoke chaos representative incremental emulate classify legal selfcheck benchcheck
ci:
	@times=""; all=$$(date +%s); \
	for t in $(CI_TARGETS); do \
		start=$$(date +%s); \
		$(MAKE) --no-print-directory $$t || exit 1; \
		line="$$(printf '%-15s %5d s' $$t $$(( $$(date +%s) - start )))"; \
		echo "make ci: $$line"; times="$$times$$line\n"; \
	done; \
	printf "make ci wall time per target:\n$$times%-15s %5d s\n" total $$(( $$(date +%s) - all ))

# The benchmark harness checking itself (benchmark/ is a module of its own,
# so `go test ./...` does not reach it): every workload's verdicts against
# golden.json, matrix-k1 against the paper's Table 3, and the workload and
# metric tables against BENCHMARK.json. About 6 s.
benchcheck:
	$(GO) test -C benchmark . -count=1

# Class memo gate: the engine against the per-state reference kept in
# reference_test.go, which judges every state on its own — equal report
# kernels and equal verdicts state by state (every backend, named and
# generated programs, backends whose apply panics on one op or on one
# server, mid-class kill/resume) — plus the white-box collision proofs, the
# outcome-memo cap test, backends whose apply or mount panics (quarantined
# at the first attempt, no class poisoned), the hard-fault quarantine and
# the digest fuzz target's seed corpus.
representative:
	$(GO) test ./internal/paracrash/ -run 'TestRepresentative|TestClassKey|TestCrashDigest|FuzzStateDigest|TestHardFaultsQuarantine' -count=1 -v

# O(delta) reconstruction gate: the one exploration engine against its
# references (every backend, both workload families) — the committed report
# fingerprints and effort counts (testdata/fingerprints.golden), the
# per-state full-rebuild reference
# (reference_test.go), which also requires states sharing an image key to
# rebuild identically (on a block and a vfs states-k2 cell at k = 2), the
# image key's unit cases (shadowed writes, writes equal to the initial
# block, syncs, wide vfs servers), state-level Serialize/Hash identity of
# delta reconstruction, effort independent of the visiting order, a backend
# whose apply of one op panics (only the states that need the op are
# quarantined; every other state keeps its verdict) and kill/resume chaos.
incremental:
	$(GO) test ./internal/paracrash/ -run 'TestIncremental|TestImageKey' -count=1 -v

# Crash-emulator gate (Algorithms 1 and 2): Generate against the reference
# kept in test code (same states, same order, same victims on every backend
# and paper program), the row-built persists-before relation against
# Algorithm 2 evaluated pair by pair (random traces under every persistence
# machinery, every paper cell and the 24 generated POSIX programs on six
# backends), the closure-table and required-mask properties they rest on,
# the allocation and memory bounds, and both caps tested at the cap.
emulate:
	$(GO) test ./internal/causality ./internal/paracrash -run 'TestEmulator|TestPersistOrder|TestGenerate' -count=1

# Table 1 classifier gate: the word-operation classifier against the one it
# replaced, kept in classify_reference_test.go — identical pairs and an
# identical probe sequence for every inconsistent state of 187 cells — plus
# the truth tables, the probe cache's hash confirmation, the culprit memo's
# (TestClassifierMemoConfirmsHits: entries under a colliding hash never
# answer; TestClassifierMemoAnswersSameFrontAndVictim: a second state on the
# same front and victim sends no probe and allocates at most its result),
# the allocation bounds and the ancestor table it rests on. Its local number:
# go test -run '^$' -bench BenchmarkClassifyState -benchmem ./internal/paracrash
classify:
	$(GO) test ./internal/causality -run 'TestQuickAncestors' -count=1
	$(GO) test ./internal/paracrash/ -run 'TestClassif|TestBugSet' -count=1 -v

# `make legal`: PreservedSets against the four models as defined in
# models_reference_test.go (every subset of the layer filtered by required,
# allowed and closure), set by set, capped at N-1, N and N+1, with the
# set-level lattice strict <= causal <= commit and strict <= baseline, on
# seeded random layers and on every paper program's PFS and library status
# vectors on all six backends at k = 1; the library legal-state walk
# (LayerOps.walk over resumable replays, skipping subtrees whose replay
# state was walked) against the from-scratch enumeration kept in
# legal_reference_test.go: every paper program's library status vectors on
# all six backends, four models, k <= 2, caps n-1, n and n+1, with
# legal/lib-sets reconciled to PreservedSets; the PFS replay trie (each
# preserved set replayed from the snapshot of its longest replayed prefix)
# against the from-scratch replay kept there too: the POSIX paper programs
# and generated programs 1-4 on all six backends, four models, k <= 2, caps
# n-1, n and n+1, each distinct selection sequence of a cell compared once,
# with equal sets, capped flags and restores/legal, and
# legal/pfs-steps equal to the selections' distinct prefixes; the trie at
# its snapshot cap; the library replay table ((replay digest, op) -> replay
# state, and replay digest -> legal leaf) at its cap, and shared by every
# library status vector of a cell under every model, each transition
# applied and each leaf parsed once; and the replay-step unit tests in hdf5
# and stack.
legal:
	$(GO) test ./internal/hdf5 ./internal/stack -run 'TestClone|TestAppendState|TestReplay|TestDigest' -count=1
	$(GO) test ./internal/paracrash/ -run 'TestModelDefinition|TestLegalLib|TestLegalPFS' -count=1 -v

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/experiments -exp all

# Coverage-guided fuzzing over every fuzz target, FUZZTIME each, then a
# metamorphic campaign over the exploration engine itself.
FUZZTIME ?= 30s
FUZZSEEDS ?= 64
fuzz:
	$(GO) test ./internal/hdf5/ -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hdf5/ -run FuzzDecodeCanonical -fuzz FuzzDecodeCanonical -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/paracrash/ -run FuzzParseModel -fuzz FuzzParseModel -fuzztime $(FUZZTIME)
	$(GO) test ./internal/paracrash/ -run FuzzStateDigest -fuzz FuzzStateDigest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/paracrash/ -run FuzzJournal -fuzz FuzzJournal -fuzztime $(FUZZTIME)
	$(GO) run ./cmd/experiments -exp fuzz -seeds $(FUZZSEEDS) -fuzz-out corpus

# Fast fuzzing gate for CI: a few seconds per coverage-guided target plus a
# small all-backend metamorphic campaign.
fuzz-smoke:
	$(GO) test ./internal/hdf5/ -fuzz FuzzParse -fuzztime 5s
	$(GO) test ./internal/hdf5/ -run FuzzDecodeCanonical -fuzz FuzzDecodeCanonical -fuzztime 5s
	$(GO) test ./internal/trace/ -fuzz FuzzTraceRoundTrip -fuzztime 5s
	$(GO) test ./internal/paracrash/ -run FuzzParseModel -fuzz FuzzParseModel -fuzztime 5s
	$(GO) test ./internal/paracrash/ -run FuzzStateDigest -fuzz FuzzStateDigest -fuzztime 5s
	$(GO) test ./internal/paracrash/ -run FuzzJournal -fuzz FuzzJournal -fuzztime 5s
	$(GO) run ./cmd/experiments -exp fuzz -seeds 8 -enum-ops 1

# Chaos gate: kill explorations mid-run — a whole run and a fleet shard —
# and resume from the checkpoint journal; the resumed reports must be
# byte-identical to clean uninterrupted runs. The resume half also
# holds the journal itself: a complete journal of every paper program on
# six backends resumes in full with no warning and reads clean; a torn
# newline is rewritten without losing a record; and a journal or shard
# report written under other H5 parameters is refused. The obs and serve
# halves hold telemetry to the same rule: an exploration scraped in a tight
# loop keeps its report, jobs finish with their verdicts while /metrics is
# scraped in a loop, and a stalled events reader never delays a job; the
# fleet's worker-death and coordinator-death tests ride along.
chaos:
	$(GO) test ./internal/paracrash/ -run 'TestChaosResumeDeterminism|TestRepresentativeChaosResume|TestShardChaosResume|TestJournalResumeComplete|TestCheckpointTornNewline|TestResumeStaleAcrossH5Params|TestShardMergeRefusesOtherH5Params' -count=1 -v
	$(GO) test ./internal/obs/ ./internal/serve/ -run 'TestChaos' -count=1 -v

# Self-check gate: the checker turned on itself. For every registered
# statefs crash point, kill the daemon scenario exactly there, restart it
# through fsck, and require that the crash fired (coverage), no
# acknowledged job was lost, no verdict was duplicated, and the recovered
# report is byte-identical to an uncrashed run's. The statefs unit tests
# ride along: they pin the post-crash disk state of every stage.
selfcheck:
	$(GO) test ./internal/statefs/ -count=1
	$(GO) test ./internal/serve/ -run 'TestSelfCheck' -count=1 -v

# `make sloc`: non-test Go lines (wc -l) per package directory, then their
# total — the numbers the ROADMAP's size targets use. benchmark/ is a module
# of its own and is left out. Informational only: `ci` does not run it.
sloc:
	@find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print0 | \
		xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total outside benchmark/\n", t }'

clean:
	$(GO) clean ./...
	rm -rf .bench_build/
