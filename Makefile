GO ?= go

.PHONY: all vet build test race race-stress cover allocs fuzz bench chaos smoke smokes megascale check

all: check

# vet also gates formatting: any file gofmt would rewrite fails the
# target (and with it `make check` and CI's first step).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt -l . is not empty:"; echo "$$unformatted"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector, then the mixed-shard stress once
# more at a forced GOMAXPROCS: the megascale shard-invariance goldens
# (megascale is the one scenario with lanes) run at shards 0 (unset), 1,
# 2 and 8, so lane workers, control's reads of lane counters at the
# epoch boundary and arena recycling execute under a second thread
# schedule with the checker watching for any cross-lane access. The
# run-token tests
# ride the same line: the baton-passing loop switches goroutines in a
# different pattern when a woken goroutine finds an idle P to start on.
# So do the queue's differential reference, whose 2- and 8-lane runs
# unlink and recycle events on concurrent lanes, and the tests of what a
# recycled event must keep apart: a stale handle and its slot's next
# tenant, and the event kinds dispatched from one packed field. So does
# the deployment's verified-ticket memo, which the megascale lanes share:
# goroutines verify, remember and evict overlapping tickets on one
# ticket.Verifier. So does its challenge-signature and session-key memo:
# goroutines sign, verify, seal and open overlapping records, and take
# overlapping SealKeys, on one cryptoutil.Memo. So does its decoded Channel List memo: goroutines
# decode and evaluate overlapping versions through one policy.Lists. The
# second line is `race-stress`, which CI's
# shard-invariance job also runs at each GOMAXPROCS of its matrix, so the
# pattern lives in RACE_STRESS only.
RACE_STRESS = Shard.*Golden|ShardedStress|HandoffBudget|InterleavingOrder|QueueMatchesReference|StaleTimerCannotStopNextTenant|DispatchAtOneInstant|SharedVerifierConcurrent|MemoConcurrent|ListsConcurrent
RACE_STRESS_PKGS = ./internal/sim ./internal/simnet ./internal/exp ./internal/ticket ./internal/cryptoutil ./internal/policy
race:
	$(GO) test -race ./...
	GOMAXPROCS=4 $(MAKE) --no-print-directory race-stress

race-stress:
	$(GO) test -race -run '$(RACE_STRESS)' $(RACE_STRESS_PKGS)

# Coverage over every package, with a per-function summary. Writes
# cover.out (ignored by git) for `go tool cover -html=cover.out`.
# The rights-critical packages — key ring, attribute certificates,
# tickets, and the conformance oracle — are gated: if any drops below
# COVER_FLOOR% statement coverage the target fails, so a PR cannot strip
# their tests without turning CI red.
COVER_FLOOR ?= 80
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -1
	@for pkg in internal/keys internal/attr internal/ticket internal/conform; do \
		pct=$$(awk -v pkg="p2pdrm/$$pkg/" 'NR>1 && index($$1, pkg)==1 { total+=$$2; if ($$3>0) cov+=$$2 } END { if (total==0) print "0"; else printf "%.1f", 100*cov/total }' cover.out); \
		awk "BEGIN{exit !($$pct >= $(COVER_FLOOR))}" || { echo "coverage floor: $$pkg at $$pct% < $(COVER_FLOOR)%"; exit 1; }; \
		echo "cover gate: $$pkg $$pct% >= $(COVER_FLOOR)%"; \
	done

# Allocation budgets by name, so a byte regression is its own failure:
# the per-viewer retained heap and per-journey churn (core), the lazy key
# ring and SealKey (keys, cryptoutil), one shared SealKey per key and an
# ECIES open that reuses its seal's AEAD (cryptoutil, keys), a policy
# evaluation that allocates nothing (policy), exact-size encoders and
# decodes that copy no payload (wire), a feedback Submit that copies no
# sample (feedback), the
# zero-garbage MAC and directory sample (stoken, channelmgr), the
# allocation-free relay hop (p2p relays and the heap their dedup tables
# retain, wire's channel-sharing decode, keys playback, simnet send
# envelopes), and exact event recycling (sim's LaneRearmAllocBudget, exp's
# MegaPopAllocBudget: per-renewal churn and ≤ 192 B of heap per virtual
# viewer). A package listed here in which the pattern selects nothing
# fails the target — a renamed or deleted budget must not pass by
# vanishing.
ALLOC_TESTS = AllocBudget|RetainedHeapBudget|BuildsNoAEAD|SealKeyLazy|ExactSize|AllocatesOnly
ALLOC_PKGS = core keys cryptoutil policy wire feedback stoken channelmgr p2p simnet sim exp
allocs:
	@for pkg in $(ALLOC_PKGS); do \
		$(GO) test -list '$(ALLOC_TESTS)' ./internal/$$pkg | grep -q '^Test' || { echo "allocs: no budget test selected in internal/$$pkg"; exit 1; }; \
	done
	$(GO) test -run '$(ALLOC_TESTS)' $(addprefix ./internal/,$(ALLOC_PKGS))

# Every Fuzz target in the module, found with `go test -list`, each
# fuzzed for FUZZTIME (go test -fuzz takes one target in one package at a
# time). A target that finds a crasher fails the target and leaves the
# input under its package's testdata/fuzz/ as a regression seed. A
# package in FUZZ_PKGS in which the pattern selects nothing fails too — a
# renamed or deleted fuzzer must not pass by vanishing.
FUZZTIME ?= 5s
FUZZ_PKGS = keys policy sectran simnet stoken ticket wire
fuzz:
	@for pkg in $(FUZZ_PKGS); do \
		$(GO) test -list '^Fuzz' ./internal/$$pkg | grep -q '^Fuzz' || { echo "fuzz: no Fuzz target selected in internal/$$pkg"; exit 1; }; \
	done
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1 } /^ok / { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg target; do \
		echo "fuzz: $$pkg $$target for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# Quick smoke of every testing.B benchmark (~0.1s each): catches
# bit-rot, not a measurement. The measured numbers — and every per-call
# probe — come from `go run ./benchmark`.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 0.1s -benchmem .

# Fault-injection suite under the race detector: the resilience policy
# and simnet fault machinery (including recycled send envelopes across
# partition/heal and a node crash), the chaos scenarios (manager-farm
# crashes, partitions, the faulty flash crowd), and the golden
# fingerprints of the fault-free runs and of the fault runs
# (TestFaultPlanDeterminismGolden: the faulty flash crowd and the three
# FaultPartition variants).
chaos:
	$(GO) test -race ./internal/obs ./internal/svc ./internal/simnet ./internal/client
	$(GO) test -race -run 'Chaos|FaultFlash' -v ./internal/core ./internal/exp
	$(GO) test -run 'DeterminismGolden' ./internal/exp

# Scenario smoke: run one drmsim figure (FIG, one of SMOKE_FIGS) with
# -metrics and -trace into out/smoke/$(FIG) and sanity-check the
# artifacts — every export non-empty, the time series and phase table in
# chronological order, the trace_event JSON carrying real events, and
# the waterfall and critical-path CSV containing assembled login and
# switch journeys (not just flat spans). The scenarios' own acceptance
# bars (every viewer playing, flat p95, zero false grants/denials, typed
# refusals) are pinned by their tests; this proves the figure path and
# its exports. `make smokes` runs the whole list.
SMOKE_FIGS = faults scaleout timeshift adversary
FIG ?= faults
SMOKE_OUT = out/smoke/$(FIG)
smoke:
	rm -rf $(SMOKE_OUT)
	$(GO) run ./cmd/drmsim -fig $(FIG) -metrics $(SMOKE_OUT) -trace $(SMOKE_OUT) > /dev/null
	@for f in phases.csv endpoints.csv calls.csv series.csv trace.jsonl trace_events.json waterfall.txt critical_path.csv; do \
		test -s $(SMOKE_OUT)/$(FIG)_$$f || { echo "empty export: $(FIG)_$$f"; exit 1; }; \
	done
	@tail -n +2 $(SMOKE_OUT)/$(FIG)_series.csv | sort -c -t, -k1,1 || { echo "$(FIG)_series.csv not time-sorted"; exit 1; }
	@tail -n +2 $(SMOKE_OUT)/$(FIG)_phases.csv | sort -c -s -t, -k2,2 || { echo "$(FIG)_phases.csv not time-sorted"; exit 1; }
	@grep -q '"traceEvents"' $(SMOKE_OUT)/$(FIG)_trace_events.json || { echo "$(FIG): no traceEvents array"; exit 1; }
	@for j in login switch; do \
		grep -q "journey $$j" $(SMOKE_OUT)/$(FIG)_waterfall.txt || { echo "$(FIG): no $$j journeys in waterfall"; exit 1; }; \
	done
	@tail -n +2 $(SMOKE_OUT)/$(FIG)_critical_path.csv | grep -q login1 || { echo "$(FIG): no login1 stages in critical path"; exit 1; }
	@echo "$(FIG) exports OK: $$(ls $(SMOKE_OUT) | wc -l) files in $(SMOKE_OUT)"

smokes:
	@for fig in $(SMOKE_FIGS); do $(MAKE) --no-print-directory smoke FIG=$$fig || exit 1; done

# Million-viewer engine capacity study: the full sweep, with the largest
# point streaming its metric series (CSV + JSONL) into out/megascale so
# the run's heap stays bounded regardless of duration. Pass SHARDS=n to
# spread the virtual population over n worker lanes; the exported series
# are byte-identical for every shard count.
megascale:
	rm -rf out/megascale
	$(GO) run ./cmd/drmsim -fig megascale $(if $(SHARDS),-shards $(SHARDS)) -metrics out/megascale
	@for f in megascale_series.csv megascale_series.jsonl; do \
		test -s out/megascale/$$f || { echo "empty export: $$f"; exit 1; }; \
	done
	@tail -n +2 out/megascale/megascale_series.csv | sort -c -t, -k1,1 || { echo "megascale_series.csv not time-sorted"; exit 1; }
	@echo "megascale exports OK: $$(ls out/megascale | wc -l) files in out/megascale"

check: vet build race bench smokes
