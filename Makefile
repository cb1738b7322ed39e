.PHONY: all build check test faultcheck-smoke fuzz-smoke serve-smoke enum-smoke datapath-smoke tab2-smoke largevol-smoke snap-smoke perfbench-smoke bench scaling bench-pairs clean

all: build

# Tier-1 gate: full build plus the complete test suite, then the smoke
# legs: fuzzing, faults, enumeration, serving, the bench gates and the
# repository benchmark.
check:
	dune build && dune runtest
	$(MAKE) fuzz-smoke
	$(MAKE) faultcheck-smoke
	$(MAKE) enum-smoke
	$(MAKE) serve-smoke
	$(MAKE) datapath-smoke
	$(MAKE) tab2-smoke
	$(MAKE) largevol-smoke
	$(MAKE) snap-smoke
	$(MAKE) perfbench-smoke

build:
	dune build

test: check

# Small seed-matrix fuzzing run: a few clean seeds (any violation is an
# SSU bug) plus the random mutant leg: with every sequence that holds a
# mutant op probed at 64 crash images per fence, both the crash oracle
# (with <= 6-op shrunk reproducers) and the SSU trace checker must flag
# every mutant kind (create, unlink, write, snap).
fuzz-smoke: build
	@for s in 1 2 3; do \
	  echo "== fuzz --seed $$s (clean) =="; \
	  dune exec bin/fuzz.exe -- --seed $$s --iters 12 --op-budget 6 \
	    --buggy-rate 0 || exit 2; \
	done
	@echo "== fuzz --expect-buggy =="
	dune exec bin/fuzz.exe -- --seed 1 --iters 40 --op-budget 6 --expect-buggy

# Bounded-enumeration smoke: the complete clean seq-2 sweep over the
# canonical universe (must be quiet through both the crash oracle and
# the SSU trace checker, with exactly-reconciling coverage accounting;
# rewrites the committed machine-readable coverage record, which CI
# diffs), the same sweep on two domains (its record must match byte for
# byte), the complete clean seq-3 sweep (every third op after each
# feasible two-op prefix, ~8 s; it rewrites its own committed record,
# which CI diffs too), then the mutant leg: the alphabet gains one op per
# mutant kind, a sequence holding one probes 64 crash images per fence,
# and every kind must be flagged by BOTH checkers with a <= 3-op shrunk
# reproducer.
enum-smoke: build
	@echo "== fuzz --enum (clean seq-2 sweep) =="
	dune exec bin/fuzz.exe -- --enum --coverage-out ENUM_coverage.json
	@echo "== fuzz --enum -j 2 (same sweep, two domains) =="
	dune exec bin/fuzz.exe -- --enum -j 2 --coverage-out _build/ENUM_coverage.j2.json
	cmp ENUM_coverage.json _build/ENUM_coverage.j2.json
	@echo "== fuzz --enum --depth 3 (clean seq-3 sweep) =="
	dune exec bin/fuzz.exe -- --enum --depth 3 --coverage-out ENUM_coverage_depth3.json
	@echo "== fuzz --enum --expect-buggy =="
	dune exec bin/fuzz.exe -- --enum --expect-buggy

# Concurrent-path smoke: a short Zipf client load through the request
# frontend (multi-domain, exercising the sharded lock table and the
# whole-FS fallback), then an interleaved 2-op fuzz batch — every
# lock-respecting schedule crash-checked clean, and the mutant leg: one
# pair per mutant kind (create, unlink, write, snap), probed at 64 crash
# images per fence as every sequence holding a mutant op is, each
# flagged by both the oracle and the SSU trace checker.
# Nonzero exit on any violation.
serve-smoke: build
	@echo "== serve: 200 clients x 20 ops, -j 2 =="
	dune exec bin/serve.exe -- --clients 200 --ops 20 -j 2 --seed 7
	@echo "== fuzz --interleaved (clean) =="
	dune exec bin/fuzz.exe -- --interleaved --seed 1 --pairs 25
	@echo "== fuzz --interleaved --expect-buggy =="
	dune exec bin/fuzz.exe -- --interleaved --expect-buggy

# Split-data-path smoke: exact fence counts for the write schedule
# (in-place = 1 sfence, extending append <= 2) and open-handle vs
# path-resolving throughput (handle >= path for appends and reads).
# Exits non-zero on any regression (see the `datapath` bench section).
datapath-smoke: build
	@echo "== bench datapath (fence schedule + handle throughput) =="
	dune exec bench/main.exe -- datapath

# Table 2 shape smoke: simulated mount times on a 64 MiB volume, empty
# and filled to 100% utilization. Exits 2 unless the full mount costs
# more than twice the empty one and recovery exceeds a normal mount at
# full utilization (the paper's Table 2 shape).
tab2-smoke: build
	@echo "== bench tab2 (mount-time shape) =="
	dune exec bench/main.exe -- tab2

# Large-volume smoke: mkfs + mount + a 100k-file create/stat sweep on
# a 4 GiB lazily-backed volume, gated on near-constant mkfs and
# empty-mount wall time and on resident memory staying a small
# fraction of the volume (exit 2 if cost scales with volume size).
# `bench largevol-full` is the 18 GiB / 1M-file version (EXPERIMENTS.md).
largevol-smoke: build
	@echo "== bench largevol (4 GiB volume, 100k files) =="
	dune exec bench/main.exe -- largevol

# Snapshot latency gates — exit 2 if snapshot creation on the 4 GiB
# volume exceeds 10 ms or scales with volume size instead of the dirty
# set, if the pin keeps lines at capture, or if the scrubber misreads an
# intact pin. The snapshot sequences' crash checking is a test
# (test_snap), and every mutant leg above carries the snapshot mutant.
snap-smoke: build
	@echo "== bench snap (snapshot latency gates) =="
	dune exec bench/main.exe -- snap

# Repository benchmark smoke: one 1-second run of each BENCHMARK.json
# workload. Every run fails on its own correctness checks: identical
# simulated cost in every paper-fs round, fsck-clean served volumes, the
# bigvol remount stat sweep and the fuzzer's determinism rerun.
perfbench-smoke: build
	@for w in crash-fuzz serve-zipf paper-fs bigvol; do \
	  echo "== perfbench $$w (1 s) =="; \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 \
	    --trace 0 || exit 2; \
	done

# Fast end-to-end exercise of the media-fault pipeline: clean fuzzing on
# a checksummed volume with torn crash images probed at every fence, then
# Phase B after every sequence (seeded inode bit flips, scrub, degraded
# remount, quarantine, EIO). Exits non-zero on any violation or if no
# flip was detected; the report's detected and eio-checks counts match.
faultcheck-smoke: build
	dune exec bin/fuzz.exe -- --seed 1 --iters 12 --op-budget 6 --buggy-rate 0 \
	  --flips 2 --torn 0.2

bench: build
	dune exec bench/main.exe

# Parallel scaling gates, not part of `make check`: the fuzzer (mutants,
# default volume, 6 sequences per job, -j min(4, cores)) and the server
# (1000 clients x 50 ops, -j 4) against -j 1 on the same work. Exit 2 if
# the -j N fuzz report differs from -j 1 or two -j 1 serve runs differ;
# then exit 3 if either -j N leg is slower than -j 1 on a host with more
# than one core.
scaling: build
	dune exec bench/main.exe -- scaling

# Paired comparison against a reference commit, not part of `make check`,
# and the one way to append to the committed perf trajectory: 10
# alternating pairs of BENCHMARK.json's run length per workload, the
# working tree against a temporary `git archive` export of REF (.git is
# left untouched), with medians, quartiles, ratios and pairs won printed
# and appended to BENCH_history.jsonl. WORKLOAD= picks one workload,
# SEED= another seed.
bench-pairs:
	@test -n "$(REF)" || { echo "usage: make bench-pairs REF=<rev> [WORKLOAD=name] [SEED=n]"; exit 2; }
	python3 tools/bench_pairs.py --ref "$(REF)" $(if $(WORKLOAD),--workload $(WORKLOAD)) \
	  $(if $(SEED),--seed $(SEED))

clean:
	dune clean
