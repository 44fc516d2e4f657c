PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-all smoke smoke-coverage smoke-oracles smoke-pipelines \
	smoke-distributed smoke-verify lint-static lint-baseline benchmarks \
	table2 bench bench-transport

# Default tier: everything except tests marked `slow`.
test:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Tier-1: the full test + benchmark suite, including slow tests.
test-all:
	$(PYTHON) -m pytest -x -q

# Fast end-to-end smoke: exercises the sharded/matrix parallel campaign path
# (2-worker ~10-iteration campaigns + the scaling benchmark) and the
# one-worker inline path (its pinned lease order and the check that
# --workers 1 starts no process) in well under a minute.
smoke:
	$(PYTHON) -m pytest -q -m smoke tests benchmarks

# Coverage-feedback smoke: scheduler equivalence (static/adaptive/coverage
# findings identical) plus the coverage-scheduling overhead benchmark.
smoke-coverage:
	$(PYTHON) -m pytest -q -m smoke tests/core/test_schedulers.py \
		benchmarks/test_scheduler_overhead.py

# Oracle-axis smoke: a tiny difftest/perf/gradcheck matrix campaign with
# per-oracle Venn slicing, plus the oracle + oracle-axis test suites
# (seed 29 reliably shows the perf-only and gradcheck-only seeded bugs).
smoke-oracles:
	$(PYTHON) -m repro.campaign --iterations 10 --workers 2 --shards 2 \
		--oracles difftest,perf,gradcheck --seed 29 \
		--deterministic --quiet
	$(PYTHON) -m pytest -q tests/core/test_perf_gradcheck_oracles.py \
		tests/core/test_oracle_axis_campaign.py

# Pipeline-axis smoke: a tiny canonical-vs-sampled pass-pipeline matrix
# campaign with per-pipeline Venn slicing (seed 117 reliably shows the
# seeded ordering-only bug in the sampled cell), plus the pipeline layer,
# pass-fixpoint, bisection and pipeline-axis test suites.
smoke-pipelines:
	$(PYTHON) -m repro.campaign --iterations 8 --workers 1 --shards 1 \
		--compilers graphrt --pipelines O0,O2,rand:14682586710177421089:1 \
		--seed 117 --nodes 8 --deterministic --quiet
	$(PYTHON) -m pytest -q tests/compilers/test_pipeline_layer.py \
		tests/compilers/test_pass_fixpoint.py \
		tests/experiments/test_pass_bisect.py \
		tests/core/test_pipeline_axis_campaign.py

# Pass-boundary verifier smoke: the same tiny serial campaign twice — with
# --verify-passes the seeded verifier-only bug (a provenance attribute the
# BiasSoftmaxFusion pass leaves on the fused node; bit-identical execution,
# invisible to every execution oracle) is found and attributed, without the
# flag the campaign is finding-for-finding identical minus that report
# (seed 276 reliably generates the Add→Softmax chain on iteration 1).
# Then the verifier, exclusivity and corpus-replay suites.
smoke-verify:
	$(PYTHON) -m repro.campaign --serial --workers 1 --iterations 2 \
		--nodes 8 --seed 276 --verify-passes --deterministic --quiet
	$(PYTHON) -m repro.campaign --serial --workers 1 --iterations 2 \
		--nodes 8 --seed 276 --deterministic --quiet
	$(PYTHON) -m pytest -q tests/analysis \
		"tests/core/test_corpus_replay.py::test_corpus_case_still_triggers_its_bug[graphrt-biassoftmax-fusion-note]"

# Contract linter over the engine sources, ratcheted against the committed
# baseline: fails on any finding above tools/lint_baseline.json, counts can
# only burn down.
lint-static:
	$(PYTHON) -m repro.analysis.lint src

# Rewrite the ratchet baseline to the current finding counts (after fixing
# findings, or when deliberately baselining new debt — justify in review).
lint-baseline:
	$(PYTHON) -m repro.analysis.lint src --update-baseline

# Distributed-fabric smoke: boot a real coordinator service on an ephemeral
# localhost port, join two socket workers over TCP, and assert the seeded
# bugs are found and reported by the live status endpoint.
smoke-distributed:
	$(PYTHON) tools/smoke_distributed.py --iterations 12 --seed 13

# Transport-overhead trajectory: the same seeded campaign on the local
# process pool vs a 2-worker localhost socket fleet — iterations/sec, mean
# lease round-trip latency and the socket/local overhead ratio (design
# target <= 1.2x).  Schema-validated by tests/test_bench_transport.py.
bench-transport:
	$(PYTHON) tools/bench_transport.py --iterations 24 \
		--output benchmarks/BENCH_8.json

# End-to-end campaign benchmark (see perfbench/README.md): one run of each
# workload, printing judged iterations/sec, latency percentiles, peak RSS and
# the finding counts.
bench:
	$(PYTHON) perfbench/run.py --workload nnsmith-difftest --seed 0 \
		--seconds 50 --trace 0
	$(PYTHON) perfbench/run.py --workload graphfuzzer-oracles --seed 0 \
		--seconds 50 --trace 0

# Regenerate the paper's tables/figures on scaled-down budgets.
benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Fuzzer-comparison summary (Table 2 analogue): one small multi-strategy
# generator-axis matrix campaign over the registry.  The matching regression
# test is `campaign` tier, so `make test` stays fast.
table2:
	$(PYTHON) -m repro.experiments.table2 36 2
