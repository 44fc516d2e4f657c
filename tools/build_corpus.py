"""Regenerate the regression corpus under ``tests/corpus/``.

Fuzzes the fully-seeded compiler trio and, for every seeded bug id it
manages to trigger, freezes the *first* triggering (model, inputs) pair
into a small JSON file.  The replay test
(``tests/core/test_corpus_replay.py``) re-runs each frozen case through
``DifferentialTester`` and asserts the same bug id is still detected — a
regression net over the seeded-bug trigger paths and the importer /
optimizer code they live in.

Usage::

    PYTHONPATH=src python tools/build_corpus.py [max_iterations] \\
        [--strategy NAME] [--nodes N] [--max-dim N] [--seed N]

``--strategy`` picks any registered generation strategy
(:mod:`repro.core.strategy`).  Plain ``nnsmith`` fuzzing stalled at 18/30
seeded bugs — the remaining triggers need rare structures; the ``targeted``
motif strategy reaches them within a few dozen iterations, which is how the
corpus was extended to full coverage.

Bugs whose symptom only a non-default oracle can observe are harvested
through that oracle automatically: ``perf``-symptom bugs must be *detected*
(a ``perf`` verdict) by the performance-regression oracle and
``gradient``-symptom bugs by the ``gradcheck`` oracle before they are
frozen.  Their corpus entries record the detecting oracle
(``format_version`` 2, ``"oracle"`` field) so the replay test re-runs each
case through the oracle that can actually see its bug.

Bugs that only a *non-canonical pass ordering* can trigger (no ``-O<k>``
pipeline ever runs the interacting passes in the failing order) are
harvested with ``--pipelines``: every listed token (``rand:<seed>:<index>``
or ``random:<k>@<seed>``, see :mod:`repro.compilers.pipeline`) adds a
differential tester whose compilers run that sampled pass sequence.  A bug
frozen this way gets a ``format_version`` 3 entry recording the
``"pipeline"`` token and the ``"minimal_passes"`` attribution computed by
:mod:`repro.experiments.pass_bisect` — the replay test re-runs the case
under the recorded pipeline *and* re-derives the attribution.

Bugs whose symptom is ``verifier`` (a pass leaves the IR
executing-but-ill-formed — invisible to every execution-based oracle) are
harvested through a differential tester whose compilers run with
``verify_passes=True``: the bug is frozen only when a ``verifier`` verdict
carries its id, and the entry (``format_version`` 4,
``"verify_passes": true``) records the pipeline token plus the
``"minimal_passes"`` attribution so the replay re-derives both.

The generator knobs are pinned small (``max_dim=8``) so the frozen weights
stay a few kilobytes per file.  Regenerate only when trigger conditions
legitimately change; the corpus is otherwise append-only.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from repro.compilers.base import (DEFAULT_COMPILERS, build_compiler_set,
                                  registered_compilers)
from repro.compilers.bugs import BugConfig, all_bugs, bug_spec
from repro.compilers.pipeline import expand_pipeline_tokens, resolve_pipeline
from repro.core.difftest import DifferentialTester
from repro.core.fuzzer import FuzzerConfig, generate_for_iteration
from repro.core.oracle import build_oracle
from repro.core.generator import GeneratorConfig
from repro.core.strategy import DEFAULT_STRATEGY, registered_strategies
from repro.dtypes import DType
from repro.graph.serialize import model_to_dict
from repro.runtime.interpreter import random_inputs

#: v2 entries carry the detecting oracle (``"oracle"``); v1 entries predate
#: the oracle registry and implicitly mean ``difftest``.  v3 entries may
#: additionally carry the triggering ``"pipeline"`` token and its
#: ``"minimal_passes"`` bisection attribution.  v4 entries may carry
#: ``"verify_passes": true`` — the bug is observable only by the
#: pass-boundary IR verifier.
CORPUS_FORMAT_VERSION = 4

#: Which registry oracle can observe each oracle-only bug symptom.
_SYMPTOM_ORACLES = {"perf": "perf", "gradient": "gradcheck"}
#: The verdict status that counts as *detection* under each extra oracle.
_ORACLE_DETECTS = {"perf": "perf", "gradcheck": "gradient"}
CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "tests", "corpus")
CAMPAIGN_SEED = 20260730


def _encode_inputs(inputs):
    return {
        name: {
            "dtype": str(DType.from_numpy(array.dtype)),
            "shape": list(array.shape),
            "data": array.tolist(),
        }
        for name, array in inputs.items()
    }


def build_corpus(max_iterations: int = 4000, n_nodes: int = 8,
                 max_dim: int = 8, seed: int = CAMPAIGN_SEED,
                 strategy: str = DEFAULT_STRATEGY,
                 pipelines=None) -> None:
    from repro.core.strategy import build_strategy

    bugs = BugConfig.all()
    tester = DifferentialTester(
        build_compiler_set(DEFAULT_COMPILERS, bugs=bugs), bugs=bugs)
    config = FuzzerConfig(
        generator=GeneratorConfig(n_nodes=n_nodes, max_dim=max_dim),
        bugs=bugs,
        seed=seed,
        strategy=strategy,
    )
    # Built once and reused: lemon/tzer cache their seed zoo per instance.
    generation_strategy = build_strategy(strategy, config)
    # Append-only: bugs that already have a frozen case are left untouched.
    existing = {name[:-len(".json")] for name in
                (os.listdir(CORPUS_DIR) if os.path.isdir(CORPUS_DIR) else [])
                if name.endswith(".json")}
    wanted = {spec.bug_id for spec in all_bugs()} - existing
    found = {}
    # Oracle-only bugs (perf regressions, wrong gradients) are invisible to
    # the differential tester; build the oracle that can see them only when
    # such bugs are still wanted.
    extra_oracles = {}
    for bug in wanted:
        oracle_name = _SYMPTOM_ORACLES.get(bug_spec(bug).symptom)
        if oracle_name and oracle_name not in extra_oracles:
            extra_oracles[oracle_name] = build_oracle(
                oracle_name, build_compiler_set(DEFAULT_COMPILERS, bugs=bugs),
                bugs=bugs)
    # Ordering-dependent bugs: one extra differential tester per sampled
    # pipeline, its compilers locked to that pass sequence.
    pipeline_testers = {}
    for token in expand_pipeline_tokens(pipelines or [], seed):
        spec = resolve_pipeline(token)
        pipeline_testers[token] = DifferentialTester(
            build_compiler_set(registered_compilers(), bugs=bugs,
                               pipeline=spec), bugs=bugs)
    # Verifier-only bugs (a pass leaves executing-but-ill-formed IR) never
    # surface through execution — their ids only appear in the
    # IRVerificationError a verify-enabled compile raises at the offending
    # pass boundary.
    verifier_tester = None
    if any(bug_spec(bug).symptom == "verifier" for bug in wanted):
        verifier_tester = DifferentialTester(
            build_compiler_set(registered_compilers(), bugs=bugs,
                               verify_passes=True), bugs=bugs)

    def freeze(bug, via, oracle_name, iteration, model, inputs,
               pipeline=None, minimal_passes=None, verify_passes=False):
        found[bug] = {
            "format_version": CORPUS_FORMAT_VERSION,
            "bug_id": bug,
            "system": bug_spec(bug).system,
            "phase": bug_spec(bug).phase,
            "symptom": bug_spec(bug).symptom,
            "detected_by": via,
            "oracle": oracle_name,
            "iteration": iteration,
            "campaign_seed": seed,
            "strategy": strategy,
            "model": model_to_dict(model),
            "inputs": _encode_inputs(inputs),
        }
        if pipeline is not None:
            found[bug]["pipeline"] = pipeline
            found[bug]["minimal_passes"] = minimal_passes
        if verify_passes:
            found[bug]["verify_passes"] = True
        print(f"[{len(found):2d}] {bug:<40} via {via}/{oracle_name} "
              f"(iteration {iteration}"
              + (f", pipeline {pipeline}" if pipeline else "")
              + (", verify" if verify_passes else "") + ")")

    for iteration in range(1, max_iterations + 1):
        if wanted <= set(found):
            break
        generated = generate_for_iteration(config, iteration,
                                           generation_strategy)
        if generated is None:
            continue
        model = generated.model
        inputs = random_inputs(model, np.random.default_rng(iteration))
        try:
            case = tester.run_case(model, inputs=inputs)
        except Exception:
            continue
        triggered = {}
        for verdict in case.verdicts:
            for bug in verdict.triggered_bugs:
                triggered.setdefault(bug, verdict.compiler)
        for bug in case.exporter_bugs:
            triggered.setdefault(bug, "exporter")
        for bug, via in triggered.items():
            if bug in found or bug not in wanted:
                continue
            if bug_spec(bug).symptom in _SYMPTOM_ORACLES or \
                    bug_spec(bug).symptom == "verifier":
                continue  # needs its own oracle/mode to *detect*, see below
            freeze(bug, via, "difftest", iteration, model, inputs)
        for oracle_name, oracle in extra_oracles.items():
            if not any(bug not in found and
                       _SYMPTOM_ORACLES.get(bug_spec(bug).symptom)
                       == oracle_name for bug in wanted):
                continue
            try:
                extra_case = oracle.run_case(model, inputs=inputs)
            except Exception:
                continue
            for verdict in extra_case.verdicts:
                if verdict.status != _ORACLE_DETECTS[oracle_name]:
                    continue  # trigger without detection: keep hunting
                for bug in verdict.triggered_bugs:
                    if bug in found or bug not in wanted:
                        continue
                    if _SYMPTOM_ORACLES.get(bug_spec(bug).symptom) != \
                            oracle_name:
                        continue
                    freeze(bug, verdict.compiler, oracle_name, iteration,
                           model, inputs)
        for token, pipe_tester in pipeline_testers.items():
            if wanted <= set(found):
                break
            try:
                pipe_case = pipe_tester.run_case(model, inputs=inputs)
            except Exception:
                continue
            for verdict in pipe_case.verdicts:
                for bug in verdict.triggered_bugs:
                    if bug in found or bug not in wanted:
                        continue
                    if bug_spec(bug).symptom in _SYMPTOM_ORACLES or \
                            bug_spec(bug).symptom == "verifier":
                        continue
                    from repro.experiments.pass_bisect import bisect_finding

                    result = bisect_finding(model, verdict.compiler, token,
                                            bugs=bugs, inputs=inputs)
                    minimal = [list(ref) for ref in result.minimal] \
                        if result.reproduced else None
                    freeze(bug, verdict.compiler, "difftest", iteration,
                           model, inputs, pipeline=token,
                           minimal_passes=minimal)
        if verifier_tester is not None and any(
                bug not in found and bug_spec(bug).symptom == "verifier"
                for bug in wanted):
            try:
                verify_case = verifier_tester.run_case(model, inputs=inputs)
            except Exception:
                verify_case = None
            for verdict in (verify_case.verdicts if verify_case else ()):
                if verdict.status != "verifier":
                    continue  # trigger without detection: keep hunting
                for bug in verdict.triggered_bugs:
                    if bug in found or bug not in wanted:
                        continue
                    if bug_spec(bug).symptom != "verifier":
                        continue
                    from repro.experiments.pass_bisect import bisect_finding

                    # The verify-enabled tester runs the canonical O2
                    # pipeline; record it so the replay can re-derive the
                    # offending-pass attribution.
                    result = bisect_finding(model, verdict.compiler, "O2",
                                            bugs=bugs, inputs=inputs,
                                            verify_passes=True)
                    minimal = [list(ref) for ref in result.minimal] \
                        if result.reproduced else None
                    freeze(bug, verdict.compiler, "difftest", iteration,
                           model, inputs, pipeline="O2",
                           minimal_passes=minimal, verify_passes=True)

    os.makedirs(CORPUS_DIR, exist_ok=True)
    for bug, entry in sorted(found.items()):
        path = os.path.join(CORPUS_DIR, f"{bug}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        print(f"wrote {path} ({os.path.getsize(path)} bytes)")

    missing = sorted(wanted - set(found))
    covered = existing | set(found)
    systems_found = {bug_spec(bug).system for bug in covered}
    print(f"\ncorpus now covers {len(covered)}/{len(all_bugs())} seeded "
          f"bugs, systems: {sorted(systems_found)}")
    if missing:
        print("not triggered within budget:", missing)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Freeze bug-triggering (model, inputs) pairs into "
                    "tests/corpus/ (append-only).")
    parser.add_argument("max_iterations", nargs="?", type=int, default=4000)
    parser.add_argument("--strategy", default=DEFAULT_STRATEGY,
                        choices=registered_strategies(),
                        help="generation strategy (use 'targeted' for the "
                             "rare-structure bugs plain fuzzing misses)")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--max-dim", type=int, default=8)
    parser.add_argument("--seed", type=int, default=CAMPAIGN_SEED)
    parser.add_argument("--pipelines", action="append", default=None,
                        metavar="TOKEN",
                        help="additionally difftest every model under this "
                             "pipeline token ('rand:<seed>:<index>' or "
                             "'random:<k>@<seed>'); repeatable — harvests "
                             "ordering-dependent bugs into v3 entries")
    args = parser.parse_args()
    build_corpus(args.max_iterations, n_nodes=args.nodes,
                 max_dim=args.max_dim, seed=args.seed,
                 strategy=args.strategy, pipelines=args.pipelines)
