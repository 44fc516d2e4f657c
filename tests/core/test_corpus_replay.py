"""Regression-corpus replay: frozen bug-triggering graphs stay triggering.

``tests/corpus/*.json`` (regenerated by ``tools/build_corpus.py``) freezes,
for the seeded bug population, the first fuzzer-found (model, inputs) pair
whose oracle run executed that bug's buggy path.  Replaying each case
through the oracle that can observe it (``difftest`` for v1 entries; the
recorded ``"oracle"`` — ``perf``, ``gradcheck`` — for v2 entries) and
checking the ground-truth trigger set pins down the seeded trigger
conditions *and* the importer/optimizer/autodiff code they live in:
silently weakening either breaks this suite, not just future fuzzing
campaigns.

v3 entries may carry a ``"pipeline"`` token: the bug only triggers under
that sampled (non-canonical) pass ordering, so the replay locks the
compilers to the recorded pipeline and additionally re-derives the
``"minimal_passes"`` bisection attribution — detection *and* attribution
are both pinned.

v4 entries may carry ``"verify_passes": true``: the bug leaves the IR
executing-but-ill-formed, so only the pass-boundary verifier
(:mod:`repro.analysis.verify`) can see it.  The replay builds
verify-enabled compilers, asserts a ``verifier`` verdict carries the bug
id, and re-derives the offending-pass attribution like pipeline entries.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.compilers.base import (DEFAULT_COMPILERS, build_compiler_set,
                                  registered_compilers)
from repro.compilers.bugs import SYSTEMS, BugConfig, bug_spec
from repro.compilers.pipeline import resolve_pipeline
from repro.core.difftest import DifferentialTester
from repro.core.oracle import build_oracle
from repro.dtypes import DType
from repro.graph.serialize import model_from_dict

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))

#: The verdict status that constitutes *detection* under each oracle (for
#: v2 entries the replay asserts detection, not just trigger execution).
DETECT_STATUS = {"perf": "perf", "gradcheck": "gradient"}


def _decode_inputs(payload):
    return {
        name: np.array(entry["data"],
                       dtype=DType.from_str(entry["dtype"]).numpy
                       ).reshape(entry["shape"])
        for name, entry in payload.items()
    }


@pytest.fixture(scope="module")
def oracles():
    """Lazily-built registry oracles over the fully-seeded compiler trio."""
    bugs = BugConfig.all()
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = build_oracle(
                name, build_compiler_set(DEFAULT_COMPILERS, bugs=bugs),
                bugs=bugs)
        return cache[name]

    return get


def test_corpus_exists_and_covers_every_bug_family():
    assert CORPUS_FILES, f"empty regression corpus at {CORPUS_DIR}"
    systems = {json.loads(path.read_text(encoding="utf-8"))["system"]
               for path in CORPUS_FILES}
    assert systems >= set(SYSTEMS), \
        f"corpus misses bug families: {set(SYSTEMS) - systems}"


@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[path.stem for path in CORPUS_FILES])
def test_corpus_case_still_triggers_its_bug(path, oracles):
    entry = json.loads(path.read_text(encoding="utf-8"))
    assert entry["format_version"] in (1, 2, 3, 4)
    bug_id = entry["bug_id"]
    assert path.stem == bug_id
    # the frozen metadata matches the registry (guards against bug renames)
    spec = bug_spec(bug_id)
    assert spec.system == entry["system"]
    assert spec.symptom == entry["symptom"]

    oracle_name = entry.get("oracle", "difftest")
    model = model_from_dict(entry["model"])
    inputs = _decode_inputs(entry["inputs"])
    pipeline = entry.get("pipeline")
    verify = bool(entry.get("verify_passes", False))
    if pipeline is not None:
        # Ordering-dependent or verifier-only entry: lock the compilers to
        # the recorded pass sequence (and, for v4 entries, turn on the
        # pass-boundary verifier — nothing else can see the bug).
        bugs = BugConfig.all()
        tester = DifferentialTester(
            build_compiler_set(registered_compilers(), bugs=bugs,
                               pipeline=resolve_pipeline(pipeline),
                               verify_passes=verify),
            bugs=bugs)
        case = tester.run_case(model, inputs=inputs)
    else:
        case = oracles(oracle_name).run_case(model, inputs=inputs)

    triggered = set(case.exporter_bugs)
    for verdict in case.verdicts:
        triggered.update(verdict.triggered_bugs)
    assert bug_id in triggered, \
        f"{bug_id} no longer triggers on its frozen corpus model"

    # ... and the originally-detecting system still reports it
    via = entry["detected_by"]
    if via != "exporter":
        verdict = next(v for v in case.verdicts if v.compiler == via)
        assert bug_id in verdict.triggered_bugs
        if oracle_name in DETECT_STATUS:
            # Oracle-only entries (perf regression, wrong gradient) are
            # frozen *detected*, not merely triggered — keep it that way.
            assert verdict.status == DETECT_STATUS[oracle_name], \
                (f"{bug_id} still triggers but is no longer detected by "
                 f"the {oracle_name} oracle: {verdict.status} "
                 f"{verdict.message}")
        if verify:
            # Verifier-only entries must be *detected by the verifier* —
            # a crash or mismatch would mean the bug became observable to
            # execution-based oracles, changing its whole character.
            assert verdict.status == "verifier", \
                (f"{bug_id} is frozen as verifier-only but replayed as "
                 f"{verdict.status}: {verdict.message}")
        if pipeline is not None:
            # Pipeline entries are frozen *detected* under their sampled
            # ordering...
            assert verdict.found_bug, \
                (f"{bug_id} still triggers but is no longer detected "
                 f"under pipeline {pipeline}: {verdict.status}")
            # ... and the bisection attribution must stay stable: the
            # same minimal interacting pass subsequence, re-derived by
            # deterministic delta debugging from the full pipeline.
            from repro.experiments.pass_bisect import bisect_finding

            result = bisect_finding(model, via, pipeline, inputs=inputs,
                                    verify_passes=verify)
            assert result.reproduced
            assert [list(ref) for ref in result.minimal] == \
                entry["minimal_passes"], \
                (f"{bug_id} bisection attribution drifted: "
                 f"{result.minimal} != {entry['minimal_passes']}")
