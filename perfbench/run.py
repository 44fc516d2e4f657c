"""End-to-end campaign benchmark of the NNSmith reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload nnsmith-difftest --seed 0 \\
        --seconds 50 --trace 0

Each run executes the workload's memory reference campaign and its timed
campaigns (seeds derived from ``--seed``, their number from ``--seconds``),
each in a fresh process with ``n_workers=1``.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it runs the first timed
campaign once untraced and once traced, checks that both produce the same
campaign signature, and reports the per-layer metrics.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md for the workloads, the metrics and what each layer's metric
should move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from tracer import COMPILERS, INTERPRETER_PARENTS, VERDICT_STATUSES  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, campaign_seed  # noqa: E402

#: A run gives up (and fails) this long after it started.
HARD_LIMIT_S = 170.0
#: Reference-slice time that timings are normalised to (see README.md).
SLICE_NOMINAL_S = 2.0e-3
#: ``repro.core.cache.STAGES``, repeated: this process never imports the
#: program, so it still runs (and refuses) where there is none.
CACHE_STAGES = ("artifact", "shape_infer", "exec_plan", "plan", "prefix")

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("iter_per_s", "1/s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
    ("valid_ratio", "ratio"),
    ("op_instances", "count"),
    ("seeded_bugs", "count"),
    ("unique_reports", "count"),
    ("gen_fail_ratio", "ratio"),
    ("drop_ratio", "ratio"),
]


def _per_layer() -> List[Tuple[str, str]]:
    metrics: List[Tuple[str, str]] = []
    for kind in ("insert", "bin"):
        metrics += [(f"solver.{kind}.s", "s"), (f"solver.{kind}.calls", "count"),
                    (f"solver.{kind}.nodes", "count"),
                    (f"solver.{kind}.rejected", "count")]
    metrics += [("binning.self_s", "s"), ("binning.accept_ratio", "ratio"),
                ("generate.self_s", "s"), ("generate.calls", "count"),
                ("generator.self_s", "s"), ("generator.calls", "count"),
                ("concretize.s", "s"),
                ("value_search.self_s", "s"), ("value_search.steps", "count"),
                ("value_search.success_ratio", "ratio"),
                ("autodiff.s", "s"), ("autodiff.calls", "count"),
                ("interpreter.s", "s"), ("interpreter.calls", "count")]
    for parent in INTERPRETER_PARENTS:
        metrics += [(f"interpreter.{parent}.s", "s"),
                    (f"interpreter.{parent}.calls", "count")]
    metrics += [("exporter.s", "s"), ("exporter.failures", "count")]
    for phase in ("compile", "execute"):
        for compiler in COMPILERS:
            metrics += [(f"{phase}.{compiler}.s", "s"),
                        (f"{phase}.{compiler}.calls", "count"),
                        (f"{phase}.{compiler}.failures", "count")]
    metrics += [(f"cache.{stage}.hit_ratio", "ratio") for stage in CACHE_STAGES]
    metrics += [("oracle.self_s", "s"), ("oracle.calls", "count"),
                ("oracle.failures", "count"),
                ("iteration.s", "s"), ("iteration.other_s", "s"),
                ("coordinator.s", "s"),
                ("funnel.iterations", "count"), ("funnel.generated", "count"),
                ("funnel.judged", "count")]
    metrics += [(f"funnel.verdicts.{status}", "count")
                for status in VERDICT_STATUSES]
    metrics += [(f"funnel.drop.{reason}", "count")
                for reason in ("generation", "exporter", "oracle")]
    metrics += [("trace.iter_per_s", "1/s"),
                ("trace.untraced_iter_per_s", "1/s"),
                ("trace.slowdown", "ratio")]
    return metrics


PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    """A campaign process failed; the run reports no result."""


# --------------------------------------------------------------------------- #
# Campaign processes
# --------------------------------------------------------------------------- #
def spawn(workload: str, seed: int, iterations: int, mode: str,
          deadline: float) -> Dict:
    """Run one campaign process to completion and return its payload, with
    ``setup_s`` = its start (taken here) to its first iteration."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), workload, str(seed), str(iterations),
         mode],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} campaign {seed} ({mode}) overran the "
                         f"{HARD_LIMIT_S:.0f} s limit") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} campaign {seed} ({mode}) exited with "
                         f"{proc.returncode}:\n{err[-2000:]}")
    payload = json.loads(lines[-1])
    if "crashed" not in payload:
        payload["setup_s"] = payload["first_iter"] - started
    return payload


def _completed(children: List[Dict]) -> List[Dict]:
    """The campaigns the program did not abort."""
    completed = [child for child in children if "crashed" not in child]
    if not completed:
        raise BenchError("the program aborted every campaign: "
                         + children[0]["crashed"])
    return completed


def _crash_note(children: List[Dict]) -> List[str]:
    crashes = [child["crashed"] for child in children if "crashed" in child]
    return [f"ABORTED by the program: {len(crashes)} campaign(s), counted as "
            f"failed and left out of the metrics: {crashes[0]}"] \
        if crashes else []


def _sum(children: List[Dict], key: str) -> float:
    return sum(child[key] for child in children)


def _speed(child: Dict) -> float:
    """Factor that turns a campaign's timings into timings on a machine
    where the reference slice takes :data:`SLICE_NOMINAL_S`.  The median
    slice, because an interrupt can stretch any single slice."""
    return SLICE_NOMINAL_S / statistics.median(child["slices"])


def _throughput(children: List[Dict], normalised: bool = True) -> float:
    """Judged iterations per second of campaign time."""
    seconds = sum(child["window_s"] * (_speed(child) if normalised else 1.0)
                  for child in children)
    return _sum(children, "judged") / seconds


def _per_campaign(children: List[Dict], key: str) -> float:
    """Mean over campaigns of the number of distinct entries in ``key``."""
    return statistics.mean(len(child[key]) for child in children)


def _succession(events: float, trials: float) -> float:
    """Laplace's rule of succession: never 0, so a relative bound is defined."""
    return (events + 1.0) / (trials + 2.0)


def _percentile(sorted_values: List[float], share: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    position = share * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * \
        (position - low)


def _check_children(children: List[Dict], expected_iterations: int,
                    problems: List[str]) -> None:
    for child in children:
        if child["iterations"] != expected_iterations:
            problems.append(f"a campaign ran {child['iterations']} "
                            f"iterations, expected {expected_iterations}")
        if not child["judged"] <= child["generated"] <= child["iterations"]:
            problems.append("a campaign's funnel is inconsistent")
        if child["unregistered_bugs"]:
            problems.append(f"a campaign reported unregistered seeded bugs "
                            f"{child['unregistered_bugs']}")


# --------------------------------------------------------------------------- #
# The two kinds of run
# --------------------------------------------------------------------------- #
def untraced_run(args, deadline: float):
    workload = WORKLOADS[args.workload]
    reference = spawn(args.workload, REFERENCE_SEED,
                      workload.reference_iterations, "plain", deadline)
    if "crashed" in reference:
        raise BenchError("the program aborted the memory reference "
                         f"campaign: {reference['crashed']}")
    timed = [spawn(args.workload, campaign_seed(args.seed, index),
                   workload.iterations, "plain", deadline)
             for index in range(workload.campaigns(args.seconds))]
    attempted = _sum(timed + [reference], "iterations")
    failed = attempted - _sum(timed + [reference], "judged")
    notes = _crash_note(timed)
    timed = _completed(timed)

    problems: List[str] = []
    _check_children([reference],
                    workload.reference_iterations * workload.cells, problems)
    _check_children(timed, workload.iterations * workload.cells, problems)
    durations = sorted(duration * 1e3 * _speed(child) for child in timed
                       for duration in child["durations"])
    raw = sorted(duration * 1e3 for child in timed
                 for duration in child["durations"])
    iterations = _sum(timed, "iterations")
    generated = _sum(timed, "generated")
    judged = _sum(timed, "judged")
    metrics = {
        "setup_s": statistics.median(child["setup_s"] * _speed(child)
                                     for child in timed + [reference]),
        "iter_per_s": _throughput(timed),
        "iter_ms_p50": _percentile(durations, 0.50),
        "iter_ms_p95": _percentile(durations, 0.95),
        "peak_rss_mb": reference["rss_mb"],
        "valid_ratio": _sum(timed, "valid") / max(1, judged),
        "op_instances": _per_campaign(timed, "op_instances"),
        "seeded_bugs": _per_campaign(timed, "seeded_bugs"),
        "unique_reports": _per_campaign(timed, "report_keys"),
        "gen_fail_ratio": _succession(_sum(timed, "gen_failures"), iterations),
        "drop_ratio": _succession(generated - judged, generated),
    }
    slices = [s for child in timed for s in child["slices"]]
    notes += [f"campaigns: memory reference (seed {REFERENCE_SEED}) + "
              f"{len(timed)} timed, {len(durations)} timed iterations "
              f"({len(durations) - int(0.95 * len(durations))} beyond the "
              f"p95), {len(timed) + 1} set-up samples",
              f"machine speed: reference slice "
              f"{1e3 * statistics.median(slices):.3f} ms (normalised to "
              f"{1e3 * SLICE_NOMINAL_S:.1f} ms); raw iter_per_s "
              f"{_throughput(timed, False):.4g}, iter_ms_p50 "
              f"{_percentile(raw, 0.5):.4g}, iter_ms_p95 "
              f"{_percentile(raw, 0.95):.4g}",
              f"peak RSS of the timed campaigns (largest, not a metric): "
              f"{max(child['rss_mb'] for child in timed):.1f} MB",
              f"funnel: {iterations} iterations -> {generated} generated -> "
              f"{judged} judged ({_sum(timed, 'valid')} numerically valid)"]
    return metrics, END_TO_END, attempted, failed, problems, notes


def traced_run(args, deadline: float):
    workload = WORKLOADS[args.workload]
    seed = campaign_seed(args.seed, 0)
    plain = [spawn(args.workload, seed, workload.iterations, "plain",
                   deadline)]
    traced = [spawn(args.workload, seed, workload.iterations, "traced",
                    deadline)]
    differing = plain[0]["signature"] != traced[0]["signature"]
    attempted = _sum(plain + traced, "iterations")
    failed = attempted - _sum(plain + traced, "judged")
    crash_notes = _crash_note(plain + traced)
    plain, traced = _completed(plain), _completed(traced)

    problems: List[str] = []
    expected = workload.iterations * workload.cells
    _check_children(plain, expected, problems)
    _check_children(traced, expected, problems)
    if differing:
        problems.append(f"campaign seed {seed}: the traced campaign "
                        "signature differs from the untraced one")

    layers: Dict[str, float] = defaultdict(float, traced[0]["layers"])
    cache = traced[0]["cache"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {name: layers.get(name, 0.0) for name, _unit in PER_LAYER}
    metrics["binning.accept_ratio"] = ratio(
        layers["solver.bin.calls"] - layers["solver.bin.rejected"],
        layers["solver.bin.calls"])
    metrics["value_search.success_ratio"] = ratio(
        layers["value_search.successes"], layers["value_search.calls"])
    for stage in CACHE_STAGES:
        counters = cache.get(stage, {"hits": 0, "misses": 0})
        metrics[f"cache.{stage}.hit_ratio"] = ratio(
            counters["hits"], counters["hits"] + counters["misses"])
    metrics["iteration.other_s"] = layers["iteration.self_s"]
    metrics["coordinator.s"] = _sum(traced, "window_s") - layers["iteration.s"]
    metrics["funnel.iterations"] = layers["iteration.calls"]
    metrics["funnel.generated"] = \
        layers["generate.calls"] - layers["generate.failures"]
    metrics["funnel.judged"] = layers["oracle.calls"] - layers["oracle.failures"]
    metrics["trace.iter_per_s"] = _throughput(traced)
    metrics["trace.untraced_iter_per_s"] = _throughput(plain)
    metrics["trace.slowdown"] = \
        metrics["trace.untraced_iter_per_s"] / metrics["trace.iter_per_s"]

    # Every layer the workload drives must have been seen ...
    unseen = [layer for layer in workload.layers
              if not layers.get(f"{layer}.calls")]
    if unseen:
        problems.append(f"no call of {', '.join(unseen)} was traced")
    # ... the wrappers must see every case the program counted ...
    for funnel, key in (("funnel.iterations", "iterations"),
                        ("funnel.generated", "generated"),
                        ("funnel.judged", "judged")):
        if metrics[funnel] != _sum(traced, key):
            problems.append(f"{funnel} = {metrics[funnel]:.0f} but the "
                            f"campaign counted {_sum(traced, key)}")
    # ... and no wrapped call may run outside an iteration: self times then
    # add up to iteration.s, so the per-layer split covers all of it.
    accounted = sum(value for key, value in layers.items()
                    if key.endswith(".self_s"))
    if abs(accounted - layers["iteration.s"]) > \
            1e-6 * max(1.0, layers["iteration.s"]):
        problems.append(f"layer self times sum to {accounted:.6f} s, "
                        f"iteration.s is {layers['iteration.s']:.6f} s: a "
                        "wrapped call ran outside single_iteration_result")
    notes = crash_notes + [
             f"campaign seed {seed}: untraced + traced, signatures "
             f"{'DIFFER' if differing else 'identical'}",
             f"layers traced: {len(workload.layers) - len(unseen)} of the "
             f"{len(workload.layers)} this workload drives",
             f"self times (other_s included) sum to {accounted:.4f} s of "
             f"iteration.s {layers['iteration.s']:.4f} s"]
    return metrics, PER_LAYER, attempted, failed, problems, notes


# --------------------------------------------------------------------------- #
def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0; 1 is the held-out "
                             "seed of the recorded baseline)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="nominal run length; sets the number of timed "
                             "campaigns")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        if args.trace:
            result = traced_run(args, deadline)
        else:
            result = untraced_run(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics, names, attempted, failed, problems, notes = result

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, unit in names:
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in names},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
