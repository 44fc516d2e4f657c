"""AST-based contract linter for the repro engine's own source.

Differential fuzzing only works when the harness itself is deterministic
and side-effect free: a kernel that mutates its input arrays corrupts the
interpreter's value environment, an unseeded global random draw breaks
bit-identical finding replay, a raw wall-clock read lets machine load
decide what an iteration computes, and iterating an unordered ``set`` into
a wire frame or finding makes coordinator/worker runs diverge.  The clock
reads that remain only time the campaign ``--time-budget``, lease and
heartbeat bookkeeping, and value search's ``SearchResult.elapsed``; none
of them bounds work inside an iteration.  This module walks the Python AST
of the engine's sources and reports violations of those contracts:

``kernel-input-mutation``
    A function registered with :func:`repro.ops.semantics.kernel` (or any
    ``@kernel("...")`` decorator) assigns into, augments, or calls a known
    in-place-mutating method on one of its parameters or a value unpacked
    from them.  Kernels must allocate their outputs.

``unseeded-global-random``
    A draw from the process-global RNG (``np.random.rand(...)``,
    ``random.random()``, ...) instead of an explicit seeded generator
    (``np.random.default_rng(seed)``, ``random.Random(seed)``).

``wall-clock-call``
    A direct *call* of ``time.time``/``monotonic``/``perf_counter``/
    ``process_time`` or ``datetime.now``/``utcnow``/``today``.  Passing
    the function itself (``timer or time.perf_counter``) is the injectable
    seam and stays legal — only reading the clock inline is flagged.

``set-order-escape``
    An unordered set's iteration order escaping into ordered output:
    ``tuple(...)``/``list(...)``/``"".join(...)`` over a set expression,
    or a ``for``/comprehension iterating one, without ``sorted``.

Findings are ratcheted against a committed baseline
(``tools/lint_baseline.json``): per ``(rule, file)`` counts may only go
*down*.  New violations fail the run (and the tier-1 smoke test); fixing
old ones and re-running with ``--update-baseline`` burns the debt down.

Usage::

    PYTHONPATH=src python -m repro.analysis.lint [paths...] \\
        [--baseline tools/lint_baseline.json] [--update-baseline]

Third-party checks plug in through :func:`register_lint_rule` — see
``examples/custom_lint.py``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: numpy.random constructors that are fine to touch: they *build* seeded
#: generators rather than drawing from the global state.
_NP_RANDOM_OK = {"default_rng", "SeedSequence", "Generator", "BitGenerator",
                 "RandomState", "PCG64", "Philox", "SFC64", "MT19937"}
#: stdlib ``random`` module members that draw from the global instance.
_STDLIB_RANDOM_DRAWS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "getrandbits", "seed",
}
#: Direct clock reads; passing these functions (no call) is the seam.
_CLOCK_CALLS = {
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "process_time"), ("time", "monotonic_ns"), ("time", "time_ns"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
}
#: ndarray/list methods that mutate their receiver in place.
_MUTATING_METHODS = {"sort", "fill", "resize", "put", "partition",
                     "setflags", "itemset", "append", "extend", "insert",
                     "remove", "pop", "clear", "update", "setdefault"}


@dataclass(frozen=True)
class LintFinding:
    """One contract violation at a source location."""

    rule: str
    path: str          # as given on the command line (relative-friendly)
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


#: rule name -> checker(tree, path) -> iterable of findings.
RuleChecker = Callable[[ast.AST, str], Iterable[LintFinding]]
_RULES: Dict[str, RuleChecker] = {}


def register_lint_rule(name: str) -> Callable[[RuleChecker], RuleChecker]:
    """Decorator registering a lint rule (extension point).

    The checker receives the parsed module tree and the file path and
    yields :class:`LintFinding`.  User rules registered before
    :func:`lint_paths` runs participate exactly like the builtin ones,
    including the ratchet baseline.
    """

    def wrap(func: RuleChecker) -> RuleChecker:
        _RULES[name] = func
        return func

    return wrap


def registered_lint_rules() -> Tuple[str, ...]:
    return tuple(_RULES)


# --------------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------------- #
def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute/name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.AST) -> bool:
    """Does this expression statically evaluate to an unordered set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and \
            isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _walk_functions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# --------------------------------------------------------------------------- #
# Builtin rules
# --------------------------------------------------------------------------- #
def _is_kernel_decorator(decorator: ast.AST) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    name = _dotted(decorator.func)
    return name is not None and name.split(".")[-1] == "kernel"


@register_lint_rule("kernel-input-mutation")
def _check_kernel_mutation(tree: ast.AST, path: str):
    """Kernels must not mutate their input arrays in place."""
    for func in _walk_functions(tree):
        if not any(_is_kernel_decorator(d) for d in func.decorator_list):
            continue
        params = {arg.arg for arg in func.args.args + func.args.kwonlyargs}
        # Track names bound *from* the parameters (``x, = inputs`` /
        # ``x = inputs[0]``): mutating those mutates caller-owned arrays.
        derived = set(params)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and _reads_only(node.value, derived):
                for target in node.targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            derived.add(name_node.id)
        for node in ast.walk(func):
            target = None
            if isinstance(node, ast.AugAssign):
                target = node.target
            elif isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Subscript):
                        target = tgt
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _MUTATING_METHODS:
                target = node.func.value
            if target is None:
                continue
            base = target
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name) and base.id in derived and (
                    isinstance(target, ast.Subscript) or
                    isinstance(node, (ast.Call, ast.AugAssign))):
                yield LintFinding(
                    "kernel-input-mutation", path, node.lineno,
                    f"kernel {func.name!r} mutates input-derived value "
                    f"{base.id!r} in place; kernels must allocate outputs")


def _reads_only(expr: ast.AST, names: set) -> bool:
    """Is ``expr`` just a read of one of ``names`` (subscript/attr ok)?"""
    base = expr
    while isinstance(base, (ast.Subscript, ast.Attribute, ast.Starred)):
        base = base.value
    return isinstance(base, ast.Name) and base.id in names


@register_lint_rule("unseeded-global-random")
def _check_global_random(tree: ast.AST, path: str):
    """No draws from the process-global RNG — findings must replay."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if len(parts) >= 2 and parts[-2] == "random" and \
                parts[0] in ("np", "numpy") and \
                parts[-1] not in _NP_RANDOM_OK:
            yield LintFinding(
                "unseeded-global-random", path, node.lineno,
                f"global numpy RNG draw {name}(); use a seeded "
                f"np.random.default_rng(...) generator")
        elif parts == ["random"] or (
                len(parts) == 2 and parts[0] == "random"
                and parts[1] in _STDLIB_RANDOM_DRAWS):
            yield LintFinding(
                "unseeded-global-random", path, node.lineno,
                f"global stdlib RNG draw {name}(); use a seeded "
                f"random.Random(...) instance")


@register_lint_rule("wall-clock-call")
def _check_wall_clock(tree: ast.AST, path: str):
    """Clock reads must go through an injectable timer seam."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if len(parts) >= 2 and (parts[-2], parts[-1]) in _CLOCK_CALLS:
            yield LintFinding(
                "wall-clock-call", path, node.lineno,
                f"direct clock read {name}(); route it through an "
                f"injectable timer (pass the function, call the seam)")


@register_lint_rule("set-order-escape")
def _check_set_order(tree: ast.AST, path: str):
    """Unordered set iteration must not reach ordered output."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in ("tuple", "list") and \
                node.args and _is_set_expr(node.args[0]):
            yield LintFinding(
                "set-order-escape", path, node.lineno,
                f"{node.func.id}() over a set expression leaks arbitrary "
                f"iteration order; wrap it in sorted(...)")
        elif isinstance(node, ast.For) and _is_set_expr(node.iter):
            yield LintFinding(
                "set-order-escape", path, node.lineno,
                "for-loop over a set expression has arbitrary order; "
                "iterate sorted(...) instead")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            for comp in node.generators:
                if _is_set_expr(comp.iter):
                    yield LintFinding(
                        "set-order-escape", path, node.lineno,
                        "comprehension over a set expression has arbitrary "
                        "order; iterate sorted(...) instead")


# --------------------------------------------------------------------------- #
# Driver + ratchet baseline
# --------------------------------------------------------------------------- #
def lint_file(path: str, root: Optional[str] = None) -> List[LintFinding]:
    """All findings for one Python source file, in (line, rule) order."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    shown = os.path.relpath(path, root) if root else path
    findings: List[LintFinding] = []
    for checker in _RULES.values():
        findings.extend(checker(tree, shown))
    return sorted(findings, key=lambda f: (f.line, f.rule))


def lint_paths(paths: Sequence[str],
               root: Optional[str] = None) -> List[LintFinding]:
    """Lint files and directories (recursively, ``*.py`` only)."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                files.extend(os.path.join(dirpath, name)
                             for name in sorted(filenames)
                             if name.endswith(".py"))
        else:
            files.append(path)
    findings: List[LintFinding] = []
    for path in files:
        findings.extend(lint_file(path, root=root))
    return findings


def findings_by_bucket(findings: Iterable[LintFinding]) -> Dict[str, int]:
    """Ratchet buckets: ``"<rule>:<path>" -> count``."""
    buckets: Dict[str, int] = {}
    for finding in findings:
        key = f"{finding.rule}:{finding.path.replace(os.sep, '/')}"
        buckets[key] = buckets.get(key, 0) + 1
    return buckets


def compare_to_baseline(buckets: Dict[str, int],
                        baseline: Dict[str, int]) -> Tuple[List[str], List[str]]:
    """(regressions, improvements) relative to the committed baseline.

    A bucket above its baselined count is a regression — new debt is not
    allowed.  A bucket below it is an improvement the caller should fold
    into the baseline (``--update-baseline``) so the ratchet only turns
    one way.
    """
    regressions = []
    improvements = []
    for key in sorted(set(buckets) | set(baseline)):
        have, allowed = buckets.get(key, 0), baseline.get(key, 0)
        if have > allowed:
            regressions.append(f"{key}: {have} findings > {allowed} baselined")
        elif have < allowed:
            improvements.append(f"{key}: {have} findings < {allowed} "
                                f"baselined — ratchet the baseline down")
    return regressions, improvements


def load_baseline(path: str) -> Dict[str, int]:
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return {str(k): int(v) for k, v in json.load(handle).items()}


def write_baseline(path: str, buckets: Dict[str, int]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(buckets.items())), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Contract linter for the repro engine sources "
                    "(determinism / purity invariants, ratchet baseline).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--baseline", default=None,
                        help="ratchet baseline JSON "
                             "(default: tools/lint_baseline.json when it "
                             "exists relative to the working directory)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline to the current counts "
                             "(use after burning debt down)")
    parser.add_argument("--list", action="store_true", dest="list_all",
                        help="print every finding, baselined or not")
    args = parser.parse_args(argv)

    baseline_path = args.baseline or os.path.join("tools",
                                                  "lint_baseline.json")
    baseline = load_baseline(baseline_path)
    findings = lint_paths(args.paths or ["src"])
    buckets = findings_by_bucket(findings)

    if args.update_baseline:
        write_baseline(baseline_path, buckets)
        print(f"baseline updated: {baseline_path} "
              f"({sum(buckets.values())} findings in {len(buckets)} buckets)")
        return 0

    regressions, improvements = compare_to_baseline(buckets, baseline)
    if args.list_all:
        for finding in findings:
            print(finding.format())
    elif regressions:
        # Show the findings in regressed buckets so the offender is obvious.
        bad = {entry.split(": ", 1)[0] for entry in regressions}
        for finding in findings:
            key = f"{finding.rule}:{finding.path.replace(os.sep, '/')}"
            if key in bad:
                print(finding.format())
    for line in improvements:
        print(f"note: {line}")
    if regressions:
        print(f"\n{len(regressions)} bucket(s) above the ratchet baseline "
              f"({baseline_path}):")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"lint clean: {sum(buckets.values())} baselined finding(s), "
          f"0 above the ratchet ({len(findings)} total across "
          f"{len(_RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
