"""Tests for the constraint solver: expressions, constraints, search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnsatisfiableError
from repro.solver import (
    And,
    BinOp,
    Comparison,
    Const,
    Not,
    Or,
    Solver,
    SymVar,
    conjunction,
    product,
    solve,
    sym_max,
    sym_min,
    to_expr,
)
from repro.core.binning import _BINNING_SOLVER_BUDGET
from repro.solver.constraints import TRUE
from repro.solver.interval import _HULL, _PROJECT, _TARGETS, propagate


# --------------------------------------------------------------------------- #
# A recursive reference evaluator: the semantics the compiled closures keep.
# --------------------------------------------------------------------------- #
def reference_value(expr, assignment):
    if isinstance(expr, SymVar):
        return int(assignment[expr.name])
    if isinstance(expr, Const):
        return expr.value
    a, b = reference_value(expr.lhs, assignment), reference_value(expr.rhs, assignment)
    if expr.op == "+":
        return a + b
    if expr.op == "-":
        return a - b
    if expr.op == "*":
        return a * b
    if expr.op in ("//", "%") and b == 0:
        return 1 << 62  # the zero-divisor sentinel
    if expr.op == "//":
        return a // b
    if expr.op == "%":
        return a % b
    return min(a, b) if expr.op == "min" else max(a, b)


def reference_truth(constraint, assignment):
    if isinstance(constraint, Comparison):
        a = reference_value(constraint.lhs, assignment)
        b = reference_value(constraint.rhs, assignment)
        return {"==": a == b, "!=": a != b, "<=": a <= b,
                "<": a < b, ">=": a >= b, ">": a > b}[constraint.op]
    if isinstance(constraint, And):
        return all(reference_truth(part, assignment) for part in constraint.parts)
    if isinstance(constraint, Or):
        return any(reference_truth(part, assignment) for part in constraint.parts)
    return not reference_truth(constraint.inner, assignment)


# --------------------------------------------------------------------------- #
# The tree walk the compiled revisers replaced: the narrowing they keep.
# --------------------------------------------------------------------------- #
def reference_hull(expr, box):
    """``(low, high, operand hulls or None)``, bottom-up from the box."""
    if isinstance(expr, SymVar):
        return (*box[expr.name], None)
    if isinstance(expr, Const):
        return expr.value, expr.value, None
    lhs, rhs = reference_hull(expr.lhs, box), reference_hull(expr.rhs, box)
    low, high = _HULL[expr.op](lhs[0], lhs[1], rhs[0], rhs[1])
    return low, high, (lhs, rhs)


def reference_narrow(expr, lo, hi, hull, box, changed):
    """Confine ``expr`` to ``[lo, hi]`` through its (stale) hull."""
    if isinstance(expr, SymVar):
        low, high = box[expr.name]
        if lo <= low and high <= hi:
            return True
        low, high = max(lo, low), min(hi, high)
        if low > high:
            return False
        box[expr.name] = (low, high)
        changed.append(expr.name)
        return True
    low, high, operands = hull
    if lo <= low and high <= hi:
        return True
    low, high = max(lo, low), min(hi, high)
    if low > high or operands is None:
        return low <= high
    (al, ah, _), (bl, bh, _) = operands
    into_lhs, into_rhs = _PROJECT[expr.op](low, high, al, ah, bl, bh)
    return (reference_narrow(expr.lhs, *into_lhs, operands[0], box, changed) and
            reference_narrow(expr.rhs, *into_rhs, operands[1], box, changed))


def reference_revise(constraint, box, changed):
    if isinstance(constraint, Comparison):
        lhs, rhs = reference_hull(constraint.lhs, box), reference_hull(constraint.rhs, box)
        targets = _TARGETS[constraint.op](lhs[0], lhs[1], rhs[0], rhs[1])
        return targets is not None and (
            reference_narrow(constraint.lhs, *targets[0], lhs, box, changed) and
            reference_narrow(constraint.rhs, *targets[1], rhs, box, changed))
    if isinstance(constraint, And):
        return all(reference_revise(part, box, changed) for part in constraint.parts)
    if isinstance(constraint, Or):
        live = [part for part in constraint.parts if reference_feasible(part, box)]
        return len(live) > 1 or (len(live) == 1 and reference_revise(live[0], box, changed))
    names = constraint.variables()  # a Not: checked once every variable is fixed
    return (any(box[name][0] < box[name][1] for name in names) or
            reference_truth(constraint, {name: box[name][0] for name in names}))


def reference_feasible(constraint, box):
    """Whether propagating ``constraint`` alone leaves ``box`` non-empty."""
    scratch = {name: box[name] for name in constraint.variables()}
    return reference_propagate(scratch, [constraint], dict.fromkeys(scratch, [0]), [0], [])


def reference_propagate(box, constraints, watchers, queue, revised):
    """:func:`propagate` over the tree walk, appending each revised index."""
    queue = list(dict.fromkeys(queue))
    queued = set(queue)
    changed = []
    for index in queue:
        queued.discard(index)
        revised.append(index)
        if not reference_revise(constraints[index], box, changed):
            return False
        for name in changed:
            for watcher in watchers[name]:
                if watcher not in queued:
                    queued.add(watcher)
                    queue.append(watcher)
        changed.clear()
    return True


class RecordingList(list):
    """The constraints of a propagation, recording each index it revises."""

    def __init__(self, items):
        super().__init__(items)
        self.revised = []

    def __getitem__(self, index):
        self.revised.append(index)
        return super().__getitem__(index)


def leaf_variables(node):
    if isinstance(node, SymVar):
        return {node.name}
    if isinstance(node, Const):
        return set()
    if isinstance(node, (BinOp, Comparison)):
        return leaf_variables(node.lhs) | leaf_variables(node.rhs)
    if isinstance(node, Not):
        return leaf_variables(node.inner)
    return set().union(*(leaf_variables(part) for part in node.parts))


_NAMES = ("a", "b", "c", "d")
_leaves = st.one_of(st.sampled_from(_NAMES).map(SymVar),
                    st.integers(min_value=-4, max_value=8).map(Const))
expressions = st.recursive(_leaves, lambda children: st.builds(
    BinOp, st.sampled_from(["+", "-", "*", "//", "%", "min", "max"]), children, children),
    max_leaves=8)
_comparisons = st.builds(Comparison, st.sampled_from(["==", "!=", "<=", "<", ">=", ">"]),
                         expressions, expressions)
constraint_trees = st.recursive(st.one_of(_comparisons, st.just(TRUE)), lambda children: st.one_of(
    st.lists(children, max_size=3).map(And),
    st.lists(children, max_size=3).map(Or),
    children.map(Not)), max_leaves=6)
# Comparisons of leaves, alone and in disjunctions like broadcasting's
# ``a == b | a == 1 | b == 1``: the forms with direct revisers.
_leaf_comparisons = st.builds(Comparison, st.sampled_from(["==", "!=", "<=", "<", ">=", ">"]),
                              _leaves, _leaves)
propagated_constraints = st.one_of(
    constraint_trees, _leaf_comparisons,
    st.lists(_leaf_comparisons, min_size=2, max_size=3).map(Or))
# Pad variables range over [-4, 8], so zero divisors and negatives occur.
assignments = st.fixed_dictionaries(
    {name: st.integers(min_value=-4, max_value=8) for name in _NAMES})


class TestExpressions:
    def test_evaluation(self):
        a, b = SymVar("a"), SymVar("b")
        expr = (a + 2) * b - a // 2
        assert expr.evaluate({"a": 4, "b": 3}) == 16

    def test_mod_and_min_max(self):
        a = SymVar("a")
        assert (a % 3).evaluate({"a": 7}) == 1
        assert sym_min(a, 5).evaluate({"a": 7}) == 5
        assert sym_max(a, 5).evaluate({"a": 7}) == 7

    def test_division_by_zero_is_sentinel(self):
        a = SymVar("a")
        value = (Const(10) // a).evaluate({"a": 0})
        assert value > 1 << 60

    def test_product(self):
        dims = [SymVar("x"), SymVar("y"), Const(2)]
        assert product(dims).evaluate({"x": 3, "y": 4}) == 24
        assert product([]).evaluate({}) == 1

    def test_variables(self):
        expr = SymVar("a") * 3 + SymVar("b")
        assert expr.variables() == frozenset({"a", "b"})

    def test_to_expr_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            to_expr(True)
        with pytest.raises(TypeError):
            to_expr(1.5)

    def test_missing_assignment(self):
        with pytest.raises(KeyError, match="no value assigned"):
            SymVar("zzz").evaluate({})
        with pytest.raises(KeyError, match="no value assigned"):
            (SymVar("a") <= SymVar("zzz")).satisfied({"a": 1})

    def test_repr_roundtrip_like(self):
        expr = (SymVar("a") + 1) * SymVar("b")
        assert "a" in repr(expr) and "b" in repr(expr)

    @settings(max_examples=200, deadline=None)
    @given(expressions, assignments)
    def test_compiled_evaluation_matches_reference(self, expr, assignment):
        expected = reference_value(expr, assignment)
        for _ in range(2):  # compiles on the first call, reuses the memo after
            value = expr.evaluate(assignment)
            assert value == expected and type(value) is int
        assert expr.variables() == leaf_variables(expr)


class TestConstraints:
    def test_comparison_truth(self):
        a = SymVar("a")
        assert (a >= 3).satisfied({"a": 3})
        assert not (a > 3).satisfied({"a": 3})
        assert (a != 4).satisfied({"a": 3})

    def test_comparison_has_no_bool(self):
        with pytest.raises(TypeError):
            bool(SymVar("a") == 3)

    def test_and_or_not(self):
        a, b = SymVar("a"), SymVar("b")
        both = And([a > 0, b > 0])
        either = Or([a > 5, b > 5])
        negated = Not(a == b)
        assign = {"a": 1, "b": 6}
        assert both.satisfied(assign)
        assert either.satisfied(assign)
        assert negated.satisfied(assign)

    def test_operator_composition(self):
        a = SymVar("a")
        combined = (a > 0) & (a < 5) | (a == 10)
        assert combined.satisfied({"a": 10})
        assert combined.satisfied({"a": 3})
        assert not combined.satisfied({"a": 7})

    def test_conjunction_empty_is_true(self):
        assert conjunction([]).satisfied({})

    @settings(max_examples=200, deadline=None)
    @given(constraint_trees, assignments)
    def test_compiled_predicate_matches_reference(self, constraint, assignment):
        expected = reference_truth(constraint, assignment)
        for _ in range(2):
            truth = constraint.satisfied(assignment)
            assert truth == expected and type(truth) is bool
        assert constraint.variables() == leaf_variables(constraint)


def propagated(bounds, constraints):
    """The box ``bounds`` narrowed by ``constraints``, or None when it empties."""
    box = dict(bounds)
    watchers = {name: [i for i, c in enumerate(constraints) if name in c.variables()]
                for name in box}
    return box if propagate(box, constraints, watchers, range(len(constraints))) else None


@pytest.mark.smoke
class TestPropagation:
    def test_bounds_narrow(self):
        box = propagated({"a": (1, 100), "b": (1, 100)},
                         [SymVar("a") <= Const(10), Const(5) <= SymVar("b"),
                          SymVar("a") > Const(2)])
        assert box == {"a": (3, 10), "b": (5, 100)}

    def test_arithmetic_projects_onto_operands(self):
        a, b, c = SymVar("a"), SymVar("b"), SymVar("c")
        box = propagated({"a": (1, 64), "b": (1, 64), "c": (1, 64)},
                         [a * b == 42, b >= 7, c // 4 >= 10, sym_max(a, c) <= 50])
        assert box == {"a": (1, 6), "b": (7, 42), "c": (40, 50)}

    def test_or_propagates_its_last_live_disjunct(self):
        a, b = SymVar("a"), SymVar("b")
        broadcast = Or([a == b, a == 1, b == 1])
        assert propagated({"a": (2, 64), "b": (3, 5)}, [broadcast]) == \
            {"a": (3, 5), "b": (3, 5)}
        assert propagated({"a": (2, 64), "b": (1, 5)}, [broadcast]) == \
            {"a": (2, 64), "b": (1, 5)}

    def test_empty_interval_refutes(self):
        x, y = SymVar("x"), SymVar("y")
        assert propagated({"x": (1, 64), "y": (1, 64)}, [x == y, x <= 8, y >= 9]) is None

    @settings(max_examples=400, deadline=None)
    @given(st.lists(propagated_constraints, min_size=1, max_size=4), st.fixed_dictionaries(
        {name: st.tuples(st.integers(-6, 8), st.integers(-6, 8)) for name in _NAMES}),
        st.integers(0, 3))
    def test_compiled_revisers_match_the_tree_walk(self, constraints, ends, start):
        """The compiled revisers narrow like the tree walk they replaced: the
        same verdict, the same box (a rejected one too) and the same order of
        revisions.  The boxes hold negative and zero-straddling intervals, so
        ``//`` and ``%`` meet zero divisors, and ``x == x`` or ``x * x``
        repeat a variable whose interval narrows mid-revision.  As in the
        solver, only the constraints from ``start`` on are queued at first,
        so the order in which a revision narrows names orders the queue."""
        box = {name: (min(ends[name]), max(ends[name])) for name in _NAMES}
        watchers = {name: [i for i, c in enumerate(constraints) if name in c.variables()]
                    for name in box}
        queue = range(min(start, len(constraints) - 1), len(constraints))
        expected_box, expected_order = dict(box), []
        expected = reference_propagate(expected_box, constraints, watchers, queue,
                                       expected_order)
        for _ in range(2):  # compiles on the first propagation, reuses it after
            recording, compiled_box = RecordingList(constraints), dict(box)
            verdict = propagate(compiled_box, recording, watchers, queue)
            assert (verdict, compiled_box, recording.revised) == \
                (expected, expected_box, expected_order)

    def test_narrowed_names_queue_their_watchers_in_order(self):
        """``a == b`` narrows a, then b: a's watchers are revised first."""
        a, b = SymVar("a"), SymVar("b")
        constraints = RecordingList([a <= 6, b >= 2, a == b])
        box = {"a": (1, 8), "b": (3, 10)}
        assert propagate(box, constraints, {"a": [0, 2], "b": [1, 2]}, [2])
        assert box == {"a": (3, 6), "b": (3, 6)}
        assert constraints.revised == [2, 0, 2, 1, 0, 2]

    def test_a_disjunct_that_shrinks_forever_is_propagated(self):
        """``a < a`` narrows a on every revision until it empties, so the Or
        decides it by propagation, not by one revision, and ``a == 5`` is
        its one live disjunct."""
        a = SymVar("a")
        assert propagated({"a": (1, 8)}, [Or([a < a, a == 5])]) == {"a": (5, 5)}

    @settings(max_examples=300, deadline=None)
    @given(constraint_trees, assignments, st.fixed_dictionaries(
        {name: st.tuples(st.integers(0, 5), st.integers(0, 5)) for name in _NAMES}))
    def test_propagation_never_loses_a_model(self, constraint, assignment, slack):
        """Any model inside the box stays inside it (including zero divisors)."""
        box = {name: (value - slack[name][0], value + slack[name][1])
               for name, value in assignment.items()}
        if reference_truth(constraint, assignment):
            narrowed = propagated(box, [constraint])
            assert narrowed is not None
            assert all(low <= assignment[name] <= high
                       for name, (low, high) in narrowed.items())


class TestSolver:
    def test_simple_satisfiable(self):
        model = solve([SymVar("a") + SymVar("b") == 10, SymVar("a") > SymVar("b")], bounds={"a": (1, 20), "b": (1, 20)})
        assert model["a"] + model["b"] == 10
        assert model["a"] > model["b"]

    def test_unsatisfiable_raises(self):
        with pytest.raises(UnsatisfiableError):
            solve([SymVar("a") > 5, SymVar("a") < 3], bounds={"a": (1, 10)})

    def test_product_equality(self):
        model = solve([product([SymVar("x"), SymVar("y"), SymVar("z")]) == 7688], bounds={k: (1, 128) for k in "xyz"})
        assert model["x"] * model["y"] * model["z"] == 7688

    def test_disjunction_broadcast_style(self):
        a, b = SymVar("a"), SymVar("b")
        model = solve([Or([a == b, a == 1, b == 1]), b == 7, a > 2], bounds={"a": (1, 16), "b": (1, 16)})
        assert model["b"] == 7 and model["a"] == 7

    def test_incremental_rejection_keeps_state(self):
        solver = Solver()
        a = solver.int_var("a", 1, 10)
        assert solver.try_add_constraints([a >= 4])
        before = solver.model()["a"]
        assert not solver.try_add_constraints([a > 100])
        assert solver.model()["a"] == before
        assert len(solver.constraints) == 1

    def test_push_pop(self):
        solver = Solver()
        a = solver.int_var("a", 1, 10)
        solver.add([a >= 2])
        solver.push()
        solver.add([a >= 9])
        assert solver.check()
        assert solver.model()["a"] >= 9
        solver.pop()
        assert len(solver.constraints) == 1

    def test_numpy_bounds_give_python_int_models(self):
        """Bounds are coerced on entry: dimension arithmetic on numpy
        integers wraps silently on overflow (``np.int64(4096) ** 6 == 0``)."""
        solver = Solver()
        x = solver.int_var("x", np.int64(1), np.int64(8))
        solver.int_var("y", np.int32(2), np.int64(6))
        solver.int_var("y", np.int64(3), np.int64(5))  # re-scoped
        assert all(type(value) is int for value in solver.model().values())
        assert solver.try_add_constraints([x >= 2])
        assert all(type(value) is int for value in solver.model().values())

    def test_pop_without_push(self):
        with pytest.raises(UnsatisfiableError):
            Solver().pop()

    def test_boundary_values_without_binning(self):
        """The motivation for attribute binning: free vars sit at the boundary."""
        solver = Solver()
        dims = [solver.int_var(f"d{i}", 1, 64) for i in range(4)]
        assert solver.try_add_constraints([d >= 1 for d in dims])
        assert all(solver.model()[f"d{i}"] == 1 for i in range(4))

    def test_phase_saving_incremental_speed(self):
        solver = Solver()
        variables = [solver.int_var(f"v{i}", 1, 32) for i in range(20)]
        for i in range(19):
            assert solver.try_add_constraints([variables[i + 1] >= variables[i]])
        nodes_before = solver.stats["nodes"]
        assert solver.try_add_constraints([variables[0] <= 30])
        assert solver.stats["nodes"] - nodes_before < 5000

    def test_conv_style_constraints(self):
        solver = Solver()
        h = solver.int_var("h", 1, 64)
        kh = solver.int_var("kh", 1, 8)
        stride = solver.int_var("s", 1, 4)
        pad = solver.int_var("p", 0, 4)
        out = (h - kh + 2 * pad) // stride + 1
        assert solver.try_add_constraints([kh <= h + 2 * pad, out >= 1, out <= 64])
        model = solver.model()
        out_value = (model["h"] - model["kh"] + 2 * model["p"]) // model["s"] + 1
        assert 1 <= out_value <= 64

    def test_budget_override(self):
        solver = Solver(max_nodes=10)
        a = solver.int_var("a", 1, 1 << 20)
        b = solver.int_var("b", 1, 1 << 20)
        # Hard instance with a tiny default budget, generous explicit budget.
        assert solver.try_add_constraints([a * b == 1 << 18, a > 1, b > 1],
                                          budget=200_000)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=60))
    def test_random_linear_systems(self, total, delta):
        """a + b == total and a - b == delta has a model iff parity/range allow."""
        a, b = SymVar("a"), SymVar("b")
        constraints = [a + b == total, a - b == delta]
        solvable = (total + delta) % 2 == 0 and total >= delta and (total - delta) >= 2
        try:
            model = solve(constraints, bounds={"a": (1, 300), "b": (1, 300)})
        except UnsatisfiableError:
            assert not solvable
        else:
            assert model["a"] + model["b"] == total
            assert model["a"] - model["b"] == delta

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=4))
    def test_model_always_satisfies_constraints(self, values):
        """Whatever model the solver returns must satisfy every constraint."""
        solver = Solver()
        names = [f"x{i}" for i in range(len(values))]
        variables = [solver.int_var(name, 1, 100) for name in names]
        constraints = [var >= value for var, value in zip(variables, values)]
        constraints.append(sum(variables[1:], variables[0]) <= 500)
        assert solver.try_add_constraints(constraints)
        model = solver.model()
        for constraint in solver.constraints:
            assert constraint.satisfied(model)


@pytest.mark.smoke
class TestPropagatingSearch:
    def test_wide_domains_are_searched_completely(self):
        """129 is no round number: the search bisects [1, 300] to reach it."""
        a, b = SymVar("a"), SymVar("b")
        model = solve([a + b == 198, a - b == 60], bounds={"a": (1, 300), "b": (1, 300)})
        assert (model["a"], model["b"]) == (129, 69)

    def test_product_chain_bin_is_found(self):
        """A Reshape-style product chain, accepted at all ones, then a bin
        pushing one target dimension into [42, 52]."""
        solver = Solver()
        chains = [[solver.int_var(f"c_{k}{i}", 1, 64) for i in range(4)] for k in range(4)]
        r5 = [solver.int_var(f"r5_{i}", 1, 64) for i in range(3)]
        r6 = [solver.int_var(f"r6_{i}", 1, 64) for i in range(2)]
        constraints = [chain[i] == chain[i + 1] for chain in chains for i in range(3)]
        constraints.append(product(r5) == product(chain[0] for chain in chains))
        constraints.append(product(r6) == product(r5))
        assert solver.try_add_constraints(constraints)
        assert set(solver.model().values()) == {1}
        assert solver.try_add_constraints([r6[0] >= 42, r6[0] <= 52],
                                          budget=_BINNING_SOLVER_BUDGET)
        model = solver.model()
        assert 42 <= model["r6_0"] <= 52
        assert all(constraint.satisfied(model) for constraint in solver.constraints)

    def test_refutation_takes_no_search(self):
        solver = Solver()
        x, y = solver.int_var("x", 1, 64), solver.int_var("y", 1, 64)
        assert solver.try_add_constraints([x == y, x <= 8])
        nodes = solver.stats["nodes"]
        assert not solver.try_add_constraints([y >= 9])
        assert solver.stats["refuted"] == solver.stats["rejected"] == 1
        assert solver.stats["nodes"] == nodes
        assert len(solver.constraints) == 2

    def test_an_empty_declared_domain_is_refuted(self):
        """The hull rules divide by interval ends (``10 // a`` with a in
        [1, 0] would divide by zero), so a query over an empty declared
        domain is refuted before it propagates: declared empty, emptied by a
        re-declaration, or declared after the last model."""
        solver = Solver()
        a = solver.int_var("a", 1, 0)
        solver.add([a == 1, Const(10) // a == 1])
        assert not solver.check()
        with pytest.raises(UnsatisfiableError, match="^constraint system is unsatisfiable$"):
            solver.model()

        for name in ("b", "c"):  # b re-declared empty, c declared after the last model
            solver = Solver()
            b = solver.int_var("b", 1, 4)
            assert solver.try_add_constraints([b <= 3])
            empty = solver.int_var(name, 1, 0)
            assert not solver.try_add_constraints([Const(10) // empty <= 5])
            assert solver.stats["refuted"] == solver.stats["rejected"] == 1

    def test_giving_up_is_not_a_refutation(self):
        solver = Solver()
        pigeons = [solver.int_var(f"x{i}", 1, 5) for i in range(6)]
        distinct = [a != b for i, a in enumerate(pigeons) for b in pigeons[i + 1:]]
        assert not solver.try_add_constraints(distinct, budget=5)
        assert solver.stats == {"checks": 1, "nodes": 5, "rejected": 1, "refuted": 0}

    def test_a_model_beyond_the_node_budget_is_not_called_unsatisfiable(self):
        x, y, z = SymVar("x"), SymVar("y"), SymVar("z")
        system = [x % 7 == 3, y % 5 == 2, (x + y) % 11 == 4, z * 3 == x + y]
        solver = Solver(max_nodes=3)
        solver.add(system)
        with pytest.raises(UnsatisfiableError, match="node budget of 3") as gave_up:
            solver.model()
        assert "unsatisfiable" not in str(gave_up.value)
        assert solver.stats["nodes"] == 3
        assert solve(system) == {"x": 3, "y": 12, "z": 5}
        with pytest.raises(UnsatisfiableError, match="^constraint system is unsatisfiable$"):
            solve(system + [z >= 6, x + y <= 17])


@pytest.mark.smoke
class TestIncrementalCheck:
    """``_solve`` evaluates only what the saved model can break; a model it
    accepts must satisfy every constraint, or ``model()`` solves again."""

    @staticmethod
    def assert_model_holds(solver):
        checks = solver.stats["checks"]
        model = solver.model()
        assert solver.stats["checks"] == checks
        assert all(constraint.satisfied(model) for constraint in solver.constraints)

    def test_a_constraint_at_an_index_pop_freed_is_checked(self):
        """``x % 2 == 0`` narrows nothing, so only the check sees that the
        saved x = 3 breaks it: the mark must fall back to the popped index."""
        solver = Solver()
        x = solver.int_var("x", 1, 10)
        solver.add([x >= 3])
        solver.push()
        solver.add([x <= 9])
        assert solver.check() and solver.model()["x"] == 3
        solver.pop()
        solver.add([x % 2 == 0])
        assert solver.check()
        self.assert_model_holds(solver)
        assert solver.model()["x"] == 4

    def test_a_redeclared_variable_rechecks_its_sums(self):
        """Re-declaring y below its saved value moves y, and so re-checks
        the sum it appears in, though the sum is older than the mark."""
        solver = Solver()
        x, y = solver.int_var("x", 1, 10), solver.int_var("y", 1, 10)
        assert solver.try_add_constraints([x + y >= 12])
        assert solver.model() == {"x": 2, "y": 10}
        solver.int_var("y", 1, 8)
        assert solver.check()
        self.assert_model_holds(solver)
        assert solver.model()["y"] <= 8

    def test_a_redeclared_domain_invalidates_the_saved_model(self):
        """``model()`` without a check between: the saved y = 10 satisfies
        every constraint but lies outside y's new domain, so it solves
        again instead of returning it."""
        solver = Solver()
        x, y = solver.int_var("x", 1, 10), solver.int_var("y", 1, 10)
        assert solver.try_add_constraints([x + y >= 12])
        assert solver.model() == {"x": 2, "y": 10}
        solver.int_var("y", 1, 8)
        model = solver.model()
        assert 1 <= model["y"] <= 8 and model["x"] + model["y"] >= 12
        self.assert_model_holds(solver)
        solver.int_var("x", 1, 3)
        with pytest.raises(UnsatisfiableError, match="unsatisfiable"):
            solver.model()

    def test_without_phase_saving(self):
        solver = Solver(phase_saving=False)
        x, y, z = (solver.int_var(name, 1, 20) for name in "xyz")
        for constraints in ([x + y >= 9], [y * 2 <= x + z], [x % 3 == 2, z >= y + 4],
                            [x <= 8]):
            assert solver.try_add_constraints(constraints)
            self.assert_model_holds(solver)

    @settings(max_examples=150, deadline=None)
    @given(constraint_trees)
    def test_search_is_complete_on_small_boxes(self, constraint):
        """A model exists in the box iff the solver finds one (brute force)."""
        exists = any(reference_truth(constraint, dict(zip(_NAMES, values)))
                     for values in itertools.product(range(-2, 4), repeat=len(_NAMES)))
        try:
            model = solve([constraint], bounds={name: (-2, 3) for name in _NAMES})
        except UnsatisfiableError:
            assert not exists
        else:
            assert reference_truth(constraint, model)
