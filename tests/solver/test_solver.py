"""Tests for the constraint solver: expressions, constraints, search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnsatisfiableError
from repro.solver import (
    And,
    BinOp,
    Comparison,
    Const,
    Domain,
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
from repro.solver.constraints import TRUE
from repro.solver.interval import tighten


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


class TestDomains:
    def test_clamp_and_contains(self):
        domain = Domain(2, 10)
        assert domain.clamp(0) == 2
        assert domain.clamp(100) == 10
        assert domain.contains(5)
        assert not domain.contains(11)

    def test_candidates_small_domain_enumerates(self):
        assert Domain(1, 5).candidates() == [1, 2, 3, 4, 5]

    def test_candidates_large_domain_includes_bounds(self):
        candidates = Domain(1, 100000).candidates()
        assert 1 in candidates and 100000 in candidates
        assert len(candidates) < 1000

    def test_tighten(self):
        domains = {"a": Domain(1, 100), "b": Domain(1, 100)}
        tighten(domains, [SymVar("a") <= Const(10), Const(5) <= SymVar("b"),
                          SymVar("a") > Const(2)])
        assert domains["a"].low == 3 and domains["a"].high == 10
        assert domains["b"].low == 5


class TestSolver:
    def test_simple_satisfiable(self):
        model = solve([SymVar("a") + SymVar("b") == 10, SymVar("a") > SymVar("b")],
                      seed=0, bounds={"a": (1, 20), "b": (1, 20)})
        assert model["a"] + model["b"] == 10
        assert model["a"] > model["b"]

    def test_unsatisfiable_raises(self):
        with pytest.raises(UnsatisfiableError):
            solve([SymVar("a") > 5, SymVar("a") < 3], seed=0, bounds={"a": (1, 10)})

    def test_product_equality(self):
        model = solve([product([SymVar("x"), SymVar("y"), SymVar("z")]) == 7688],
                      seed=0, bounds={k: (1, 128) for k in "xyz"})
        assert model["x"] * model["y"] * model["z"] == 7688

    def test_disjunction_broadcast_style(self):
        a, b = SymVar("a"), SymVar("b")
        model = solve([Or([a == b, a == 1, b == 1]), b == 7, a > 2],
                      seed=0, bounds={"a": (1, 16), "b": (1, 16)})
        assert model["b"] == 7 and model["a"] == 7

    def test_incremental_rejection_keeps_state(self):
        solver = Solver(seed=0)
        a = solver.int_var("a", 1, 10)
        assert solver.try_add_constraints([a >= 4])
        before = solver.model()["a"]
        assert not solver.try_add_constraints([a > 100])
        assert solver.model()["a"] == before
        assert len(solver.constraints) == 1

    def test_push_pop(self):
        solver = Solver(seed=0)
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
        solver = Solver(seed=0)
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
        solver = Solver(seed=0)
        dims = [solver.int_var(f"d{i}", 1, 64) for i in range(4)]
        assert solver.try_add_constraints([d >= 1 for d in dims])
        assert all(solver.model()[f"d{i}"] == 1 for i in range(4))

    def test_phase_saving_incremental_speed(self):
        solver = Solver(seed=0)
        variables = [solver.int_var(f"v{i}", 1, 32) for i in range(20)]
        for i in range(19):
            assert solver.try_add_constraints([variables[i + 1] >= variables[i]])
        nodes_before = solver.stats["nodes"]
        assert solver.try_add_constraints([variables[0] <= 30])
        assert solver.stats["nodes"] - nodes_before < 5000

    def test_conv_style_constraints(self):
        solver = Solver(seed=3)
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
        solver = Solver(seed=0, max_nodes=10)
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
            model = solve(constraints, seed=1, bounds={"a": (1, 300), "b": (1, 300)})
        except UnsatisfiableError:
            assert not solvable
        else:
            assert model["a"] + model["b"] == total
            assert model["a"] - model["b"] == delta

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=4))
    def test_model_always_satisfies_constraints(self, values):
        """Whatever model the solver returns must satisfy every constraint."""
        solver = Solver(seed=0)
        names = [f"x{i}" for i in range(len(values))]
        variables = [solver.int_var(name, 1, 100) for name in names]
        constraints = [var >= value for var, value in zip(variables, values)]
        constraints.append(sum(variables[1:], variables[0]) <= 500)
        assert solver.try_add_constraints(constraints)
        model = solver.model()
        for constraint in solver.constraints:
            assert constraint.satisfied(model)
