"""A small incremental constraint solver over bounded integers (Z3 stand-in)."""

from repro.solver.constraints import And, Comparison, Constraint, Not, Or, conjunction
from repro.solver.expr import BinOp, Const, Expr, SymVar, product, sym_max, sym_min, to_expr
from repro.solver.interval import DEFAULT_MAX, DEFAULT_MIN
from repro.solver.solver import Solver, solve

__all__ = [
    "And",
    "BinOp",
    "Comparison",
    "Const",
    "Constraint",
    "DEFAULT_MAX",
    "DEFAULT_MIN",
    "Expr",
    "Not",
    "Or",
    "Solver",
    "SymVar",
    "conjunction",
    "product",
    "solve",
    "sym_max",
    "sym_min",
    "to_expr",
]
