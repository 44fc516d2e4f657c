"""Attribute binning: Algorithm 2 of the paper.

SMT solvers (and the repo's propagating solver alike) return boundary values
for under-constrained integers — typically 1 for every free dimension and
attribute — which collapses attribute diversity.  Binning adds extra
constraints that push each attribute into a randomly chosen exponential
range ``[2^(i-1), 2^i)``.  In the paper, half of the binning constraints are
dropped at random whenever the combined system becomes unsatisfiable; here
each attribute's bin is offered to the solver on its own under a small node
budget and dropped when the solver rejects it.  Bounds propagation refutes
almost every infeasible bin without search, so a dropped bin is nearly
always one that has no model.

Operator specifications may contribute *specialized* bins (``C*`` in the
paper) via :meth:`AbsOpBase.bin_hints` — e.g. a dedicated ``{0}`` bin for
convolution padding or negative bins for cropping pads.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.generator import SymbolicGraph
from repro.solver.constraints import Constraint
from repro.solver.expr import SymVar

Bin = Tuple[int, Optional[int]]


def sample_from_bin(index: int, k: int, rng: random.Random) -> Tuple[int, Optional[int]]:
    """Sample an integer sub-range ``[l, r]`` from the ``index``-th bin.

    Bins follow the paper: bin ``i`` (1-based) spans ``[2^(i-1), 2^i)`` and
    the last bin is unbounded above.
    """
    if index != k:
        low_exp, high_exp = index - 1, index
        a = rng.uniform(low_exp, high_exp)
        b = rng.uniform(low_exp, high_exp)
        bottom, top = sorted((a, b))
        return int(2 ** bottom), int(2 ** top)
    return 2 ** (k - 1), None


def binning_constraints_for(var_name: str, rng: random.Random, k: int,
                            hints: Optional[List[Bin]] = None) -> List[Constraint]:
    """Constraints limiting one variable to a randomly chosen bin."""
    var = SymVar(var_name)
    candidate_bins: List[Bin] = []
    for index in range(1, k + 1):
        candidate_bins.append(sample_from_bin(index, k, rng))
    if hints:
        candidate_bins.extend(hints)
    low, high = rng.choice(candidate_bins)
    constraints: List[Constraint] = [var >= low]
    if high is not None:
        constraints.append(var <= high)
    return constraints


#: Branching decisions an incremental binning query may take.  Propagation
#: refutes most infeasible bins before any decision, and a rejection only
#: means the attribute keeps its boundary value, so giving up early is fine.
_BINNING_SOLVER_BUDGET = 4000


def apply_attribute_binning(graph: SymbolicGraph, rng: random.Random,
                            k: int = 7) -> List[Constraint]:
    """Apply Algorithm 2 to a freshly generated symbolic graph.

    Algorithm 2 adds the binning constraints in bulk and drops a random half
    on failure.  Here they are offered variable by variable, in random
    order, each with the small budget ``_BINNING_SOLVER_BUDGET``: a bin is
    asserted when the solver finds a model of the combined system and
    dropped when it refutes the bin or gives up (``Solver.stats`` tells the
    two apart).  This keeps every individual solver query cheap.

    Returns the binning constraints that were accepted.
    """
    per_variable: List[List[Constraint]] = []

    # Operator attributes (with per-spec specializations).
    attr_owners = graph.symbolic_attr_vars()
    for var_name, spec in attr_owners.items():
        hints = spec.bin_hints().get(var_name)
        per_variable.append(binning_constraints_for(var_name, rng, k, hints))

    # Placeholder shapes are treated as attributes too (Algorithm 2, line 9).
    for var_name in graph.dimension_vars():
        per_variable.append(binning_constraints_for(var_name, rng, k))

    rng.shuffle(per_variable)
    accepted: List[Constraint] = []
    for constraints in per_variable:
        if graph.solver.try_add_constraints(constraints,
                                            budget=_BINNING_SOLVER_BUDGET):
            accepted.extend(constraints)
    return accepted
