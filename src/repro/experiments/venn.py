"""Venn-style decomposition of coverage sets (Figures 7, 8 and 10).

Besides the generic set machinery, this module knows how to slice a matrix
campaign's per-cell provenance (:attr:`repro.core.fuzzer.CampaignResult.cells`)
into labelled bug sets — per compiler subset, per optimization level, per
shard or per individual cell — so one matrix campaign yields the paper's
per-backend Venn diagrams directly, without re-running anything.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Set, Tuple


def venn_regions(sets: Mapping[str, Iterable]) -> Dict[FrozenSet[str], int]:
    """Sizes of every exclusive region of the Venn diagram.

    Each element is assigned to the region keyed by the frozenset of set
    names containing it; the returned mapping gives the size of every
    non-empty region.
    """
    materialized: Dict[str, Set] = {name: set(values) for name, values in sets.items()}
    regions: Dict[FrozenSet[str], int] = {}
    universe: Set = set()
    for values in materialized.values():
        universe |= values
    for element in universe:
        members = frozenset(name for name, values in materialized.items()
                            if element in values)
        regions[members] = regions.get(members, 0) + 1
    return regions


def unique_counts(sets: Mapping[str, Iterable]) -> Dict[str, int]:
    """Per-set count of elements not covered by any other set.

    This is the paper's "unique coverage" metric (branches only one fuzzer
    reaches).
    """
    regions = venn_regions(sets)
    return {name: regions.get(frozenset({name}), 0) for name in sets}


def totals(sets: Mapping[str, Iterable]) -> Dict[str, int]:
    """Total size of each set (the parenthesised numbers in Figure 7)."""
    return {name: len(set(values)) for name, values in sets.items()}


def pairwise_overlap(sets: Mapping[str, Iterable]) -> Dict[Tuple[str, str], int]:
    """Size of the pairwise intersections (diagnostic, not in the paper)."""
    names = sorted(sets)
    materialized = {name: set(sets[name]) for name in names}
    overlaps: Dict[Tuple[str, str], int] = {}
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            overlaps[(first, second)] = len(materialized[first] & materialized[second])
    return overlaps


def campaign_cell_sets(result, by: str = "compiler_set",
                       what: str = "bugs") -> Dict[str, Set[str]]:
    """Group a matrix campaign's per-cell findings into labelled sets.

    ``by`` selects the grouping axis: ``"compiler_set"`` (the subset names
    joined with ``+``), ``"opt_level"`` (``O0``/``O2``/...), ``"generator"``
    (the cell's generation strategy — the paper's fuzzer-vs-fuzzer
    comparison), ``"oracle"`` (the cell's test oracle — which bug classes
    each oracle alone can see), ``"pipeline"`` (the cell's pass-pipeline
    token — which findings only a non-canonical pass ordering exposes),
    ``"shard"`` or ``"cell"`` (each cell its own set).
    ``what`` selects the elements: ``"bugs"`` (ground-truth seeded bug ids),
    ``"reports"`` (deduplicated report keys) or ``"coverage"`` (encoded
    branch arcs — populated by campaigns that trace coverage
    (``--coverage``), and empty otherwise; this is what turns one
    matrix campaign into the paper's per-fuzzer coverage Venn diagrams).
    The result feeds straight into :func:`venn_regions` /
    :func:`unique_counts` / :func:`format_venn_table`.
    """
    if by not in ("compiler_set", "opt_level", "generator", "oracle",
                  "pipeline", "shard", "cell"):
        raise ValueError(f"unknown grouping {by!r}")
    if what not in ("bugs", "reports", "coverage"):
        raise ValueError(f"unknown element kind {what!r}")
    groups: Dict[str, Set[str]] = {}
    for key, cell in result.cells.items():
        if by == "cell":
            label = key
        elif by == "compiler_set":
            label = "+".join(cell.compilers) if cell.compilers else "<default>"
        elif by == "opt_level":
            label = "O?" if cell.opt_level is None else f"O{cell.opt_level}"
        elif by == "generator":
            label = cell.generator if cell.generator else "<default>"
        elif by == "oracle":
            label = cell.oracle if cell.oracle else "<default>"
        elif by == "pipeline":
            label = cell.pipeline if cell.pipeline else "<default>"
        else:
            label = f"shard{cell.shard}"
        if what == "bugs":
            elements = cell.seeded_bugs_found
        elif what == "reports":
            elements = cell.report_keys
        else:
            elements = cell.coverage_arcs
        groups.setdefault(label, set()).update(elements)
    return groups


def campaign_venn(result, by: str = "compiler_set",
                  what: str = "bugs") -> Dict[FrozenSet[str], int]:
    """Exclusive Venn regions of a matrix campaign along one axis."""
    return venn_regions(campaign_cell_sets(result, by=by, what=what))


def format_venn_table(sets: Mapping[str, Iterable], title: str = "") -> str:
    """Human-readable text rendering of a Venn decomposition."""
    lines = []
    if title:
        lines.append(title)
    for name, total in totals(sets).items():
        lines.append(f"  {name:<14} total={total}")
    lines.append("  exclusive regions:")
    for members, count in sorted(venn_regions(sets).items(),
                                 key=lambda item: (len(item[0]), sorted(item[0]))):
        label = " & ".join(sorted(members))
        lines.append(f"    {label:<40} {count}")
    return "\n".join(lines)
