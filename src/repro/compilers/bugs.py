"""Seeded-bug registry for the compilers under test.

The original paper evaluates NNSmith by the real-world bugs it finds in TVM,
ONNXRuntime, TensorRT and the PyTorch exporter (Table 3, §5.4).  Since this
reproduction builds its own compilers, the ground-truth bug population is
*seeded*: each optimization pass / importer contains deliberately buggy code
paths, guarded by this registry, whose trigger conditions mirror the bug
patterns reported in the paper (wrong expression simplification, layout
analysis over non-shape-preserving operators, int32/int64 mismatches, scalar
handling, broadcasting, dtype mishandling, ...).

Every bug carries the *generator features* required to trigger it, which the
bug-study experiment uses for the paper's reachability analysis ("49 of 72
bugs cannot be triggered by LEMON's or GraphFuzzer's designs").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

# Feature labels describing what a model generator must be able to produce.
FEATURE_MULTI_OP = "multi_op"                    # graphs with several operators
FEATURE_NON_SHAPE_PRESERVING = "non_shape_preserving"
FEATURE_BROADCAST = "broadcast"                  # mismatched-but-broadcastable shapes
FEATURE_ATTR_DIVERSITY = "attr_diversity"        # non-default attributes (stride>1, ...)
FEATURE_SCALAR = "scalar"                        # rank-0 tensors
FEATURE_INT_DTYPE = "int_dtype"                  # integer tensors
FEATURE_FLOAT64 = "float64"                      # double precision tensors
FEATURE_VECTOR_MATMUL = "vector_matmul"          # rank-1 MatMul operands
FEATURE_SHAPE_OPS = "shape_ops"                  # Reshape / BroadcastTo / Slice ...
FEATURE_MULTI_INPUT = "multi_input"              # several graph inputs


@dataclass(frozen=True)
class BugSpec:
    """A single seeded bug.

    ``symptom`` names the oracle class that can observe the bug: ``crash``
    and ``semantic`` are visible to differential testing, ``perf``
    (optimized build makes more kernel calls than O0) only to the
    performance-regression oracle, ``gradient`` (wrong backward pass) only
    to the autodiff gradient-check oracle, and ``verifier``
    (executing-but-ill-formed IR) only to the pass-boundary IR verifier
    (``--verify-passes``).
    """

    bug_id: str
    system: str              # "graphrt" | "deepc" | "turbo" | "exporter" | "autodiff"
    phase: str               # "transformation" | "conversion" | "unclassified"
    symptom: str             # "crash" | "semantic" | "perf" | "gradient" | "verifier"
    description: str
    required_features: FrozenSet[str] = frozenset()
    fixed: bool = True       # whether the analogue real-world bug was fixed

    def __post_init__(self) -> None:
        if self.phase not in ("transformation", "conversion", "unclassified"):
            raise ValueError(f"invalid phase {self.phase!r}")
        if self.symptom not in ("crash", "semantic", "perf", "gradient",
                                "verifier"):
            raise ValueError(f"invalid symptom {self.symptom!r}")


_ALL_BUGS: Dict[str, BugSpec] = {}


def _bug(bug_id: str, system: str, phase: str, symptom: str, description: str,
         features: Iterable[str] = (), fixed: bool = True) -> BugSpec:
    spec = BugSpec(bug_id, system, phase, symptom, description,
                   frozenset(features), fixed)
    _ALL_BUGS[bug_id] = spec
    return spec


def all_bugs() -> Tuple[BugSpec, ...]:
    """Every seeded bug, in registration order."""
    return tuple(_ALL_BUGS.values())


def bug_spec(bug_id: str) -> BugSpec:
    return _ALL_BUGS[bug_id]


def bugs_of_system(system: str) -> Tuple[BugSpec, ...]:
    return tuple(spec for spec in _ALL_BUGS.values() if spec.system == system)


class BugConfig:
    """Which seeded bugs are active for a compiler instance.

    The default configuration enables every seeded bug (the fuzzing
    campaigns hunt for all of them); tests that verify a pass's *correct*
    behaviour use :meth:`none`, and targeted tests enable a single bug.
    """

    def __init__(self, enabled: Optional[Iterable[str]] = None) -> None:
        if enabled is None:
            self._enabled = frozenset(_ALL_BUGS)
        else:
            unknown = set(enabled) - set(_ALL_BUGS)
            if unknown:
                raise KeyError(f"unknown bug ids: {sorted(unknown)}")
            self._enabled = frozenset(enabled)

    @classmethod
    def all(cls) -> "BugConfig":
        return cls()

    @classmethod
    def none(cls) -> "BugConfig":
        return cls(enabled=())

    @classmethod
    def only(cls, *bug_ids: str) -> "BugConfig":
        return cls(enabled=bug_ids)

    def enabled(self, bug_id: str) -> bool:
        if bug_id not in _ALL_BUGS:
            raise KeyError(f"unknown bug id {bug_id!r}")
        return bug_id in self._enabled

    def enabled_ids(self) -> FrozenSet[str]:
        return self._enabled

    def __contains__(self, bug_id: str) -> bool:
        return self.enabled(bug_id)

    def __repr__(self) -> str:
        if len(self._enabled) == len(_ALL_BUGS):
            return "BugConfig.all()"
        return f"BugConfig({sorted(self._enabled)})"


# --------------------------------------------------------------------------- #
# GraphRT (ONNXRuntime analogue) — pattern-specific graph optimizations.
# --------------------------------------------------------------------------- #
_bug("graphrt-fuse-matmul-scale-1x1", "graphrt", "transformation", "crash",
     "FuseMatMulScale rewrites (sa*A)@(sb*B) into (sa*sb)*(A@B) but mistakes a "
     "1x1 matrix operand for a scalar, producing an illegal MatMul.",
     [FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING, FEATURE_ATTR_DIVERSITY])
_bug("graphrt-relu-clip-fusion-f64", "graphrt", "transformation", "semantic",
     "Fusing Relu into a following Clip mishandles double-precision bounds and "
     "drops the lower bound.",
     [FEATURE_MULTI_OP, FEATURE_FLOAT64])
_bug("graphrt-gemm-fusion-bias-broadcast", "graphrt", "transformation", "semantic",
     "MatMul+Add is fused into Gemm even when the addend broadcasts over rows, "
     "silently reducing it to a per-column bias.",
     [FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING, FEATURE_BROADCAST])
_bug("graphrt-transpose-elimination-perm", "graphrt", "transformation", "semantic",
     "Back-to-back Transpose nodes are removed without checking that the "
     "permutations compose to the identity.",
     [FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING, FEATURE_ATTR_DIVERSITY])
_bug("graphrt-constfold-pow-overflow", "graphrt", "unclassified", "crash",
     "Constant folding of Pow with a large constant exponent raises an "
     "internal overflow error.",
     [FEATURE_MULTI_OP, FEATURE_ATTR_DIVERSITY])
_bug("graphrt-slice-merge-negative-step", "graphrt", "transformation", "crash",
     "Merging adjacent Slice nodes asserts that every step is 1.",
     [FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING, FEATURE_ATTR_DIVERSITY])
_bug("graphrt-constfold-internal-biassoftmax", "graphrt", "transformation",
     "crash",
     "ConstantFolding assumes it runs on importer-produced graphs and "
     "crashes on the internal BiasSoftmax node that BiasSoftmaxFusion "
     "introduces.  The canonical pipeline folds constants long before the "
     "fusion pass, so the crash only surfaces under a non-canonical pass "
     "ordering that runs BiasSoftmaxFusion before ConstantFolding.",
     [FEATURE_MULTI_OP])
_bug("graphrt-biassoftmax-fusion-note", "graphrt", "transformation", "verifier",
     "BiasSoftmaxFusion leaves a provenance-note attribute on the fused "
     "node, outside the BiasSoftmax schema.  Every kernel ignores it and "
     "results stay bit-identical, so no execution-based oracle (difftest, "
     "perf, gradcheck) can observe the corruption; only the pass-boundary "
     "IR verifier's attribute-conformance invariant reports it.",
     [FEATURE_MULTI_OP])
_bug("graphrt-matmul-repack-small", "graphrt", "transformation", "perf",
     "MatMulRepackSelection rewrites MatMul/Gemm onto a 'cache-friendly' "
     "repacked kernel, but its cost model is inverted for small operands: "
     "the selected kernel recomputes the product once per output block, "
     "making the optimized build far slower than O0 while producing "
     "bit-identical results (invisible to differential testing).",
     [FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING])

# --------------------------------------------------------------------------- #
# DeepC (TVM analogue) — conversion + graph passes + low-level passes.
# --------------------------------------------------------------------------- #
_bug("deepc-layout-conv-slice-stride", "deepc", "transformation", "crash",
     "NCHW -> NCHW4c layout rewriting crashes when a Conv2d is followed by a "
     "Slice whose channel stride is greater than one.",
     [FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING, FEATURE_ATTR_DIVERSITY])
_bug("deepc-layout-broadcast-add", "deepc", "transformation", "crash",
     "Layout analysis cannot adapt a broadcasting Add whose other operand has "
     "lower rank than the convolution output (the paper's M0 example).",
     [FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING, FEATURE_BROADCAST])
_bug("deepc-simplify-divmul-int", "deepc", "transformation", "semantic",
     "Arithmetic simplification rewrites (x * c) / c to x even for integer "
     "division, changing results when intermediate products truncate.",
     [FEATURE_MULTI_OP, FEATURE_INT_DTYPE])
_bug("deepc-i64-reshape-mismatch", "deepc", "transformation", "crash",
     "Lowering of the fused expression assumes 32-bit shape arithmetic; "
     "Reshape targets whose element count needs 64-bit indices raise an "
     "int32/int64 mismatch.",
     [FEATURE_MULTI_OP, FEATURE_SHAPE_OPS, FEATURE_ATTR_DIVERSITY])
_bug("deepc-i64-broadcastto-mismatch", "deepc", "transformation", "crash",
     "BroadcastTo shape attributes are materialized as int32 while the fused "
     "expression expects int64, failing type checking in lowering.",
     [FEATURE_MULTI_OP, FEATURE_SHAPE_OPS, FEATURE_BROADCAST])
_bug("deepc-fusion-scalar-reduce", "deepc", "transformation", "crash",
     "Operator fusion groups a full reduction (scalar output) with injective "
     "consumers and then fails to emit the fused kernel.",
     [FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING, FEATURE_SCALAR])
_bug("deepc-fold-transpose-reshape", "deepc", "transformation", "semantic",
     "Folding a Transpose into a following Reshape ignores the permutation "
     "when it is not the identity.",
     [FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING, FEATURE_ATTR_DIVERSITY])
_bug("deepc-lowlevel-vectorize-remainder", "deepc", "transformation", "semantic",
     "The low-level vectorization pass processes the innermost dimension in "
     "blocks of four and drops the remainder elements.",
     [FEATURE_MULTI_OP, FEATURE_ATTR_DIVERSITY])
_bug("deepc-lowlevel-unitloop-fusion", "deepc", "transformation", "crash",
     "Low-level loop fusion mishandles unit-extent loops produced by "
     "keepdims reductions.",
     [FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING, FEATURE_ATTR_DIVERSITY])
_bug("deepc-constfold-pad-negative", "deepc", "transformation", "crash",
     "Constant folding of Pad rejects negative (cropping) pad widths.",
     [FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING, FEATURE_ATTR_DIVERSITY])
_bug("deepc-import-scalar-reduce", "deepc", "conversion", "crash",
     "The importer mishandles reduce operators that produce scalars "
     "(keepdims=False over all axes).",
     [FEATURE_NON_SHAPE_PRESERVING, FEATURE_SCALAR])
_bug("deepc-import-where-broadcast-rank", "deepc", "conversion", "crash",
     "Importing a three-way broadcasting Where ignores the lowest-ranked "
     "operand during shape inference and later fails.",
     [FEATURE_MULTI_OP, FEATURE_BROADCAST])
_bug("deepc-import-matmul-vector", "deepc", "conversion", "crash",
     "MatMul with a rank-1 operand (vector broadcasting) is rejected by the "
     "importer.",
     [FEATURE_NON_SHAPE_PRESERVING, FEATURE_VECTOR_MATMUL])
_bug("deepc-import-bool-cast-argmax", "deepc", "conversion", "semantic",
     "Importing ArgMax over a bool tensor silently casts through int32 and "
     "flips tie-breaking order.",
     [FEATURE_INT_DTYPE, FEATURE_NON_SHAPE_PRESERVING])

# --------------------------------------------------------------------------- #
# Turbo (TensorRT analogue) — closed-source stand-in, bug counting only.
# --------------------------------------------------------------------------- #
_bug("turbo-clip-int32-dtype", "turbo", "conversion", "semantic",
     "Accepts int32 Clip nodes the model format does not allow and interprets "
     "the bounds as unsigned.",
     [FEATURE_INT_DTYPE])
_bug("turbo-pow-kernel-large-exponent", "turbo", "transformation", "crash",
     "Kernel selection for Pow with exponent tensors of rank >= 3 fails.",
     [FEATURE_MULTI_OP, FEATURE_BROADCAST])
_bug("turbo-pool-pad-exceeds-kernel", "turbo", "unclassified", "crash",
     "Pooling with padding larger than half the kernel aborts the builder.",
     [FEATURE_ATTR_DIVERSITY, FEATURE_NON_SHAPE_PRESERVING])
_bug("turbo-softmax-axis0-fusion", "turbo", "unclassified", "semantic",
     "Softmax over axis 0 fused with a preceding Add produces unnormalized "
     "outputs.",
     [FEATURE_MULTI_OP, FEATURE_ATTR_DIVERSITY])
_bug("turbo-concat-many-inputs", "turbo", "transformation", "crash",
     "Concat with more than four inputs overflows an internal buffer "
     "descriptor.",
     [FEATURE_MULTI_OP, FEATURE_MULTI_INPUT])
_bug("turbo-batchnorm-fold-var0", "turbo", "transformation", "semantic",
     "Folding BatchNorm into a preceding Conv2d divides by the raw variance "
     "without the epsilon term.",
     [FEATURE_MULTI_OP, FEATURE_NON_SHAPE_PRESERVING])

# --------------------------------------------------------------------------- #
# Exporter (PyTorch->ONNX exporter analogue) — conversion bugs found as a
# by-product of model generation.
# --------------------------------------------------------------------------- #
_bug("exporter-log2-scalar-rank", "exporter", "conversion", "semantic",
     "Exporting Log2 with a scalar input records a rank-1 output type instead "
     "of a scalar.",
     [FEATURE_SCALAR])
_bug("exporter-clip-int32-opset", "exporter", "conversion", "crash",
     "Clip over int32 tensors is exported even though the target format "
     "version does not support it; well-formed importers reject the model.",
     [FEATURE_INT_DTYPE])
_bug("exporter-squeeze-empty-axes", "exporter", "conversion", "crash",
     "Exporting Squeeze without an explicit axes attribute emits an empty "
     "axes list, which downstream importers reject.",
     [FEATURE_NON_SHAPE_PRESERVING, FEATURE_SHAPE_OPS])
_bug("exporter-pad-reflect-rank2", "exporter", "conversion", "crash",
     "Reflect padding of rank-2 tensors is exported with transposed pad "
     "pairs.",
     [FEATURE_NON_SHAPE_PRESERVING, FEATURE_ATTR_DIVERSITY])

# --------------------------------------------------------------------------- #
# Autodiff (the repo's "autograd") — wrong-VJP bugs, visible only to the
# gradient-check oracle: forward results (and therefore differential
# testing) are unaffected, only the backward pass is wrong.
# --------------------------------------------------------------------------- #
_bug("autodiff-tanh-grad-linear", "autodiff", "unclassified", "gradient",
     "The Tanh VJP drops the square of the activation: it propagates "
     "g * (1 - y) instead of g * (1 - y^2), overestimating gradients "
     "everywhere except at y = 0.",
     [FEATURE_MULTI_OP])
_bug("autodiff-sigmoid-grad-unscaled", "autodiff", "unclassified", "gradient",
     "The Sigmoid VJP forgets the activation factor: it propagates "
     "g * (1 - y) instead of g * y * (1 - y), inflating gradients for "
     "small activations.",
     [FEATURE_MULTI_OP])

#: Systems that participate in differential testing / bug counting.
SYSTEMS = ("graphrt", "deepc", "turbo", "exporter", "autodiff")
