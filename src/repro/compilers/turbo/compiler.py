"""Turbo: the closed-source GPU-compiler stand-in (TensorRT analogue).

Turbo participates in differential testing and bug counting (Table 3) but —
like TensorRT in the paper — is excluded from coverage measurement.  Its
"builder" selects a kernel implementation per node and applies a small set of
aggressive fusions; several seeded bugs live in that selection logic.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.compilers.base import (CompiledModel, Compiler, CompileOptions,
                                  register_compiler)
from repro.dtypes import DType
from repro.errors import ConversionError, ExecutionError, ReproError, TransformationError
from repro.graph.model import Model
from repro.graph.node import Node
from repro.graph.validate import validation_errors
from repro.ops import semantics


class TurboEngine(CompiledModel):
    """A Turbo "engine": the optimized graph plus kernel substitutions."""

    def __init__(self, model: Model, applied_passes: Sequence[str],
                 triggered_bugs: Sequence[str] = ()) -> None:
        super().__init__(model, applied_passes)
        self.triggered_bugs = list(triggered_bugs)

    def run(self, inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        values: Dict[str, np.ndarray] = {}
        for name in self.model.inputs:
            if name not in inputs:
                raise ExecutionError(f"missing graph input {name!r}")
            values[name] = np.asarray(
                inputs[name], dtype=self.model.type_of(name).dtype.numpy)
        for name, array in self.model.initializers.items():
            values[name] = np.asarray(array)
        try:
            for node in self.model.topological_order():
                node_inputs = [values[name] for name in node.inputs]
                results = self._dispatch(node, node_inputs)
                values.update(zip(node.outputs, results))
        except ReproError:
            raise
        except (ValueError, IndexError, KeyError) as exc:
            raise ExecutionError(f"Turbo runtime failure: {exc}") from exc
        return {name: values[name] for name in self.model.outputs}

    def _dispatch(self, node: Node, inputs: List[np.ndarray]) -> List[np.ndarray]:
        if node.op == "Clip" and node.attrs.get("_turbo_unsigned_bounds"):
            # Seeded semantic bug: int32 Clip bounds interpreted as unsigned.
            (x,) = inputs
            low = node.attrs.get("min")
            high = node.attrs.get("max")
            low = 0 if low is None else abs(int(low))
            high = np.iinfo(np.int64).max if high is None else abs(int(high))
            return [np.clip(x, low, high).astype(x.dtype)]
        if node.op == "BatchNorm" and node.attrs.get("_turbo_fold_no_epsilon"):
            # Seeded semantic bug: Conv+BN folding forgets the epsilon term.
            x, scale, bias, mean, var = inputs
            shape = (1, -1) + (1,) * (x.ndim - 2)
            out = (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape)) * \
                scale.reshape(shape) + bias.reshape(shape)
            return [out.astype(np.float64 if x.dtype.kind != "f" else x.dtype)]
        if node.op == "Softmax" and node.attrs.get("_turbo_unnormalized"):
            # Seeded semantic bug: fused Add+Softmax skips re-normalization.
            (x,) = inputs
            axis = int(node.attrs.get("axis", -1))
            shifted = x - np.max(x, axis=axis, keepdims=True)
            return [np.exp(shifted).astype(x.dtype if x.dtype.kind == "f" else np.float64)]
        return semantics.execute_node(node, inputs)


@register_compiler
class TurboCompiler(Compiler):
    """TensorRT analogue: kernel-selecting builder, closed source."""

    name = "turbo"
    open_source = False

    def __init__(self, options: CompileOptions = None) -> None:
        super().__init__(options)

    def compile_model(self, model: Model) -> TurboEngine:
        triggered: List[str] = []
        engine_graph = self._import(model, triggered)
        applied = []
        if self.options.opt_level > 0:
            applied = self._build(engine_graph, triggered)
        return TurboEngine(engine_graph, applied, triggered)

    # ------------------------------------------------------------------ #
    def _import(self, model: Model, triggered: List[str]) -> Model:
        problems = validation_errors(model)
        if problems:
            raise ConversionError("Turbo: model failed import: " + problems[0])
        imported = model.clone()
        for node in imported.nodes:
            if node.op == "Clip" and node.attrs.get("opset_unsupported"):
                dtype = imported.type_of(node.inputs[0]).dtype
                if dtype in (DType.int32, DType.int64) and \
                        self.options.bugs.enabled("turbo-clip-int32-dtype"):
                    # BUG: the ill-formed node is accepted and mis-lowered.
                    _record_bug(triggered, "turbo-clip-int32-dtype")
                    node.attrs["_turbo_unsigned_bounds"] = True
                    node.attrs.pop("opset_unsupported", None)
                    continue
                raise ConversionError(
                    "Turbo: model uses a construct this format version "
                    "does not allow")
            if node.attrs.get("opset_unsupported"):
                raise ConversionError(
                    "Turbo: model uses a construct this format version does "
                    "not allow")
        return imported

    def _build(self, graph: Model, triggered: List[str]) -> List[str]:
        """The "builder" phase: kernel selection and aggressive fusion."""
        applied = ["KernelSelection"]
        for node in list(graph.nodes):
            if node.op == "Pow" and self.options.bugs.enabled(
                    "turbo-pow-kernel-large-exponent"):
                exponent_type = graph.type_of(node.inputs[1])
                if exponent_type.rank >= 3:
                    triggered.append("turbo-pow-kernel-large-exponent")
                    raise TransformationError(
                        "[turbo-pow-kernel-large-exponent] no kernel "
                        "implementation for high-rank exponent tensors")
            if node.op in ("MaxPool2d", "AvgPool2d") and self.options.bugs.enabled(
                    "turbo-pool-pad-exceeds-kernel"):
                padding = int(node.attrs.get("padding", 0))
                kernel = min(int(node.attrs["kh"]), int(node.attrs["kw"]))
                if padding * 2 > kernel:
                    triggered.append("turbo-pool-pad-exceeds-kernel")
                    raise TransformationError(
                        "[turbo-pool-pad-exceeds-kernel] pooling padding "
                        "exceeds half the kernel size")
            if node.op == "Concat" and self.options.bugs.enabled(
                    "turbo-concat-many-inputs"):
                if len(node.inputs) > 4:
                    triggered.append("turbo-concat-many-inputs")
                    raise TransformationError(
                        "[turbo-concat-many-inputs] concat descriptor "
                        "overflow for more than four inputs")
        applied.extend(self._fuse(graph, triggered))
        return applied

    def _fuse(self, graph: Model, triggered: List[str]) -> List[str]:
        applied = []
        producers = graph.producer_map()
        for node in list(graph.nodes):
            if node.op == "Softmax" and int(node.attrs.get("axis", -1)) == 0 and \
                    self.options.bugs.enabled("turbo-softmax-axis0-fusion"):
                upstream = producers.get(node.inputs[0])
                if upstream is not None and upstream.op == "Add":
                    # BUG: the fused Add+Softmax kernel skips normalization.
                    _record_bug(triggered, "turbo-softmax-axis0-fusion")
                    node.attrs["_turbo_unnormalized"] = True
                    applied.append("FuseAddSoftmax")
            if node.op == "BatchNorm" and self.options.bugs.enabled(
                    "turbo-batchnorm-fold-var0"):
                upstream = producers.get(node.inputs[0])
                if upstream is not None and upstream.op == "Conv2d":
                    # BUG: folding drops the epsilon stabilizer.
                    _record_bug(triggered, "turbo-batchnorm-fold-var0")
                    node.attrs["_turbo_fold_no_epsilon"] = True
                    applied.append("FoldConvBatchNorm")
        return applied


def _record_bug(triggered: List[str], bug_id: str) -> None:
    """Record a seeded bug once per compile, however many nodes hit it."""
    if bug_id not in triggered:
        triggered.append(bug_id)
