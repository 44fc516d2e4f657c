"""The GraphRT compiler: importer + optimization pipeline + runtime binding."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.compilers.base import (CompiledModel, Compiler, CompileOptions,
                                  register_compiler)
from repro.compilers.graphrt import runtime
from repro.compilers.graphrt.passes import PassContext
from repro.compilers.pipeline import canonical_spec, run_pass_pipeline
from repro.errors import ConversionError, ExecutionError, ReproError
from repro.graph.model import Model
from repro.graph.validate import validation_errors
from repro.ops.registry import is_registered


class GraphRTExecutable(CompiledModel):
    """A graph optimized by GraphRT, executed by kernel dispatch."""

    def __init__(self, model: Model, applied_passes: Sequence[str],
                 triggered_bugs: Sequence[str] = (),
                 modified_by: Sequence[str] = ()) -> None:
        super().__init__(model, applied_passes, modified_by)
        self.triggered_bugs = list(triggered_bugs)

    def run(self, inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        try:
            return runtime.execute_graph(self.model, inputs)
        except ReproError:
            raise
        except (ValueError, IndexError, KeyError) as exc:
            raise ExecutionError(f"GraphRT runtime failure: {exc}") from exc


@register_compiler
class GraphRTCompiler(Compiler):
    """ONNXRuntime analogue: graph-optimizing runtime without code generation."""

    name = "graphrt"
    open_source = True

    def __init__(self, options: CompileOptions = None) -> None:
        super().__init__(options)

    # ------------------------------------------------------------------ #
    def compile_model(self, model: Model) -> GraphRTExecutable:
        imported = self._import(model)
        spec = self.options.pipeline or canonical_spec(self.options.opt_level)
        ctx = PassContext(bugs=self.options.bugs,
                          opt_level=self.options.opt_level,
                          verify=self.options.verify_passes)
        applied: List[str] = run_pass_pipeline("graphrt", imported, ctx,
                                               spec.passes("graphrt"))
        return GraphRTExecutable(imported, applied, ctx.triggered_bugs,
                                 ctx.modified_by)

    # ------------------------------------------------------------------ #
    def _import(self, model: Model) -> Model:
        """Conversion phase: structural and type checking of the input model."""
        supported = set(runtime.supported_operators())
        for node in model.nodes:
            if not is_registered(node.op) and node.op not in supported:
                raise ConversionError(f"GraphRT: unknown operator {node.op!r}")
            if node.op not in supported:
                raise ConversionError(
                    f"GraphRT: operator {node.op!r} is not implemented")
            if node.attrs.get("opset_unsupported"):
                raise ConversionError(
                    f"GraphRT: node {node.name!r} ({node.op}) uses a dtype that "
                    "this model-format version does not allow")
        problems = validation_errors(model)
        if problems:
            raise ConversionError(
                "GraphRT: model failed import-time type checking: " + problems[0])
        return model.clone()

    def supported_ops(self, candidate_ops: Sequence[str]) -> List[str]:
        available = set(runtime.supported_operators())
        return [op for op in candidate_ops if op in available]
