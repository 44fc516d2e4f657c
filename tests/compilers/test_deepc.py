"""Tests for the DeepC compiler: conversion, passes, lowering, codegen, bugs."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.compilers import CompileOptions, DeepCCompiler
from repro.compilers.bugs import BugConfig
from repro.compilers.deepc.codegen import pack_nchw4c, unpack_nchw4c
from repro.compilers.deepc.converter import convert_model, supported_operators
from repro.compilers.deepc.ir import DGraph
from repro.compilers.deepc.lowering import lower_graph
from repro.compilers.deepc.lowpasses import LowPassContext, run_low_pipeline
from repro.compilers.deepc.passes import DeepCPassContext, run_pipeline
from repro.dtypes import DType
from repro.errors import ConversionError, TransformationError
from repro.graph.builder import GraphBuilder
from repro.graph.serialize import model_from_dict
from repro.graph.tensor_type import TensorType
from repro.runtime import Interpreter, random_inputs

from repro.testing import build_conv_model, build_mlp_model

NO_BUGS = BugConfig.none()


def assert_matches_oracle(model, bugs=None, opt_level=2, seed=0):
    compiler = DeepCCompiler(CompileOptions(opt_level=opt_level,
                                            bugs=bugs or NO_BUGS))
    compiled = compiler.compile_model(model)
    inputs = random_inputs(model, np.random.default_rng(seed))
    reference = Interpreter().run(model, inputs)
    outputs = compiled.run(inputs)
    for name in reference:
        np.testing.assert_allclose(np.asarray(reference[name], dtype=np.float64),
                                   np.asarray(outputs[name], dtype=np.float64),
                                   rtol=1e-4, atol=1e-5, err_msg=name)
    return compiled


class TestConverter:
    def test_produces_dgraph_with_annotations(self, conv_model):
        graph, triggered = convert_model(conv_model, NO_BUGS)
        assert isinstance(graph, DGraph)
        assert not triggered
        assert len(graph.nodes) == len(conv_model.nodes)
        for node in graph.nodes:
            assert graph.annotation(node, "pattern") is not None

    def test_unsupported_operator_rejected(self):
        builder = GraphBuilder("erf")
        x = builder.input([4])
        builder.op1("Erf", [x])
        with pytest.raises(ConversionError):
            convert_model(builder.build(), NO_BUGS)

    def test_supported_operators_excludes_unsupported(self):
        supported = supported_operators()
        assert "Erf" not in supported and "Conv2d" in supported

    def test_scalar_reduce_bug(self):
        builder = GraphBuilder("sred")
        x = builder.input([3, 4])
        builder.op1("ReduceSum", [x], axes=None, keepdims=False)
        model = builder.build()
        with pytest.raises(ConversionError, match="deepc-import-scalar-reduce"):
            convert_model(model, BugConfig.only("deepc-import-scalar-reduce"))
        convert_model(model, NO_BUGS)  # correct importer accepts it

    def test_matmul_vector_bug(self):
        builder = GraphBuilder("vec")
        x = builder.input([4])
        w = builder.weight(np.random.rand(4, 3).astype(np.float32))
        builder.op1("MatMul", [x, w])
        model = builder.build()
        with pytest.raises(ConversionError, match="deepc-import-matmul-vector"):
            convert_model(model, BugConfig.only("deepc-import-matmul-vector"))
        assert_matches_oracle(model)

    def test_where_broadcast_rank_bug(self):
        builder = GraphBuilder("where")
        cond = builder.input([1, 1], DType.bool_)
        lhs = builder.input([3, 1])
        rhs = builder.input([2])
        builder.op1("Where", [cond, lhs, rhs])
        model = builder.build()
        with pytest.raises(ConversionError, match="deepc-import-where-broadcast-rank"):
            convert_model(model, BugConfig.only("deepc-import-where-broadcast-rank"))
        assert_matches_oracle(model)

    @pytest.mark.parametrize("bugs", [
        BugConfig.only("deepc-import-where-broadcast-rank"), NO_BUGS])
    def test_where_broadcast_rank_bug_ignores_unbroadcastable_operands(
            self, bugs):
        # The bug's seeding code broadcasts the two higher-ranked operands
        # first; a pair that does not broadcast must surface as the generic
        # importer's ConversionError, not as a bare ValueError.
        builder = GraphBuilder("where_bad")
        cond = builder.input([3], DType.bool_)
        lhs = builder.input([2, 3])
        rhs = builder.input([2, 3])
        builder.op1("Where", [cond, lhs, rhs])
        model = builder.build()
        model.value_types[rhs] = TensorType((4, 3), DType.float32)
        with pytest.raises(ConversionError):
            convert_model(model, bugs)

    def test_bool_argmax_bug_flips_op(self):
        builder = GraphBuilder("argb")
        x = builder.input([2, 5], DType.bool_)
        builder.op1("ArgMax", [x], axis=1)
        model = builder.build()
        graph, triggered = convert_model(
            model, BugConfig.only("deepc-import-bool-cast-argmax"))
        assert triggered == ["deepc-import-bool-cast-argmax"]
        assert graph.nodes[0].op == "ArgMin"


class TestGraphPasses:
    def test_optimizations_preserve_semantics(self, mlp_model, conv_model):
        assert_matches_oracle(mlp_model)
        assert_matches_oracle(conv_model)

    def test_divmul_simplification_correct_for_floats(self):
        builder = GraphBuilder("divmul")
        x = builder.input([4])
        c = builder.weight(np.full(4, 3.0, dtype=np.float32))
        v = builder.op1("Mul", [x, c])
        v = builder.op1("Div", [v, c])
        v = builder.op1("Relu", [v])
        builder.output(v)
        compiled = assert_matches_oracle(builder.build(), bugs=BugConfig.all())
        # For floats the rewrite is legal and should have removed Mul/Div
        # from the lowered program.
        lowered_ops = [instr.op for kernel in compiled.module.kernels
                       for instr in kernel.instrs]
        assert "Div" not in lowered_ops

    def test_divmul_bug_changes_integer_results(self):
        builder = GraphBuilder("divmulint")
        x = builder.input([4], DType.int32)
        c = builder.weight(np.full(4, 3, dtype=np.int32))
        v = builder.op1("Div", [builder.op1("Mul", [x, c]), c])
        v = builder.op1("Abs", [v])
        builder.output(v)
        model = builder.build()
        graph, _ = convert_model(model, NO_BUGS)
        ctx = DeepCPassContext(bugs=BugConfig.only("deepc-simplify-divmul-int"))
        run_pipeline(graph, ctx)
        assert "deepc-simplify-divmul-int" in ctx.triggered_bugs
        # Correct behaviour keeps the Mul/Div pair for integers.
        graph_correct, _ = convert_model(model, NO_BUGS)
        correct_ctx = DeepCPassContext(bugs=NO_BUGS)
        run_pipeline(graph_correct, correct_ctx)
        assert any(node.op == "Div" for node in graph_correct.nodes)

    def test_constant_folding_pad_negative_bug(self):
        builder = GraphBuilder("padfold")
        x = builder.input([2, 2])
        const = builder.weight(np.random.rand(2, 6).astype(np.float32))
        padded = builder.op1("Pad", [const], pads=[0, -1, 0, -2], mode="constant",
                             value=0.0)
        builder.op1("Add", [x, builder.op1("Slice", [padded], starts=[0, 0],
                                           ends=[2, 2], axes=[0, 1], steps=[1, 1])])
        model = builder.build()
        graph, _ = convert_model(model, NO_BUGS)
        ctx = DeepCPassContext(bugs=BugConfig.only("deepc-constfold-pad-negative"))
        with pytest.raises(TransformationError, match="deepc-constfold-pad-negative"):
            run_pipeline(graph, ctx)
        assert_matches_oracle(model)

    def test_fold_transpose_reshape_bug(self):
        builder = GraphBuilder("tr")
        x = builder.input([2, 3, 4])
        t = builder.op1("Transpose", [x], perm=[2, 1, 0])
        r = builder.op1("Reshape", [t], shape=[12, 2])
        builder.output(r)
        model = builder.build()
        compiled = DeepCCompiler(CompileOptions(bugs=BugConfig.only(
            "deepc-fold-transpose-reshape"))).compile_model(model)
        assert "deepc-fold-transpose-reshape" in compiled.triggered_bugs
        inputs = random_inputs(model, np.random.default_rng(1))
        reference = Interpreter().run(model, inputs)
        outputs = compiled.run(inputs)
        assert not np.allclose(list(reference.values())[0], list(outputs.values())[0])
        assert_matches_oracle(model)

    def test_fusion_groups_cover_all_nodes(self, conv_model):
        graph, _ = convert_model(conv_model, NO_BUGS)
        ctx = DeepCPassContext(bugs=NO_BUGS)
        run_pipeline(graph, ctx)
        grouped = {name for group in graph.fusion_groups for name in group}
        assert grouped == {node.name for node in graph.nodes}

    def test_fusion_scalar_reduce_bug(self):
        builder = GraphBuilder("fusescalar")
        x = builder.input([4, 4])
        red = builder.op1("ReduceSum", [x], axes=[0, 1], keepdims=False)
        builder.op1("Sigmoid", [red])
        model = builder.build()
        graph, _ = convert_model(model, BugConfig.only("deepc-fusion-scalar-reduce"))
        ctx = DeepCPassContext(bugs=BugConfig.only("deepc-fusion-scalar-reduce"))
        with pytest.raises(TransformationError, match="deepc-fusion-scalar-reduce"):
            run_pipeline(graph, ctx)
        assert_matches_oracle(model)


class TestLayoutTransform:
    def test_conv_rewritten_to_packed_layout(self):
        builder = GraphBuilder("layout")
        x = builder.input([1, 4, 8, 8])
        w = builder.weight(np.random.rand(8, 4, 3, 3).astype(np.float32) * 0.2)
        conv = builder.op1("Conv2d", [x, w], stride=1, padding=1)
        builder.op1("Relu", [conv])
        model = builder.build()
        compiled = assert_matches_oracle(model)
        ops = [instr.op for kernel in compiled.module.kernels for instr in kernel.instrs]
        assert "Conv2dNCHW4c" in ops and "LayoutPack4c" in ops

    def test_odd_channel_conv_not_rewritten(self):
        builder = GraphBuilder("layout_odd")
        x = builder.input([1, 3, 8, 8])
        w = builder.weight(np.random.rand(5, 3, 3, 3).astype(np.float32) * 0.2)
        builder.op1("Conv2d", [x, w], stride=1, padding=1)
        compiled = assert_matches_oracle(builder.build())
        ops = [instr.op for kernel in compiled.module.kernels for instr in kernel.instrs]
        assert "Conv2dNCHW4c" not in ops

    def test_pack_unpack_roundtrip(self):
        x = np.random.rand(2, 8, 3, 3).astype(np.float32)
        np.testing.assert_allclose(unpack_nchw4c(pack_nchw4c(x)), x)

    def test_layout_broadcast_add_bug(self):
        builder = GraphBuilder("m0")
        x = builder.input([1, 4, 1, 48])
        w = builder.weight(np.random.rand(8, 4, 1, 1).astype(np.float32))
        conv = builder.op1("Conv2d", [x, w], stride=1, padding=0)
        ones = builder.weight(np.ones((1, 1, 48), dtype=np.float32))
        builder.op1("Add", [conv, ones])
        model = builder.build()
        with pytest.raises(TransformationError, match="deepc-layout-broadcast-add"):
            DeepCCompiler(CompileOptions(bugs=BugConfig.only(
                "deepc-layout-broadcast-add"))).compile_model(model)
        assert_matches_oracle(model)

    def test_layout_conv_slice_stride_bug(self):
        builder = GraphBuilder("convslice")
        x = builder.input([1, 4, 6, 6])
        w = builder.weight(np.random.rand(8, 4, 3, 3).astype(np.float32))
        conv = builder.op1("Conv2d", [x, w], stride=1, padding=1)
        builder.op1("Slice", [conv], starts=[0], ends=[8], axes=[1], steps=[2])
        model = builder.build()
        with pytest.raises(TransformationError, match="deepc-layout-conv-slice-stride"):
            DeepCCompiler(CompileOptions(bugs=BugConfig.only(
                "deepc-layout-conv-slice-stride"))).compile_model(model)
        assert_matches_oracle(model)


class TestLoweringAndLowPasses:
    def test_lowering_produces_kernels(self, conv_model):
        graph, _ = convert_model(conv_model, NO_BUGS)
        ctx = DeepCPassContext(bugs=NO_BUGS)
        run_pipeline(graph, ctx)
        module, triggered = lower_graph(graph, NO_BUGS)
        assert not triggered
        assert module.kernels
        assert module.instr_count() >= len(conv_model.nodes)
        assert "kernel" in module.text()

    def test_opt0_single_node_groups(self, mlp_model):
        graph, _ = convert_model(mlp_model, NO_BUGS)
        module, _ = lower_graph(graph, NO_BUGS)
        assert len(module.kernels) == len(mlp_model.nodes)

    def test_i64_reshape_bug(self):
        builder = GraphBuilder("bigreshape")
        x = builder.input([8, 8, 16])
        builder.op1("Reshape", [x], shape=[16, 64])
        model = builder.build()
        graph, _ = convert_model(model, NO_BUGS)
        run_pipeline(graph, DeepCPassContext(bugs=NO_BUGS))  # the bug is in fused kernels
        with pytest.raises(TransformationError, match="deepc-i64-reshape-mismatch"):
            lower_graph(graph, BugConfig.only("deepc-i64-reshape-mismatch"))
        assert_matches_oracle(model)

    def test_i64_broadcastto_bug(self):
        builder = GraphBuilder("bigbcast")
        x = builder.input([1, 5, 1, 3])
        builder.op1("BroadcastTo", [x], shape=[2, 5, 4, 3])
        model = builder.build()
        graph, _ = convert_model(model, NO_BUGS)
        run_pipeline(graph, DeepCPassContext(bugs=NO_BUGS))  # the bug is in fused kernels
        with pytest.raises(TransformationError, match="deepc-i64-broadcastto-mismatch"):
            lower_graph(graph, BugConfig.only("deepc-i64-broadcastto-mismatch"))
        assert_matches_oracle(model)

    @pytest.mark.parametrize("bug_id", ["deepc-i64-reshape-mismatch",
                                        "deepc-i64-broadcastto-mismatch"])
    def test_i64_bugs_need_fusion(self, bug_id):
        """The corpus models of both index-dtype bugs crash only the fused
        build: O0 never runs the fusion pass and lowers them correctly."""
        corpus = Path(__file__).resolve().parent.parent / "corpus"
        entry = json.loads((corpus / f"{bug_id}.json").read_text(encoding="utf-8"))
        model = model_from_dict(entry["model"])
        bugs = BugConfig.only(bug_id)
        compiled = DeepCCompiler(CompileOptions(opt_level=0, bugs=bugs)).compile_model(model)
        assert bug_id not in compiled.triggered_bugs
        with pytest.raises(TransformationError, match=bug_id):
            DeepCCompiler(CompileOptions(opt_level=2, bugs=bugs)).compile_model(model)

    def test_vectorize_remainder_bug_changes_results(self):
        builder = GraphBuilder("vecrem")
        x = builder.input([7])  # 7 % 4 != 0
        v = builder.op1("Sigmoid", [x])
        builder.output(v)
        model = builder.build()
        compiled = DeepCCompiler(CompileOptions(bugs=BugConfig.only(
            "deepc-lowlevel-vectorize-remainder"))).compile_model(model)
        assert "deepc-lowlevel-vectorize-remainder" in compiled.triggered_bugs
        inputs = {model.inputs[0]: np.linspace(0.1, 1.0, 7).astype(np.float32)}
        outputs = compiled.run(inputs)
        reference = Interpreter().run(model, inputs)
        key = model.outputs[0]
        assert not np.allclose(reference[key], outputs[key])
        # The first 4 (vectorized) elements are still correct.
        np.testing.assert_allclose(reference[key][:4], outputs[key][:4], rtol=1e-5)
        assert_matches_oracle(model)

    def test_unitloop_fusion_bug(self):
        builder = GraphBuilder("unitloop")
        x = builder.input([4, 4])
        v = builder.op1("ReduceSum", [x], axes=[1], keepdims=True)
        v = builder.op1("Sigmoid", [v])
        builder.output(v)
        model = builder.build()
        with pytest.raises(TransformationError, match="deepc-lowlevel-unitloop-fusion"):
            DeepCCompiler(CompileOptions(bugs=BugConfig.only(
                "deepc-lowlevel-unitloop-fusion"))).compile_model(model)
        assert_matches_oracle(model)

    def test_dead_store_elimination(self, mlp_model):
        graph, _ = convert_model(mlp_model, NO_BUGS)
        ctx = DeepCPassContext(bugs=NO_BUGS)
        run_pipeline(graph, ctx)
        module, _ = lower_graph(graph, NO_BUGS)
        # Inject a dead instruction.
        kernel = module.kernels[0]
        from repro.compilers.deepc.lowir import Buffer, TensorInstr

        dead_name = "dead_buffer"
        kernel.buffers[dead_name] = Buffer(dead_name, kernel.buffer(kernel.inputs[0]).ttype)
        kernel.instrs.append(TensorInstr("Relu", "dead", [kernel.inputs[0]],
                                         [dead_name], {}, loop_extent=1))
        before = len(kernel.instrs)
        low_ctx = LowPassContext(bugs=NO_BUGS)
        run_low_pipeline(module, low_ctx)
        assert len(kernel.instrs) < before

    def test_module_clone_independent(self, mlp_model):
        graph, _ = convert_model(mlp_model, NO_BUGS)
        module, _ = lower_graph(graph, NO_BUGS)
        clone = module.clone()
        clone.kernels[0].instrs[0].vector_width = 99
        assert module.kernels[0].instrs[0].vector_width != 99


class TestEndToEnd:
    def test_opt_levels_agree_without_bugs(self, conv_model):
        inputs = random_inputs(conv_model, np.random.default_rng(2))
        outputs = {}
        for level in (0, 1, 2):
            compiler = DeepCCompiler(CompileOptions(opt_level=level, bugs=NO_BUGS))
            outputs[level] = compiler.compile_model(conv_model).run(inputs)
        for level in (1, 2):
            for name in outputs[0]:
                np.testing.assert_allclose(outputs[0][name], outputs[level][name],
                                           rtol=1e-5)

    def test_supported_ops_interface(self):
        compiler = DeepCCompiler()
        assert "Erf" not in compiler.supported_ops(["Erf", "Relu"])
