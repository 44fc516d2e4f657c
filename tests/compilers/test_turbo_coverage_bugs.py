"""Tests for Turbo, the coverage tracer and the seeded-bug registry."""

import numpy as np
import pytest

from repro.compilers import (
    BugConfig,
    CompileOptions,
    CoverageTracer,
    DeepCCompiler,
    GraphRTCompiler,
    TurboCompiler,
    all_bugs,
    bug_spec,
    bugs_of_system,
    estimate_total_arcs,
    make_compiler,
)
from repro.compilers.coverage import is_pass_file
from repro.dtypes import DType
from repro.errors import ConversionError, TransformationError
from repro.graph.builder import GraphBuilder
from repro.runtime import Interpreter, random_inputs

from repro.testing import build_conv_model


class TestTurbo:
    def test_matches_oracle_without_bugs(self, conv_model, rng):
        compiler = TurboCompiler(CompileOptions(bugs=BugConfig.none()))
        engine = compiler.compile_model(conv_model)
        inputs = random_inputs(conv_model, rng)
        reference = Interpreter().run(conv_model, inputs)
        outputs = engine.run(inputs)
        for name in reference:
            np.testing.assert_allclose(reference[name], outputs[name], rtol=1e-4)

    def test_closed_source_flag(self):
        assert TurboCompiler.open_source is False
        assert GraphRTCompiler.open_source and DeepCCompiler.open_source

    def test_clip_int32_bug_semantic(self):
        builder = GraphBuilder("clip32")
        x = builder.input([4], DType.int32)
        builder.op1("Clip", [x], min=-2, max=2)
        model = builder.build()
        model.nodes[0].attrs["opset_unsupported"] = True  # as the exporter bug does
        engine = TurboCompiler(CompileOptions(bugs=BugConfig.only(
            "turbo-clip-int32-dtype"))).compile_model(model)
        assert "turbo-clip-int32-dtype" in engine.triggered_bugs
        outputs = engine.run({model.inputs[0]: np.array([-3, -1, 0, 5], dtype=np.int32)})
        assert not np.array_equal(list(outputs.values())[0], [-2, -1, 0, 2])

    def test_clip_int32_rejected_without_bug(self):
        builder = GraphBuilder("clip32b")
        x = builder.input([4], DType.int32)
        builder.op1("Clip", [x], min=-2, max=2)
        model = builder.build()
        model.nodes[0].attrs["opset_unsupported"] = True
        with pytest.raises(ConversionError):
            TurboCompiler(CompileOptions(bugs=BugConfig.none())).compile_model(model)

    def test_pow_high_rank_exponent_crash(self):
        builder = GraphBuilder("pow3")
        x = builder.input([2, 3, 4])
        e = builder.input([2, 3, 4])
        builder.op1("Pow", [x, e])
        model = builder.build()
        with pytest.raises(TransformationError, match="turbo-pow-kernel-large-exponent"):
            TurboCompiler(CompileOptions(bugs=BugConfig.only(
                "turbo-pow-kernel-large-exponent"))).compile_model(model)

    def test_concat_many_inputs_crash(self):
        builder = GraphBuilder("bigconcat")
        parts = [builder.input([2, 2]) for _ in range(5)]
        builder.op("Concat", parts, axis=0)
        model = builder.build()
        with pytest.raises(TransformationError, match="turbo-concat-many-inputs"):
            TurboCompiler(CompileOptions(bugs=BugConfig.only(
                "turbo-concat-many-inputs"))).compile_model(model)

    def test_softmax_axis0_fusion_semantic(self):
        builder = GraphBuilder("sm0")
        x = builder.input([4, 3])
        b = builder.weight(np.random.rand(4, 3).astype(np.float32))
        v = builder.op1("Add", [x, b])
        v = builder.op1("Softmax", [v], axis=0)
        builder.output(v)
        model = builder.build()
        engine = TurboCompiler(CompileOptions(bugs=BugConfig.only(
            "turbo-softmax-axis0-fusion"))).compile_model(model)
        assert "turbo-softmax-axis0-fusion" in engine.triggered_bugs
        inputs = random_inputs(model, np.random.default_rng(0))
        outputs = engine.run(inputs)
        sums = list(outputs.values())[0].sum(axis=0)
        assert not np.allclose(sums, np.ones_like(sums))

    def test_seeded_bug_recorded_once_per_compile(self):
        """Two fused Add->Softmax(axis 0) chains list their seeded bug once,
        like every other recorder (dedup keys join the sorted marks)."""
        builder = GraphBuilder("sm0x2")
        for _ in range(2):
            x = builder.input([4, 3])
            b = builder.weight(np.random.rand(4, 3).astype(np.float32))
            v = builder.op1("Add", [x, b])
            builder.output(builder.op1("Softmax", [v], axis=0))
        model = builder.build()
        engine = TurboCompiler(CompileOptions(opt_level=2, bugs=BugConfig.only(
            "turbo-softmax-axis0-fusion"))).compile_model(model)
        assert engine.triggered_bugs == ["turbo-softmax-axis0-fusion"]

    def test_make_compiler_factory(self):
        for name in ("graphrt", "deepc", "turbo"):
            assert make_compiler(name).name == name
        with pytest.raises(KeyError):
            make_compiler("tvm")


class TestCoverageTracer:
    def test_traces_only_selected_systems(self, conv_model, rng):
        tracer = CoverageTracer(systems=("graphrt",))
        with tracer:
            GraphRTCompiler(CompileOptions(bugs=BugConfig.none())).compile_model(conv_model)
        graphrt_arcs = tracer.count()
        assert graphrt_arcs > 0
        tracer_deepc_only = CoverageTracer(systems=("deepc",))
        with tracer_deepc_only:
            GraphRTCompiler(CompileOptions(bugs=BugConfig.none())).compile_model(conv_model)
        assert tracer_deepc_only.count() == 0

    def test_pass_only_scope_is_subset(self, conv_model):
        tracer = CoverageTracer()
        with tracer:
            DeepCCompiler(CompileOptions(bugs=BugConfig.none())).compile_model(conv_model)
        assert 0 < tracer.count(pass_only=True) <= tracer.count()

    def test_accumulates_across_runs(self, conv_model, mlp_model):
        tracer = CoverageTracer(systems=("graphrt",))
        compiler = GraphRTCompiler(CompileOptions(bugs=BugConfig.none()))
        with tracer:
            compiler.compile_model(mlp_model)
        first = tracer.count()
        with tracer:
            compiler.compile_model(conv_model)
        assert tracer.count() >= first

    def test_reset(self, mlp_model):
        tracer = CoverageTracer(systems=("graphrt",))
        with tracer:
            GraphRTCompiler(CompileOptions(bugs=BugConfig.none())).compile_model(mlp_model)
        tracer.reset()
        assert tracer.count() == 0

    def test_is_pass_file(self):
        import os

        assert is_pass_file(os.path.join("graphrt", "passes", "fusion.py"))
        assert is_pass_file(os.path.join("deepc", "lowpasses", "loops.py"))
        assert not is_pass_file(os.path.join("deepc", "compiler.py"))

    def test_estimate_total_arcs_positive(self):
        total = estimate_total_arcs()
        pass_only = estimate_total_arcs(pass_only=True)
        assert total > pass_only > 0


class TestBugRegistry:
    def test_registry_is_populated(self):
        assert len(all_bugs()) >= 25

    def test_every_bug_well_formed(self):
        for spec in all_bugs():
            assert spec.system in ("graphrt", "deepc", "turbo", "exporter",
                                   "autodiff")
            assert spec.phase in ("transformation", "conversion", "unclassified")
            assert spec.symptom in ("crash", "semantic", "perf", "gradient",
                                    "verifier")
            assert spec.required_features
            assert spec.description

    def test_distribution_shape_matches_paper(self):
        """DeepC (TVM) carries the most bugs; transformation bugs dominate."""
        per_system = {system: len(bugs_of_system(system))
                      for system in ("graphrt", "deepc", "turbo", "exporter")}
        assert per_system["deepc"] == max(per_system.values())
        transformation = sum(1 for spec in all_bugs() if spec.phase == "transformation")
        conversion = sum(1 for spec in all_bugs() if spec.phase == "conversion")
        assert transformation > conversion
        crash = sum(1 for spec in all_bugs() if spec.symptom == "crash")
        semantic = sum(1 for spec in all_bugs() if spec.symptom == "semantic")
        assert crash > semantic

    def test_config_all_none_only(self):
        assert len(BugConfig.all().enabled_ids()) == len(all_bugs())
        assert not BugConfig.none().enabled_ids()
        only = BugConfig.only("deepc-import-scalar-reduce")
        assert only.enabled("deepc-import-scalar-reduce")
        assert not only.enabled("deepc-import-matmul-vector")

    def test_unknown_bug_id_rejected(self):
        with pytest.raises(KeyError):
            BugConfig.only("not-a-bug")
        with pytest.raises(KeyError):
            BugConfig.all().enabled("not-a-bug")

    def test_bug_spec_lookup(self):
        spec = bug_spec("deepc-layout-broadcast-add")
        assert spec.system == "deepc"
        assert spec.phase == "transformation"
