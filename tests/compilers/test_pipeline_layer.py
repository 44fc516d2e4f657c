"""The shared pass-pipeline layer: specs, canonical levels, sampling, tokens.

This is the unification layer the three historical pass frameworks
(graphrt passes, deepc graph passes, deepc low passes) now register into;
these tests pin its contracts — the single opt-level interpretation point,
deterministic pipeline sampling, the token vocabulary the matrix axis
speaks, and user-pass registration.
"""

import numpy as np
import pytest

from repro.compilers.base import CompileOptions
from repro.compilers.bugs import BugConfig
from repro.compilers.graphrt.compiler import GraphRTCompiler
from repro.compilers.pipeline import (
    STAGES,
    PipelineContext,
    PipelinePass,
    PipelineSpec,
    _REGISTRY,
    canonical_order,
    canonical_spec,
    create_pass,
    describe_pass_registry,
    expand_pipeline_tokens,
    register_pass,
    registered_passes,
    resolve_pipeline,
    run_pass_pipeline,
    sample_spec,
)
from repro.testing import build_mlp_model


class TestCanonicalSpecs:
    def test_o0_runs_nothing_anywhere(self):
        spec = canonical_spec(0)
        for stage in STAGES:
            assert spec.passes(stage) == ()

    def test_o2_is_the_canonical_order(self):
        spec = canonical_spec(2)
        for stage in STAGES:
            assert spec.passes(stage) == canonical_order(stage)

    def test_o1_filters_by_min_opt_level_not_by_backend(self):
        # The only O2-gated passes live in deepc-low; O1 must drop exactly
        # those — this is the single spec-level replacement for the
        # per-pass gating the three old runners each reimplemented.
        o1, o2 = canonical_spec(1), canonical_spec(2)
        assert o1.passes("graphrt") == o2.passes("graphrt")
        assert o1.passes("deepc-graph") == o2.passes("deepc-graph")
        dropped = set(o2.passes("deepc-low")) - set(o1.passes("deepc-low"))
        assert dropped == {"VectorizeInnerLoop", "PlanBufferReuse"}

    def test_every_stage_has_passes(self):
        for stage in STAGES:
            assert registered_passes(stage)
            assert canonical_order(stage)


class TestPipelineSpec:
    def test_dict_round_trip(self):
        spec = sample_spec(3, 1)
        assert PipelineSpec.from_dict(spec.to_dict()) == spec

    def test_validate_rejects_unknown_pass(self):
        spec = PipelineSpec.from_stage_map("bad", {"graphrt": ["NoSuchPass"]})
        with pytest.raises(KeyError, match="NoSuchPass"):
            spec.validate()

    def test_validate_rejects_unknown_stage(self):
        spec = PipelineSpec.from_stage_map("bad", {"llvm": []})
        with pytest.raises(KeyError, match="llvm"):
            spec.validate()

    def test_absent_stage_runs_no_passes(self):
        spec = PipelineSpec.from_stage_map("partial",
                                           {"graphrt": ["DeadCodeElimination"]})
        assert spec.passes("deepc-graph") == ()


class TestSampling:
    def test_pure_function_of_seed_and_index(self):
        assert sample_spec(11, 4) == sample_spec(11, 4)
        assert sample_spec(11, 4) != sample_spec(11, 5)

    def test_samples_are_valid_and_nonempty(self):
        for index in range(8):
            spec = sample_spec(99, index).validate()
            for stage in STAGES:
                assert spec.passes(stage), "sampler must keep >= 1 pass"

    def test_samples_vary_order_and_subset(self):
        draws = {sample_spec(7, index).passes("graphrt") for index in range(16)}
        assert len(draws) > 1


class TestTokens:
    def test_opt_tokens_resolve_to_canonical_specs(self):
        assert resolve_pipeline("O0") == canonical_spec(0)
        assert resolve_pipeline("O2") == canonical_spec(2)

    def test_rand_tokens_resolve_to_samples(self):
        assert resolve_pipeline("rand:5:2") == sample_spec(5, 2)

    def test_sampler_token_must_be_expanded_first(self):
        with pytest.raises(KeyError, match="expand"):
            resolve_pipeline("random:3@7")

    def test_garbage_token_rejected(self):
        with pytest.raises(KeyError):
            resolve_pipeline("Ox")

    def test_expansion_is_deterministic_and_seed_dependent(self):
        first = expand_pipeline_tokens(["O2", "random:3@7"], campaign_seed=42)
        again = expand_pipeline_tokens(["O2", "random:3@7"], campaign_seed=42)
        other = expand_pipeline_tokens(["O2", "random:3@7"], campaign_seed=43)
        assert first == again
        assert first != other
        assert first[0] == "O2" and len(first) == 4
        for token in first[1:]:
            resolve_pipeline(token).validate()

    def test_expansion_dedups_and_validates(self):
        assert expand_pipeline_tokens(["O2", "O2"], 0) == ["O2"]
        with pytest.raises(KeyError):
            expand_pipeline_tokens(["bogus"], 0)
        with pytest.raises(ValueError):
            expand_pipeline_tokens(["random:0@1"], 0)

    @pytest.mark.parametrize("token", [
        "O02", "O00", "O+2", "O\u0662", "rand:05:1", "rand:5:01", "rand:00:0",
        "random:02@7", "random:2@07"])
    def test_every_pipeline_has_one_spelling(self, token):
        # A second spelling of a pipeline would name a second cell for it
        # (``--pipelines O2,O02``): numbers carry no sign and no leading
        # zero, in ASCII digits.
        with pytest.raises(KeyError, match="unknown pipeline token"):
            resolve_pipeline(token)
        with pytest.raises(KeyError, match="unknown pipeline token"):
            expand_pipeline_tokens(["O2", token], campaign_seed=0)
        assert resolve_pipeline("rand:0:0") == sample_spec(0, 0)


class _UppercaseNames(PipelinePass):
    """Toy user pass: rename every node to uppercase (idempotent-ish)."""

    def run(self, model, ctx):
        changed = False
        for node in model.nodes:
            if node.name != node.name.upper():
                node.name = node.name.upper()
                changed = True
        return changed


class TestUserPasses:
    def test_register_run_and_listing(self):
        register_pass("graphrt", _UppercaseNames)
        try:
            assert "_UppercaseNames" in registered_passes("graphrt")
            # user passes never join the canonical pipelines
            assert "_UppercaseNames" not in canonical_order("graphrt")
            assert "[user-registered]" in describe_pass_registry()
            model = build_mlp_model()
            ctx = PipelineContext(bugs=BugConfig.none())
            applied = run_pass_pipeline("graphrt", model, ctx,
                                        ["_UppercaseNames"])
            assert applied == ["_UppercaseNames"]
            assert ctx.modified_by == ["_UppercaseNames"]
            assert all(n.name == n.name.upper() for n in model.nodes)
        finally:
            _REGISTRY["graphrt"].pop("_UppercaseNames", None)

    def test_conflicting_registration_rejected(self):
        register_pass("graphrt", _UppercaseNames)
        try:
            register_pass("graphrt", _UppercaseNames)  # same class: idempotent

            class Impostor(PipelinePass):
                def run(self, ir, ctx):
                    return False

            Impostor.__name__ = "_UppercaseNames"
            with pytest.raises(ValueError, match="already registered"):
                register_pass("graphrt", Impostor)
        finally:
            _REGISTRY["graphrt"].pop("_UppercaseNames", None)

    def test_unknown_stage_rejected(self):
        with pytest.raises(KeyError, match="unknown pipeline stage"):
            register_pass("llvm", _UppercaseNames)


class TestCompilersHonorSpecs:
    def test_explicit_spec_overrides_opt_level(self):
        spec = PipelineSpec.from_stage_map(
            "just-dce", {"graphrt": ["DeadCodeElimination"]})
        compiler = GraphRTCompiler(CompileOptions(
            opt_level=2, bugs=BugConfig.none(), pipeline=spec))
        compiled = compiler.compile_model(build_mlp_model())
        assert compiled.applied_passes == ["DeadCodeElimination"]

    def test_no_spec_means_canonical_pipeline_of_opt_level(self):
        compiler = GraphRTCompiler(CompileOptions(opt_level=2,
                                                  bugs=BugConfig.none()))
        compiled = compiler.compile_model(build_mlp_model())
        assert tuple(compiled.applied_passes) == \
            canonical_spec(2).passes("graphrt")

    def test_modified_by_provenance_is_recorded(self):
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder("ident")
        x = builder.input([2, 4])
        hidden = builder.op1("Identity", [x])
        out = builder.op1("Relu", [hidden])
        builder.output(out)
        compiler = GraphRTCompiler(CompileOptions(opt_level=2,
                                                  bugs=BugConfig.none()))
        compiled = compiler.compile_model(builder.build())
        assert set(compiled.modified_by) <= set(compiled.applied_passes)
        assert "EliminateIdentity" in compiled.modified_by

    def test_run_pass_pipeline_default_matches_ctx_opt_level(self):
        model = build_mlp_model()
        ctx = PipelineContext(bugs=BugConfig.none(), opt_level=0)
        assert run_pass_pipeline("graphrt", model, ctx) == []
