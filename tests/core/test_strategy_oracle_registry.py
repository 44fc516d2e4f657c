"""Tests for the generation-strategy and oracle registries.

Covers registration round-trips, the purity/determinism contract of every
builtin strategy, worker-style rebuild-by-name (picklability), the seed-
stream back-compat guarantee for the default strategy, the
``StrategyCaseGenerator`` adapter, the deprecation shim (direct
``DifferentialTester`` construction), and the crash classification every
built-in oracle shares with ``difftest``.
"""

import json
import pickle

import numpy as np
import pytest

from repro.compilers.bugs import BugConfig
from repro.core.concretize import GeneratedModel
from repro.core.difftest import DifferentialTester
from repro.core.fuzzer import FuzzerConfig, generate_for_iteration, iteration_seed
from repro.core.oracle import (
    DEFAULT_ORACLE,
    BaseOracle,
    CrashOnlyOracle,
    build_oracle,
    register_oracle,
    registered_oracles,
)
from repro.core.parallel import default_compiler_factory
from repro.core.strategy import (
    DEFAULT_STRATEGY,
    GenerationStrategy,
    StrategyCapabilities,
    build_strategy,
    register_strategy,
    registered_strategies,
    strategy_entropy,
)
from repro.core.targeted import MOTIFS
from repro.errors import (CompilerError, ConversionError, ExecutionError,
                          IRVerificationError)
from repro.graph.serialize import model_to_dict
from repro.graph.validate import validation_errors
from repro.testing import build_mlp_model

ALL_STRATEGIES = ("graphfuzzer", "lemon", "nnsmith", "targeted", "tzer")


def _model_fingerprint(generated: GeneratedModel) -> str:
    return json.dumps(model_to_dict(generated.model), sort_keys=True,
                      default=str)


class TestStrategyRegistry:
    def test_builtins_registered(self):
        assert set(registered_strategies()) >= set(ALL_STRATEGIES)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(KeyError, match="csmith"):
            build_strategy("csmith", FuzzerConfig())

    def test_register_round_trip(self):
        class EchoStrategy(GenerationStrategy):
            name = "echo-test"
            capabilities = StrategyCapabilities()

            def __init__(self, config):
                self.config = config

            def generate(self, seed, iteration):
                raise NotImplementedError

        register_strategy("echo-test", EchoStrategy)
        try:
            assert "echo-test" in registered_strategies()
            built = build_strategy("echo-test", FuzzerConfig())
            assert isinstance(built, EchoStrategy)
            # idempotent re-registration of the same factory
            register_strategy("echo-test", EchoStrategy)
            # ... but a different factory under the name is an error
            with pytest.raises(ValueError, match="already registered"):
                register_strategy("echo-test", lambda config: None)
        finally:
            from repro.core import strategy as strategy_module

            strategy_module._STRATEGY_REGISTRY.pop("echo-test", None)

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_generate_is_pure_and_valid(self, name):
        strategy = build_strategy(name, FuzzerConfig())
        for iteration in (1, 7):
            first = strategy.generate(99 + iteration, iteration)
            again = strategy.generate(99 + iteration, iteration)
            assert _model_fingerprint(first) == _model_fingerprint(again)
            assert validation_errors(first.model) == []
            assert first.op_instances

    def test_capabilities_match_designs(self):
        config = FuzzerConfig()
        nnsmith = build_strategy("nnsmith", config)
        assert nnsmith.capabilities.supports_op_pool
        assert nnsmith.capabilities.needs_value_search
        for baseline in ("graphfuzzer", "lemon", "tzer", "targeted"):
            caps = build_strategy(baseline, config).capabilities
            assert not caps.supports_op_pool
            assert not caps.needs_value_search

    def test_configs_with_strategy_names_are_picklable(self):
        config = FuzzerConfig(strategy="targeted", oracle="crash")
        clone = pickle.loads(pickle.dumps(config))
        assert clone.strategy == "targeted"
        assert clone.oracle == "crash"
        # ... and the worker-side rebuild yields the named implementations
        assert build_strategy(clone.strategy, clone).name == "targeted"
        oracle = build_oracle(clone.oracle,
                              default_compiler_factory(clone.bugs),
                              bugs=clone.bugs)
        assert oracle.name == "crash"

    def test_targeted_round_robins_every_motif(self):
        strategy = build_strategy("targeted", FuzzerConfig())
        names = {strategy.generate(iteration, iteration).model.name
                 for iteration in range(1, len(MOTIFS) + 1)}
        assert len(names) == len(MOTIFS)


class TestSeedStreams:
    def test_default_strategy_streams_unchanged(self):
        # The nnsmith streams must be bit-identical with and without the
        # strategy tag: existing campaign seeds and the frozen corpus rely
        # on it.
        assert strategy_entropy(None) is None
        assert strategy_entropy(DEFAULT_STRATEGY) is None
        assert iteration_seed(3, 7, 11) == \
            iteration_seed(3, 7, 11, strategy=DEFAULT_STRATEGY)

    def test_other_strategies_get_disjoint_streams(self):
        base = {iteration_seed(0, None, i) for i in range(1, 51)}
        tagged = {iteration_seed(0, None, i, strategy="targeted")
                  for i in range(1, 51)}
        assert not base & tagged

    def test_generate_for_iteration_uses_config_strategy(self):
        config = FuzzerConfig(strategy="targeted")
        generated = generate_for_iteration(config, 3)
        assert generated is not None
        assert generated.model.name.startswith("targeted_")


#: One failure per verdict class of the shared judging step: the error a
#: scripted system raises at compile time (None: it compiles, recording a
#: seeded bug and a modifying pass, then raises ``ExecutionError`` at run
#: time) and the verdict every oracle must return for it.
FAILURES = {
    "conversion": (ConversionError, "crash", "conversion",
                   ["graphrt-fail"], []),
    "transformation": (CompilerError, "crash", "transformation",
                       ["graphrt-fail"], []),
    "verifier": (IRVerificationError, "verifier", "transformation",
                 ["graphrt-fail"], []),
    "execution": (None, "crash", "execution",
                  ["graphrt-compiled", "graphrt-fail"], ["SomePass"]),
}


class _FailingSystem:
    """Scripted system under test failing as one :data:`FAILURES` entry."""

    name = "failing"

    def __init__(self, compile_error):
        self.compile_error = compile_error

    def compile_model(self, model):
        if self.compile_error is not None:
            raise self.compile_error("[graphrt-fail] scripted compile failure")

        class _Compiled:
            triggered_bugs = ["graphrt-compiled"]
            modified_by = ["SomePass"]

            def run(self, inputs):
                raise ExecutionError("[graphrt-fail] scripted kernel fault")

        return _Compiled()


class TestOracleRegistry:
    def test_builtins_registered(self):
        assert set(registered_oracles()) >= {"crash", DEFAULT_ORACLE}

    def test_unknown_oracle_rejected(self):
        with pytest.raises(KeyError, match="haruspex"):
            build_oracle("haruspex", [])

    def test_register_round_trip(self):
        def factory(compilers, bugs):
            return CrashOnlyOracle(compilers, bugs)

        register_oracle("crash-alias-test", factory)
        try:
            oracle = build_oracle("crash-alias-test",
                                  default_compiler_factory(BugConfig.all()))
            assert isinstance(oracle, CrashOnlyOracle)
            with pytest.raises(ValueError, match="already registered"):
                register_oracle("crash-alias-test", lambda c, b: None)
        finally:
            from repro.core import oracle as oracle_module

            oracle_module._ORACLE_REGISTRY.pop("crash-alias-test", None)

    def test_default_oracle_is_the_differential_tester(self):
        oracle = build_oracle(DEFAULT_ORACLE,
                              default_compiler_factory(BugConfig.all()))
        assert isinstance(oracle, DifferentialTester)
        assert oracle.name == DEFAULT_ORACLE

    def test_difftest_evaluate_matches_run_case(self, rng):
        oracle = build_oracle(DEFAULT_ORACLE,
                              default_compiler_factory(BugConfig.none()),
                              bugs=BugConfig.none())
        model = build_mlp_model()
        from repro.runtime.interpreter import random_inputs

        inputs = random_inputs(model, rng)
        verdicts = oracle.evaluate(model, inputs)
        assert [v.status for v in verdicts] == ["ok", "ok", "ok"]

    def test_crash_oracle_sees_crashes_not_semantics(self):
        bugs = BugConfig.all()
        oracle = CrashOnlyOracle(default_compiler_factory(bugs), bugs)
        from pathlib import Path

        corpus = Path(__file__).resolve().parent.parent / "corpus"
        from repro.dtypes import DType
        from repro.graph.serialize import model_from_dict

        def replay(bug_id):
            entry = json.loads(
                (corpus / f"{bug_id}.json").read_text(encoding="utf-8"))
            model = model_from_dict(entry["model"])
            inputs = {
                name: np.array(value["data"],
                               dtype=DType.from_str(value["dtype"]).numpy
                               ).reshape(value["shape"])
                for name, value in entry["inputs"].items()
            }
            return oracle.run_case(model, inputs=inputs)

        crash_case = replay("turbo-concat-many-inputs")
        assert any(v.status == "crash" and
                   "turbo-concat-many-inputs" in v.triggered_bugs
                   for v in crash_case.verdicts)
        # a semantic corpus bug executes its buggy path but the crash-only
        # oracle never raises a semantic alarm
        semantic_case = replay("graphrt-relu-clip-fusion-f64")
        assert all(v.status != "semantic" for v in semantic_case.verdicts)

    @pytest.mark.parametrize("failure", sorted(FAILURES))
    @pytest.mark.parametrize("oracle_name",
                             ["crash", "difftest", "gradcheck", "perf",
                              "shape"])
    def test_failures_are_classified_like_difftest(self, oracle_name,
                                                   failure):
        """Every built-in oracle classifies a crash and credits its seeded
        bugs and pass provenance exactly like ``difftest`` (the MLP keeps
        gradcheck on its way to the compile step)."""
        compile_error, *expected = FAILURES[failure]

        def judged(name):
            oracle = build_oracle(name, [_FailingSystem(compile_error)],
                                  bugs=BugConfig.none())
            case = oracle.run_case(build_mlp_model())
            (verdict,) = [v for v in case.verdicts
                          if v.compiler == _FailingSystem.name]
            return [verdict.status, verdict.phase, verdict.triggered_bugs,
                    verdict.modified_by]

        assert judged(DEFAULT_ORACLE) == expected
        assert judged(oracle_name) == expected

    def test_base_oracle_requires_evaluate(self):
        oracle = BaseOracle([], BugConfig.none())
        with pytest.raises(NotImplementedError):
            oracle.evaluate(build_mlp_model(), {})


class TestStrategyCaseGenerator:
    def test_wraps_registered_strategies(self):
        from repro.experiments import StrategyCaseGenerator

        generator = StrategyCaseGenerator("graphfuzzer", seed=0, n_nodes=5)
        assert generator.name == "graphfuzzer"
        assert validation_errors(generator.next_case()) == []
        nnsmith = StrategyCaseGenerator("nnsmith", seed=0, n_nodes=5)
        model = nnsmith.next_case()
        assert validation_errors(model) == []
        assert nnsmith.op_instances


class TestDeprecationShims:
    def test_direct_differential_tester_construction(self):
        # The pre-registry spelling keeps working for library users.
        tester = DifferentialTester(default_compiler_factory(BugConfig.none()),
                                    bugs=BugConfig.none())
        case = tester.run_case(build_mlp_model())
        assert [v.status for v in case.verdicts] == ["ok", "ok", "ok"]
