"""Tests for operator specifications, the generator, binning and concretization."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ALL_SPECS,
    DEFAULT_OP_POOL,
    GeneratorConfig,
    GraphGenerator,
    SPEC_BY_KIND,
    generate_model,
    specs_for_ops,
)
from repro.core.abstract import AbsTensor, broadcast_dims
from repro.core.binning import apply_attribute_binning, binning_constraints_for, sample_from_bin
from repro.core.concretize import concretize
from repro.core.op_spec import MAX_RANK, SpecContext
from repro.dtypes import DType
from repro.graph.validate import validation_errors
from repro.ops.shape_infer import infer_output_types
from repro.runtime import Interpreter, random_inputs
from repro.solver import Solver


class TestAbstractTensor:
    def test_concretize(self):
        solver = Solver()
        dims = [solver.int_var("a", 1, 8), solver.int_var("b", 1, 8)]
        tensor = AbsTensor(DType.float32, dims)
        ttype = tensor.concretize({"a": 3, "b": 5})
        assert ttype.shape == (3, 5) and ttype.dtype is DType.float32

    def test_numel_and_positive_constraints(self):
        tensor = AbsTensor(DType.float32, [2, 3])
        assert tensor.numel().evaluate({}) == 6
        assert all(c.satisfied({}) for c in tensor.positive_constraints())

    def test_same_shape_requires_equal_rank(self):
        a = AbsTensor(DType.float32, [2, 3])
        b = AbsTensor(DType.float32, [2])
        with pytest.raises(ValueError):
            a.same_shape_as(b)

    def test_broadcast_dims(self):
        a = AbsTensor(DType.float32, [2, 1])
        b = AbsTensor(DType.float32, [3])
        dims, constraints = broadcast_dims(a, b)
        assert len(dims) == 2
        assert len(constraints) == 1  # only the aligned trailing dim pair


class TestSpecificationLibrary:
    def test_library_size(self):
        assert len(ALL_SPECS) >= 55

    @pytest.mark.parametrize("spec_cls", ALL_SPECS,
                             ids=[cls.__name__ for cls in ALL_SPECS])
    def test_dtype_combos_well_formed(self, spec_cls):
        combos = spec_cls.dtype_combos()
        assert combos
        for inputs, outputs in combos:
            assert len(outputs) >= 1
            assert all(isinstance(dtype, DType) for dtype in inputs + outputs)

    @pytest.mark.parametrize("spec_cls", ALL_SPECS,
                             ids=[cls.__name__ for cls in ALL_SPECS])
    def test_spec_agrees_with_concrete_shape_inference(self, spec_cls):
        """Insert each operator via its spec and cross-check the concrete types.

        This is the repo's equivalent of "generated graphs always type check":
        the symbolic type_transfer must agree with the concrete shape
        inference used by the validator and the compilers.
        """
        rng = random.Random(0)
        produced = 0
        for attempt in range(40):
            solver = Solver()
            ctx = SpecContext(solver, rng, max_dim=16)
            arity = rng.choice(spec_cls.arity_options())
            rank_options = spec_cls.input_rank_options()
            if len(rank_options) < arity:
                rank_options = rank_options + [rank_options[-1]] * (arity - len(rank_options))
            ranks = [rng.choice(options) for options in rank_options[:arity]]
            combos = [c for c in spec_cls.dtype_combos() if len(c[0]) == arity]
            if not combos:
                combos = spec_cls.dtype_combos()
            dtypes = rng.choice(combos)[0][:arity]
            inputs = [ctx.fresh_tensor(f"in{i}", rank, dtype)
                      for i, (rank, dtype) in enumerate(zip(ranks, dtypes))]
            if not spec_cls.accepts_ranks([t.rank for t in inputs]) or \
                    not spec_cls.accepts_dtypes([t.dtype for t in inputs]):
                continue
            spec = spec_cls.instantiate(ctx, inputs)
            if spec is None:
                continue
            constraints = list(spec.requires(inputs))
            outputs = spec.type_transfer(inputs)
            for out in outputs:
                constraints.extend(out.positive_constraints())
            if not solver.try_add_constraints(constraints):
                continue
            assignment = solver.model()
            node = spec.to_node([f"v{i}" for i in range(arity)],
                                [f"o{i}" for i in range(len(outputs))], assignment)
            concrete_inputs = [t.concretize(assignment) for t in inputs]
            inferred = infer_output_types(node, concrete_inputs)
            symbolic = [out.concretize(assignment) for out in outputs]
            assert [t.shape for t in inferred] == [t.shape for t in symbolic], spec_cls
            assert [t.dtype for t in inferred] == [t.dtype for t in symbolic], spec_cls
            produced += 1
            if produced >= 3:
                break
        assert produced > 0, f"could not exercise {spec_cls.__name__}"

    def test_specs_for_ops_filter(self):
        specs = specs_for_ops(["Relu", "Conv2d", "NotAnOp"])
        assert {cls.op_kind for cls in specs} == {"Relu", "Conv2d"}

    def test_spec_by_kind_consistency(self):
        for kind, cls in SPEC_BY_KIND.items():
            assert cls.op_kind == kind


class TestBinning:
    def test_sample_from_bin_ranges(self):
        rng = random.Random(0)
        for index in range(1, 7):
            low, high = sample_from_bin(index, 7, rng)
            assert 2 ** (index - 1) <= low <= high < 2 ** index + 1
        low, high = sample_from_bin(7, 7, rng)
        assert low == 64 and high is None

    def test_binning_constraints_reference_variable(self):
        rng = random.Random(0)
        constraints = binning_constraints_for("attr_x", rng, 7)
        assert constraints
        assert all("attr_x" in c.variables() for c in constraints)

    def test_binning_diversifies_attributes(self):
        """Binning must lift attribute values off the all-ones boundary."""
        def attribute_values(use_binning, seed):
            generated = generate_model(GeneratorConfig(
                n_nodes=10, seed=seed, use_binning=use_binning))
            values = []
            for node in generated.model.nodes:
                for key, value in node.attrs.items():
                    if isinstance(value, int) and key not in ("axis",):
                        values.append(value)
                shape_like = [v for v in generated.model.value_types.values()]
            values.extend(d for t in shape_like for d in t.shape)
            return values

        binned = []
        plain = []
        for seed in range(6):
            binned.extend(attribute_values(True, seed))
            plain.extend(attribute_values(False, seed))
        assert np.mean(binned) > np.mean(plain)

    def test_binning_keeps_system_satisfiable(self):
        generator = GraphGenerator(GeneratorConfig(n_nodes=8, seed=3))
        graph = generator.generate_symbolic()
        apply_attribute_binning(graph, generator.rng, k=7)
        model = graph.solver.model()
        for constraint in graph.solver.constraints:
            assert constraint.satisfied(model)


class TestGeneratorValidity:
    @pytest.mark.parametrize("seed", range(12))
    def test_generated_models_are_valid_and_runnable(self, seed):
        """The paper's central claim: every generated model type checks."""
        generated = generate_model(GeneratorConfig(n_nodes=10, seed=seed))
        assert validation_errors(generated.model) == []
        inputs = random_inputs(generated.model, np.random.default_rng(seed))
        Interpreter().run(generated.model, inputs)

    @pytest.mark.parametrize("n_nodes", [1, 3, 20])
    def test_respects_node_budget(self, n_nodes):
        generated = generate_model(GeneratorConfig(n_nodes=n_nodes, seed=1))
        assert 1 <= generated.n_nodes <= n_nodes

    def test_models_are_connected(self):
        generated = generate_model(GeneratorConfig(n_nodes=10, seed=5))
        assert generated.model.is_connected()

    def test_generator_is_deterministic_per_seed(self):
        first = generate_model(GeneratorConfig(n_nodes=8, seed=42))
        second = generate_model(GeneratorConfig(n_nodes=8, seed=42))
        assert [n.op for n in first.model.nodes] == [n.op for n in second.model.nodes]
        assert first.assignment == second.assignment

    def test_different_seeds_differ(self):
        ops_a = [n.op for n in generate_model(GeneratorConfig(n_nodes=10, seed=1)).model.nodes]
        ops_b = [n.op for n in generate_model(GeneratorConfig(n_nodes=10, seed=2)).model.nodes]
        assert ops_a != ops_b

    def test_backward_insertion_produces_multi_input_models(self):
        """Backward insertion lets placeholders multiply: some models should
        end up with several runtime inputs (multi-input models, §3.2)."""
        input_counts = [len(generate_model(GeneratorConfig(n_nodes=12, seed=s)).input_names)
                        for s in range(8)]
        assert max(input_counts) >= 2

    def test_weight_probability_zero_keeps_all_inputs(self):
        generated = generate_model(GeneratorConfig(n_nodes=6, seed=3,
                                                   weight_probability=0.0))
        assert not generated.weight_names

    def test_restricted_op_pool(self):
        pool = specs_for_ops(["Relu", "Add", "Sigmoid"])
        generated = generate_model(GeneratorConfig(n_nodes=6, seed=0, op_pool=pool))
        assert {node.op for node in generated.model.nodes} <= {"Relu", "Add", "Sigmoid"}

    def test_op_instances_recorded(self):
        generated = generate_model(GeneratorConfig(n_nodes=8, seed=0))
        assert len(generated.op_instances) == generated.n_nodes

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=12))
    def test_validity_property(self, seed, n_nodes):
        """Property-based version of the validity invariant."""
        generated = generate_model(GeneratorConfig(n_nodes=n_nodes, seed=seed))
        assert validation_errors(generated.model) == []


class TestConcretize:
    def test_assignment_satisfies_solver(self):
        generator = GraphGenerator(GeneratorConfig(n_nodes=6, seed=9))
        graph = generator.generate_symbolic()
        generated = concretize(graph, generator.rng)
        for constraint in graph.solver.constraints:
            assert constraint.satisfied(generated.assignment)

    def test_weights_have_requested_split(self):
        generated = generate_model(GeneratorConfig(n_nodes=10, seed=11,
                                                   weight_probability=1.0))
        # At least one placeholder is forced to stay a runtime input.
        assert len(generated.input_names) >= 1
