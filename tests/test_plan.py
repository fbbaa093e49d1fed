"""SelectionPlan: construction-time validation, immutability, keying —
uniformly enforced through the plan itself, the legacy shims and the
fluent array methods."""

import dataclasses

import pytest

import repro
from repro.core.plan import SEQUENTIAL_METHODS, as_plan
from repro.errors import ConfigurationError
from repro.selection import ALGORITHMS, FastRandomizedParams


class TestValidation:
    def test_unknown_algorithm_names_options(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm") as ei:
            repro.SelectionPlan(algorithm="quantum")
        for name in ALGORITHMS:
            assert name in str(ei.value)

    def test_unknown_balancer_names_options(self):
        with pytest.raises(ConfigurationError, match="unknown balancer") as ei:
            repro.SelectionPlan(balancer="wat")
        for name in ["none", "omlb", "modified_omlb", "dimension_exchange",
                     "global_exchange"]:
            assert name in str(ei.value)

    def test_unknown_backend_names_options(self):
        from repro.machine import available_backends

        with pytest.raises(ConfigurationError, match="unknown backend") as ei:
            repro.SelectionPlan(backend="mpi")
        for name in available_backends():
            assert name in str(ei.value)

    def test_known_backends_construct(self):
        from repro.machine import available_backends

        for name in available_backends():
            assert repro.SelectionPlan(backend=name).backend == name
        assert repro.SelectionPlan(backend=None).backend is None

    def test_unknown_topology_names_options(self):
        from repro.machine import available_topologies

        with pytest.raises(ConfigurationError, match="unknown topology") as ei:
            repro.SelectionPlan(topology="torus")
        for name in available_topologies():
            assert name in str(ei.value)

    def test_known_topologies_construct(self):
        from repro.machine import available_topologies

        for name in available_topologies():
            assert repro.SelectionPlan(topology=name).topology == name
        assert repro.SelectionPlan(topology=None).topology is None

    def test_topology_spec_canonicalised(self):
        # Aliases resolve; a two-level cluster size survives.
        assert repro.SelectionPlan(topology="tree").topology == "binomial-tree"
        assert (
            repro.SelectionPlan(topology="two-level:4").topology
            == "two-level:4"
        )

    def test_bad_topology_parameters(self):
        with pytest.raises(ConfigurationError, match="cluster size"):
            repro.SelectionPlan(topology="two-level:0")
        with pytest.raises(ConfigurationError, match="no parameter"):
            repro.SelectionPlan(topology="hypercube:4")

    @pytest.mark.parametrize("field", ["sequential_method", "impl_override"])
    def test_unknown_sequential_method_names_options(self, field):
        with pytest.raises(
            ConfigurationError, match="unknown sequential method"
        ) as ei:
            repro.SelectionPlan(**{field: "bogosort"})
        for name in SEQUENTIAL_METHODS:
            assert name in str(ei.value)

    @pytest.mark.parametrize("field", ["endgame_threshold", "max_iterations"])
    @pytest.mark.parametrize("bad", [-1, 2.5, "many", True])
    def test_bad_limits(self, field, bad):
        with pytest.raises(ConfigurationError):
            repro.SelectionPlan(**{field: bad})

    @pytest.mark.parametrize("field", ["endgame_threshold", "max_iterations"])
    def test_zero_limits_allowed(self, field):
        # 0 is meaningful: the guard fires immediately / threshold clamps.
        assert getattr(repro.SelectionPlan(**{field: 0}), field) == 0

    def test_bad_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            repro.SelectionPlan(seed="lucky")
        with pytest.raises(ConfigurationError, match="seed"):
            repro.SelectionPlan(seed=True)

    def test_numpy_integers_coerced(self):
        import numpy as np

        plan = repro.SelectionPlan(
            seed=np.int64(3), max_iterations=np.int32(7),
            endgame_threshold=np.uint16(64),
        )
        assert plan.seed == 3 and type(plan.seed) is int
        assert plan.max_iterations == 7 and type(plan.max_iterations) is int
        assert plan.endgame_threshold == 64
        # The legacy shims accept them too (pre-Session behaviour).
        data = repro.Machine(n_procs=2).generate(100, seed=0)
        a = repro.select(data, 50, seed=np.int64(3))
        b = repro.select(data, 50, seed=3)
        assert a.value == b.value
        assert a.simulated_time == b.simulated_time

    def test_bad_fast_params(self):
        with pytest.raises(ConfigurationError, match="fast_params"):
            repro.SelectionPlan(fast_params={"delta": 0.6})

    def test_every_registered_algorithm_constructs(self):
        for name in ALGORITHMS:
            assert repro.SelectionPlan(algorithm=name).algorithm == name

    def test_balancer_instance_and_class_accepted(self):
        from repro.balance.global_exchange import GlobalExchange

        assert repro.SelectionPlan(balancer=GlobalExchange)
        assert repro.SelectionPlan(balancer=GlobalExchange())
        assert repro.SelectionPlan(balancer=None)


class TestUniformErrorSurface:
    """The same ConfigurationError reaches callers through every entry
    point: plan construction, legacy shims, fluent methods, sessions."""

    @pytest.fixture()
    def data(self):
        return repro.Machine(n_procs=2).generate(100, seed=0)

    def test_legacy_select(self, data):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            repro.select(data, 1, algorithm="quantum")
        with pytest.raises(ConfigurationError, match="unknown balancer"):
            repro.select(data, 1, balancer="wat")
        with pytest.raises(ConfigurationError, match="unknown sequential"):
            repro.select(data, 1, sequential_method="bogosort")

    def test_legacy_multi_select_and_quantiles(self, data):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            repro.multi_select(data, [1, 2], algorithm="quantum")
        with pytest.raises(ConfigurationError, match="unknown balancer"):
            repro.quantiles(data, [0.5], balancer="wat")

    def test_fluent_methods(self, data):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            data.select(1, algorithm="quantum")
        with pytest.raises(ConfigurationError, match="unknown balancer"):
            data.median(balancer="wat")
        with pytest.raises(ConfigurationError, match="unknown sequential"):
            data.quantiles([0.5], sequential_method="bogosort")
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            data.multi_select([1, 2], algorithm="quantum")

    def test_session_queries(self, data):
        session = data.machine.session()
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            session.select(data, 1, algorithm="quantum")
        with pytest.raises(ConfigurationError, match="unknown balancer"):
            session.median(data, balancer="wat")

    def test_session_default_plan_validated(self, data):
        with pytest.raises(ConfigurationError, match="SelectionPlan"):
            repro.Session(data.machine, plan="fast_randomized")


class TestPlanObject:
    def test_frozen(self):
        plan = repro.SelectionPlan()
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.algorithm = "randomized"

    def test_replace_revalidates(self):
        plan = repro.SelectionPlan(algorithm="randomized", seed=3)
        assert plan.replace(seed=4).seed == 4
        assert plan.replace(seed=4).algorithm == "randomized"
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            plan.replace(algorithm="quantum")

    def test_cache_key_stability(self):
        a = repro.SelectionPlan(algorithm="randomized", seed=1)
        b = repro.SelectionPlan(algorithm="randomized", seed=1)
        c = repro.SelectionPlan(algorithm="randomized", seed=2)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()

    def test_cache_key_covers_every_knob(self):
        base = repro.SelectionPlan()
        variants = [
            base.replace(algorithm="randomized"),
            base.replace(balancer="omlb"),
            base.replace(seed=9),
            base.replace(sequential_method="deterministic"),
            base.replace(endgame_threshold=128),
            base.replace(max_iterations=7),
            base.replace(fast_params=FastRandomizedParams(delta=0.7)),
            base.replace(impl_override="introselect"),
            base.replace(backend="serial"),
            base.replace(topology="hypercube"),
            base.replace(topology="two-level"),
            base.replace(topology="two-level:2"),
        ]
        keys = {v.cache_key() for v in variants} | {base.cache_key()}
        assert len(keys) == len(variants) + 1

    def test_resolve_paper_default_pairing(self):
        cfg, name = repro.SelectionPlan(
            algorithm="median_of_medians"
        ).resolve()
        assert name == "GlobalExchange"
        assert cfg.sequential_method == "deterministic"
        cfg, name = repro.SelectionPlan(
            algorithm="fast_randomized"
        ).resolve()
        assert name == "NoBalance"
        assert cfg.sequential_method == "randomized"

    def test_resolve_builds_fresh_balancer_instances(self):
        plan = repro.SelectionPlan(balancer="global_exchange")
        cfg1, _ = plan.resolve()
        cfg2, _ = plan.resolve()
        assert cfg1.balancer is not cfg2.balancer

    def test_describe_mentions_non_defaults(self):
        text = repro.SelectionPlan(
            algorithm="randomized", max_iterations=5
        ).describe()
        assert "randomized" in text and "max_iterations=5" in text

    def test_describe_mentions_topology(self):
        text = repro.SelectionPlan(topology="two-level:4").describe()
        assert "topology=two-level:4" in text
        assert "topology" not in repro.SelectionPlan().describe()

    def test_as_plan_rejects_non_plan(self):
        with pytest.raises(ConfigurationError, match="SelectionPlan"):
            as_plan("fast_randomized", {})

    def test_as_plan_merges_overrides(self):
        plan = repro.SelectionPlan(seed=1)
        assert as_plan(plan, {"seed": 2}).seed == 2
        assert as_plan(plan, {}) is plan
        assert as_plan(None, {"algorithm": "randomized"}).algorithm == "randomized"
