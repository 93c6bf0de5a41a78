import pytest

from balprice.catalog import (
    GENERATORS,
    gen_common_outcome_instance,
    gen_knapsack_random,
    gen_matroid,
    gen_mph_random,
    gen_pip_random,
    gen_single_minded_triangle,
    gen_tight_prophet,
    gen_unit_demand_vs_bundle,
    gen_xos_random,
)
from balprice.core import (
    CapExceeded,
    MphValuation,
    welfare,
)
from balprice.oracle import opt
from balprice.serialize import load_instance
from balprice.stochastic import expected_opt

from helpers import catalog_matroids, check_downward_closed


class TestNamedInstances:
    def test_unit_demand_vs_bundle_opt(self):
        inst = gen_unit_demand_vs_bundle(4)
        assert welfare(inst.profile, opt(inst.env, inst.profile)) == pytest.approx(4.0)

    def test_unit_demand_minimum_size(self):
        with pytest.raises(ValueError):
            gen_unit_demand_vs_bundle(1)

    def test_triangle_opt(self):
        inst = gen_single_minded_triangle()
        assert welfare(inst.profile, opt(inst.env, inst.profile)) == pytest.approx(3.0)

    def test_common_outcome_expected_opt_is_n(self):
        inst = gen_common_outcome_instance(3, 3)
        assert expected_opt(inst.env, inst.distribution) == pytest.approx(3.0)

    def test_common_outcome_cap(self):
        with pytest.raises(CapExceeded):
            gen_common_outcome_instance(5, 6, cap=100)

    def test_tight_prophet_expected_opt(self):
        inst = gen_tight_prophet(0.01)
        assert expected_opt(inst.env, inst.distribution) == pytest.approx(1.99)


class TestRandomFamilies:
    def test_matroid_k4_rank(self):
        inst = gen_matroid("graphic_k4", seed=1)
        assert inst.env.matroid.ground == 6
        full = (1 << 6) - 1
        assert not inst.env.matroid.independent(full)
        # spanning trees have three edges
        assert inst.env.matroid.independent(0b000111 & full) in (True, False)
        best = opt(inst.env, inst.profile)
        chosen = inst.env.union_mask(best)
        assert bin(chosen).count("1") <= 3

    def test_generated_instances_are_valid(self):
        for inst in catalog_matroids(seed=3):
            assert check_downward_closed(inst.env)
        for seed in range(3):
            pip = gen_pip_random(n=3, m=2, d=2, seed=seed)
            for i in range(pip.env.n):
                assert pip.env.column_sparsity(i) <= 2
                for row in pip.env.matrix:
                    assert row[i] <= 0.5 + 1e-12
            knap = gen_knapsack_random(n=3, seed=seed)
            assert all(v.size <= 0.5 + 1e-12 for v in knap.profile)

    def test_mph_rank_pinned(self):
        inst = gen_mph_random(n=2, m=3, k=2, seed=5)
        assert all(isinstance(v, MphValuation) for v in inst.profile)
        assert max(v.rank for v in inst.profile) == 2

    def test_generation_is_deterministic(self):
        a = gen_xos_random(n=2, m=3, seed=11)
        b = gen_xos_random(n=2, m=3, seed=11)
        assert a.profile == b.profile


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_json_round_trip_bit_exact(self, name):
        gen = GENERATORS[name]
        inst = gen()
        text = inst.to_json()
        again = load_instance(text)
        assert again.to_json() == text
        assert again.env.n == inst.env.n
