"""Product supports by atom index against the listed, hashed profiles.

``ProductDistribution.support_table`` gives a product support as each
agent's distinct valuations, each atom's index into them and the probability
vector, without a profile tuple.  ``expected_opt`` sums every profile's
welfare from it in fixed point, and the exact-mode scaled rule takes its
slots from it.  The twins are ``helpers.profiles_twin``,
``helpers.expected_opt_twin`` and ``helpers.expected_scaled_twin`` (the
hashed-slot path): results must equal theirs by ``repr``.  The
``expected-opt`` entry of ``twins.TWINS`` compares ``expected_opt`` with its
twin on drawn product supports.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings

from balprice import stochastic
from balprice.catalog import gen_two_point_single_item
from balprice.cli import CONSTRUCTIONS
from balprice.core import (
    DEFAULT_CAP,
    AdditiveValuation,
    CapExceeded,
    Matroid,
    MatroidEnv,
    ScalarValuation,
    SingleItemEnv,
    enumerate_feasible,
)
from balprice.pricing import (
    SUPPORT_FORM_MIN_PROFILES,
    BalanceParams,
    expected_scaled_prices,
)
from balprice.stochastic import ProductDistribution, _fixed_point_welfare, expected_opt

from helpers import every_entry, expected_opt_twin, expected_scaled_twin, profiles_twin
from twins import product_case

PARAMS = BalanceParams(alpha=1.0, beta=1.0)


def welfare_columns():
    """Counts ``_welfare_column`` calls made through ``expected_opt``."""
    return mock.patch.object(stochastic, "_welfare_column", side_effect=stochastic._welfare_column)


class TestSupportTable:
    @given(product_case())
    @settings(max_examples=40, deadline=None)
    def test_matches_listed_profiles(self, case):
        _, dist = case
        table, index, probs = dist.support_table()
        listed = list(profiles_twin(dist))
        # the distinct profiles in order of first appearance, and each
        # support profile's slot among them
        distinct = list(dict.fromkeys(p for p, _ in listed))
        assert list(table.profiles()) == distinct and len(table) == len(distinct)
        assert table.slots(index) == [distinct.index(p) for p, _ in listed]
        assert list(map(repr, probs.tolist())) == [repr(prob) for _, prob in listed]
        for i in range(dist.n):
            assert table.column(i).tolist() == [table.values[i].index(p[i]) for p in distinct]

    def test_cap_as_profiles(self):
        dist = gen_two_point_single_item(n=6, seed=0).distribution
        with pytest.raises(CapExceeded, match="^distribution support profiles exceeded cap: 64 > 63$"):
            dist.support_table(63)


class TestExpectedOptKernel:
    def test_kernel_makes_no_welfare_column_call(self):
        inst = gen_two_point_single_item(n=10, seed=1)
        assert inst.distribution.support_size() == 1024
        with welfare_columns() as calls:
            got = expected_opt(inst.env, inst.distribution)
        assert calls.call_count == 0
        assert repr(got) == repr(expected_opt_twin(inst.env, inst.distribution))

    @pytest.mark.parametrize("low, high", [(1e-30, 1e30), (2.0**-60, 2.0**4), (0.5, 1e308)])
    def test_wide_spans_fall_back(self, low, high):
        """A span plus ceil(log2 n) past 62 bits, or sums that could pass the
        float range, take each profile's welfare column."""
        n = 5
        env = SingleItemEnv(n=n)
        dist = ProductDistribution(tuple(
            ((ScalarValuation(low), 0.5), (ScalarValuation(high), 0.5)) for _ in range(n)
        ))
        table, index, _ = dist.support_table()
        assert _fixed_point_welfare(enumerate_feasible(env), table, index) is None
        with welfare_columns() as calls:
            got = expected_opt(env, dist)
        assert calls.call_count == dist.support_size()
        assert repr(got) == repr(expected_opt_twin(env, dist))

    @pytest.mark.parametrize("x", [-0.0, math.inf, 1e-310])
    def test_signed_zero_non_finite_and_subnormal_fall_back(self, x):
        env = SingleItemEnv(n=5)
        dist = ProductDistribution(tuple(
            ((ScalarValuation(x), 0.5), (ScalarValuation(0.0), 0.5)) for _ in range(5)
        ))
        table, index, _ = dist.support_table()
        assert _fixed_point_welfare(enumerate_feasible(env), table, index) is None

    def test_below_the_crossover_takes_columns(self):
        inst = gen_two_point_single_item(n=4, seed=2)
        assert inst.distribution.support_size() < SUPPORT_FORM_MIN_PROFILES
        with welfare_columns() as calls:
            expected_opt(inst.env, inst.distribution)
        assert calls.call_count == 16


def hash_calls(cls):
    """Counts ``cls.__hash__`` calls."""
    return mock.patch.object(cls, "__hash__", autospec=True, side_effect=cls.__hash__)


class TestDuplicateAtoms:
    """An agent whose two atoms are equal valuations: catalog two-point n = 17
    seed 1 has three (agents 4, 7 and 15), and a third of the benchmark's
    two-point pool entries have one."""

    inst = gen_two_point_single_item(n=17, seed=1)
    cap = 200_000

    def test_the_catalog_instance_repeats_atoms(self):
        supports = self.inst.distribution.supports
        assert [i for i, atoms in enumerate(supports) if atoms[0][0] == atoms[1][0]] == [4, 7, 15]

    @pytest.mark.parametrize("support", [None, "form"])
    @pytest.mark.parametrize("n, seed", [(6, 1), (8, 5), (10, 7), (17, 1)])
    def test_prices_match_hashed_slots(self, n, seed, support):
        """Each distinct profile's rule built once, and every price the float
        of the hashed-slot twin."""
        inst = gen_two_point_single_item(n=n, seed=seed)
        env, dist = inst.env, inst.distribution
        built = []

        def constructor(profile):
            built.append(profile)
            return CONSTRUCTIONS["single-item"].rule(env, profile, DEFAULT_CAP)

        form = CONSTRUCTIONS["single-item"].support if support else None
        rule = expected_scaled_prices(env, dist, constructor, PARAMS, cap=self.cap, support=form)
        twin = expected_scaled_twin(
            env, dist, lambda p: CONSTRUCTIONS["single-item"].rule(env, p, DEFAULT_CAP), PARAMS,
            cap=self.cap,
        )
        for i, x_i, y in every_entry(env):
            assert repr(rule.price(i, x_i, y)) == repr(twin.price(i, x_i, y)), (i, x_i, y)
        distinct = set(p for p, _ in profiles_twin(dist, self.cap))
        assert len(distinct) < dist.support_size()
        if support:
            assert built == []
        else:
            assert len(built) == len(set(built)) == len(distinct)

    def test_expected_opt_makes_no_welfare_column_call(self):
        # the value against the twin: ``expected-opt`` in ``twins.TWINS``
        inst = gen_two_point_single_item(n=12, seed=1)  # agents 4 and 7 repeat
        with welfare_columns() as calls:
            expected_opt(inst.env, inst.distribution)
        assert calls.call_count == 0

    def test_first_miss_hashes_no_profile(self):
        """Building the exact-mode rule and pricing its first miss hashes
        each agent's atoms, not the 131 072 profiles."""
        env, dist = self.inst.env, self.inst.distribution
        with hash_calls(ScalarValuation) as calls:
            rule = expected_scaled_prices(
                env, dist, lambda p: CONSTRUCTIONS["single-item"].rule(env, p, DEFAULT_CAP),
                PARAMS, cap=self.cap, support=CONSTRUCTIONS["single-item"].support,
            )
            rule.price(0, 1, env.null_allocation())
        atoms = sum(map(len, dist.supports))
        assert 0 < calls.call_count <= atoms

    def test_matroid_first_miss_hashes_no_profile(self):
        """The matroid form gathers element values by atom index: the table
        hashes each atom once, and the element values are looked up and
        stored once per distinct valuation."""
        rng = random.Random(7)
        g = 7
        env = MatroidEnv(n=g, matroid=Matroid.uniform(3, g), elements=tuple((e,) for e in range(g)))
        atom = lambda i, x: AdditiveValuation(tuple(x if e == i else 0.0 for e in range(g)))
        supports = []
        for i in range(g):
            hi, lo = rng.randint(4, 16) / 8, rng.randint(0, 3) / 8
            supports.append(((atom(i, hi), 0.5), (atom(i, hi if i == 3 else lo), 0.5)))
        dist = ProductDistribution(tuple(supports))
        with hash_calls(AdditiveValuation) as calls:
            rule = expected_scaled_prices(
                env, dist, lambda p: CONSTRUCTIONS["matroid"].rule(env, p, DEFAULT_CAP),
                PARAMS, support=CONSTRUCTIONS["matroid"].support,
            )
            rule.price(0, 1, env.null_allocation())
        assert 0 < calls.call_count <= 3 * sum(map(len, dist.supports))
        twin = expected_scaled_twin(
            env, dist, lambda p: CONSTRUCTIONS["matroid"].rule(env, p, DEFAULT_CAP), PARAMS
        )
        for i, x_i, y in every_entry(env):
            assert repr(rule.price(i, x_i, y)) == repr(twin.price(i, x_i, y)), (i, x_i, y)
