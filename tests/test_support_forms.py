"""Support forms against the per-profile average they replace.

``expected_scaled_prices`` prices each miss from one column over the
distinct support profiles.  With a construction's support form and at least
``SUPPORT_FORM_MIN_PROFILES`` distinct profiles the form gives the column;
otherwise each profile's own rule does.  ``helpers.expected_scaled_twin`` is
the per-profile average the forms replaced: every price must equal it by
``repr``, on every entry the mechanisms can ask.  The ``support-columns``
entry of ``twins.TWINS`` makes that comparison on drawn cases; the tests
here check when a form is taken and the work it saves.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice import pricing
from balprice.catalog import gen_matroid, gen_two_point_single_item
from balprice.cli import CONSTRUCTIONS
from balprice.core import DEFAULT_CAP, XosValuation, enumerate_feasible
from balprice.mechanism import adaptive_adversary_welfare, expected_posted_price_welfare
from balprice.pricing import expected_scaled_prices
from balprice.stochastic import ProductDistribution

from helpers import every_entry, expected_scaled_twin
from twins import (
    CROSSOVER,
    PARAMS,
    SUPPORT_KINDS,
    additive_atom,
    matroid_env,
    support_case,
    two_point_dist,
)


def counted_constructor(env, name, built):
    construction = CONSTRUCTIONS[name]

    def constructor(profile):
        built.append(profile)
        return construction.rule(env, profile, DEFAULT_CAP)

    return constructor


class TestColumnsMatchPerProfileRules:
    @given(
        SUPPORT_KINDS,
        st.integers(min_value=0, max_value=31),
        st.sampled_from((CROSSOVER - 1, CROSSOVER, None)),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_mode(self, kind, seed, size):
        env, dist, name = support_case(kind, seed, size)
        built: list = []
        rule = expected_scaled_prices(
            env, dist, counted_constructor(env, name, built), PARAMS,
            support=CONSTRUCTIONS[name].support,
        )
        for i, x_i, y in every_entry(env):
            rule.price(i, x_i, y)
        distinct = len(set(p for p, _ in dist.profiles()))
        # the form prices every miss from the crossover on, and only from there
        assert (built == []) == (distinct >= CROSSOVER)

    @pytest.mark.parametrize("seed", [1, 2, 4, 5])  # ground 6 or 7
    def test_non_additive_atom_takes_each_profiles_rule(self, seed):
        """One xos atom anywhere in the support sends every profile through
        its own rule, the xos ones through compose_max."""
        rng = random.Random(seed)
        env = matroid_env("uniform", seed)
        dist = two_point_dist(env, additive_atom, rng)
        g = env.matroid.ground
        (e,) = env.elements[1]
        xos = XosValuation(tuple(
            tuple(rng.randint(1, 12) / 3 if f == e else 0.0 for f in range(g)) for _ in range(2)
        ))
        supports = list(dist.supports)
        supports[1] = ((supports[1][0][0], 0.5), (xos, 0.5))
        dist = ProductDistribution(tuple(supports))
        assert dist.support_size() >= CROSSOVER
        assert pricing.matroid_support_prices(env, dist.support_table()[0]) is None
        built: list = []
        rule = expected_scaled_prices(
            env, dist, counted_constructor(env, "matroid", built), PARAMS,
            support=CONSTRUCTIONS["matroid"].support,
        )
        twin = expected_scaled_twin(
            env, dist, lambda p: CONSTRUCTIONS["matroid"].rule(env, p, DEFAULT_CAP), PARAMS
        )
        for i, x_i, y in every_entry(env):
            assert repr(rule.price(i, x_i, y)) == repr(twin.price(i, x_i, y)), (i, x_i, y)
        assert len(built) == dist.support_size()


class TestWorkCounters:
    """A two-point uniform matroid of ground 6: 64 support profiles."""

    @pytest.mark.parametrize("order", ["fixed", "adversary"])
    def test_one_residual_column_per_sold_mask(self, monkeypatch, order):
        rng = random.Random(3)
        env = gen_matroid("uniform", seed=3, rank=3, ground=6).env
        dist = two_point_dist(env, additive_atom, rng)
        assert dist.support_size() == 64

        per_profile = []
        monkeypatch.setattr(
            pricing, "_matroid_residual_value", lambda *args: per_profile.append(args)
        )
        computed = []
        real = pricing._MatroidColumns._residuals

        def counting(self, masks):
            computed.extend(masks)
            return real(self, masks)

        monkeypatch.setattr(pricing._MatroidColumns, "_residuals", counting)
        built: list = []
        rule = expected_scaled_prices(
            env, dist, counted_constructor(env, "matroid", built), PARAMS,
            support=CONSTRUCTIONS["matroid"].support,
        )
        if order == "fixed":
            expected_posted_price_welfare(env, rule, dist, tuple(range(env.n)))
        else:
            adaptive_adversary_welfare(env, rule, dist)
        # no rule, and so no finite price, for any single profile
        assert built == [] and per_profile == []
        # each sold mask's column once, and only sold masks
        assert computed and max(Counter(computed).values()) == 1
        sold = {env.union_mask(y) for y in enumerate_feasible(env)}
        assert set(computed) <= sold


class TestOneAveragePerColumn:
    """The single-item form returns one column object for every entry, so
    ``finite`` averages it at the first miss and reuses that price.  A form
    that hands out a fresh copy of each column bypasses the reuse."""

    @pytest.mark.parametrize("n,seed", [(5, 0), (6, 1), (8, 2), (10, 3)])
    def test_prices_match_the_rule_without_reuse(self, monkeypatch, n, seed):
        inst = gen_two_point_single_item(n=n, seed=seed)
        env, dist = inst.env, inst.distribution
        form = CONSTRUCTIONS["single-item"].support

        def fresh_columns(env, table):
            column = form(env, table)
            return lambda i, x_i, y: list(column(i, x_i, y))

        def constructor(profile):
            return CONSTRUCTIONS["single-item"].rule(env, profile, DEFAULT_CAP)

        products = [0]

        def counted_mul(a, b):
            products[0] += 1
            return a * b

        monkeypatch.setattr(pricing, "mul", counted_mul)
        rule = expected_scaled_prices(env, dist, constructor, PARAMS, support=form)
        bypassed = expected_scaled_prices(env, dist, constructor, PARAMS, support=fresh_columns)
        assert dist.support_size() >= CROSSOVER
        for i, x_i, y in every_entry(env):
            assert repr(rule.price(i, x_i, y)) == repr(bypassed.price(i, x_i, y)), (i, x_i, y)
        misses = sum(p is not pricing.UNAVAILABLE for p in bypassed._cache.values())
        assert misses == n > 1
        # one average for the reusing rule, one per miss for the other
        assert products[0] == (1 + misses) * dist.support_size()
