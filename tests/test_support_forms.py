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
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice import pricing
from balprice.catalog import gen_matroid, gen_two_point_single_item
from balprice.cli import CONSTRUCTIONS
from balprice.core import DEFAULT_CAP, XosValuation, enumerate_feasible
from balprice.mechanism import adaptive_adversary_welfare, expected_posted_price_welfare
from balprice.pricing import (
    RESIDUAL_FILL_MAX_PROFILES,
    RESIDUAL_PASS_ENTRIES,
    expected_scaled_prices,
)
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


def two_point_uniform(ground, rank):
    env = gen_matroid("uniform", seed=3, rank=rank, ground=ground).env
    return env, two_point_dist(env, additive_atom, random.Random(3))


def priced_by_order(env, dist, order, built=None):
    """The fixed-order or adversary welfare under the scaled matroid rule,
    each per-profile rule built appended to ``built``."""
    rule = expected_scaled_prices(
        env, dist, counted_constructor(env, "matroid", [] if built is None else built), PARAMS,
        support=CONSTRUCTIONS["matroid"].support,
    )
    if order == "fixed":
        expected_posted_price_welfare(env, rule, dist, tuple(range(env.n)))
    else:
        adaptive_adversary_welfare(env, rule, dist)


def counted_passes(monkeypatch) -> list:
    """Record each residual pass as (the masks the entry asked, the masks
    the pass computed)."""
    passes: list = []
    asked: list = []
    call, residuals = pricing._MatroidColumns.__call__, pricing._MatroidColumns._residuals

    def entry(self, i, x_i, y):
        taken = self._env.union_mask(y)
        asked[:] = [taken, taken | x_i]
        return call(self, i, x_i, y)

    def counting(self, masks):
        passes.append((list(asked), list(masks)))
        return residuals(self, masks)

    monkeypatch.setattr(pricing._MatroidColumns, "__call__", entry)
    monkeypatch.setattr(pricing._MatroidColumns, "_residuals", counting)
    return passes


class TestWorkCounters:
    """Two-point uniform matroids: 64 support profiles at ground 6, 256 at
    ground 8."""

    @pytest.mark.parametrize("order", ["fixed", "adversary"])
    def test_one_residual_column_per_sold_mask(self, monkeypatch, order):
        env, dist = two_point_uniform(6, 3)
        assert dist.support_size() == 64

        per_profile = []
        monkeypatch.setattr(
            pricing, "_matroid_residual_value", lambda *args: per_profile.append(args)
        )
        passes = counted_passes(monkeypatch)
        built: list = []
        priced_by_order(env, dist, order, built)
        # no rule, and so no finite price, for any single profile
        assert built == [] and per_profile == []
        # each sold mask's column once, and only sold masks
        computed = [m for _, masks in passes for m in masks]
        assert computed and max(Counter(computed).values()) == 1
        sold = {env.union_mask(y) for y in enumerate_feasible(env)}
        assert set(computed) <= sold
        # at 64 profiles the first pass fills the whole table
        assert len(passes) == 1 and set(computed) == sold

    @pytest.mark.parametrize("ground", [6, 8, 9, 10, 11, 12])
    def test_passes_keep_to_the_entry_budget(self, monkeypatch, ground):
        """A pass holds at most ``RESIDUAL_PASS_ENTRIES`` entries unless its
        asked masks alone take more, and above ``RESIDUAL_FILL_MAX_PROFILES``
        (from ground 10) it holds only those."""
        env, dist = two_point_uniform(ground, ground // 2)
        passes = counted_passes(monkeypatch)
        rule = expected_scaled_prices(
            env, dist, counted_constructor(env, "matroid", []), PARAMS,
            support=CONSTRUCTIONS["matroid"].support,
        )
        for i, x_i, y in islice(every_entry(env), 300):
            rule.price(i, x_i, y)
        profiles = dist.support_size()
        assert passes
        for asked, masks in passes:
            assert len(masks) * profiles <= RESIDUAL_PASS_ENTRIES or set(masks) <= set(asked)
        filled = [set(masks) - set(asked) for asked, masks in passes]
        assert any(filled) == (profiles <= RESIDUAL_FILL_MAX_PROFILES)

    @pytest.mark.parametrize("order", ["fixed", "adversary"])
    def test_fewer_passes_than_one_per_miss(self, monkeypatch, order):
        """At 256 profiles a pass holds 16 rows: the table takes several
        passes, and fewer than the misses that ask for a mask."""
        env, dist = two_point_uniform(8, 4)
        assert dist.support_size() == 256
        passes = counted_passes(monkeypatch)
        priced_by_order(env, dist, order)
        batched = len(passes)
        # a budget of 0 entries leaves each pass its asked masks only
        passes.clear()
        monkeypatch.setattr(pricing, "RESIDUAL_PASS_ENTRIES", 0)
        priced_by_order(env, dist, order)
        assert 1 < batched < len(passes)


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
