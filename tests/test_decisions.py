"""Each arrival's decision made once, and the expected optimum from value
tables.

``PricingRule.best_entries`` computes an arriving agent's utility-maximizing
menu entries; a runner's step table asks it once per (agent, valuation,
history).  A forced choice (one maximizer) evaluates no continuation.  The expected
optimum sums per-valuation value columns over the feasible list.  Counter
gates bound the work; differential tests compare against the twins in
``helpers``: results must be equal by ``repr``.
"""

import copy
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice.catalog import gen_matroid, gen_tight_prophet, gen_two_point_single_item
from balprice.core import AdditiveValuation, enumerate_feasible
from balprice.mechanism import (
    OnlinePostedPriceRunner,
    adaptive_adversary_welfare,
    worst_order_welfare,
)
from balprice.pricing import (
    BalanceParams,
    PricingRule,
    expected_scaled_prices,
    matroid_dynamic_prices,
    single_item_prices,
)
from balprice.stochastic import (
    ProductDistribution,
    expected_opt,
    monte_carlo_ratio,
    worst_order_expected_welfare,
)

from helpers import expected_opt_twin, monte_carlo_twin, tied_candidates_twin, two_point_matroid
from test_ratio_path import stochastic_case

PARAMS = BalanceParams(alpha=1.0, beta=1.0)

KINDS = (
    "two-point", "tight-prophet", "uniform", "partition", "k4", "xos", "knapsack", "compose-add",
    "off-grid",
)


def off_grid(dist, seed):
    """``dist`` with every additive value v moved to v/10 + v/(seed + 3):
    values off the binary grid, so a welfare summed in another order or
    without ``fsum`` can differ in its last bit."""
    def move(v):
        return AdditiveValuation(tuple(x / 10 + x / (seed + 3) for x in v.values))

    return ProductDistribution(
        tuple(tuple((move(v), p) for v, p in atoms) for atoms in dist.supports)
    )


def case(kind, seed):
    """(env, dist, per-profile constructor); ``two-point`` is the catalog
    single-item instance with 2 to 8 agents, ``off-grid`` a two-point uniform
    matroid of ground 7 whose values are off the binary grid."""
    if kind == "off-grid":
        env, dist = two_point_matroid("uniform", seed, ground=7, rank=4)
        return env, off_grid(dist, seed), lambda p: matroid_dynamic_prices(env, p)
    if kind == "two-point":
        inst = gen_two_point_single_item(n=2 + seed % 7, seed=seed)
    elif kind == "tight-prophet":
        inst = gen_tight_prophet(q=1 / (2 + seed % 8))
    else:
        return stochastic_case(kind, seed)
    env = inst.env
    return env, inst.distribution, lambda p: single_item_prices(env, p)


def scaled(env, dist, constructor):
    return expected_scaled_prices(env, dist, constructor, PARAMS)


def count_menus(monkeypatch, rule) -> Counter:
    """Count ``rule``'s menu builds per (agent, history)."""
    menus = Counter()
    real = PricingRule.menu

    def counted(self, i, y):
        if self is rule:
            menus[i, y] += 1
        return real(self, i, y)

    monkeypatch.setattr(PricingRule, "menu", counted)
    return menus


def assert_once_per_valuation(menus, dist):
    """Each (agent, history) menu was built at most once per distinct
    valuation of that agent: the candidate computation ran at most once per
    (agent, valuation, history)."""
    assert menus
    distinct = [len({v for v, _ in atoms}) for atoms in dist.supports]
    over = {key: k for key, k in menus.items() if k > distinct[key[0]]}
    assert over == {}


class TestCandidatesOncePerDecision:
    def test_adaptive_adversary(self, monkeypatch):
        env, dist = two_point_matroid("uniform", seed=3, ground=6, rank=3)
        prices = scaled(env, dist, lambda p: matroid_dynamic_prices(env, p))
        menus = count_menus(monkeypatch, prices)
        adaptive_adversary_welfare(env, prices, dist)
        assert_once_per_valuation(menus, dist)

    def test_monte_carlo_random_order(self, monkeypatch):
        inst = gen_two_point_single_item(n=7, seed=1)
        env, dist = inst.env, inst.distribution
        prices = scaled(env, dist, lambda p: single_item_prices(env, p))
        menus = count_menus(monkeypatch, prices)
        monte_carlo_ratio(env, prices, dist, order_mode="random", trials=200, seed=4)
        assert_once_per_valuation(menus, dist)

    def test_worst_order_expected(self, monkeypatch):
        inst = gen_two_point_single_item(n=4, seed=2)
        env, dist = inst.env, inst.distribution
        prices = scaled(env, dist, lambda p: single_item_prices(env, p))
        menus = count_menus(monkeypatch, prices)
        worst_order_expected_welfare(env, prices, dist)
        assert_once_per_valuation(menus, dist)

    def test_worst_order_witness_walk(self, monkeypatch):
        inst = gen_matroid("uniform", seed=5, rank=3, ground=7)
        env, profile = inst.env, inst.profile
        prices = matroid_dynamic_prices(env, profile)
        menus = count_menus(monkeypatch, prices)
        worst_order_welfare(env, prices, profile)
        assert_once_per_valuation(menus, ProductDistribution.deterministic(profile))


class TestForcedChoices:
    def test_run_with_single_maximizers_adds_no_memo_states(self):
        # half-price items on a rank-2 uniform matroid: a value-1 agent
        # strictly prefers buying while an element is left, a value-0 agent
        # strictly prefers the null outcome, so no arrival has a tie
        env = gen_matroid("uniform", seed=0, rank=2, ground=4).env
        rule = PricingRule(env, lambda i, mask, y: 0.5, static=True)
        values = (1.0, 0.0, 1.0, 1.0)
        profile = tuple(
            AdditiveValuation(tuple(values[i] if e == i else 0.0 for e in range(4)))
            for i in range(4)
        )
        dist = ProductDistribution.deterministic(profile)
        order = (0, 1, 2, 3)
        runner = OnlinePostedPriceRunner(env, rule, dist.supports, order)
        trace = runner.run(profile)
        y = env.null_allocation()
        for i in order:
            assert len(tied_candidates_twin(rule, profile[i], i, y)) == 1
            y = y[:i] + (trace.outcomes[i],) + y[i + 1:]
        assert trace.outcomes == (1, 0, 4, 0)
        assert runner._memo == {}


class TestBestEntriesTwin:
    @given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=31))
    @settings(max_examples=25, deadline=None)
    def test_every_decision_matches_fresh_menu(self, kind, seed):
        env, dist, constructor = case(kind, seed)
        prices = scaled(env, dist, constructor)
        fresh = scaled(env, dist, constructor)
        for y in enumerate_feasible(env):
            for i in range(env.n):
                for v, _ in dist.supports[i]:
                    got = prices.best_entries(i, v, y)
                    assert repr(list(got)) == repr(tied_candidates_twin(fresh, v, i, y))
                    # an equal valuation that is another object decides alike
                    assert repr(prices.best_entries(i, copy.deepcopy(v), y)) == repr(got)


class TestExpectedOptTwin:
    @given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=31))
    @settings(max_examples=30, deadline=None)
    def test_expected_opt_matches_argmax_first(self, kind, seed):
        env, dist, _ = case(kind, seed)
        assert repr(expected_opt(env, dist)) == repr(expected_opt_twin(env, dist))

    @given(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=31),
        st.sampled_from(("fixed", "random")),
    )
    @settings(max_examples=20, deadline=None)
    def test_monte_carlo_matches_per_trial_loop(self, kind, seed, order_mode):
        env, dist, constructor = case(kind, seed)
        got = monte_carlo_ratio(
            env, scaled(env, dist, constructor), dist, order_mode=order_mode, trials=40, seed=seed
        )
        want = monte_carlo_twin(env, scaled(env, dist, constructor), dist, order_mode, 40, seed)
        assert repr(got.expected_opt) == repr(want.expected_opt)
        assert repr(got.ci95_halfwidth) == repr(want.ci95_halfwidth)
        assert repr(got.expected_mechanism_welfare) == repr(want.expected_mechanism_welfare)

    def test_profile_length_checked(self):
        env, dist, _ = case("two-point", 1)
        short = ProductDistribution(dist.supports[:-1])
        with pytest.raises(ValueError):
            expected_opt(env, short)
