"""The stochastic ratio path against its brute-force twins.

``expected_scaled_prices`` hashes each support profile once and, without a
support form (as every call here is), prices a miss from a column of each
profile's finite price, called directly; the support forms, which give that
column for all profiles at once, are checked against
``helpers.expected_scaled_twin`` in ``test_support_forms.py``.  Matroid
prices memoise the residual optimum per sold mask; reference-allocation
prices memoise their nested chain per partial allocation; ``expected_opt``
and ``monte_carlo_ratio`` take every optimum over one feasible list per
call.  Each price twin below is the code these replaced, kept here as the
reference; the ratio twins are ``helpers.expected_opt_twin`` and
``helpers.monte_carlo_twin``.  Results must be equal, by ``repr`` for prices
and under ``==`` for ratio estimates.
"""

import math
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice import oracle, pricing, stochastic
from balprice.catalog import (
    gen_knapsack_random,
    gen_matroid,
    gen_product_single_items,
    gen_two_point_single_item,
    gen_xos_random,
)
from balprice.core import (
    DEFAULT_CAP,
    NULL,
    TOL,
    UNAVAILABLE,
    AdditiveValuation,
    KnapsackEnv,
    Matroid,
    MatroidEnv,
    ScalarValuation,
    SingleItemEnv,
    ThresholdValuation,
    prefix,
    replace_at,
    value,
    welfare,
)
from balprice.mechanism import expected_posted_price_welfare, whole_unit_prices
from balprice.oracle import (
    OPT_RULE,
    AllocationRule,
    agent_value,
    critical_value,
    greedy,
    knapsack_dp,
    opt,
)
from balprice.pricing import (
    BalanceParams,
    PricingError,
    PricingRule,
    compose_add,
    greedy_derived_prices,
    knapsack_prices,
    matroid_dynamic_prices,
    opt_derived_prices,
    single_item_prices,
    xos_item_prices,
)
from balprice.stochastic import ProductDistribution, expected_opt, monte_carlo_ratio

from helpers import every_entry, expected_opt_twin, monte_carlo_twin, two_point_matroid

PARAMS = BalanceParams(alpha=1.0, beta=1.0)


# ---------------------------------------------------------------------------
# Instances: (env, distribution, per-profile constructor)
# ---------------------------------------------------------------------------


def mixed_dist(profiles):
    """Agent i draws the i-th entry of one of ``profiles``, uniformly."""
    k = len(profiles)
    return ProductDistribution(
        tuple(tuple((p[i], 1.0 / k) for p in profiles) for i in range(len(profiles[0])))
    )


def stochastic_case(kind, seed):
    """(env, dist, constructor) for one small catalog instance of ``kind``."""
    if kind in ("uniform", "partition", "k4"):
        matroid_kind = "graphic_k4" if kind == "k4" else kind
        env, dist = two_point_matroid(matroid_kind, seed, ground=4 + seed % 3, rank=2)
        return env, dist, lambda p: matroid_dynamic_prices(env, p)
    if kind == "single-item":
        inst = gen_two_point_single_item(n=2 + seed % 4, seed=seed)
        env = inst.env
        return env, inst.distribution, lambda p: single_item_prices(env, p)
    if kind == "compose-add":
        a = gen_product_single_items(n=3, markets=2, seed=seed)
        b = gen_product_single_items(n=3, markets=2, seed=seed + 7919)
        env = a.env

        def constructor(profile):
            rules = [
                single_item_prices(market, tuple(v.parts[ell] for v in profile))
                for ell, market in enumerate(env.markets)
            ]
            return compose_add(env, rules)

        return env, mixed_dist([a.profile, b.profile]), constructor
    if kind == "xos":
        a, b = gen_xos_random(n=3, m=3, seed=seed), gen_xos_random(n=3, m=3, seed=seed + 7919)
        env = a.env
        return env, mixed_dist([a.profile, b.profile]), lambda p: xos_item_prices(env, p, opt(env, p))
    if kind == "knapsack":
        a, b = gen_knapsack_random(n=3, seed=seed), gen_knapsack_random(n=3, seed=seed + 7919)
        env = a.env
        return env, mixed_dist([a.profile, b.profile]), (
            lambda p: knapsack_prices(env, p, welfare(p, knapsack_dp(env, p)))
        )
    raise ValueError(kind)


def wrapper_twin(env, i, x_i, y, finite):
    """``PricingRule.price`` without its cache."""
    if x_i == NULL:
        return 0.0
    y = replace_at(y, i, NULL)
    if not env.is_feasible(replace_at(y, i, x_i)):
        return UNAVAILABLE
    return finite(i, x_i, y)


# ---------------------------------------------------------------------------
# Expected scaled prices
# ---------------------------------------------------------------------------


def expected_price_twin(env, weighted, rules, delta, i, x_i, y):
    """The average the expected-scaled rule used to take: every support entry
    priced through its own rule's ``price``, with that rule's null shortcut,
    feasibility check and cache."""

    def finite(i, x_i, y):
        acc = []
        for profile, prob in weighted:
            p = rules[profile].price(i, x_i, y)
            assert p is not UNAVAILABLE
            acc.append(prob * p)
        return delta * math.fsum(acc)

    return wrapper_twin(env, i, x_i, y, finite)


class TestExpectedScaledPricesTwin:
    @given(
        st.sampled_from(("uniform", "partition", "k4", "single-item", "compose-add")),
        st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_entry_matches_per_profile_average(self, kind, seed):
        env, dist, constructor = stochastic_case(kind, seed)
        rule = pricing.expected_scaled_prices(env, dist, constructor, PARAMS)
        weighted = list(dist.profiles())
        rules = {p: constructor(p) for p, _ in weighted}
        delta = PARAMS.scale_factor()
        for i, x_i, y in every_entry(env):
            want = expected_price_twin(env, weighted, rules, delta, i, x_i, y)
            assert repr(rule.price(i, x_i, y)) == repr(want), (i, x_i, y)

    def test_construction_error_surfaces_at_first_miss(self):
        env = SingleItemEnv(n=2)
        dist = ProductDistribution.deterministic((ScalarValuation(1.0), ScalarValuation(2.0)))

        def constructor(profile):
            raise PricingError("no rule for this profile")

        rule = pricing.expected_scaled_prices(env, dist, constructor, PARAMS)
        assert rule.price(0, NULL, (0, 0)) == 0.0
        with pytest.raises(PricingError, match="no rule for this profile"):
            rule.price(0, 1, (0, 0))

    def test_rule_on_another_environment_is_refused(self):
        env = SingleItemEnv(n=2)
        dist = ProductDistribution.deterministic((ScalarValuation(1.0), ScalarValuation(2.0)))
        other = SingleItemEnv(n=3)
        rule = pricing.expected_scaled_prices(
            env, dist, lambda p: single_item_prices(other, p + (ScalarValuation(0.0),)), PARAMS
        )
        with pytest.raises(PricingError, match="different environment"):
            rule.price(0, 1, (0, 0))

    def test_whole_unit_rule_is_refused_at_a_partial_quantity(self):
        # the whole-unit rule keeps partial quantities off its menu, though
        # the knapsack holds them
        env = KnapsackEnv(n=2, step=0.5)
        dist = ProductDistribution((
            ((ThresholdValuation(1.0, 0.5), 0.5), (ThresholdValuation(2.0, 1.0), 0.5)),
            ((ThresholdValuation(3.0, 0.5), 1.0),),
        ))
        rule = pricing.expected_scaled_prices(
            env, dist, lambda p: whole_unit_prices(env, 1.0), PARAMS
        )
        y = env.null_allocation()
        assert rule.price(0, 1.0, y) == PARAMS.scale_factor()
        with pytest.raises(
            AssertionError, match="^per-profile price unavailable on a feasible entry$"
        ):
            rule.price(0, 0.5, y)

    def test_unavailable_per_profile_price_is_an_error(self):
        env = SingleItemEnv(n=2)
        dist = ProductDistribution.deterministic((ScalarValuation(1.0), ScalarValuation(2.0)))
        rule = pricing.expected_scaled_prices(
            env, dist, lambda p: PricingRule(env, lambda i, x, y: UNAVAILABLE, static=True), PARAMS
        )
        with pytest.raises(AssertionError, match="unavailable on a feasible entry"):
            rule.price(0, 1, (0, 0))


# ---------------------------------------------------------------------------
# Dynamic matroid prices
# ---------------------------------------------------------------------------


def residual_twin(env, element_vals, taken_mask):
    """Greedy max-weight independent extension, sorting on every call."""
    chosen = taken_mask
    total = 0.0
    order = sorted(range(env.matroid.ground), key=lambda e: (-element_vals[e], e))
    for e in order:
        b = 1 << e
        if chosen & b or element_vals[e] <= TOL:
            continue
        if env.matroid.independent(chosen | b):
            chosen |= b
            total += element_vals[e]
    return total


def matroid_price_twin(env, profile, i, x_i, y):
    vals = [0.0] * env.matroid.ground
    for j, owned in enumerate(env.elements):
        for e in owned:
            vals[e] = value(profile[j], 1 << e)

    def finite(i, x_i, y):
        taken = env.union_mask(y)
        return residual_twin(env, vals, taken) - residual_twin(env, vals, taken | x_i)

    return wrapper_twin(env, i, x_i, y, finite)


def matroid_case(kind, seed):
    if kind == "multi-element":
        # agents owning several elements; values on a coarse grid, so ties
        rng = random.Random(seed)
        env = MatroidEnv(
            n=3, matroid=Matroid.uniform(3, 6), elements=((0, 1), (2, 5), (3, 4))
        )
        profile = tuple(
            AdditiveValuation(
                tuple(rng.randint(0, 4) / 2 if e in owned else 0.0 for e in range(6))
            )
            for owned in env.elements
        )
        return env, profile
    matroid_kind = {"k4": "graphic_k4"}.get(kind, kind)
    inst = gen_matroid(matroid_kind, seed=seed, rank=1 + seed % 4, ground=4 + seed % 4)
    return inst.env, inst.profile


class TestMatroidResidualMemo:
    @given(
        st.sampled_from(("uniform", "partition", "k4", "multi-element")),
        st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=30, deadline=None)
    def test_prices_match_unmemoised_residual(self, kind, seed):
        env, profile = matroid_case(kind, seed)
        rule = matroid_dynamic_prices(env, profile)
        entries = list(every_entry(env))
        random.Random(seed).shuffle(entries)  # vary which masks fill the memo first
        for i, x_i, y in entries:
            want = matroid_price_twin(env, profile, i, x_i, y)
            assert repr(rule.price(i, x_i, y)) == repr(want), (i, x_i, y)


# ---------------------------------------------------------------------------
# Reference-allocation prices
# ---------------------------------------------------------------------------


def reference_price_twin(env, profile, alg_alloc, rule, i, x_i, y):
    """Reference-allocation price rebuilding the nested chain per entry."""

    def zero_outside(members):
        return tuple(
            profile[j] if members[j] != NULL else ScalarValuation(0.0) for j in range(env.n)
        )

    def finite(i, x_i, y):
        ref = alg_alloc
        vals = zero_outside(ref)
        for j in range(1, env.n + 1):
            ref = rule.run(env, vals, prefix(y, j), DEFAULT_CAP)
            vals = zero_outside(ref)
        if ref[i] != NULL:
            return agent_value(env, profile, i)
        t = critical_value(rule, env, vals, i, y, DEFAULT_CAP)
        return 0.0 if t is UNAVAILABLE else t

    return wrapper_twin(env, i, x_i, y, finite)


class TestReferenceChainMemo:
    @given(
        st.sampled_from(("uniform", "partition")),
        st.integers(min_value=0, max_value=31),
        st.sampled_from(("alg1-greedy", "alg2-opt")),
    )
    @settings(max_examples=12, deadline=None)
    def test_prices_match_rebuilt_chain(self, kind, seed, construction):
        inst = gen_matroid(kind, seed=seed, rank=1 + seed % 2, ground=3 + seed % 2)
        env, profile = inst.env, inst.profile
        if construction == "alg1-greedy":
            rule = greedy_derived_prices(env, profile)
            alloc, alloc_rule = greedy(env, profile), AllocationRule("greedy_by_value")
        else:
            rule = opt_derived_prices(env, profile)
            alloc, alloc_rule = opt(env, profile), OPT_RULE
        for i, x_i, y in every_entry(env):
            want = reference_price_twin(env, profile, alloc, alloc_rule, i, x_i, y)
            assert repr(rule.price(i, x_i, y)) == repr(want), (i, x_i, y)


# ---------------------------------------------------------------------------
# Expected optimum and Monte Carlo ratio
# ---------------------------------------------------------------------------


def ratio_case(kind, seed):
    if kind == "deterministic":
        # one profile drawn on every trial, as a catalog instance without a
        # distribution is
        inst = gen_matroid("uniform", seed=seed, rank=3, ground=7)
        env = inst.env
        dist = ProductDistribution.deterministic(inst.profile)
        return env, dist, lambda p: matroid_dynamic_prices(env, p)
    return stochastic_case(kind, seed)


class TestOptOverOneFeasibleList:
    @given(
        st.sampled_from(("uniform", "k4", "single-item", "xos", "knapsack", "deterministic")),
        st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=20, deadline=None)
    def test_expected_opt_matches_per_profile_opt(self, kind, seed):
        env, dist, _ = ratio_case(kind, seed)
        assert expected_opt(env, dist) == expected_opt_twin(env, dist)

    @given(
        st.sampled_from(("uniform", "k4", "single-item", "xos", "knapsack", "deterministic")),
        st.integers(min_value=0, max_value=31),
        st.sampled_from(("fixed", "random")),
    )
    @settings(max_examples=20, deadline=None)
    def test_monte_carlo_matches_per_trial_opt(self, kind, seed, order_mode):
        env, dist, constructor = ratio_case(kind, seed)
        prices = pricing.expected_scaled_prices(env, dist, constructor, PARAMS)
        got = monte_carlo_ratio(env, prices, dist, order_mode=order_mode, trials=30, seed=seed)
        assert got == monte_carlo_twin(env, prices, dist, order_mode, 30, seed)


# ---------------------------------------------------------------------------
# Work counters on one two-point uniform matroid, ground 6
# ---------------------------------------------------------------------------


class TestWorkCounters:
    env, dist = two_point_matroid("uniform", seed=3, ground=6, rank=3)

    def scaled(self, **kwargs):
        env = self.env
        return pricing.expected_scaled_prices(
            env, self.dist, lambda p: matroid_dynamic_prices(env, p), PARAMS, **kwargs
        )

    def test_one_feasible_enumeration_per_call(self, monkeypatch):
        prices = self.scaled()
        calls = []
        real = stochastic.enumerate_feasible

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(stochastic, "enumerate_feasible", counting)
        monkeypatch.setattr(oracle, "enumerate_feasible", counting)
        expected_opt(self.env, self.dist)
        assert len(calls) == 1
        calls.clear()
        monte_carlo_ratio(self.env, prices, self.dist, trials=50, seed=2)
        assert len(calls) == 1

    def test_residual_evaluated_once_per_mask_per_rule(self, monkeypatch):
        masks = defaultdict(list)
        real = pricing._matroid_residual_value

        def counting(env, element_vals, order, taken_mask):
            masks[id(element_vals)].append(taken_mask)  # one values list per rule
            return real(env, element_vals, order, taken_mask)

        monkeypatch.setattr(pricing, "_matroid_residual_value", counting)
        prices = self.scaled()
        expected_posted_price_welfare(self.env, prices, self.dist, tuple(range(self.env.n)))
        assert len(masks) == self.dist.support_size()
        for evaluated in masks.values():
            assert len(evaluated) == len(set(evaluated))
