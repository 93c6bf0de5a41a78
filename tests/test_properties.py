"""Cross-module invariants: availability law, price-scaling behaviour, and
estimator guarantees on certified supports."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice.catalog import (
    gen_knapsack_random,
    gen_matroid,
    gen_pip_random,
    gen_tight_prophet,
    gen_two_point_single_item,
    gen_xos_random,
)
from balprice.core import (
    NULL,
    UNAVAILABLE,
    enumerate_feasible,
    replace_at,
    welfare,
)
from balprice.oracle import knapsack_dp, opt
from balprice.pricing import (
    BalanceParams,
    expected_scaled_prices,
    knapsack_prices,
    matroid_dynamic_prices,
    pip_prices,
    single_item_prices,
    xos_item_prices,
)
from balprice.stochastic import monte_carlo_ratio, exact_ratio


def build_cases():
    cases = []
    x = gen_xos_random(n=2, m=3, seed=21)
    cases.append((x.env, xos_item_prices(x.env, x.profile, opt(x.env, x.profile))))
    k = gen_knapsack_random(n=3, seed=22)
    cases.append(
        (k.env, knapsack_prices(k.env, k.profile,
                                welfare(k.profile, knapsack_dp(k.env, k.profile))))
    )
    m = gen_matroid("uniform", seed=23, rank=2, ground=4)
    cases.append((m.env, matroid_dynamic_prices(m.env, m.profile)))
    p = gen_pip_random(n=3, m=2, d=2, seed=24)
    cases.append((p.env, pip_prices(p.env, p.profile, opt(p.env, p.profile))))
    t = gen_tight_prophet(0.2)
    cases.append((t.env, single_item_prices(t.env, t.profile)))
    return cases


class TestAvailabilityLaw:
    @pytest.mark.parametrize("env,rule", build_cases(), ids=lambda c: getattr(c, "kind", ""))
    def test_unavailable_iff_infeasible(self, env, rule):
        # total rules: a menu entry is unavailable exactly when adding it to
        # the current partial allocation is infeasible
        for y in enumerate_feasible(env):
            for i in range(env.n):
                y_cleared = replace_at(y, i, NULL)
                for tok in env.agent_outcomes(i):
                    price = rule.price(i, tok, y)
                    feasible = env.is_feasible(replace_at(y_cleared, i, tok))
                    assert (price is UNAVAILABLE) == (not feasible), (i, tok, y)

    @pytest.mark.parametrize("env,rule", build_cases(), ids=lambda c: getattr(c, "kind", ""))
    def test_null_always_free(self, env, rule):
        for y in enumerate_feasible(env):
            for i in range(env.n):
                assert rule.price(i, NULL, y) == 0.0


class TestStaticFlag:
    def test_static_rules_ignore_history(self):
        for env, rule in build_cases():
            if not rule.static:
                continue
            null = env.null_allocation()
            for y in enumerate_feasible(env):
                for i in range(env.n):
                    for tok in env.agent_outcomes(i):
                        p = rule.price(i, tok, y)
                        if p is UNAVAILABLE:
                            continue
                        base = rule.price(i, tok, null)
                        assert base is not UNAVAILABLE
                        assert abs(p - base) <= 1e-12


class TestEstimatorGuarantees:
    def test_monte_carlo_respects_half_on_certified_support(self):
        # sampled estimate of a (1,1)-certified instance stays above the
        # guarantee up to sampling error
        inst = gen_tight_prophet(0.1)
        rule = expected_scaled_prices(
            inst.env, inst.distribution,
            lambda p: single_item_prices(inst.env, p),
            BalanceParams(alpha=1.0, beta=1.0),
        )
        est = monte_carlo_ratio(
            inst.env, rule, inst.distribution, trials=10_000, seed=17
        )
        assert est.ratio >= 0.5 - est.ci95_halfwidth - 1e-9
        exact = exact_ratio(inst.env, rule, inst.distribution, order=(0, 1))
        assert abs(est.ratio - exact.ratio) <= 3 * est.ci95_halfwidth + 1e-6

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=12, deadline=None)
    def test_exact_ratio_on_random_certified_instances(self, seed):
        inst = gen_two_point_single_item(seed=seed)
        rule = expected_scaled_prices(
            inst.env, inst.distribution,
            lambda p: single_item_prices(inst.env, p),
            BalanceParams(alpha=1.0, beta=1.0),
        )
        for order in itertools.permutations(range(2)):
            est = exact_ratio(inst.env, rule, inst.distribution, order=order)
            assert est.ratio >= 0.5 - 1e-9
            assert est.expected_mechanism_welfare <= est.expected_opt + 1e-9
