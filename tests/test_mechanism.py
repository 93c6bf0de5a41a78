import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice.catalog import gen_matroid, gen_two_point_single_item, gen_xos_random
from balprice.core import (
    TOL,
    AdditiveValuation,
    CombinatorialAuctionEnv,
    KnapsackEnv,
    MphValuation,
    ScalarValuation,
    SingleItemEnv,
    ThresholdValuation,
    XosValuation,
    welfare,
)
from balprice.mechanism import (
    TIE_POLICIES,
    OnlinePostedPriceRunner,
    adaptive_adversary_welfare,
    expected_posted_price_welfare,
    run_posted_price,
    two_mechanism_selector,
    whole_unit_prices,
    worst_order_welfare,
)
from balprice.oracle import opt
from balprice.pricing import (
    BalanceParams,
    PricingRule,
    bundle_split_item_prices,
    expected_scaled_prices,
    matroid_dynamic_prices,
    scaled_prices,
    single_item_prices,
    xos_item_prices,
)
from balprice.stochastic import ProductDistribution

from helpers import bit, verify_trace


def uniform_item_prices(env, price):
    return PricingRule(
        env,
        lambda i, mask, y: price * bin(mask).count("1"),
        static=True,
        provenance={"construction": "uniform", "price": price},
    )


class TestRunPostedPrice:
    def test_half_price_single_item_adversarial_tie(self):
        env = SingleItemEnv(n=2)
        profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        rule = scaled_prices(single_item_prices(env, profile), 0.5)  # price 1
        trace = run_posted_price(env, rule, profile, (0, 1), "adversarial_min_welfare")
        # agent 0 is indifferent at price 1; the adversary makes it buy,
        # blocking the high-value agent
        assert trace.outcomes == (1, 0)
        assert trace.welfare == pytest.approx(1.0)

    def test_prefer_null_lets_high_agent_buy(self):
        env = SingleItemEnv(n=2)
        profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        rule = scaled_prices(single_item_prices(env, profile), 0.5)
        trace = run_posted_price(env, rule, profile, (0, 1), "prefer_null")
        assert trace.outcomes == (0, 1)
        assert trace.welfare == pytest.approx(2.0)

    def test_all_zero_values(self):
        env = SingleItemEnv(n=2)
        profile = (ScalarValuation(0.0), ScalarValuation(0.0))
        rule = single_item_prices(env, profile)
        trace = run_posted_price(env, rule, profile, (0, 1), "prefer_null")
        assert trace.welfare == 0.0
        assert trace.revenue == 0.0

    def test_accounting_identity_and_ir(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        profile = (AdditiveValuation((3.0, 1.0)), AdditiveValuation((1.0, 2.0)))
        rule = bundle_split_item_prices(env, profile, opt(env, profile))
        for tie in ("prefer_null", "prefer_buy_lexmin", "adversarial_min_welfare"):
            trace = run_posted_price(env, rule, profile, (0, 1), tie)
            assert trace.welfare == pytest.approx(trace.revenue + trace.utility_sum)
            assert all(u >= -1e-9 for u in trace.utilities)
            verify_trace(env, rule, profile, trace)

    def test_determinism(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        profile = (XosValuation(((2.0, 1.0),)), XosValuation(((1.0, 2.0),)))
        rule = uniform_item_prices(env, 0.5)
        t1 = run_posted_price(env, rule, profile, (1, 0), "adversarial_min_welfare")
        t2 = run_posted_price(env, rule, profile, (1, 0), "adversarial_min_welfare")
        assert t1 == t2

    def test_invalid_order(self):
        env = SingleItemEnv(n=2)
        profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        rule = single_item_prices(env, profile)
        with pytest.raises(ValueError):
            run_posted_price(env, rule, profile, (0, 0), "prefer_null")


class TestWorstOrder:
    def test_triangle_best_prices_give_two_thirds(self):
        env = CombinatorialAuctionEnv(n=4, items=3)
        profile = (
            MphValuation((((bit(0, 1), 2.0),),)),
            MphValuation((((bit(1, 2), 2.0),),)),
            MphValuation((((bit(0, 2), 2.0),),)),
            MphValuation((((bit(0, 1, 2), 3.0),),)),
        )
        # any uniform item price below 1 lets a pair bidder pre-empt the
        # grand bundle in the worst order: welfare 2 versus optimum 3
        w, order = worst_order_welfare(env, uniform_item_prices(env, 0.75), profile)
        assert w == pytest.approx(2.0)
        assert welfare(profile, opt(env, profile)) == pytest.approx(3.0)

    def test_single_agent_order_independent(self):
        env = SingleItemEnv(n=1)
        profile = (ScalarValuation(2.0),)
        rule = single_item_prices(env, profile)
        w, order = worst_order_welfare(env, rule, profile)
        assert order == (0,)
        assert w == pytest.approx(
            run_posted_price(env, rule, profile, (0,), "adversarial_min_welfare").welfare
        )

    def test_unit_demand_blocks_bundle(self):
        # d=4 items: a unit-demand agent first grabs one cheap item and the
        # grand-bundle agent is locked out
        env = CombinatorialAuctionEnv(n=2, items=4)
        profile = (
            XosValuation(tuple(tuple(1.0 if k == j else 0.0 for k in range(4)) for j in range(4))),
            MphValuation((((bit(0, 1, 2, 3), 4.0),),)),
        )
        w, _ = worst_order_welfare(env, uniform_item_prices(env, 0.5), profile)
        assert w <= 1.0 + 1e-9


class TestAdaptiveAdversary:
    def test_deterministic_equals_worst_order(self):
        env = SingleItemEnv(n=2)
        profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        rule = scaled_prices(single_item_prices(env, profile), 0.5)
        dist = ProductDistribution.deterministic(profile)
        adaptive = adaptive_adversary_welfare(env, rule, dist)
        worst, _ = worst_order_welfare(env, rule, profile)
        assert adaptive == pytest.approx(worst)

    def test_two_point_tree(self):
        # one deterministic value-1 agent, one 2-or-0 coin flip at price 0.75
        env = SingleItemEnv(n=2)
        dist = ProductDistribution(
            (
                ((ScalarValuation(1.0), 1.0),),
                ((ScalarValuation(2.0), 0.5), (ScalarValuation(0.0), 0.5)),
            )
        )
        rule = PricingRule(
            env, lambda i, x, y: 0.75, static=True,
            provenance={"construction": "fixed"},
        )
        # offering agent 0 first yields welfare 1 always; offering agent 1
        # first yields 2 or falls back to 1, i.e. 1.5 in expectation
        assert adaptive_adversary_welfare(env, rule, dist) == pytest.approx(1.0)

    def test_single_agent_plain_expectation(self):
        env = SingleItemEnv(n=1)
        dist = ProductDistribution(
            (((ScalarValuation(2.0), 0.25), (ScalarValuation(0.0), 0.75)),)
        )
        rule = PricingRule(
            env, lambda i, x, y: 1.0, static=True,
            provenance={"construction": "fixed"},
        )
        # buys only at value 2: welfare 2 w.p. 0.25
        assert adaptive_adversary_welfare(env, rule, dist) == pytest.approx(0.5)


class TestTwoMechanismSelector:
    def test_small_agents_only(self):
        env = KnapsackEnv(n=2, step=0.125)
        dist = ProductDistribution.deterministic(
            (ThresholdValuation(1.0, 0.5), ThresholdValuation(1.0, 0.5))
        )
        result = two_mechanism_selector(env, dist)
        assert result.expected_welfare == max(
            result.per_unit_welfare, result.whole_unit_welfare
        )
        assert result.expected_welfare >= (1.0 / 5.0) * 2.0 - 1e-9

    def test_big_agents_whole_unit(self):
        env = KnapsackEnv(n=2, step=0.125)
        dist = ProductDistribution.deterministic(
            (ThresholdValuation(3.0, 0.75), ThresholdValuation(1.0, 0.75))
        )
        result = two_mechanism_selector(env, dist)
        # the per-unit mechanism's reference instance is empty; only the
        # whole-unit mechanism can serve anyone
        assert result.choice == "whole_unit"
        assert result.expected_welfare >= 0.5 * 3.0 - 1e-9  # 2-approx to E[OPT]=3

    def test_mixed_meets_one_fifth(self):
        env = KnapsackEnv(n=3, step=0.125)
        dist = ProductDistribution.deterministic(
            (
                ThresholdValuation(2.0, 0.5),
                ThresholdValuation(1.0, 0.375),
                ThresholdValuation(2.5, 0.75),
            )
        )
        from balprice.stochastic import expected_opt

        result = two_mechanism_selector(env, dist)
        benchmark = expected_opt(env, dist)
        assert result.expected_welfare >= benchmark / 5.0 - 1e-9


class TestWholeUnitPrices:
    def test_menu_is_binary(self):
        env = KnapsackEnv(n=2, step=0.25)
        rule = whole_unit_prices(env, 1.5)
        menu = rule.menu(0, env.null_allocation())
        assert [tok for tok, _ in menu] == [0.0, 1.0]


# ---------------------------------------------------------------------------
# Differential checks of the game-tree evaluator against brute force
# ---------------------------------------------------------------------------


def permutation_worst_order(env, prices, profile, tie):
    """Reference: trace welfare of every arrival permutation; the first one
    whose welfare is the minimum is the witness."""
    best_w, best_order = math.inf, None
    for order in itertools.permutations(range(env.n)):
        w = run_posted_price(env, prices, profile, order, tie).welfare
        if w < best_w - TOL:
            best_w, best_order = w, order
    return best_w, best_order


def catalog_case(kind, seed, size):
    """A small catalog instance with its default construction, scaled over
    its distribution as the CLI does; returns (env, rule, profile, dist)."""
    if kind == "two-point":
        inst = gen_two_point_single_item(n=size, seed=seed)
        build = lambda p: single_item_prices(inst.env, p)
    elif kind == "matroid":
        inst = gen_matroid("uniform", seed=seed, rank=max(1, size // 2), ground=size)
        build = lambda p: matroid_dynamic_prices(inst.env, p)
    else:
        inst = gen_xos_random(n=size, m=2, seed=seed)
        build = lambda p: xos_item_prices(inst.env, p, opt(inst.env, p))
    dist = inst.distribution or ProductDistribution.deterministic(inst.profile)
    rule = expected_scaled_prices(
        inst.env, dist, build, BalanceParams(alpha=1.0, beta=1.0)
    )
    return inst.env, rule, inst.profile, dist


class TestEvaluatorAgainstBruteForce:
    @given(
        st.sampled_from(("two-point", "matroid", "xos")),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=2, max_value=5),
        st.sampled_from(TIE_POLICIES),
    )
    @settings(max_examples=40, deadline=None)
    def test_worst_order_matches_permutation_loop(self, kind, seed, size, tie):
        if kind == "xos":
            size = min(size, 4)  # XOS agents over two items: keep 4! orders
        env, rule, profile, _ = catalog_case(kind, seed, size)
        assert worst_order_welfare(env, rule, profile, tie) == permutation_worst_order(
            env, rule, profile, tie
        )

    def test_uniform7_witness_keeps_every_tie_history(self):
        # following one tie choice greedily gives (2,1,5,6,7,3,4) here
        inst = gen_matroid("uniform", seed=1, rank=3, ground=7)
        rule = expected_scaled_prices(
            inst.env,
            ProductDistribution.deterministic(inst.profile),
            lambda p: matroid_dynamic_prices(inst.env, p),
            BalanceParams(alpha=1.0, beta=1.0),
        )
        tie = "adversarial_min_welfare"
        got = worst_order_welfare(inst.env, rule, inst.profile, tie)
        assert got == permutation_worst_order(inst.env, rule, inst.profile, tie)
        assert [i + 1 for i in got[1]] == [2, 1, 5, 3, 4, 6, 7]

    @given(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.permutations(range(n))
        ),
        st.sampled_from(TIE_POLICIES),
    )
    @settings(max_examples=30, deadline=None)
    def test_expectation_is_the_mean_of_realized_runs(self, seed, order, tie):
        env, rule, _, dist = catalog_case("two-point", seed, len(order))
        runner = OnlinePostedPriceRunner(env, rule, dist.supports, order, tie)
        mean = math.fsum(prob * runner.run(p).welfare for p, prob in dist.profiles())
        assert runner.expected_welfare() == pytest.approx(mean, abs=1e-9)

    @given(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(TIE_POLICIES),
    )
    @settings(max_examples=30, deadline=None)
    def test_adaptive_at_most_every_fixed_order(self, seed, n, tie):
        env, rule, profile, dist = catalog_case("two-point", seed, n)
        for d, exact in ((dist, False), (ProductDistribution.deterministic(profile), True)):
            best_fixed = min(
                expected_posted_price_welfare(env, rule, d, order, tie)
                for order in itertools.permutations(range(n))
            )
            adaptive = adaptive_adversary_welfare(env, rule, d, tie)
            assert adaptive <= best_fixed + 1e-9
            if exact:
                assert adaptive == pytest.approx(best_fixed, abs=1e-9)
