import math

import pytest

from balprice.core import (
    NULL,
    AdditiveValuation,
    CombinatorialAuctionEnv,
    KnapsackEnv,
    MphValuation,
    PipEnv,
    ProductEnv,
    ScalarValuation,
    SingleItemEnv,
    TOL,
    ThresholdValuation,
    UNAVAILABLE,
    XosValuation,
    enumerate_feasible,
    welfare,
)
from balprice.mechanism import whole_unit_prices
from balprice.oracle import OPT_RULE, fractional_opt_config_lp, opt
from balprice.pricing import (
    BalanceParams,
    PricingError,
    bundle_split_item_prices,
    compose_add,
    compose_max,
    expected_scaled_prices,
    fractional_ca_item_prices,
    greedy_derived_prices,
    knapsack_prices,
    matroid_dynamic_prices,
    monotone_critical_prices,
    mphk_item_prices,
    opt_derived_prices,
    pip_prices,
    single_item_prices,
    xos_item_prices,
)
from balprice.stochastic import ProductDistribution

from helpers import bit, element_profile, uniform_matroid_env


class TestBalanceParams:
    def test_strong_scale(self):
        p = BalanceParams(alpha=1.0, beta=1.0)
        assert p.scale_factor() == pytest.approx(0.5)
        assert p.welfare_guarantee() == pytest.approx(0.5)

    def test_weak_scale_and_guarantee(self):
        p = BalanceParams(alpha=1.0, beta1=1.0, beta2=1.0)  # rank-2 hypergraph case
        assert p.scale_factor() == pytest.approx(1.0 / 3.0)
        assert p.welfare_guarantee() == pytest.approx(1.0 / 6.0)

    def test_weak_form_precondition(self):
        p = BalanceParams(alpha=0.5, beta1=0.5, beta2=0.5)
        with pytest.raises(PricingError):
            p.scale_factor()

    def test_exactly_one_form(self):
        with pytest.raises(PricingError):
            BalanceParams(alpha=1.0)
        with pytest.raises(PricingError):
            BalanceParams(alpha=1.0, beta=1.0, beta1=0.0, beta2=0.0)


class TestSingleItemPrices:
    def test_posts_the_max(self):
        env = SingleItemEnv(n=2)
        profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        rule = single_item_prices(env, profile)
        assert rule.price(0, 1, (0, 0)) == 2.0
        assert rule.price(1, 1, (0, 0)) == 2.0
        assert rule.price(0, 0, (0, 0)) == 0.0

    def test_unavailable_after_allocation(self):
        env = SingleItemEnv(n=2)
        rule = single_item_prices(env, (ScalarValuation(0.0), ScalarValuation(0.0)))
        assert rule.price(0, 1, (0, 1)) is UNAVAILABLE
        assert rule.price(0, 1, (0, 0)) == 0.0


class TestBundleSplitPrices:
    def test_even_split(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        profile = (MphValuation((((bit(0, 1), 4.0),),)), AdditiveValuation((0.0, 0.0)))
        rule = bundle_split_item_prices(env, profile, (bit(0, 1), 0))
        assert rule.price(1, bit(0), (0, 0)) == pytest.approx(2.0)
        assert rule.price(1, bit(0, 1), (0, 0)) == pytest.approx(4.0)

    def test_empty_alloc_prices_zero(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        profile = (AdditiveValuation((1.0, 1.0)), AdditiveValuation((1.0, 1.0)))
        rule = bundle_split_item_prices(env, profile, (0, 0))
        assert rule.price(0, bit(0, 1), (0, 0)) == 0.0

    def test_unavailable_on_sold_items(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        profile = (AdditiveValuation((1.0, 1.0)), AdditiveValuation((1.0, 1.0)))
        rule = bundle_split_item_prices(env, profile, (bit(0), bit(1)))
        assert rule.price(1, bit(0), (bit(0), 0)) is UNAVAILABLE


class TestXosItemPrices:
    def test_additive_clause_is_itself(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        profile = (AdditiveValuation((3.0, 1.0)), AdditiveValuation((1.0, 2.0)))
        alloc = opt(env, profile)
        rule = xos_item_prices(env, profile, alloc)
        assert rule.provenance["item_prices"] == [3.0, 2.0]

    def test_zero_value_winner_prices_zero(self):
        env = CombinatorialAuctionEnv(n=1, items=2)
        profile = (XosValuation(((0.0, 0.0),)),)
        rule = xos_item_prices(env, profile, (bit(0, 1),))
        assert rule.price(0, bit(0), (0,)) == 0.0

    def test_negative_clauses_support_the_maximum(self):
        """A clause worth less than -1 is still a candidate: the supporting
        clause is the one ``value`` takes, and its entry is the item's
        price."""
        env = CombinatorialAuctionEnv(n=1, items=1)
        v = XosValuation(((-5.0,), (-2.0,)))
        assert v.value(bit(0)) == -2.0
        assert v.supporting_clause(bit(0)) == 1
        rule = xos_item_prices(env, (v,), (bit(0),))
        assert rule.provenance["item_prices"] == [-2.0]

    def test_supporting_clause_first_maximum_within_tol(self):
        v = XosValuation(((1.0, 0.0), (1.0 + TOL / 2, 0.0), (3.0, 0.0)))
        assert v.supporting_clause(bit(0)) == 2
        assert XosValuation(((1.0,), (1.0 + TOL / 2,))).supporting_clause(bit(0)) == 0
        m = MphValuation((((bit(0), 1.0),), ((bit(0), 1.0 + TOL / 2),), ((bit(1), 2.0),)))
        assert m.supporting_clause(bit(0)) == 0
        assert m.supporting_clause(bit(0, 1)) == 2

    def test_supporting_clause_tie_first_wins(self):
        env = CombinatorialAuctionEnv(n=1, items=2)
        profile = (XosValuation(((2.0, 0.0), (0.0, 2.0))),)
        rule = xos_item_prices(env, profile, (bit(0),))
        # both clauses reach 2.0 on item 0? no: clause 2 gives 0 there, so
        # clause 1 supports; on a genuine tie the first clause is used
        assert rule.provenance["item_prices"] == [2.0, 0.0]


class TestMphItemPrices:
    def test_pair_edge_prices_both_items(self):
        env = CombinatorialAuctionEnv(n=1, items=2)
        profile = (MphValuation((((bit(0, 1), 4.0),),)),)
        rule = mphk_item_prices(env, profile, (bit(0, 1),))
        assert rule.provenance["item_prices"] == [4.0, 4.0]

    def test_rank_one_matches_xos(self):
        env = CombinatorialAuctionEnv(n=2, items=3)
        xos_profile = (
            XosValuation(((1.0, 2.0, 0.5),)),
            XosValuation(((0.5, 1.5, 3.0),)),
        )
        mph_profile = tuple(
            MphValuation((tuple((bit(j), c[j]) for j in range(3)),))
            for c in [(1.0, 2.0, 0.5), (0.5, 1.5, 3.0)]
        )
        alloc = opt(env, xos_profile)
        r_xos = xos_item_prices(env, xos_profile, alloc)
        r_mph = mphk_item_prices(env, mph_profile, alloc)
        for i in range(2):
            for mask in range(8):
                for y in enumerate_feasible(env):
                    assert r_xos.price(i, mask, y) == r_mph.price(i, mask, y)

    def test_empty_allocation(self):
        env = CombinatorialAuctionEnv(n=1, items=2)
        profile = (MphValuation((((bit(0, 1), 4.0),),)),)
        rule = mphk_item_prices(env, profile, (0,))
        assert rule.provenance["item_prices"] == [0.0, 0.0]


class TestFractionalCaPrices:
    def test_integral_vertex_equals_winner_values(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        profile = (AdditiveValuation((3.0, 1.0)), AdditiveValuation((1.0, 2.0)))
        sol = fractional_opt_config_lp(env, profile)
        rule = fractional_ca_item_prices(env, profile, sol)
        assert rule.provenance["item_prices"] == pytest.approx([3.0, 2.0])

    def test_triangle_splits_over_items(self):
        from balprice.oracle import FractionalSolution

        env = CombinatorialAuctionEnv(n=4, items=3)
        profile = (
            MphValuation((((bit(0, 1), 2.0),),)),
            MphValuation((((bit(1, 2), 2.0),),)),
            MphValuation((((bit(0, 2), 2.0),),)),
            MphValuation((((bit(0, 1, 2), 3.0),),)),
        )
        # the vertex assigning the whole triple: each covered item carries the
        # full bundle value of the assignment mass through it
        sol = FractionalSolution(env=env, weights=((3, bit(0, 1, 2), 1.0),), objective=3.0)
        rule = fractional_ca_item_prices(env, profile, sol)
        assert rule.provenance["item_prices"] == pytest.approx([3.0, 3.0, 3.0])
        # the half-weight pair mix is another optimum with the same objective
        solved = fractional_opt_config_lp(env, profile)
        assert solved.objective == pytest.approx(3.0)
        mixed = fractional_ca_item_prices(env, profile, solved)
        assert mixed.provenance["item_prices"] == pytest.approx([2.0, 2.0, 2.0])


class TestKnapsackPrices:
    def test_per_unit(self):
        env = KnapsackEnv(n=2, step=0.125)
        profile = (ThresholdValuation(1.0, 0.5), ThresholdValuation(1.0, 0.5))
        alg_w = welfare(profile, opt(env, profile))
        assert alg_w == pytest.approx(2.0)
        rule = knapsack_prices(env, profile, alg_w)
        assert rule.price(0, 0.5, (0.0, 0.0)) == pytest.approx(1.0)

    def test_capacity_unavailable(self):
        env = KnapsackEnv(n=2, step=0.125)
        profile = (ThresholdValuation(1.0, 0.5), ThresholdValuation(1.0, 0.5))
        rule = knapsack_prices(env, profile, 2.0)
        assert rule.price(0, 0.5, (0.0, 0.75)) is UNAVAILABLE

    def test_zero_welfare_free(self):
        env = KnapsackEnv(n=1, step=0.25)
        rule = knapsack_prices(env, (ThresholdValuation(0.0, 0.5),), 0.0)
        assert rule.price(0, 0.5, (0.0,)) == 0.0


class TestPipPrices:
    def test_formula(self):
        env = PipEnv(n=2, matrix=((0.5, 0.5),), capacities=(1.0,))
        profile = (ScalarValuation(1.0), ScalarValuation(1.0))
        rule = pip_prices(env, profile, (1, 1))
        # constraint price 2, load 0.5 -> price 1 per unit demand
        assert rule.price(0, 1, (0, 0)) == pytest.approx(1.0)

    def test_zero_reference_all_free(self):
        env = PipEnv(n=2, matrix=((0.5, 0.5),), capacities=(1.0,))
        profile = (ScalarValuation(1.0), ScalarValuation(1.0))
        rule = pip_prices(env, profile, (0, 0))
        assert rule.price(0, 1, (0, 0)) == 0.0

    def test_two_sparse_column_sums_rows(self):
        env = PipEnv(n=1, matrix=((0.5,), (0.25,)), capacities=(1.0, 1.0))
        profile = (ScalarValuation(2.0),)
        rule = pip_prices(env, profile, (1,))
        # row prices are 2 each; agent pays 0.5*2 + 0.25*2
        assert rule.price(0, 1, (0,)) == pytest.approx(1.5)


class TestMatroidDynamicPrices:
    def test_two_uniform_values(self):
        env = uniform_matroid_env(2, 3)
        profile = element_profile(env, 3, 2, 1)
        rule = matroid_dynamic_prices(env, profile)
        y0 = env.null_allocation()
        assert rule.price(0, bit(0), y0) == pytest.approx(3.0)
        assert rule.price(1, bit(1), y0) == pytest.approx(2.0)
        assert rule.price(2, bit(2), y0) == pytest.approx(2.0)

    def test_conditional_price(self):
        env = uniform_matroid_env(2, 3)
        profile = element_profile(env, 3, 2, 1)
        rule = matroid_dynamic_prices(env, profile)
        assert rule.price(1, bit(1), (bit(0), 0, 0)) == pytest.approx(2.0)

    def test_one_uniform_matches_single_item(self):
        env = uniform_matroid_env(1, 3)
        profile = element_profile(env, 3, 2, 1)
        rule = matroid_dynamic_prices(env, profile)
        for i in range(3):
            assert rule.price(i, bit(i), env.null_allocation()) == pytest.approx(3.0)

    def test_monotone_in_partial_allocation(self):
        env = uniform_matroid_env(2, 4)
        profile = element_profile(env, 5, 3, 2, 1)
        rule = matroid_dynamic_prices(env, profile)
        allocs = enumerate_feasible(env)
        for y in allocs:
            for z in allocs:
                if not all(a == NULL or a == b for a, b in zip(y, z)):
                    continue
                for i in range(4):
                    if z[i] != NULL or y[i] != NULL:
                        continue
                    p_small = rule.price(i, bit(i), y)
                    p_big = rule.price(i, bit(i), z)
                    small = math.inf if p_small is UNAVAILABLE else p_small
                    big = math.inf if p_big is UNAVAILABLE else p_big
                    assert small <= big + 1e-9


class TestMonotoneCriticalPrices:
    def test_one_uniform(self):
        env = uniform_matroid_env(1, 2)
        profile = element_profile(env, 1, 2)
        rule = monotone_critical_prices(env, profile)
        y0 = env.null_allocation()
        assert rule.price(0, bit(0), y0) == pytest.approx(2.0)
        assert rule.price(1, bit(1), y0) == pytest.approx(2.0)

    def test_priced_out_unavailable(self):
        env = uniform_matroid_env(1, 2)
        profile = element_profile(env, 1, 2)
        rule = monotone_critical_prices(env, profile)
        assert rule.price(0, bit(0), (0, bit(1))) is UNAVAILABLE


class TestReferencePrices:
    def test_opt_variant_one_uniform(self):
        env = uniform_matroid_env(1, 3)
        profile = element_profile(env, 3, 2, 1)
        rule = opt_derived_prices(env, profile)
        y0 = env.null_allocation()
        for i in range(3):
            assert rule.price(i, bit(i), y0) == pytest.approx(3.0)

    def test_winner_pays_their_value(self):
        env = uniform_matroid_env(2, 3)
        profile = element_profile(env, 3, 2, 1)
        rule = opt_derived_prices(env, profile)
        y0 = env.null_allocation()
        # agents 0 and 1 are in the reference allocation
        assert rule.price(0, bit(0), y0) == pytest.approx(3.0)
        assert rule.price(1, bit(1), y0) == pytest.approx(2.0)

    def test_greedy_variant_coincides_on_one_uniform(self):
        env = uniform_matroid_env(1, 3)
        profile = element_profile(env, 3, 2, 1)
        r_grd = greedy_derived_prices(env, profile)
        r_opt = opt_derived_prices(env, profile)
        for y in enumerate_feasible(env):
            for i in range(3):
                assert r_grd.price(i, bit(i), y) == r_opt.price(i, bit(i), y)


class TestComposition:
    def test_compose_add_two_single_item_markets(self):
        a, b = SingleItemEnv(n=2), SingleItemEnv(n=2)
        env = ProductEnv(markets=(a, b))
        prof_a = (ScalarValuation(1.0), ScalarValuation(2.0))
        prof_b = (ScalarValuation(3.0), ScalarValuation(1.0))
        rule = compose_add(
            env, (single_item_prices(a, prof_a), single_item_prices(b, prof_b))
        )
        y0 = env.null_allocation()
        assert rule.price(0, (1, 1), y0) == pytest.approx(5.0)
        assert rule.price(0, (1, 0), y0) == pytest.approx(2.0)

    def test_compose_add_unavailable_component(self):
        a, b = SingleItemEnv(n=2), SingleItemEnv(n=2)
        env = ProductEnv(markets=(a, b))
        prof = (ScalarValuation(1.0), ScalarValuation(1.0))
        rule = compose_add(env, (single_item_prices(a, prof), single_item_prices(b, prof)))
        # market A's item already sold to agent 1
        assert rule.price(0, (1, 1), (NULL, (1, 0))) is UNAVAILABLE

    def test_compose_add_component_unavailable_on_feasible_entry_raises(self):
        """Whole-unit prices leave the half unit off the knapsack's menu, so
        a feasible product entry holding it has no summed price."""
        k, s = KnapsackEnv(n=2, step=0.5), SingleItemEnv(n=2)
        env = ProductEnv(markets=(k, s))
        prof = (ScalarValuation(1.0), ScalarValuation(2.0))
        rule = compose_add(env, (whole_unit_prices(k, 1.0), single_item_prices(s, prof)))
        y0 = env.null_allocation()
        with pytest.raises(AssertionError, match="^component unavailable on a feasible product entry$"):
            rule.price(0, (0.5, 1), y0)
        assert rule.price(0, (1.0, 1), y0) == 3.0

    def test_compose_max_reproduces_xos_prices(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        profile = (
            XosValuation(((3.0, 1.0), (1.0, 2.0))),
            XosValuation(((1.0, 2.0),)),
        )
        alloc = opt(env, profile)
        direct = xos_item_prices(env, profile, alloc)
        composed = compose_max(
            lambda e, p: xos_item_prices(e, p, alloc), env, profile, alloc, rule=OPT_RULE
        )
        for i in range(2):
            for mask in range(4):
                for y in enumerate_feasible(env):
                    assert composed.price(i, mask, y) == direct.price(i, mask, y)


class TestExpectedScaledPrices:
    def test_deterministic_matches_scaled_base(self):
        env = SingleItemEnv(n=2)
        profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        params = BalanceParams(alpha=1.0, beta=1.0)
        dist = ProductDistribution.deterministic(profile)
        rule = expected_scaled_prices(env, dist, lambda p: single_item_prices(env, p), params)
        assert rule.price(0, 1, (0, 0)) == pytest.approx(1.0)  # 0.5 * 2
        assert rule.provenance["delta"] == pytest.approx(0.5)

    def test_sampled_equals_exact_for_deterministic(self):
        env = SingleItemEnv(n=2)
        profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        params = BalanceParams(alpha=1.0, beta=1.0)
        dist = ProductDistribution.deterministic(profile)
        exact = expected_scaled_prices(env, dist, lambda p: single_item_prices(env, p), params)
        sampled = expected_scaled_prices(
            env,
            dist,
            lambda p: single_item_prices(env, p),
            params,
            mode="sampled",
            count=32,
            seed=7,
        )
        assert sampled.price(1, 1, (0, 0)) == pytest.approx(exact.price(1, 1, (0, 0)))
