import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice.balance import (
    BalanceReport,
    _PriceSums,
    check_balanced,
    check_weakly_balanced,
    minimal_beta,
)
from balprice.core import (
    AdditiveValuation,
    CombinatorialAuctionEnv,
    KnapsackEnv,
    Matroid,
    MatroidEnv,
    MphValuation,
    PipEnv,
    ScalarValuation,
    SingleItemEnv,
    TableValuation,
    TOL,
    UNAVAILABLE,
    ThresholdValuation,
    enumerate_feasible,
    restrict,
    welfare,
)
from balprice.catalog import (
    gen_knapsack_random,
    gen_mph_random,
    gen_pip_random,
    gen_two_point_single_item,
    gen_xos_random,
)
from balprice.oracle import default_family, knapsack_dp, opt, residual_opt
from balprice.pricing import (
    BalanceParams,
    knapsack_prices,
    matroid_dynamic_prices,
    mphk_item_prices,
    pip_prices,
    scaled_prices,
    single_item_prices,
    xos_item_prices,
)


def bit(*items):
    m = 0
    for j in items:
        m |= 1 << j
    return m


def uniform_matroid_env(rank, n):
    return MatroidEnv(
        n=n, matroid=Matroid.uniform(rank, n), elements=tuple((i,) for i in range(n))
    )


def element_profile(env, *vals):
    return tuple(
        TableValuation(((1 << env.elements[i][0], float(v)),)) for i, v in enumerate(vals)
    )


class TestSingleItemBalance:
    def setup_method(self):
        self.env = SingleItemEnv(n=2)
        self.profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        self.rule = single_item_prices(self.env, self.profile)
        self.alloc = opt(self.env, self.profile)
        self.family = default_family(self.env)

    def test_one_one_passes_all_orders(self):
        report = check_balanced(
            self.env, self.profile, self.rule, self.alloc, self.family,
            BalanceParams(alpha=1.0, beta=1.0),
        )
        assert report.passed
        assert report.condition_a_min_slack >= -1e-9
        assert report.condition_b_min_slack >= -1e-9

    def test_tight_beta_fails(self):
        report = check_balanced(
            self.env, self.profile, self.rule, self.alloc, self.family,
            BalanceParams(alpha=1.0, beta=0.4),
        )
        assert not report.passed
        assert any(w[0] == "b" for w in report.witnesses)

    def test_minimal_beta_is_one(self):
        assert minimal_beta(
            self.env, self.profile, self.rule, self.alloc, self.family, alpha=1.0
        ) == pytest.approx(1.0)

    def test_minimal_beta_scales_linearly(self):
        doubled = scaled_prices(self.rule, 2.0)
        assert minimal_beta(
            self.env, self.profile, doubled, self.alloc, self.family, alpha=1.0
        ) == pytest.approx(2.0)

    def test_zero_prices_minimal_beta_zero(self):
        zero = scaled_prices(self.rule, 0.0)
        assert minimal_beta(
            self.env, self.profile, zero, self.alloc, self.family, alpha=1.0
        ) == pytest.approx(0.0)

    def test_unbounded_when_residual_zero_with_positive_prices(self):
        from balprice.pricing import PricingRule

        env = SingleItemEnv(n=2)
        profile = (ScalarValuation(0.0), ScalarValuation(0.0))
        rule = PricingRule(
            env, lambda i, x, y: 1.0, static=True, anonymous=True,
            provenance={"construction": "fixed"},
        )
        assert minimal_beta(
            env, profile, rule, (0, 0), default_family(env), alpha=1.0
        ) == math.inf

    def test_certification_monotone_in_params(self):
        for beta in (1.0, 1.5, 4.0):
            report = check_balanced(
                self.env, self.profile, self.rule, self.alloc, self.family,
                BalanceParams(alpha=1.0, beta=beta),
            )
            assert report.passed
        for alpha in (1.0, 2.0):
            report = check_balanced(
                self.env, self.profile, self.rule, self.alloc, self.family,
                BalanceParams(alpha=alpha, beta=1.0),
            )
            assert report.passed


class TestMatroidBalance:
    def test_dynamic_prices_one_one(self):
        env = uniform_matroid_env(2, 3)
        profile = element_profile(env, 3, 2, 1)
        rule = matroid_dynamic_prices(env, profile)
        report = check_balanced(
            env, profile, rule, opt(env, profile), default_family(env),
            BalanceParams(alpha=1.0, beta=1.0),
        )
        assert report.passed

    def test_partition_matroid(self):
        env = MatroidEnv(
            n=4,
            matroid=Matroid.partition(((0, 1), (2, 3)), (1, 1)),
            elements=((0,), (1,), (2,), (3,)),
        )
        profile = element_profile(env, 4, 1, 3, 2)
        rule = matroid_dynamic_prices(env, profile)
        report = check_balanced(
            env, profile, rule, opt(env, profile), default_family(env),
            BalanceParams(alpha=1.0, beta=1.0),
        )
        assert report.passed


class TestWeakBalance:
    def test_mph2_pair_instance(self):
        env = CombinatorialAuctionEnv(n=2, items=2)
        profile = (
            MphValuation((((bit(0, 1), 4.0),),)),
            AdditiveValuation((1.0, 1.0)),
        )
        alloc = opt(env, profile)
        rule = mphk_item_prices(env, profile, alloc)
        report = check_weakly_balanced(
            env, profile, rule, alloc, default_family(env),
            BalanceParams(alpha=1.0, beta1=1.0, beta2=1.0),
        )
        assert report.passed

    def test_knapsack_strong_two_one(self):
        # the per-unit prices satisfy (2, 1): committing at least half the
        # capacity recovers half the reference welfare (condition a), and any
        # exchange member pays at most one reference welfare (condition b)
        env = KnapsackEnv(n=2, step=0.25)
        profile = (ThresholdValuation(1.0, 0.5), ThresholdValuation(1.0, 0.5))
        alloc = opt(env, profile)
        rule = knapsack_prices(env, profile, welfare(profile, alloc))
        report = check_balanced(
            env, profile, rule, alloc, default_family(env),
            BalanceParams(alpha=2.0, beta=1.0),
        )
        assert report.passed
        # restated in the weak form with the same bounds
        report2 = check_weakly_balanced(
            env, profile, rule, alloc, default_family(env),
            BalanceParams(alpha=2.0, beta1=1.0, beta2=0.0),
        )
        assert report2.passed

    def test_knapsack_alpha_one_fails(self):
        # regression: with alpha=1 condition (a) fails, e.g. x=(0.75, 0)
        # pays 1.5 against a full reference welfare of 2 and empty exchange set
        env = KnapsackEnv(n=2, step=0.25)
        profile = (ThresholdValuation(1.0, 0.5), ThresholdValuation(1.0, 0.5))
        alloc = opt(env, profile)
        rule = knapsack_prices(env, profile, welfare(profile, alloc))
        report = check_balanced(
            env, profile, rule, alloc, default_family(env),
            BalanceParams(alpha=1.0, beta=2.0),
        )
        assert not report.passed
        assert any(w[0] == "a" for w in report.witnesses)

    def test_pip_integral_two_zero_d(self):
        env = PipEnv(n=2, matrix=((0.5, 0.5),), capacities=(1.0,))
        profile = (ScalarValuation(1.0), ScalarValuation(1.0))
        alloc = opt(env, profile)
        rule = pip_prices(env, profile, alloc)
        report = check_weakly_balanced(
            env, profile, rule, alloc, default_family(env),
            BalanceParams(alpha=2.0, beta1=0.0, beta2=1.0),
        )
        assert report.passed

    def test_form_mismatch_raises(self):
        env = SingleItemEnv(n=2)
        profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        rule = single_item_prices(env, profile)
        with pytest.raises(ValueError):
            check_balanced(
                env, profile, rule, opt(env, profile), default_family(env),
                BalanceParams(alpha=1.0, beta1=1.0, beta2=0.0),
            )


class TestOrderDp:
    def test_extremal_matches_permutation_brute_force(self):
        env = uniform_matroid_env(2, 3)
        profile = element_profile(env, 3, 2, 1)
        rule = matroid_dynamic_prices(env, profile)
        for x in enumerate_feasible(env):
            sums = _PriceSums(rule, x, env.n)
            lo_dp, _, _ = sums.extremal(x, maximize=False)
            hi_dp, _, _ = sums.extremal(x, maximize=True)
            per_order = [
                sums.declared_order(x, order)[0]
                for order in itertools.permutations(range(env.n))
            ]
            assert lo_dp == pytest.approx(min(per_order))
            assert hi_dp == pytest.approx(max(per_order))

    def test_declared_vs_all_orders_consistency(self):
        env = uniform_matroid_env(2, 3)
        profile = element_profile(env, 3, 2, 1)
        rule = matroid_dynamic_prices(env, profile)
        alloc = opt(env, profile)
        fam = default_family(env)
        params = BalanceParams(alpha=1.0, beta=1.0)
        all_orders = check_balanced(env, profile, rule, alloc, fam, params)
        assert all_orders.passed
        for order in itertools.permutations(range(env.n)):
            declared = check_balanced(
                env, profile, rule, alloc, fam, params,
                order=order, order_mode="declared",
            )
            assert declared.passed


# ---------------------------------------------------------------------------
# Static rules: per-family condition (b) against the per-allocation loop
# ---------------------------------------------------------------------------


def per_x_static_check(env, profile, prices, alg_alloc, family, params):
    """Brute-force twin of the static path: for every feasible x, price
    every member of x's exchange set afresh, each term conditioned on the
    null allocation and summed in agent order."""
    assert prices.static
    n = env.n
    order = tuple(range(n))
    alg_w = welfare(profile, alg_alloc)
    report = BalanceReport(
        passed=True,
        params=params,
        condition_a_min_slack=math.inf,
        condition_b_min_slack=math.inf,
        order_mode="all",
    )

    def static_sum(z):
        total, bad = 0.0, False
        for i in range(n):
            p = prices.price(i, z[i], restrict(z, ()))
            if p is UNAVAILABLE:
                bad = True
            else:
                total += p
        return total, bad

    feasible = enumerate_feasible(env)
    for x in feasible:
        report.checked_allocations += 1
        residual_w = welfare(profile, residual_opt(env, profile, family, x))
        rhs_a = (alg_w - residual_w) / params.alpha
        if params.weak:
            rhs_b = params.beta1 * residual_w + params.beta2 * alg_w
        else:
            rhs_b = params.beta * residual_w
        lhs_a, bad = static_sum(x)
        if bad:
            report.structural_violations.append(("a", x, order))
            report.passed = False
        slack_a = lhs_a - rhs_a
        report.condition_a_min_slack = min(report.condition_a_min_slack, slack_a)
        if slack_a < -TOL:
            report.passed = False
            report.witnesses.append(("a", x, None, lhs_a, rhs_a, order))
        for member in family.members(x):
            report.checked_members += 1
            lhs_b, bad = static_sum(member)
            if bad:
                report.structural_violations.append(("b", x, member))
                report.passed = False
            slack_b = rhs_b - lhs_b
            report.condition_b_min_slack = min(report.condition_b_min_slack, slack_b)
            if slack_b < -TOL:
                report.passed = False
                report.witnesses.append(("b", x, member, lhs_b, rhs_b, order))
            if lhs_b > TOL:
                ratio = math.inf if residual_w <= TOL else lhs_b / residual_w
                report.max_b_ratio = max(report.max_b_ratio, ratio)
    if not feasible:
        report.condition_a_min_slack = 0.0
        report.condition_b_min_slack = 0.0
    if report.condition_b_min_slack == math.inf:
        report.condition_b_min_slack = 0.0
    return report


def _static_case(kind, n, seed):
    """(env, profile, rule, reference allocation) for a catalog instance
    priced by its static construction."""
    if kind == "knapsack":
        inst = gen_knapsack_random(n=n, seed=seed)
        alloc = knapsack_dp(inst.env, inst.profile)
        rule = knapsack_prices(inst.env, inst.profile, welfare(inst.profile, alloc))
        return inst.env, inst.profile, rule, alloc
    if kind == "two-point":
        inst = gen_two_point_single_item(n=n, seed=seed)
        alloc = opt(inst.env, inst.profile)
        return inst.env, inst.profile, single_item_prices(inst.env, inst.profile), alloc
    gen, construct = {
        "xos": (gen_xos_random, xos_item_prices),
        "mph": (gen_mph_random, mphk_item_prices),
        "pip": (gen_pip_random, pip_prices),
    }[kind]
    inst = gen(n=n, seed=seed)
    alloc = opt(inst.env, inst.profile)
    return inst.env, inst.profile, construct(inst.env, inst.profile, alloc), alloc


def _assert_matches_twin(kind, n, seed, params):
    env, profile, rule, alloc = _static_case(kind, n, seed)
    family = default_family(env)
    check = check_weakly_balanced if params.weak else check_balanced
    fast = check(env, profile, rule, alloc, family, params)
    twin = per_x_static_check(env, profile, rule, alloc, family, params)
    assert fast == twin
    return fast


STRONG = [BalanceParams(alpha=1.0, beta=1.0), BalanceParams(alpha=1.0, beta=0.5)]


class TestStaticPerFamily:
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([BalanceParams(alpha=2.0, beta=1.0), BalanceParams(alpha=1.0, beta=2.0)]),
    )
    @settings(max_examples=10, deadline=None)
    def test_knapsack_matches_per_x_loop(self, n, seed, params):
        _assert_matches_twin("knapsack", n, seed, params)

    @given(
        st.sampled_from(["xos", "mph", "pip"]),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(STRONG + [BalanceParams(alpha=2.0, beta1=0.0, beta2=1.0)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_item_and_packing_prices_match_per_x_loop(self, kind, n, seed, params):
        _assert_matches_twin(kind, n, seed, params)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(STRONG),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_item_matches_per_x_loop(self, n, seed, params):
        _assert_matches_twin("two-point", n, seed, params)

    def test_knapsack_one_two_fails_on_condition_a(self):
        report = _assert_matches_twin("knapsack", 4, 0, BalanceParams(alpha=1.0, beta=2.0))
        assert not report.passed
        assert any(w[0] == "a" for w in report.witnesses)

    def test_fail_with_condition_b_witnesses(self):
        report = _assert_matches_twin("xos", 3, 0, BalanceParams(alpha=1.0, beta=0.5))
        assert not report.passed
        assert sum(w[0] == "b" for w in report.witnesses) > 10

    def test_each_static_term_priced_once(self):
        env, profile, rule, alloc = _static_case("knapsack", 4, 0)
        feasible = enumerate_feasible(env)
        pairs = {(i, x[i]) for x in feasible for i in range(env.n)}
        calls = [0]
        price = rule.price

        def counted_price(i, x_i, y):
            calls[0] += 1
            return price(i, x_i, y)

        rule.price = counted_price
        report = check_balanced(
            env, profile, rule, alloc, default_family(env),
            BalanceParams(alpha=2.0, beta=1.0),
        )
        assert report.checked_members > len(feasible)
        assert calls[0] <= len(pairs)


class TestMinimalBetaFromCheck:
    @pytest.mark.parametrize(
        "kind,n", [("knapsack", 3), ("knapsack", 4), ("xos", 3), ("mph", 3), ("pip", 4),
                   ("two-point", 3)],
    )
    def test_check_at_minimal_beta_meets_condition_b(self, kind, n):
        for seed in range(4):
            env, profile, rule, alloc = _static_case(kind, n, seed)
            family = default_family(env)
            beta = minimal_beta(env, profile, rule, alloc, family, alpha=1.0)
            if math.isinf(beta):
                # a member pays while its residual optimum is 0: no finite beta
                report = check_balanced(
                    env, profile, rule, alloc, family, BalanceParams(alpha=1.0, beta=1e6)
                )
                assert report.condition_b_min_slack < -TOL
                continue
            report = check_balanced(
                env, profile, rule, alloc, family, BalanceParams(alpha=1.0, beta=beta)
            )
            assert report.max_b_ratio == beta
            assert report.condition_b_min_slack >= -TOL
            assert not any(v[0] == "b" for v in report.structural_violations)
