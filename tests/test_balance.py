import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balprice import balance
from balprice.balance import (
    _OrderSums,
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
    TOL,
    UNAVAILABLE,
    ThresholdValuation,
    enumerate_feasible,
    welfare,
)
from balprice.catalog import gen_knapsack_random
from balprice.cli import main
from balprice.mechanism import whole_unit_prices
from balprice.oracle import (
    ExchangeFamily,
    default_family,
    knapsack_dp,
    opt,
)
from balprice.pricing import (
    BalanceParams,
    PricingRule,
    knapsack_prices,
    matroid_dynamic_prices,
    mphk_item_prices,
    pip_prices,
    scaled_prices,
    single_item_prices,
)

from helpers import (
    MATROID_PRICINGS,
    bit,
    declared_sum_twin,
    eager_extremal,
    extremal,
    element_profile,
    gated_unavailable_case,
    matroid_priced,
    per_x_check,
    price_term,
    report_fields,
    static_case,
    uniform_matroid_env,
)
from twins import WALK


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
            env, lambda i, x, y: 1.0, static=True,
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
        feasible = enumerate_feasible(env)
        sums = _OrderSums(env, rule)
        for x in feasible:
            lo_dp, _ = extremal(sums, x, x, maximize=False)
            hi_dp, _ = extremal(sums, x, x, maximize=True)
            per_order = [
                declared_sum_twin(rule, x, x, order)[0]
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
            declared = check_balanced(env, profile, rule, alloc, fam, params, order=order)
            assert declared.passed


# ---------------------------------------------------------------------------
# All-orders DP over live agents against the full-width DP
# ---------------------------------------------------------------------------


def all_orders(sums, x, z, maximize):
    """(value, witness order, flag) from the value path and the replay."""
    value, bad = extremal(sums, x, z, maximize)
    return value, sums.witness(x, z, maximize), bad


def full_width_extremal(sums, x, z, maximize):
    """Reference twin of ``all_orders``: the subset DP over all 2^n
    predecessor sets, with every agent's term tabulated on every submask of
    support(x), inert agents included, and asked of the pricing rule."""
    n, supp = len(x), sum(1 << i for i, t in enumerate(x) if t != 0)
    term_table = []
    for i in range(n):
        row = {}
        for cm in range(1 << n):
            if cm & ~supp:
                continue
            p = price_term(sums.prices, x, i, z[i], cm & ~(1 << i))
            row[cm & ~(1 << i)] = (0.0, True) if p is UNAVAILABLE else (p, False)
        term_table.append(row)

    full = (1 << n) - 1
    sign = -1.0 if maximize else 1.0
    dp = [math.inf] * (full + 1)
    flag = [False] * (full + 1)
    parent = [-1] * (full + 1)
    dp[0] = 0.0
    for mask in range(1, full + 1):
        best, best_i, best_flag = math.inf, -1, False
        m = mask
        while m:
            bit = m & -m
            i = bit.bit_length() - 1
            m ^= bit
            prev = mask ^ bit
            p, bad = term_table[i][prev & supp & ~bit]
            cand = dp[prev] + sign * p
            if cand < best - TOL:
                best, best_i, best_flag = cand, i, bad or flag[prev]
        dp[mask] = best
        parent[mask] = best_i
        flag[mask] = best_flag
    order = []
    mask = full
    while mask:
        i = parent[mask]
        order.append(i)
        mask ^= 1 << i
    return sign * dp[full], tuple(reversed(order)), flag[full]


def walk_through(monkeypatch, twin):
    """Send every all-orders sum the walk takes, and every witness order it
    records, through ``twin(sums, x, z, maximize) -> (value, order, flag)``.
    The walk asks sums by list position (``extremal_at``), which
    ``helpers.extremal`` calls too."""

    def value(sums, py, at, maximize):
        x = sums.feasible[py]
        results = (twin(sums, x, sums.feasible[pw], maximize) for pw in at)
        return [(v, bad) for v, _order, bad in results]

    monkeypatch.setattr(_OrderSums, "extremal_at", value)
    monkeypatch.setattr(
        _OrderSums, "witness", lambda sums, x, z, maximize: twin(sums, x, z, maximize)[1]
    )


def _assert_extremal_matches_twin(sums, x, z):
    for maximize in (False, True):
        live = all_orders(sums, x, z, maximize)
        twin = full_width_extremal(sums, x, z, maximize)
        assert live == twin
        assert repr(live) == repr(twin)
        assert repr(live) == repr(eager_extremal(sums, x, z, maximize))


def _live_mask(x, z):
    return sum(1 << i for i in range(len(x)) if x[i] != 0 or z[i] != 0)


def _is_interleaved(order, live):
    """True when an inert agent sits between two live agents of ``order``."""
    flags = [bool(live >> i & 1) for i in order]
    first, last = flags.index(True), len(flags) - 1 - flags[::-1].index(True)
    return not all(flags[first:last + 1])


class TestLiveAgentDp:
    @given(
        st.sampled_from(["uniform", "partition", "graphic_k4"]),
        st.integers(min_value=3, max_value=7),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(MATROID_PRICINGS),
    )
    @settings(max_examples=12, deadline=None)
    def test_extremal_matches_full_width_twin(self, kind, ground, seed, pricing):
        if pricing != "matroid":
            # the reference-price constructions re-run opt per price miss
            ground = min(ground, 4)
            kind = "uniform" if kind == "graphic_k4" else kind
        env, profile, rule, family = matroid_priced(kind, ground, seed, pricing)
        feasible = enumerate_feasible(env)
        sums = _OrderSums(env, rule)
        for x in feasible:
            for z in [x] + family.members(x):
                _assert_extremal_matches_twin(sums, x, z)

    @given(
        st.sampled_from(["uniform", "partition"]),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_extremal_matches_permutation_loop(self, kind, ground, seed):
        env, profile, rule, family = matroid_priced(kind, ground, seed, "matroid")
        orders = list(itertools.permutations(range(env.n)))
        feasible = enumerate_feasible(env)
        sums = _OrderSums(env, rule)
        for x in feasible:
            for z in [x] + family.members(x):
                per_order = [declared_sum_twin(rule, x, z, order)[0] for order in orders]
                for maximize, target in ((False, min(per_order)), (True, max(per_order))):
                    value, witness, bad = all_orders(sums, x, z, maximize)
                    assert sorted(witness) == list(range(env.n))
                    # the value is the witness order's own sum
                    assert declared_sum_twin(rule, x, z, witness) == (value, bad)
                    assert value == pytest.approx(target, abs=1e-7)

    def test_fail_with_interleaved_witness_orders(self, monkeypatch):
        env, profile, rule, family = matroid_priced("uniform", 6, 3, "matroid")
        params = BalanceParams(alpha=1.0, beta=0.5)
        report = check_balanced(env, profile, rule, opt(env, profile), family, params)
        walk_through(monkeypatch, full_width_extremal)
        twin = check_balanced(env, profile, rule, opt(env, profile), family, params)
        assert report == twin
        assert not report.passed
        interleaved = [
            w for w in report.witnesses
            if w[0] == "b" and _is_interleaved(w[5], _live_mask(w[1], w[2]))
        ]
        assert interleaved

    def test_unavailable_term_flag_carries_to_the_full_order(self):
        # agent 2's entry is unavailable until agent 0's element is sold;
        # agent 3 is inert for the (x, z) below
        env = uniform_matroid_env(3, 4)
        rule = PricingRule(
            env, lambda i, x_i, y: UNAVAILABLE if i == 2 and not y[0] else 1.0,
            static=False,
        )
        enumerate_feasible(env)
        sums = _OrderSums(env, rule)
        x, z = (bit(0), 0, 0, 0), (0, bit(1), bit(2), 0)
        _assert_extremal_matches_twin(sums, x, z)
        # min: agent 2 before agent 0 saves a unit; the order ends on agent
        # 0's finite term, so the flag comes from the predecessor set
        value, witness, bad = all_orders(sums, x, z, maximize=False)
        assert (value, bad) == (1.0, True)
        assert witness.index(2) < witness.index(0)
        value, witness, bad = all_orders(sums, x, z, maximize=True)
        assert (value, bad) == (2.0, False)
        assert witness.index(0) < witness.index(2)

    def test_near_ties_resolve_like_twin(self):
        # non-dyadic prices: sums along different orders differ by rounding
        # only, which the first-within-TOL scan must treat as ties
        env = uniform_matroid_env(4, 5)
        rule = PricingRule(
            env, lambda i, x_i, y: 0.1 * (i + 1) + 0.3 * sum(1 for t in y if t),
            static=False,
        )
        feasible = enumerate_feasible(env)
        sums = _OrderSums(env, rule)
        for x in feasible:
            for z in feasible:
                _assert_extremal_matches_twin(sums, x, z)

    def test_work_counters_on_uniform_four_of_eight(self, monkeypatch):
        env, profile, rule, family = matroid_priced("uniform", 8, 0, "matroid")
        feasible = enumerate_feasible(env)
        keys = {family.members_key(x) for x in feasible}
        bound = 0
        for x in feasible:
            supp = sum(1 for xi in x if xi != 0)
            for z in [x] + family.members(x):
                bound += bin(_live_mask(x, z)).count("1") << supp

        member_calls = [0]
        members_of = ExchangeFamily._members_of

        def counted_members(self, key, cap):
            member_calls[0] += 1
            return members_of(self, key, cap)

        price_calls = [0]
        price = rule.price

        def counted_price(i, x_i, y):
            price_calls[0] += 1
            return price(i, x_i, y)

        monkeypatch.setattr(ExchangeFamily, "_members_of", counted_members)
        rule.price = counted_price
        report = check_balanced(
            env, profile, rule, opt(env, profile), family, BalanceParams(alpha=1.0, beta=1.0)
        )
        assert report.passed
        assert member_calls[0] == len(keys)
        assert price_calls[0] <= bound


class TestLiveAgentMap:
    def test_wide_walk_holds_one_mask_per_state_at_most(self, tmp_path, monkeypatch):
        """24 agents and a 25-entry list: the walk keys each state's live
        agents by mask as it meets them, never tabulating the 2^24 masks."""
        inst = tmp_path / "tp24.json"
        assert main(["catalog", "two-point", "--n", "24", "--seed", "0", "-o", str(inst)]) == 0
        made = []
        init = _OrderSums.__init__

        def kept(sums, *args):
            init(sums, *args)
            made.append(sums)

        monkeypatch.setattr(_OrderSums, "__init__", kept)
        code = main(["balance", "--instance", str(inst), "--pricing", "warmup", "--order", "all",
                     "-o", str(tmp_path / "report.json")])
        assert code in (0, 1)
        (sums,) = made
        assert sums.size == 25
        solved = sum(len(values) for values in sums._values)
        assert 0 < len(sums._agents) <= solved


def count_replays(monkeypatch) -> list:
    """Count ``_OrderSums.witness`` calls in a one-element list."""
    calls = [0]
    witness = _OrderSums.witness

    def counted(sums, x, z, maximize):
        calls[0] += 1
        return witness(sums, x, z, maximize)

    monkeypatch.setattr(_OrderSums, "witness", counted)
    return calls


LAZY_PARAMS = [
    BalanceParams(alpha=1.0, beta=0.25),
    BalanceParams(alpha=1.0, beta=0.5),
    BalanceParams(alpha=1.0, beta1=0.1, beta2=0.2),
]


def _check_either(env, profile, rule, family, params):
    check = check_weakly_balanced if params.weak else check_balanced
    return check(env, profile, rule, opt(env, profile), family, params)


def _assert_orders_reproduce_sums(report, rule):
    """Each recorded order's own sum is the recorded lhs, and each
    structural condition-(a) order meets the UNAVAILABLE entry."""
    for cond, x, member, lhs, _rhs, order in report.witnesses:
        z = x if cond == "a" else member
        assert declared_sum_twin(rule, x, z, order)[0] == lhs
    for cond, x, order in report.structural_violations:
        if cond == "a":
            assert declared_sum_twin(rule, x, x, order)[1]


class TestLazyWitness:
    """Witness orders are replayed only for recorded entries; every order
    the report holds must be the one the eager replay gives."""

    @given(
        st.sampled_from(["uniform", "partition", "graphic_k4"]),
        st.integers(min_value=4, max_value=6),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["matroid", "warmup", "alg1-greedy"]),
        st.sampled_from(LAZY_PARAMS),
    )
    @settings(max_examples=20, deadline=None)
    def test_reports_match_eager_walk(self, kind, ground, seed, pricing, params):
        env, profile, rule, family = matroid_priced(kind, ground, seed, pricing)
        fast = _check_either(env, profile, rule, family, params)
        with pytest.MonkeyPatch.context() as mp:
            walk_through(mp, eager_extremal)
            twin = _check_either(env, profile, rule, family, params)
        assert repr(fast) == repr(twin)
        _assert_orders_reproduce_sums(fast, rule)

    def test_structural_condition_a_orders_match_eager_walk(self, monkeypatch):
        env, profile, rule, family = gated_unavailable_case()
        params = BalanceParams(alpha=1.0, beta=1.0)
        replays = count_replays(monkeypatch)
        fast = _check_either(env, profile, rule, family, params)
        assert any(v[0] == "a" for v in fast.structural_violations)
        assert replays[0] <= len(fast.witnesses) + len(fast.structural_violations)
        walk_through(monkeypatch, eager_extremal)
        twin = _check_either(env, profile, rule, family, params)
        assert repr(fast) == repr(twin)
        _assert_orders_reproduce_sums(fast, rule)

    @pytest.mark.parametrize("kind,ground,pricing", [
        ("uniform", 6, "matroid"), ("partition", 6, "matroid"), ("graphic_k4", 6, "warmup"),
    ])
    def test_replays_at_most_recorded_entries(self, monkeypatch, kind, ground, pricing):
        env, profile, rule, family = matroid_priced(kind, ground, 1, pricing)
        replays = count_replays(monkeypatch)
        report = _check_either(env, profile, rule, family, BalanceParams(alpha=1.0, beta=0.25))
        recorded = len(report.witnesses) + len(report.structural_violations)
        assert len(report.witnesses) > 10
        assert 0 < replays[0] <= recorded

    def test_witness_reads_only_solved_states(self, monkeypatch):
        # the walk solves one state per checked sum (42 allocations, 233
        # members); asking for each recorded order again gives it back and
        # adds no state and no price miss
        env, profile, rule, family = matroid_priced("uniform", 6, 1, "matroid")
        made = []
        init = _OrderSums.__init__

        def kept(sums, *args):
            init(sums, *args)
            made.append(sums)

        monkeypatch.setattr(_OrderSums, "__init__", kept)
        report = _check_either(env, profile, rule, family, BalanceParams(alpha=1.0, beta=0.25))
        (sums,) = made
        solved = [len(values) for values in sums._values]
        assert (len(report.witnesses), solved, len(rule._cache)) == (187, [42, 233], 96)
        for cond, x, member, _lhs, _rhs, order in report.witnesses:
            z, maximize = (x, False) if cond == "a" else (member, True)
            assert sums.witness(x, z, maximize) == order
        assert [len(values) for values in sums._values] == solved
        assert len(rule._cache) == 96

    def test_passing_run_replays_nothing(self, monkeypatch):
        env, profile, rule, family = matroid_priced("uniform", 8, 0, "matroid")
        replays = count_replays(monkeypatch)
        report = _check_either(env, profile, rule, family, BalanceParams(alpha=1.0, beta=1.0))
        assert report.passed
        assert replays[0] == 0


class TestWalkMatchesTwin:
    """The other all-orders walk cases are parts of ``twins.WALK``."""

    @pytest.mark.parametrize("beta", [1.0, 0.25])
    def test_gated_unavailable_entries(self, beta):
        case = ("gated", beta)
        assert repr(WALK.fast(case)) == repr(WALK.twin(case))


# ---------------------------------------------------------------------------
# Static rules: per-family condition (b) against the per-allocation loop
# ---------------------------------------------------------------------------


def _assert_matches_twin(kind, n, seed, params):
    env, profile, rule, alloc = static_case(kind, n, seed)
    family = default_family(env)
    check = check_weakly_balanced if params.weak else check_balanced
    fast = check(env, profile, rule, alloc, family, params)
    twin = per_x_check(env, profile, rule, alloc, family, params)
    # by repr, so that a signed zero or an int in place of a float cannot slip through
    assert repr(report_fields(fast)) == repr(report_fields(twin))
    return fast


STRONG = [BalanceParams(alpha=1.0, beta=1.0), BalanceParams(alpha=1.0, beta=0.5)]


class TestStaticPerFamily:
    def test_knapsack_one_two_fails_on_condition_a(self):
        report = _assert_matches_twin("knapsack", 4, 0, BalanceParams(alpha=1.0, beta=2.0))
        assert not report.passed
        assert any(w[0] == "a" for w in report.witnesses)

    def test_fail_with_condition_b_witnesses(self):
        report = _assert_matches_twin("xos", 3, 0, BalanceParams(alpha=1.0, beta=0.5))
        assert not report.passed
        assert sum(w[0] == "b" for w in report.witnesses) > 10

    def test_each_static_term_priced_once(self):
        env, profile, rule, alloc = static_case("knapsack", 4, 0)
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

    def test_keys_from_one_pass_and_each_set_built_once(self, monkeypatch):
        """The walk reads every x's key off one pass over the kept DFS
        states: on catalog knapsack n = 5 it builds the open and the closed
        exchange set once each and calls ``members_key`` on no allocation."""
        env, profile, rule, alloc = static_case("knapsack", 5, 0)
        calls = {"members_key": 0, "_members_of": 0}
        for name in calls:
            def counted(family, *args, _name=name, _real=getattr(ExchangeFamily, name)):
                calls[_name] += 1
                return _real(family, *args)

            monkeypatch.setattr(ExchangeFamily, name, counted)
        report = check_balanced(
            env, profile, rule, alloc, default_family(env), BalanceParams(alpha=2.0, beta=1.0)
        )
        assert report.checked_allocations == len(enumerate_feasible(env)) > 2
        assert calls == {"members_key": 0, "_members_of": 2}

    def test_pip_rows_summed_once_per_listed_allocation(self, monkeypatch):
        """The packing key pass reads the kept ``"loads"`` table that the
        exchange sets are filtered by: on catalog pip n = 6 the walk sums
        each listed allocation's rows once."""
        env, profile, rule, alloc = static_case("pip", 6, 1)
        calls, row_loads = [], PipEnv.row_loads

        def counted(rows):
            calls.append(rows)
            return row_loads(rows)

        monkeypatch.setattr(PipEnv, "row_loads", staticmethod(counted))
        report = check_weakly_balanced(
            env, profile, rule, alloc, default_family(env), BalanceParams(alpha=2.0, beta1=0.0, beta2=2.0)
        )
        assert report.checked_allocations == len(calls) == len(enumerate_feasible(env)) > 2


    @given(
        st.sampled_from(["knapsack", "xos", "pip"]),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_each_allocation_summed_once(self, kind, n, seed):
        """A static rule's walk sums every listed allocation in one column,
        and scores each exchange set from it: by its largest entry, or
        member by member where condition (b) breaks.  It builds no
        ``_OrderSums``."""
        env, profile, rule, alloc = static_case(kind, n, seed)
        columns, tables = [], []
        term_sums = balance._term_sums
        init = _OrderSums.__init__

        def counted_column(*args):
            columns.append(args)
            return term_sums(*args)

        def counted_init(sums, *args, **kwargs):
            init(sums, *args, **kwargs)
            tables.append(sums.prices)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(balance, "_term_sums", counted_column)
            mp.setattr(_OrderSums, "__init__", counted_init)
            check_balanced(
                env, profile, rule, alloc, default_family(env), BalanceParams(alpha=2.0, beta=2.0)
            )
        assert len(columns) == 1
        assert tables == []

    @given(
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.5, 1.0, 4.0]),
        st.sampled_from(STRONG + [BalanceParams(alpha=2.0, beta1=0.0, beta2=1.0)]),
    )
    @example(3, 0, 1.0, STRONG[0])
    @settings(max_examples=8, deadline=None)
    def test_whole_unit_knapsack_flags_both_conditions(self, n, seed, price, params):
        """Whole-unit prices are static and UNAVAILABLE on every partial
        quantity: each allocation holding one is a structural violation,
        and so is each exchange member holding one.  The ``static-walk``
        entry of ``twins.TWINS`` compares these reports with the
        per-allocation twin."""
        env, profile, rule, alloc = static_case("whole-unit", n, seed, price=price)
        assert rule.static
        check = check_weakly_balanced if params.weak else check_balanced
        report = check(env, profile, rule, alloc, default_family(env), params)
        assert {v[0] for v in report.structural_violations} == {"a", "b"}

    def test_flagged_member_scored_from_the_column(self):
        """On the catalog knapsack, whole-unit prices are UNAVAILABLE on the
        half units its outcomes stop at, so an exchange set holding a half
        unit is scored member by member from the static column and its
        flags: each flagged member is a structural violation, and the report
        is the per-allocation twin's, with no ``_OrderSums`` built."""
        inst = gen_knapsack_random(n=3, seed=0)
        env, profile = inst.env, inst.profile
        alloc = knapsack_dp(env, profile)
        rule = whole_unit_prices(env, 1.0)
        params = BalanceParams(alpha=2.0, beta=1.0)

        def no_sums(sums, *args, **kwargs):
            raise AssertionError("the static walk built an _OrderSums")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_OrderSums, "__init__", no_sums)
            report = check_balanced(env, profile, rule, alloc, default_family(env), params)
        twin = per_x_check(env, profile, rule, alloc, default_family(env), params)
        assert repr(report_fields(report)) == repr(report_fields(twin))
        feasible = enumerate_feasible(env)
        _, flags = balance._term_sums(rule, range(env.n), env.null_allocation(), feasible)
        positions = {y: k for k, y in enumerate(feasible)}
        flagged = [member for kind, _, member in report.structural_violations if kind == "b"]
        assert flagged and all(flags[positions[member]] for member in flagged)


def test_family_of_another_environment_refused():
    # members are read off the checked environment's list by position
    env, profile, rule, alloc = static_case("knapsack", 3, 0)
    other = default_family(gen_knapsack_random(n=4, seed=0).env)
    with pytest.raises(ValueError, match="^the exchange family belongs to another environment$"):
        check_balanced(env, profile, rule, alloc, other, BalanceParams(alpha=1.0, beta=1.0))


class TestMinimalBetaFromCheck:
    @pytest.mark.parametrize(
        "kind,n", [("knapsack", 3), ("knapsack", 4), ("xos", 3), ("mph", 3), ("pip", 4),
                   ("two-point", 3)],
    )
    def test_check_at_minimal_beta_meets_condition_b(self, kind, n):
        for seed in range(4):
            env, profile, rule, alloc = static_case(kind, n, seed)
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

    def test_member_sum_within_tol_of_zero_pays_nothing(self):
        # every price is at most 1e-9 on a reference welfare of 1e-9, and the
        # residual optimum is 0: a member sum in (0, TOL] counts as no
        # payment, so 0/0 is satisfied and beta 0 suffices
        env = KnapsackEnv(n=2, step=0.5, max_share=0.5)
        profile = (ThresholdValuation(0.0, 0.5), ThresholdValuation(0.0, 0.5))
        rule = knapsack_prices(env, profile, 1e-9)
        alloc = knapsack_dp(env, profile)
        assert minimal_beta(env, profile, rule, alloc, default_family(env), alpha=2.0) == 0.0
