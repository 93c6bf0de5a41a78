"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines as they complete.
"""

import itertools
import math

import pytest

from balprice.balance import check_balanced, check_weakly_balanced
from balprice.catalog import (
    gen_common_outcome_instance,
    gen_knapsack_mixed,
    gen_knapsack_random,
    gen_matroid,
    gen_mph_random,
    gen_pip_random,
    gen_single_minded_triangle,
    gen_tight_prophet,
    gen_two_point_single_item,
    gen_unit_demand_vs_bundle,
    gen_xos_random,
)
from balprice.core import (
    NULL,
    MphValuation,
    ProductEnv,
    ScalarValuation,
    SingleItemEnv,
    UNAVAILABLE,
    enumerate_feasible,
    replace_at,
    welfare,
)
from balprice.mechanism import (
    expected_posted_price_welfare,
    run_posted_price,
    two_mechanism_selector,
    worst_order_welfare,
)
from balprice.oracle import (
    GREEDY_RULE,
    OPT_RULE,
    ExchangeFamily,
    default_family,
    greedy,
    knapsack_dp,
    opt,
    permeability,
)
from balprice.pricing import (
    BalanceParams,
    PricingRule,
    bundle_split_item_prices,
    compose_add,
    compose_max,
    expected_scaled_prices,
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
from balprice.stochastic import (
    ProductDistribution,
    exact_expectation,
    expected_opt,
    monte_carlo_ratio,
    trial_rng,
)

from helpers import catalog_matroids, check_downward_closed, verify_trace

EPS = 1e-9


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def mixed_dist(instances, probs=None):
    """Product distribution whose agent-i atoms come from the i-th entries of
    several deterministic instances."""
    n = instances[0].env.n
    k = len(instances)
    if probs is None:
        probs = [1.0 / k] * k
    supports = tuple(
        tuple((inst.profile[i], p) for inst, p in zip(instances, probs))
        for i in range(n)
    )
    return ProductDistribution(supports)


def all_orders_expected_welfare_ok(env, rule, dist, bound, label):
    """Exact expected welfare under every arrival permutation and adversarial
    (history-conditioned) ties must reach ``bound`` (within EPS)."""
    worst = math.inf
    for order in itertools.permutations(range(env.n)):
        val = expected_posted_price_welfare(
            env, rule, dist, order, "adversarial_min_welfare"
        )
        worst = min(worst, val)
    ok = worst >= bound - EPS
    return ok, worst


# ---------------------------------------------------------------------------
# 1. Single-item prophet bound
# ---------------------------------------------------------------------------


class TestCriterion1SingleItem:
    def test_tight_instance_exact_ratio(self):
        inst = gen_tight_prophet(q=0.01)
        rule = expected_scaled_prices(
            inst.env, inst.distribution,
            lambda p: single_item_prices(inst.env, p),
            BalanceParams(alpha=1.0, beta=1.0),
        )
        mech = expected_posted_price_welfare(
            inst.env, rule, inst.distribution, (0, 1), "adversarial_min_welfare"
        )
        benchmark = expected_opt(inst.env, inst.distribution)
        ratio = mech / benchmark
        oracle = 1.0 / 1.99  # welfare 1 against expected optimum 2 - q
        ok = abs(ratio - oracle) <= 1e-12 and 0.5 <= ratio <= 0.51
        report("single-item tight instance: exact ratio = 1/1.99 in [0.5, 0.51]",
               ok, f"ratio={ratio:.6f}")

    def test_fifty_random_instances_all_orders_all_ties(self):
        worst = math.inf
        for seed in range(50):
            inst = gen_two_point_single_item(n=2, seed=seed)
            dist = inst.distribution
            rule = expected_scaled_prices(
                inst.env, dist,
                lambda p: single_item_prices(inst.env, p),
                BalanceParams(alpha=1.0, beta=1.0),
            )
            benchmark = expected_opt(inst.env, dist)
            for order in itertools.permutations(range(2)):
                for tie in ("prefer_null", "prefer_buy_lexmin", "adversarial_min_welfare"):
                    mech = expected_posted_price_welfare(inst.env, rule, dist, order, tie)
                    worst = min(worst, mech / benchmark)
        report("single-item 50 random instances: ratio >= 1/2 (all orders, all ties)",
               worst >= 0.5 - EPS, f"worst ratio={worst:.6f}")


# ---------------------------------------------------------------------------
# 2. Balance certification
# ---------------------------------------------------------------------------


def certified(report_obj):
    return (
        report_obj.passed
        and not report_obj.structural_violations
        and report_obj.condition_a_min_slack >= -EPS
        and report_obj.condition_b_min_slack >= -EPS
    )


class TestCriterion2Certification:
    def test_single_item_max_prices(self):
        bad = 0
        for seed in range(50):
            rng = trial_rng(seed, 10)
            n = 2 + seed % 3
            env = SingleItemEnv(n=n)
            profile = tuple(
                ScalarValuation(int(rng.integers(0, 17)) / 8) for _ in range(n)
            )
            rule = single_item_prices(env, profile)
            rep = check_balanced(
                env, profile, rule, opt(env, profile), default_family(env),
                BalanceParams(alpha=1.0, beta=1.0),
            )
            bad += not certified(rep)
        report("certify single-item max prices at (1,1), 50 seeds", bad == 0,
               f"{bad} failures")

    def test_matroid_dynamic_prices(self):
        bad = 0
        for seed in range(50):
            for inst in catalog_matroids(seed=1000 + seed * 7):
                rule = matroid_dynamic_prices(inst.env, inst.profile)
                rep = check_balanced(
                    inst.env, inst.profile, rule, opt(inst.env, inst.profile),
                    default_family(inst.env), BalanceParams(alpha=1.0, beta=1.0),
                )
                bad += not certified(rep)
        report("certify matroid dynamic prices at (1,1), catalog x 50 seeds",
               bad == 0, f"{bad} failures")

    @pytest.mark.parametrize("k", [1, 2])
    def test_mph_item_prices(self, k):
        bad = 0
        for seed in range(100):
            inst = gen_mph_random(
                n=2 + seed % 2, m=3 + seed % 2, k=k, clauses=2, seed=seed
            )
            alloc = opt(inst.env, inst.profile)
            rule = mphk_item_prices(inst.env, inst.profile, alloc)
            rank = max(v.rank for v in inst.profile)
            rep = check_weakly_balanced(
                inst.env, inst.profile, rule, alloc, default_family(inst.env),
                BalanceParams(alpha=1.0, beta1=1.0, beta2=float(rank - 1)),
            )
            bad += not certified(rep)
        report(f"certify hypergraph item prices at (1,1,{k - 1}), 100 seeds",
               bad == 0, f"{bad} failures")

    def test_knapsack_prices(self):
        # certified at the proof-true (2,1); the (1,2) label is refuted by
        # tests/test_balance.py::TestWeakBalance::test_knapsack_alpha_one_fails
        bad = 0
        for seed in range(100):
            inst = gen_knapsack_random(n=2 + seed % 3, seed=seed)
            alg = knapsack_dp(inst.env, inst.profile)
            rule = knapsack_prices(inst.env, inst.profile, welfare(inst.profile, alg))
            rep = check_balanced(
                inst.env, inst.profile, rule, alg, default_family(inst.env),
                BalanceParams(alpha=2.0, beta=1.0),
            )
            bad += not certified(rep)
        report("certify knapsack per-unit prices at (2,1), 100 seeds", bad == 0,
               f"{bad} failures")

    @pytest.mark.parametrize("d", [1, 2])
    def test_pip_prices(self, d):
        bad = 0
        for seed in range(100):
            inst = gen_pip_random(n=2 + seed % 3, m=2 + seed % 2, d=d, seed=seed)
            alloc = opt(inst.env, inst.profile)
            rule = pip_prices(inst.env, inst.profile, alloc)
            rep = check_weakly_balanced(
                inst.env, inst.profile, rule, alloc, default_family(inst.env),
                BalanceParams(alpha=2.0, beta1=0.0, beta2=float(d)),
            )
            bad += not certified(rep)
        report(f"certify packing prices at (2,0,{d}), 100 seeds", bad == 0,
               f"{bad} failures")


# ---------------------------------------------------------------------------
# 3. Scaled expected prices meet the welfare guarantee
# ---------------------------------------------------------------------------


class TestCriterion3ExtensionSoundness:
    def _check_family(self, name, make_instance, constructor_factory, params,
                      reference, certifier, family_fn, seeds):
        worst_margin = math.inf
        guarantee = params.welfare_guarantee()
        for seed in seeds:
            a, b = make_instance(seed), make_instance(seed + 7919)
            env = a.env
            dist = mixed_dist([a, b])
            constructor = constructor_factory(env)
            # premise: every support profile is certified at the params
            for profile, _ in dist.profiles():
                rule = constructor(profile)
                rep = certifier(
                    env, profile, rule, reference(env, profile), family_fn(env), params
                )
                assert certified(rep), f"{name} support profile not certified (seed {seed})"
            scaled = expected_scaled_prices(env, dist, constructor, params)
            target = guarantee * exact_expectation(
                dist, lambda p: welfare(p, reference(env, p))
            )
            ok, worst = all_orders_expected_welfare_ok(env, scaled, dist, target, name)
            worst_margin = min(worst_margin, worst - target)
            assert ok, f"{name} seed {seed}: welfare {worst} < target {target}"
        report(
            f"scaled expected prices meet 1/{1.0 / guarantee:g} of reference welfare: {name}",
            worst_margin >= -EPS, f"worst margin={worst_margin:.3g}",
        )

    def test_xos(self):
        self._check_family(
            "xos item prices",
            lambda s: gen_xos_random(n=3, m=3, clauses=2, seed=s),
            lambda env: (lambda p: xos_item_prices(env, p, opt(env, p))),
            BalanceParams(alpha=1.0, beta=1.0),
            lambda env, p: opt(env, p),
            check_balanced,
            default_family,
            seeds=range(6),
        )

    def test_mph_rank_two(self):
        self._check_family(
            "hypergraph item prices (rank 2)",
            lambda s: gen_mph_random(n=3, m=3, k=2, clauses=2, seed=s),
            lambda env: (lambda p: mphk_item_prices(env, p, opt(env, p))),
            BalanceParams(alpha=1.0, beta1=1.0, beta2=1.0),
            lambda env, p: opt(env, p),
            check_weakly_balanced,
            default_family,
            seeds=range(6),
        )

    def test_knapsack(self):
        self._check_family(
            "knapsack per-unit prices",
            lambda s: gen_knapsack_random(n=3, seed=s),
            lambda env: (
                lambda p: knapsack_prices(env, p, welfare(p, knapsack_dp(env, p)))
            ),
            BalanceParams(alpha=2.0, beta=1.0),
            lambda env, p: knapsack_dp(env, p),
            check_balanced,
            default_family,
            seeds=range(6),
        )

    @pytest.mark.parametrize("d", [1, 2])
    def test_pip(self, d):
        self._check_family(
            f"packing prices (sparsity {d})",
            lambda s: gen_pip_random(n=3, m=2, d=d, seed=s),
            lambda env: (lambda p: pip_prices(env, p, opt(env, p))),
            BalanceParams(alpha=2.0, beta1=0.0, beta2=float(d)),
            lambda env, p: opt(env, p),
            check_weakly_balanced,
            default_family,
            seeds=range(6),
        )

    def test_matroid(self):
        def make(s):
            return gen_matroid("uniform", seed=s, rank=2, ground=4)

        self._check_family(
            "matroid dynamic prices",
            make,
            lambda env: (lambda p: matroid_dynamic_prices(env, p)),
            BalanceParams(alpha=1.0, beta=1.0),
            lambda env, p: opt(env, p),
            check_balanced,
            default_family,
            seeds=range(5),
        )

    def test_matroid_five_agents(self):
        def make(s):
            return gen_matroid("uniform", seed=s, rank=3, ground=5)

        self._check_family(
            "matroid dynamic prices (5 agents)",
            make,
            lambda env: (lambda p: matroid_dynamic_prices(env, p)),
            BalanceParams(alpha=1.0, beta=1.0),
            lambda env, p: opt(env, p),
            check_balanced,
            default_family,
            seeds=range(2),
        )


# ---------------------------------------------------------------------------
# 4. Unrestricted knapsack: better of two mechanisms
# ---------------------------------------------------------------------------


class TestCriterion4UnrestrictedKnapsack:
    def test_selector_meets_one_fifth(self):
        worst = math.inf
        for seed in range(100):
            inst = gen_knapsack_mixed(n=2 + seed % 3, seed=seed)
            if seed % 5 == 0:
                other = gen_knapsack_mixed(n=inst.env.n, seed=seed + 5000)
                dist = mixed_dist([inst, other])
            else:
                dist = ProductDistribution.deterministic(inst.profile)
            result = two_mechanism_selector(inst.env, dist)
            benchmark = expected_opt(inst.env, dist)
            if benchmark <= EPS:
                continue
            worst = min(worst, result.expected_welfare / benchmark)
        report("two-mechanism knapsack selector >= 1/5 of expected optimum, 100 seeds",
               worst >= 0.2 - EPS, f"worst ratio={worst:.4f}")


# ---------------------------------------------------------------------------
# 5. Named lower-bound instances
# ---------------------------------------------------------------------------


def uniform_item_rule(env, price):
    return PricingRule(
        env,
        lambda i, mask, y: price * bin(mask).count("1"),
        static=True,
        provenance={"construction": "uniform", "price": price},
    )


class TestCriterion5PaperInstances:
    def test_unit_demand_vs_bundle(self):
        inst = gen_unit_demand_vs_bundle(4)
        assert welfare(inst.profile, opt(inst.env, inst.profile)) == pytest.approx(4.0)
        rule = bundle_split_item_prices(
            inst.env, inst.profile, opt(inst.env, inst.profile)
        )
        w_bundle, _ = worst_order_welfare(inst.env, rule, inst.profile)
        sweep_max = 0.0
        for k in range(100):
            price = 2.0 * k / 99.0
            w, _ = worst_order_welfare(
                inst.env, uniform_item_rule(inst.env, price), inst.profile
            )
            sweep_max = max(sweep_max, w)
        ok = w_bundle <= 1.0 + EPS and sweep_max <= 1.0 + EPS
        report("unit-demand-vs-bundle (d=4): worst-order welfare <= 1 vs optimum 4",
               ok, f"bundle-split={w_bundle:g}, sweep max={sweep_max:g}")

    def test_triangle_best_worst_order_is_two(self):
        inst = gen_single_minded_triangle()
        best = 0.0
        for k in range(100):
            price = 1.5 * k / 99.0
            w, _ = worst_order_welfare(
                inst.env, uniform_item_rule(inst.env, price), inst.profile
            )
            best = max(best, w)
        ok = abs(best - 2.0) <= EPS
        report("single-minded triangle: best worst-order welfare over sweep = 2 vs 3",
               ok, f"best={best:g}")

    def test_common_outcome_instance_caps_posted_prices(self):
        inst = gen_common_outcome_instance(3, 3)
        dist = inst.distribution
        assert expected_opt(inst.env, dist) == pytest.approx(3.0)
        bound = 1.0 + 2.0 / 3.0
        worst = 0.0
        tokens = [t for t in inst.env.agent_outcomes(0) if t != NULL]
        for trial in range(200):
            rng = trial_rng(202, trial)
            price_of = {t: float(rng.uniform(0.0, 1.5)) for t in tokens}
            rule = PricingRule(
                inst.env,
                lambda i, tok, y, table=price_of: table[tok],
                static=True,
                provenance={"construction": "random-static", "trial": trial},
            )
            for tie in ("prefer_buy_lexmin", "adversarial_min_welfare"):
                val = expected_posted_price_welfare(inst.env, rule, dist, (0, 1, 2), tie)
                worst = max(worst, val)
        report(
            "common-outcome instance: every posted-price welfare <= 1 + 2/3 vs 3",
            worst <= bound + EPS, f"max over 200 rules={worst:.4f}",
        )


# ---------------------------------------------------------------------------
# 6. Reference-allocation prices and critical-value prices
# ---------------------------------------------------------------------------


class TestCriterion6DerivedPrices:
    def test_reference_allocation_prices_on_catalog_matroids(self):
        grid = (0.0, 1.0, 2.0)
        bad = 0
        gammas = []
        for seed in range(3):
            for inst in catalog_matroids(seed=300 + seed * 11):
                fam = ExchangeFamily("canonical_contraction", inst.env)
                g_opt = permeability(inst.env, OPT_RULE, grid)
                g_grd = permeability(inst.env, GREEDY_RULE, grid)
                gammas.extend([g_opt, g_grd])
                ref_opt = opt(inst.env, inst.profile)
                rule2 = opt_derived_prices(inst.env, inst.profile, ref_opt)
                rep2 = check_weakly_balanced(
                    inst.env, inst.profile, rule2, ref_opt, fam,
                    BalanceParams(alpha=1.0, beta1=0.0, beta2=g_opt * g_opt),
                )
                ref_grd = greedy(inst.env, inst.profile)
                rule1 = greedy_derived_prices(inst.env, inst.profile, ref_grd)
                rep1 = check_weakly_balanced(
                    inst.env, inst.profile, rule1, ref_grd, fam,
                    BalanceParams(alpha=g_grd, beta1=0.0, beta2=g_grd),
                )
                bad += (not certified(rep2)) + (not certified(rep1))
        ok = bad == 0 and max(gammas) <= 2.0 + EPS
        report(
            "reference-allocation prices pass (1,0,g^2) and (g,0,g) with measured g",
            ok, f"{bad} failures, max gamma={max(gammas):g}",
        )

    def test_critical_value_prices_balance_and_welfare(self):
        bad = 0
        for seed in range(3):
            for inst in catalog_matroids(seed=400 + seed * 13):
                fam = ExchangeFamily("canonical_contraction", inst.env)
                rule = monotone_critical_prices(inst.env, inst.profile)
                rep = check_balanced(
                    inst.env, inst.profile, rule, opt(inst.env, inst.profile), fam,
                    BalanceParams(alpha=1.0, beta=3.0),
                )
                bad += not certified(rep)
        report("critical-value prices pass (1,3) on catalog matroids",
               bad == 0, f"{bad} failures")

        # quarter-of-optimum expected welfare with the scaled expected rule
        worst_margin = math.inf
        params = BalanceParams(alpha=1.0, beta=3.0)
        for seed in range(3):
            a = gen_matroid("uniform", seed=500 + seed, rank=2, ground=4)
            b = gen_matroid("uniform", seed=600 + seed, rank=2, ground=4)
            dist = mixed_dist([a, b])
            scaled = expected_scaled_prices(
                a.env, dist,
                lambda p: monotone_critical_prices(a.env, p),
                params,
            )
            target = 0.25 * expected_opt(a.env, dist)
            ok, worst = all_orders_expected_welfare_ok(a.env, scaled, dist, target, "warmup")
            worst_margin = min(worst_margin, worst - target)
            assert ok
        report("critical-value prices: mechanism earns >= 1/4 of expected optimum",
               worst_margin >= -EPS, f"worst margin={worst_margin:.3g}")


# ---------------------------------------------------------------------------
# 7. Composition
# ---------------------------------------------------------------------------


class TestCriterion7Composition:
    def test_additive_composition_certified(self):
        bad = 0
        for seed in range(20):
            rng = trial_rng(700 + seed, 0)
            n = 2 + seed % 2
            markets = (SingleItemEnv(n=n), SingleItemEnv(n=n))
            env = ProductEnv(markets=markets)
            from balprice.core import MarketValuation

            profile = tuple(
                MarketValuation(
                    (
                        ScalarValuation(int(rng.integers(0, 17)) / 8),
                        ScalarValuation(int(rng.integers(0, 17)) / 8),
                    )
                )
                for _ in range(n)
            )
            rules = []
            for ell, market in enumerate(markets):
                parts = tuple(v.parts[ell] for v in profile)
                rules.append(single_item_prices(market, parts))
            composed = compose_add(env, rules)
            rep = check_balanced(
                env, profile, composed, opt(env, profile), default_family(env),
                BalanceParams(alpha=1.0, beta=1.0),
            )
            bad += not certified(rep)
        report("additive composition of two single-item markets passes (1,1), 20 seeds",
               bad == 0, f"{bad} failures")

    def test_compose_max_reproduces_xos_menu(self):
        mismatches = 0
        for seed in range(10):
            inst = gen_xos_random(n=3, m=3, clauses=2, seed=900 + seed)
            alloc = opt(inst.env, inst.profile)
            direct = xos_item_prices(inst.env, inst.profile, alloc)
            composed = compose_max(
                lambda e, p: xos_item_prices(e, p, alloc),
                inst.env, inst.profile, alloc, rule=OPT_RULE,
            )
            for y in enumerate_feasible(inst.env):
                for i in range(inst.env.n):
                    for mask in range(1 << inst.env.items):
                        a = direct.price(i, mask, y)
                        b = composed.price(i, mask, y)
                        if a is UNAVAILABLE or b is UNAVAILABLE:
                            mismatches += (a is not b)
                        elif abs(a - b) > EPS:
                            mismatches += 1
        report("max-composition over supporting clauses reproduces the menu, 10 seeds",
               mismatches == 0, f"{mismatches} menu mismatches")


# ---------------------------------------------------------------------------
# 8. Property suites
# ---------------------------------------------------------------------------


class TestCriterion8Properties:
    def test_trace_invariants_everywhere(self):
        cases = []
        for seed in range(5):
            x = gen_xos_random(n=3, m=3, seed=seed)
            cases.append((x.env, x.profile,
                          xos_item_prices(x.env, x.profile, opt(x.env, x.profile))))
            k = gen_knapsack_random(n=3, seed=seed)
            cases.append((k.env, k.profile,
                          knapsack_prices(k.env, k.profile,
                                          welfare(k.profile, knapsack_dp(k.env, k.profile)))))
            m = gen_matroid("uniform", seed=seed, rank=2, ground=4)
            cases.append((m.env, m.profile, matroid_dynamic_prices(m.env, m.profile)))
            p = gen_pip_random(n=3, m=2, d=2, seed=seed)
            cases.append((p.env, p.profile,
                          pip_prices(p.env, p.profile, opt(p.env, p.profile))))
        checked = 0
        for env, profile, rule in cases:
            for tie in ("prefer_null", "prefer_buy_lexmin", "adversarial_min_welfare"):
                for order in itertools.islice(itertools.permutations(range(env.n)), 3):
                    trace = run_posted_price(env, rule, profile, order, tie)
                    verify_trace(env, rule, profile, trace)
                    checked += 1
        report("accounting, rationality, and no-better-purchase hold on every trace",
               True, f"{checked} traces")

    def test_matroid_price_monotonicity(self):
        violations = 0
        for seed in range(5):
            for inst in catalog_matroids(seed=800 + seed):
                rule = matroid_dynamic_prices(inst.env, inst.profile)
                allocs = enumerate_feasible(inst.env)
                for y in allocs:
                    for z in allocs:
                        if not all(a == NULL or a == b for a, b in zip(y, z)):
                            continue
                        for i in range(inst.env.n):
                            if y[i] != NULL or z[i] != NULL:
                                continue
                            tok = 1 << inst.env.elements[i][0]
                            small = rule.price(i, tok, y)
                            big = rule.price(i, tok, z)
                            sv = math.inf if small is UNAVAILABLE else small
                            bv = math.inf if big is UNAVAILABLE else big
                            if sv > bv + EPS:
                                violations += 1
        report("matroid dynamic prices are monotone along extensions",
               violations == 0, f"{violations} violations")

    def test_downward_closure_and_exchange_validity(self):
        envs = [inst.env for inst in catalog_matroids(seed=1)]
        envs += [
            gen_knapsack_random(n=3, seed=2).env,
            gen_pip_random(n=3, m=2, d=2, seed=3).env,
            gen_xos_random(n=2, m=3, seed=4).env,
            SingleItemEnv(n=3),
        ]
        bad = 0
        for env in envs:
            if not check_downward_closed(env):
                bad += 1
                continue
            for fam in (default_family(env), ExchangeFamily("canonical_contraction", env)):
                for x in enumerate_feasible(env):
                    for y in fam.members(x):
                        for i in range(env.n):
                            if not env.is_feasible(replace_at(x, i, y[i])):
                                bad += 1
        report("downward closure and exchange-compatibility hold on all catalog kinds",
               bad == 0, f"{bad} violations")

    def test_rank_one_hypergraph_equals_xos_prices(self):
        mismatches = 0
        for seed in range(10):
            inst = gen_xos_random(n=2, m=3, clauses=1, seed=700 + seed)
            clause_profiles = [v.clauses[0] for v in inst.profile]
            mph_profile = tuple(
                MphValuation((tuple((1 << j, c[j]) for j in range(3) if c[j] > 0),))
                for c in clause_profiles
            )
            alloc = opt(inst.env, inst.profile)
            r_xos = xos_item_prices(inst.env, inst.profile, alloc)
            r_mph = mphk_item_prices(inst.env, mph_profile, alloc)
            for i in range(2):
                for mask in range(8):
                    for y in enumerate_feasible(inst.env):
                        a, b = r_xos.price(i, mask, y), r_mph.price(i, mask, y)
                        if a is UNAVAILABLE or b is UNAVAILABLE:
                            mismatches += (a is not b)
                        elif abs(a - b) > EPS:
                            mismatches += 1
        report("rank-1 hypergraph pricing equals xos pricing on every menu entry",
               mismatches == 0, f"{mismatches} mismatches")

    def test_seed_determinism_monte_carlo(self):
        inst = gen_tight_prophet(q=0.1)
        rule = expected_scaled_prices(
            inst.env, inst.distribution,
            lambda p: single_item_prices(inst.env, p),
            BalanceParams(alpha=1.0, beta=1.0),
        )
        a = monte_carlo_ratio(inst.env, rule, inst.distribution, trials=300, seed=11)
        b = monte_carlo_ratio(inst.env, rule, inst.distribution, trials=300, seed=11)
        report("identical seeds give bit-identical estimates", a == b,
               f"ratio={a.ratio:.6f}")
