"""The all-orders certifier's DP memo against the one-run-per-sum twin.

``_OrderSums`` keeps one memo per sign over (conditioning prefix, priced
outcomes) pairs and shares it across every sum of a walk.
``subset_dp_twin`` in helpers runs the whole subset DP over the live agents
for each sum on its own, every term asked of the pricing rule.  Both scan
candidates in agent order with the same additions and the same
first-within-TOL rule, so values and flags must agree to the bit.  The
memo's witness follows each state's own choice and places the inert agents
by index; ``witness_twin`` replays the scan over all n agents, an inert
one's candidate being the state's value.  Their orders must agree too.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from balprice.balance import _OrderSums, check_balanced
from balprice.catalog import gen_matroid
from balprice.core import (
    NULL,
    UNAVAILABLE,
    ExplicitEnv,
    KnapsackEnv,
    enumerate_feasible,
    replace_at,
)
from balprice.oracle import default_family, opt
from balprice.pricing import BalanceParams, PricingRule, matroid_dynamic_prices

from helpers import extremal_twin, matroid_priced, multi_element_priced, witness_twin

SEEDS = st.integers(min_value=0, max_value=10_000)


def _assert_memo_matches_twin(sums, x, zs, rnd):
    """Ask every (x, z) of ``zs`` in a shuffled order, twice, of the walk's
    memo ``sums``; each answer must be the twin's by ``repr``."""
    asked = list(zs)
    rnd.shuffle(asked)
    for z in asked + asked:
        for maximize in (False, True):
            got = (sums.extremal(x, z, maximize), sums.witness(x, z, maximize))
            want = (extremal_twin(sums, x, z, maximize), witness_twin(sums, x, z, maximize))
            assert repr(got) == repr(want), (x, z, maximize)


class TestLayersMatchTwin:
    @given(
        st.sampled_from(["uniform", "partition", "graphic_k4"]),
        st.integers(min_value=3, max_value=7),
        SEEDS,
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=12, deadline=None)
    def test_catalog_matroids(self, kind, ground, seed, rnd):
        env, _, rule, family = matroid_priced(kind, ground, seed, "matroid")
        feasible = enumerate_feasible(env)
        sums = _OrderSums(env, rule)
        for x in feasible:
            _assert_memo_matches_twin(sums, x, [x] + family.members(x), rnd)

    @given(
        st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=6, max_size=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=15, deadline=None)
    def test_multi_element_members_share_the_support(self, values, rnd):
        env, _, rule, family = multi_element_priced(values)
        shared = 0
        feasible = enumerate_feasible(env)
        sums = _OrderSums(env, rule)
        for x in feasible:
            members = family.members(x)
            shared += sum(
                1 for z in members if any(x[i] != NULL and z[i] != NULL for i in range(env.n))
            )
            _assert_memo_matches_twin(sums, x, [x] + members, rnd)
        assert shared  # a member holding an agent of x's support

    @given(
        st.integers(min_value=2, max_value=4),
        st.data(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=15, deadline=None)
    def test_explicit_environments_with_unavailable_entries(self, n, data, rnd):
        tokens = tuple((0, 1, 2) for _ in range(n))
        tops = data.draw(
            st.lists(st.tuples(*(st.sampled_from((0, 1, 2)) for _ in range(n))), max_size=4)
        )
        # the downward closure of the drawn allocations
        listed = {tuple(0 for _ in range(n))}
        for top in tops:
            for keep in itertools.product((False, True), repeat=n):
                listed.add(tuple(t if k else NULL for t, k in zip(top, keep)))
        env = ExplicitEnv(n=n, outcome_tokens=tokens, feasible_set=frozenset(listed))
        # non-dyadic prices that grow with the prefix, and an entry gated on
        # agent 0's outcome, so both kinds of UNAVAILABLE term occur
        gate = data.draw(st.integers(1, n - 1))
        rule = PricingRule(
            env,
            lambda i, x_i, y: UNAVAILABLE if i == gate and not y[0]
            else 0.1 * (i + x_i) + 0.3 * sum(1 for t in y if t),
            static=False,
        )
        feasible = enumerate_feasible(env)
        sums = _OrderSums(env, rule)
        for x in feasible:
            # every listed allocation, the memo's domain: a prefix of x with
            # another's outcome can be unlisted, so infeasible terms occur
            _assert_memo_matches_twin(sums, x, feasible, rnd)


class TestLayerMemo:
    def test_missing_parents_are_computed_and_kept(self):
        env, _, rule, family = matroid_priced("uniform", 6, 1, "matroid")
        feasible = enumerate_feasible(env)
        x = next(a for a in feasible if sum(1 for t in a if t) == 1)
        z = next(z for z in family.members(x) if sum(1 for t in z if t) >= 2)
        sums = _OrderSums(env, rule)
        sums.extremal(x, z, maximize=True)
        memo = sums._values[True]
        positions = {y: k for k, y in enumerate(feasible)}
        supp = [i for i, t in enumerate(x) if t != NULL]
        off = [i for i, t in enumerate(z) if t != NULL and x[i] == NULL]
        # every state below (x, z) is kept: x restricted to some support
        # agents, z to those agents plus some off-support agents
        states = set()
        for keep in itertools.product((False, True), repeat=len(supp) + len(off)):
            y, w = x, z
            for i, k in zip(supp + off, keep):
                if not k:
                    y, w = replace_at(y, i, NULL), replace_at(w, i, NULL)
            states.add(positions[y] * len(feasible) + positions[w])
        assert states <= set(memo)
        assert len(memo) == len(states) == 1 << len(supp) + len(off)
        assert not sums._values[False]


def _walk(monkeypatch, twin: bool):
    """The catalog uniform rank 3, ground 6, seed 1 job under ``--order
    all``: (report, rule, price calls, null-outcome price calls, memo
    states)."""
    inst = gen_matroid("uniform", seed=1, rank=3, ground=6)
    env, profile = inst.env, inst.profile
    rule = matroid_dynamic_prices(env, profile)
    calls, null_calls, states = [0], [0], [0]
    price = rule.price

    def counted_price(i, x_i, y):
        calls[0] += 1
        null_calls[0] += x_i == NULL
        return price(i, x_i, y)

    rule.price = counted_price
    solve = _OrderSums._solve

    def counted_solve(sums, py, pw, maximize):
        states[0] += 1
        return solve(sums, py, pw, maximize)

    with monkeypatch.context() as mp:
        mp.setattr(_OrderSums, "_solve", counted_solve)
        if twin:
            mp.setattr(_OrderSums, "extremal", extremal_twin)
            mp.setattr(_OrderSums, "witness", witness_twin)
        report = check_balanced(
            env, profile, rule, opt(env, profile), default_family(env),
            BalanceParams(alpha=1.0, beta=1.0),
        )
    return report, rule, calls[0], null_calls[0], states[0]


class TestCounters:
    def test_uniform_three_of_six(self, monkeypatch):
        report, rule, calls, null_calls, states = _walk(monkeypatch, twin=False)
        twin_report, twin_rule, _, _, _ = _walk(monkeypatch, twin=True)
        assert repr(report.as_dict()) == repr(twin_report.as_dict())
        assert report.max_b_ratio == twin_report.max_b_ratio
        # a null outcome adds 0.0 unpriced: the walk never prices it
        assert null_calls == 0
        # the same terms missed the rule's cache
        assert len(rule._cache) == len(twin_rule._cache) == 96
        # one run per sum visited 2^|live| states; the memo computes one
        # state per checked sum, each once across the walk
        env = rule.env
        family = default_family(env)
        one_run_per_sum = 0
        for x in enumerate_feasible(env):
            for maximize, zs in ((False, [x]), (True, family.members(x))):
                for z in zs:
                    live = sum(1 for i in range(env.n) if x[i] != NULL or z[i] != NULL)
                    one_run_per_sum += 1 << live
        assert one_run_per_sum == 1778
        assert (report.checked_allocations, report.checked_members) == (42, 233)
        assert states == 275 == report.checked_allocations + report.checked_members
        # the per-x layers asked the rule 612 times
        assert calls <= 612


class TestPriceClearsTheOwnSlot:
    def _recording_rule(self, env):
        seen = []

        def finite(i, x_i, y):
            seen.append(y)
            return 1.0

        return PricingRule(env, finite, static=False), seen

    def test_knapsack_float_tokens(self):
        env = KnapsackEnv(n=2, step=0.25, max_share=1.0)
        rule, seen = self._recording_rule(env)
        # agent 0's own slot holds 0.5: priced and keyed on the cleared slot
        assert rule.price(0, 0.25, (0.5, 0.25)) == 1.0
        assert repr(seen) == repr([(0, 0.25)])
        assert repr(list(rule._cache)) == repr([(0, 0.25, (0, 0.25))])
        # a float zero in the own slot is cleared to the null token too
        assert rule.price(0, 0.5, (0.0, 0.25)) == 1.0
        assert repr(seen[-1]) == repr((0, 0.25))
        # the cleared slot and the null slot share one entry
        assert rule.price(0, 0.25, (0, 0.25)) == 1.0
        assert rule.price(0, 0.25, (0.75, 0.25)) == 1.0
        assert len(seen) == 2 and len(rule._cache) == 2

    def test_matroid_token_in_own_slot(self):
        env = matroid_priced("uniform", 4, 0, "matroid")[0]
        rule, seen = self._recording_rule(env)
        tok = 1 << env.elements[1][0]
        y = (0, tok, 0, 0)
        assert rule.price(1, tok, y) == 1.0
        assert seen == [(0, 0, 0, 0)]
        assert rule.price(1, tok, (0, 0, 0, 0)) == 1.0
        assert len(seen) == 1
