"""Set-up paid once per key on the stochastic ratio path.

- ``trial_rngs`` re-keys one Philox generator per trial rather than
  building one; every trial's stream is ``trial_rng``'s.
- The adaptive adversary's closed-history check keeps, per history, the
  agents known closed and those known open.
- ``matroid_dynamic_prices`` keeps each agent's checked element values per
  (agent, valuation) on the environment.
- ``ProductDistribution.profiles`` enumerates the support in C.

Each fast path is compared against its twin in ``helpers`` by ``repr``.
"""

import copy
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice.catalog import gen_matroid, gen_two_point_single_item
from balprice.core import AdditiveValuation, CapExceeded, ScalarValuation, XosValuation
from balprice.mechanism import TIE_POLICIES, OnlinePostedPriceRunner
from balprice.pricing import PricingError, matroid_dynamic_prices
from balprice.serialize import encode_environment
from balprice.stochastic import ProductDistribution, trial_rng, trial_rngs

from helpers import (
    ScanningRunner,
    UnprunedRunner,
    asked_entries,
    matroid_element_values_twin,
    multi_element_matroid,
    profiles_twin,
)
from test_decisions import KINDS, case, scaled

TOP = 2**64 - 1


def _draws(rng, t):
    """The draws a trial makes, in an order that varies with ``t``; the
    32-bit draw leaves half a word buffered for the next trial to ignore."""
    parts = [
        lambda: rng.random(),
        lambda: rng.random(1 + t % 4),
        lambda: rng.permutation(7),
        lambda: rng.integers(2**32, dtype=np.uint32),
    ]
    if t % 2:
        parts.reverse()
    return [part() for part in parts]


class TestTrialRngs:
    @pytest.mark.parametrize("seed", [0, 1, 12345, TOP])
    def test_streams_match_trial_rng(self, seed):
        count = 0
        for t, rng in enumerate(trial_rngs(seed, 9)):
            assert repr(_draws(rng, t)) == repr(_draws(trial_rng(seed, t), t)), t
            count += 1
        assert count == 9

    @pytest.mark.parametrize("seed,count", [(-1, 1), (2**64, 3), (0, 2**64 + 1), (3, 2**70)])
    def test_out_of_range_raises_as_trial_rng(self, seed, count):
        with pytest.raises(ValueError, match="outside") as got:
            next(trial_rngs(seed, count))
        with pytest.raises(ValueError) as want:
            trial_rng(seed, count - 1)
        assert str(got.value) == str(want.value)

    def test_top_of_the_key_range(self):
        # the last index of 2^64 trials is 2^64 - 1, which is in range
        first = next(trial_rngs(TOP, 2**64))
        assert repr(first.random(3)) == repr(trial_rng(TOP, 0).random(3))

    def test_no_trials_no_streams(self):
        assert list(trial_rngs(5, 0)) == []


@st.composite
def distributions(draw):
    """Up to four agents of one to three scalar atoms each, some of them of
    probability zero."""
    supports = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        weights = draw(
            st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3).filter(any)
        )
        rates = draw(st.lists(st.floats(min_value=0.0, max_value=10.0),
                              min_size=len(weights), max_size=len(weights)))
        total = sum(weights)
        supports.append(tuple((ScalarValuation(r), w / total) for r, w in zip(rates, weights)))
    return ProductDistribution(tuple(supports))


class TestProfiles:
    @given(distributions())
    @settings(max_examples=200, deadline=None)
    def test_matches_twin(self, dist):
        assert repr(list(dist.profiles())) == repr(list(profiles_twin(dist)))

    def test_one_atom_agents_and_zero_probabilities(self):
        dist = ProductDistribution((
            ((ScalarValuation(1.0), 1.0),),
            ((ScalarValuation(2.0), 0.0), (ScalarValuation(3.0), 0.3), (ScalarValuation(4.0), 0.7)),
            ((ScalarValuation(5.0), 0.1), (ScalarValuation(6.0), 0.9)),
        ))
        got = list(dist.profiles())
        assert repr(got) == repr(list(profiles_twin(dist)))
        assert [p for _, p in got[:2]] == [0.0, 0.0] and len(got) == 6

    def test_profiles_over_cap_raise_on_first_next(self):
        dist = gen_two_point_single_item(n=4, seed=3).distribution
        assert dist.support_size() == 16
        assert len(list(dist.profiles(16))) == 16
        profiles = dist.profiles(15)
        with pytest.raises(CapExceeded, match="16 > 15"):
            next(profiles)


def _element_cases():
    return [
        gen_matroid("uniform", seed=1, rank=2, ground=4).env,
        gen_matroid("partition", seed=2, ground=5).env,
        gen_matroid("graphic_k4", seed=3).env,
        multi_element_matroid(),
    ]


def _pool(env, i, rng):
    """Two additive valuations of agent i and, when it owns two elements or
    more, one that is not additive over them."""
    g, owned = env.matroid.ground, env.elements[i]

    def additive():
        return AdditiveValuation(tuple(
            rng.randint(0, 8) / 4 if e in owned else 0.0 for e in range(g)
        ))

    pool = [additive(), additive()]
    if len(owned) > 1:
        clauses = tuple(
            tuple(1.0 if e == f else 0.0 for e in range(g)) for f in owned
        )
        pool.append(XosValuation(clauses))
    return pool


class TestElementColumns:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("index", range(4))
    def test_matches_per_profile_twin(self, index, seed):
        env = _element_cases()[index]
        fresh = copy.deepcopy(env)
        before = (repr(env), hash(env), json.dumps(encode_environment(env)))
        rng = random.Random(seed)
        pools = [_pool(env, i, rng) for i in range(env.n)]
        profiles = [tuple(rng.choice(pool) for pool in pools) for _ in range(40)]
        raised = 0
        # twice over: a valuation that raised raises again
        for profile in profiles * 2:
            try:
                want = matroid_element_values_twin(env, profile)
            except PricingError as exc:
                with pytest.raises(PricingError) as got:
                    matroid_dynamic_prices(env, profile)
                assert str(got.value) == str(exc)
                raised += 1
                continue
            rule = matroid_dynamic_prices(env, profile)
            assert repr(rule.provenance["element_values"]) == repr(want)
        non_additive = {v for pool in pools for v in pool if isinstance(v, XosValuation)}
        holding = sum(2 for p in profiles if non_additive & set(p))
        assert raised == holding
        assert (raised > 0) == (index == 3)
        assert env == fresh and hash(env) == hash(fresh)
        assert (repr(env), hash(env), json.dumps(encode_environment(env))) == before


class TestClosureBits:
    @given(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=31),
        st.sampled_from(TIE_POLICIES),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_state_scan(self, kind, seed, tie, shuffle):
        env, dist, constructor = case(kind, seed)
        rules = [scaled(env, dist, constructor) for _ in range(3)]
        asked = list(map(asked_entries, rules))
        runner = OnlinePostedPriceRunner(env, rules[0], dist.supports, None, tie)
        scan = ScanningRunner(env, rules[1], dist.supports, None, tie)
        unpruned = UnprunedRunner(env, rules[2], dist.supports, None, tie)
        values = [repr(r.expected_welfare()) for r in (runner, scan, unpruned)]
        assert values[0] == values[1] == values[2]
        assert repr(list(runner._memo.items())) == repr(list(scan._memo.items()))
        for rule, keys in zip(rules[1:], asked[1:]):
            assert rules[0]._cache.keys() == rule._cache.keys()
            assert asked[0].keys() == keys.keys()
        # the step table asks each decision once
        assert max(asked[0].values()) == 1
        # every state the unpruned recursion visits, in a drawn order, from
        # empty bitmasks and from the ones the run left; each history is
        # given by its id in the runner's table, which reached them all
        states = list(unpruned._memo)
        shuffle.shuffle(states)
        steps = runner._steps
        fresh = OnlinePostedPriceRunner(env, rules[0], dist.supports, None, tie, steps=steps)
        scanning = ScanningRunner(env, rules[0], dist.supports, None, tie, steps=steps)
        for left, y in states:
            h = steps.ids[y]
            want = scanning._closed(left, h)
            assert fresh._closed(left, h) == want == runner._closed(left, h), (left, y)
