"""Monte Carlo trials by atom index.

``ProductDistribution.draw`` takes each trial's atoms from one
``rng.random(n)`` call and a ``bisect_right`` over each agent's running sums
of probabilities, the last atom kept for a float past the last sum.
``monte_carlo_ratio`` reads each trial's profile off the ``_draw_tables``
at those positions (``helpers.drawn_profile``); the twin is
``helpers.sample_twin``, one ``rng.random()`` per agent and a scan.
``monte_carlo_ratio`` keys its memos by each agent's index among its
distinct valuations and builds an order's runner only at an arrival with
several candidates; its twin is ``helpers.monte_carlo_twin``, a runner per
trial.  Results must equal the twins' by ``repr``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice import stochastic
from balprice.catalog import gen_two_point_single_item
from balprice.core import ScalarValuation, SingleItemEnv, replace_at
from balprice.mechanism import TIE_POLICIES, OnlinePostedPriceRunner
from balprice.pricing import PricingRule, single_item_prices
from balprice.stochastic import ProductDistribution, monte_carlo_ratio, trial_rng, trial_rngs

from helpers import drawn_profile, monte_carlo_twin, sample_twin

# a handful of values, so that an agent's atoms repeat one
VALUES = [ScalarValuation(x) for x in (0.0, 0.5, 1.0, 2.0)]


class FixedFloats:
    """A generator stand-in that hands out given floats in turn, whether
    asked one at a time or ``size`` at once."""

    def __init__(self, floats):
        self.floats = list(floats)

    def random(self, size=None):
        if size is None:
            return self.floats.pop(0)
        out, self.floats = self.floats[:size], self.floats[size:]
        return np.array(out)


@st.composite
def agent_atoms(draw):
    """One agent's atoms: values from ``VALUES`` (repeats allowed), some of
    probability 0, the probabilities summing to 1 or to 1 - 5e-10."""
    count = draw(st.integers(min_value=1, max_value=4))
    values = draw(st.lists(st.sampled_from(VALUES), min_size=count, max_size=count))
    weights = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=count, max_size=count))
    if not any(weights):
        weights[-1] = 1
    total = draw(st.sampled_from([1.0, 1.0 - 5e-10]))
    probs = [total * w / sum(weights) for w in weights]
    return tuple(zip(values, probs))


@st.composite
def distributions(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return ProductDistribution(tuple(draw(agent_atoms()) for _ in range(n)))


# floats at the running sums, just past them and past a sum of 1 - 5e-10
FLOATS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0 - 5e-10, 1.0 - 2.0**-53, 1.0 / 3.0, 2.0 / 3.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)


class TestDrawMatchesTwin:
    @given(distributions(), st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_philox_streams(self, dist, seed, count):
        want = [sample_twin(dist, trial_rng(seed, t)) for t in range(count)]
        got = [drawn_profile(dist, rng) for rng in trial_rngs(seed, count)]
        assert repr(got) == repr(want)
        assert repr(drawn_profile(dist, trial_rng(seed, 0))) == repr(want[0])

    @given(distributions(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_chosen_floats(self, dist, data):
        """Floats on a running sum go to the next atom, and floats past the
        last sum to the last atom."""
        floats = data.draw(st.lists(FLOATS, min_size=dist.n, max_size=dist.n))
        got = drawn_profile(dist, FixedFloats(floats))
        assert repr(got) == repr(sample_twin(dist, FixedFloats(floats)))

    def test_fallback_past_a_short_sum(self):
        a, b = VALUES[1], VALUES[2]
        dist = ProductDistribution((((a, 0.5), (b, 0.5 - 5e-10), (a, 0.0)),))
        assert drawn_profile(dist, FixedFloats([1.0 - 2.0**-53])) == (a,)
        assert dist.draw(FixedFloats([1.0 - 2.0**-53])) == [3]

    def test_later_permutation_is_unchanged(self):
        dist = gen_two_point_single_item(n=5, seed=2).distribution
        for t in range(30):
            ours, theirs = trial_rng(7, t), trial_rng(7, t)
            drawn_profile(dist, ours)
            sample_twin(dist, theirs)
            assert ours.permutation(5).tolist() == theirs.permutation(5).tolist()


def tie_case():
    """Three agents facing one item at price 1.0: agent 0 and agent 2 tie at
    value 1.0, where null comes first and the adversary often buys."""
    env = SingleItemEnv(n=3)
    one, half, two, three = (ScalarValuation(x) for x in (1.0, 0.5, 2.0, 3.0))
    dist = ProductDistribution((
        ((one, 0.5), (ScalarValuation(0.25), 0.5)),
        ((two, 0.5), (half, 0.5)),
        ((one, 0.5), (three, 0.25), (one, 0.25)),
    ))
    return env, dist, PricingRule(env, lambda i, x_i, y: 1.0, static=True)


def counting_runners(monkeypatch):
    """The orders of the runners ``monte_carlo_ratio`` builds."""
    built = []

    class Counted(OnlinePostedPriceRunner):
        def __init__(self, env, prices, atoms, order, *args, **kwargs):
            built.append(tuple(order))
            super().__init__(env, prices, atoms, order, *args, **kwargs)

    monkeypatch.setattr(stochastic, "OnlinePostedPriceRunner", Counted)
    return built


def arrivals(env, prices, dist, order_mode, trials, seed):
    """Each trial's (order, number of arrivals with several candidates),
    walked along the twin's own draws."""
    out = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        profile = sample_twin(dist, rng)
        order = tuple(range(env.n)) if order_mode == "fixed" else tuple(rng.permutation(env.n).tolist())
        final = OnlinePostedPriceRunner(env, prices, dist.supports, order).run(profile).outcomes
        y, ties = env.null_allocation(), 0
        for i in order:
            ties += len(prices.best_entries(i, profile[i], y)) > 1
            y = replace_at(y, i, final[i])
        out.append((order, ties))
    return out


class TestTies:
    @pytest.mark.parametrize("order_mode", ["fixed", "random"])
    @pytest.mark.parametrize("tie", TIE_POLICIES)
    def test_matches_twin(self, tie, order_mode):
        env, dist, prices = tie_case()
        assert any(ties for _, ties in arrivals(env, prices, dist, order_mode, 60, 3))
        got = monte_carlo_ratio(env, prices, dist, order_mode=order_mode, trials=60, seed=3, tie=tie)
        want = monte_carlo_twin(env, prices, dist, order_mode, 60, 3, tie)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("order_mode", ["fixed", "random"])
    def test_runner_only_for_orders_that_tie(self, order_mode, monkeypatch):
        env, dist, prices = tie_case()
        built = counting_runners(monkeypatch)
        monte_carlo_ratio(env, prices, dist, order_mode=order_mode, trials=60, seed=3)
        tied = {order for order, ties in arrivals(env, prices, dist, order_mode, 60, 3) if ties}
        assert len(built) == len(set(built)) == len(tied) > 0
        assert set(built) == tied

    @pytest.mark.parametrize("tie", ["prefer_null", "prefer_buy_lexmin"])
    def test_named_policies_build_no_runner(self, tie, monkeypatch):
        env, dist, prices = tie_case()
        built = counting_runners(monkeypatch)
        monte_carlo_ratio(env, prices, dist, order_mode="random", trials=60, seed=3, tie=tie)
        assert built == []


class TestTieFree:
    @pytest.mark.parametrize("order_mode", ["fixed", "random"])
    def test_builds_no_runner(self, order_mode, monkeypatch):
        inst = gen_two_point_single_item(n=5, seed=1)
        env, dist = inst.env, inst.distribution
        prices = single_item_prices(env, [ScalarValuation(1.3)] * env.n)
        assert not any(ties for _, ties in arrivals(env, prices, dist, order_mode, 80, 4))
        built = counting_runners(monkeypatch)
        got = monte_carlo_ratio(env, prices, dist, order_mode=order_mode, trials=80, seed=4)
        assert built == []
        assert repr(got) == repr(monte_carlo_twin(env, prices, dist, order_mode, 80, 4))


class TestFixedOrderCheck:
    @pytest.mark.parametrize("order", [(0, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3)])
    def test_bad_fixed_order_raises_before_any_trial(self, order, monkeypatch):
        env, dist, prices = tie_case()
        monkeypatch.setattr(ProductDistribution, "draw", pytest.fail)
        with pytest.raises(ValueError, match="is not a permutation"):
            monte_carlo_ratio(env, prices, dist, trials=5, fixed_order=order, tie="prefer_null")
