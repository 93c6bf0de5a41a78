import math

import pytest

from balprice.core import CapExceeded, ScalarValuation, SingleItemEnv
from balprice.pricing import BalanceParams, expected_scaled_prices, single_item_prices
from balprice.stochastic import (
    ProductDistribution,
    exact_ratio,
    expected_opt,
    monte_carlo_ratio,
    trial_rng,
)


def tight_two_point(q=0.01):
    """Deterministic value-1 agent first; the second agent is 1/q with
    probability q and worthless otherwise."""
    return SingleItemEnv(n=2), ProductDistribution(
        (
            ((ScalarValuation(1.0), 1.0),),
            ((ScalarValuation(1.0 / q), q), (ScalarValuation(0.0), 1.0 - q)),
        )
    )


def tight_prices(env, dist):
    return expected_scaled_prices(
        env,
        dist,
        lambda p: single_item_prices(env, p),
        BalanceParams(alpha=1.0, beta=1.0),
    )


class TestProductDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ProductDistribution((((ScalarValuation(1.0), 0.5),),))

    @pytest.mark.parametrize("neg", [-5e-10, -1e-300, -0.0 - 5e-324])
    def test_negative_probability_refused(self, neg):
        """Every probability is at least 0, however small the excess: the sum
        still passes its 1e-9 check, so this is the check that refuses it."""
        with pytest.raises(ValueError, match="agent 0 has a negative probability"):
            ProductDistribution(
                (((ScalarValuation(1.0), 1.0 - neg), (ScalarValuation(0.0), neg)),)
            )

    def test_zero_and_negative_zero_probabilities_load(self):
        dist = ProductDistribution(
            (((ScalarValuation(1.0), 1.0), (ScalarValuation(0.0), 0.0), (ScalarValuation(2.0), -0.0)),)
        )
        assert [p for _, p in dist.profiles()] == [1.0, 0.0, -0.0]

    @pytest.mark.parametrize(
        "probs", [(math.nan,), (1.0, math.nan), (math.nan, 0.5, 0.5), (0.5, 0.5, math.nan)]
    )
    def test_nan_probability_rejected(self, probs):
        with pytest.raises(ValueError):
            ProductDistribution(((tuple((ScalarValuation(float(k)), p) for k, p in enumerate(probs))),))

    def test_profiles_enumeration(self):
        _, dist = tight_two_point()
        profiles = list(dist.profiles())
        assert len(profiles) == 2
        assert math.fsum(p for _, p in profiles) == pytest.approx(1.0)

    def test_support_cap(self):
        dist = ProductDistribution(
            tuple(
                ((ScalarValuation(0.0), 0.5), (ScalarValuation(1.0), 0.5))
                for _ in range(4)
            )
        )
        with pytest.raises(CapExceeded):
            list(dist.profiles(cap=3))


class TestExactExpectation:
    def test_deterministic(self):
        env = SingleItemEnv(n=2)
        profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        dist = ProductDistribution.deterministic(profile)
        assert math.fsum(prob * p[1].rate for p, prob in dist.profiles()) == pytest.approx(2.0)

    def test_two_point_expected_opt(self):
        env, dist = tight_two_point(q=0.01)
        assert expected_opt(env, dist) == pytest.approx(1.99)

    def test_zero_function(self):
        _, dist = tight_two_point()
        assert math.fsum(prob * 0.0 for _, prob in dist.profiles()) == 0.0


class TestExactRatio:
    def test_tight_instance_half(self):
        env, dist = tight_two_point(q=0.01)
        rule = tight_prices(env, dist)
        est = exact_ratio(env, rule, dist, order=(0, 1))
        # the deterministic agent always buys at 0.995, blocking the jackpot
        assert est.expected_mechanism_welfare == pytest.approx(1.0)
        assert est.ratio == pytest.approx(1.0 / 1.99)
        assert 0.5 <= est.ratio <= 0.51

    def test_zero_benchmark_raises(self):
        env = SingleItemEnv(n=1)
        dist = ProductDistribution.deterministic((ScalarValuation(0.0),))
        rule = single_item_prices(env, (ScalarValuation(0.0),))
        with pytest.raises(ZeroDivisionError):
            exact_ratio(env, rule, dist)


class TestMonteCarlo:
    def test_seed_determinism(self):
        env, dist = tight_two_point(q=0.1)
        rule = tight_prices(env, dist)
        a = monte_carlo_ratio(env, rule, dist, trials=200, seed=42)
        b = monte_carlo_ratio(env, rule, dist, trials=200, seed=42)
        assert a == b

    def test_deterministic_dist_zero_ci(self):
        env = SingleItemEnv(n=2)
        profile = (ScalarValuation(1.0), ScalarValuation(2.0))
        dist = ProductDistribution.deterministic(profile)
        rule = tight_prices(env, dist)
        est = monte_carlo_ratio(env, rule, dist, trials=50, seed=1)
        assert est.ci95_halfwidth == 0.0

    def test_converges_to_exact(self):
        env, dist = tight_two_point(q=0.1)
        rule = tight_prices(env, dist)
        exact = exact_ratio(env, rule, dist, order=(0, 1))
        mc = monte_carlo_ratio(env, rule, dist, order=None, trials=10_000, seed=7)
        assert abs(mc.ratio - exact.ratio) <= 3 * mc.ci95_halfwidth + 1e-6

    def test_mechanism_never_beats_benchmark(self):
        env, dist = tight_two_point(q=0.2)
        rule = tight_prices(env, dist)
        est = monte_carlo_ratio(env, rule, dist, trials=500, seed=3)
        assert est.expected_mechanism_welfare <= est.expected_opt + 1e-9

    def test_trial_rng_streams_are_stable(self):
        draws_a = [trial_rng(9, t).random() for t in range(5)]
        draws_b = [trial_rng(9, t).random() for t in range(5)]
        assert draws_a == draws_b
        assert len(set(draws_a)) == 5
