"""One arrival-order argument.

Every entry point that takes an arrival order takes one value: a
permutation of the agents, None for the identity, or one of the order kinds
it names ("all", "adversary", "random").  Anything else is refused with a
ValueError, and the refusal of a kind names the kinds the entry point
takes."""

import pytest

from balprice.balance import check_balanced, check_weakly_balanced, minimal_beta
from balprice.mechanism import (
    OnlinePostedPriceRunner,
    expected_posted_price_welfare,
    run_posted_price,
)
from balprice.oracle import opt
from balprice.pricing import BalanceParams, matroid_dynamic_prices
from balprice.stochastic import ProductDistribution, exact_ratio, monte_carlo_ratio

from helpers import matroid_priced, monte_carlo_twin, per_x_check, report_fields, two_point_matroid
from test_decisions import scaled

STRONG = BalanceParams(alpha=1.0, beta=1.0)
WEAK = BalanceParams(alpha=1.0, beta1=1.0, beta2=1.0)


def _certify(check, params):
    def call(order):
        # catalog uniform rank 2, ground 4, seed 1: four agents
        env, profile, rule, family = matroid_priced("uniform", 4, 1, "matroid")
        return check(env, profile, rule, opt(env, profile), family, params, order=order)

    return call


def _minimal_beta(order):
    env, profile, rule, family = matroid_priced("uniform", 4, 1, "matroid")
    return minimal_beta(env, profile, rule, opt(env, profile), family, 1.0, order=order)


def _priced():
    env, profile, rule, _ = matroid_priced("uniform", 4, 1, "matroid")
    return env, profile, rule, ProductDistribution.deterministic(profile)


def _exact_ratio(order):
    env, _, rule, dist = _priced()
    return exact_ratio(env, rule, dist, order)


def _monte_carlo_ratio(order):
    env, _, rule, dist = _priced()
    return monte_carlo_ratio(env, rule, dist, order, trials=3)


def _run_posted_price(order):
    env, profile, rule, _ = _priced()
    return run_posted_price(env, rule, profile, order)


def _expected_posted_price_welfare(order):
    env, _, rule, dist = _priced()
    return expected_posted_price_welfare(env, rule, dist, order)


def _runner(order):
    env, _, rule, dist = _priced()
    return OnlinePostedPriceRunner(env, rule, dist.supports, order).expected_welfare()


# entry point -> (a call on one order value, the order kinds it takes)
ENTRIES = {
    "check_balanced": (_certify(check_balanced, STRONG), ("all",)),
    "check_weakly_balanced": (_certify(check_weakly_balanced, WEAK), ("all",)),
    "minimal_beta": (_minimal_beta, ("all",)),
    "exact_ratio": (_exact_ratio, ("adversary", "all")),
    "monte_carlo_ratio": (_monte_carlo_ratio, ("random",)),
    "run_posted_price": (_run_posted_price, ()),
    "expected_posted_price_welfare": (_expected_posted_price_welfare, ("adversary",)),
    "OnlinePostedPriceRunner": (_runner, ("adversary",)),
}
KINDS = ("all", "adversary", "random")
# "fixed" is the CLI's word for a permutation, not a kind any function takes
REFUSED = [
    (name, bad)
    for name, (_, taken) in ENTRIES.items()
    for bad in [(0, 0, 1, 2), (5, 6, 7, 8), (0, 1, 2), *(k for k in (*KINDS, "fixed") if k not in taken)]
]


@pytest.mark.parametrize("name, bad", REFUSED)
def test_refused(name, bad):
    call, taken = ENTRIES[name]
    with pytest.raises(ValueError) as info:
        call(bad)
    if isinstance(bad, str):
        assert all(repr(k) in str(info.value) for k in taken)
    else:
        assert str(info.value) == f"order {bad} is not a permutation of 4 agents"


@pytest.mark.parametrize("name", ENTRIES)
def test_takes_none_a_permutation_and_its_kinds(name):
    call, taken = ENTRIES[name]
    assert repr(call(None)) == repr(call((0, 1, 2, 3))) == repr(call([0, 1, 2, 3]))
    for kind in taken:
        call(kind)


def test_certifier_declares_a_given_permutation():
    env, profile, rule, family = matroid_priced("uniform", 4, 1, "matroid")
    alloc, order = opt(env, profile), (3, 2, 1, 0)
    report = check_balanced(env, profile, rule, alloc, family, STRONG, order=order)
    assert report.order_mode == "declared"
    twin = per_x_check(env, profile, rule, alloc, family, STRONG, order)
    assert repr(report_fields(report)) == repr(report_fields(twin))
    assert check_balanced(env, profile, rule, alloc, family, STRONG).order_mode == "all"


def test_monte_carlo_runs_a_given_permutation():
    env, dist = two_point_matroid("uniform", 1, ground=4, rank=2)
    rule = scaled(env, dist, lambda p: matroid_dynamic_prices(env, p))
    order = (3, 2, 1, 0)
    got = monte_carlo_ratio(env, rule, dist, order, trials=40, seed=2)
    assert repr(got) == repr(monte_carlo_twin(env, rule, dist, order, 40, 2))
    assert repr(got) != repr(monte_carlo_ratio(env, rule, dist, None, trials=40, seed=2))
