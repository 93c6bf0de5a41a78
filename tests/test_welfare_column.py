"""One welfare column per job, and valuation hashes computed once.

``opt``, ``residual_opt``, the balance certifier's residual optima and the
expected and Monte Carlo optima all read the welfare of a listed allocation
off one column over the environment's feasible list, which the environment
keeps for the last profile asked.  Differential tests compare every result
against the twin that computes each welfare on its own
(``helpers.argmax_first_twin``), by ``repr``, while two profiles alternate on
one environment object so that a stale column would show.  Counter gates
bound the work of whole CLI jobs.
"""

import copy
import dataclasses
import itertools
import math
import pickle
import typing
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice import balance, core, oracle
from balprice.balance import check_balanced, check_weakly_balanced
from balprice.catalog import gen_mph_random, gen_pip_random
from balprice.cli import main
from balprice.core import (
    NULL,
    AdditiveValuation,
    ExplicitEnv,
    MarketValuation,
    MphValuation,
    ScalarValuation,
    TableValuation,
    ThresholdValuation,
    Valuation,
    XosValuation,
    enumerate_feasible,
    welfare,
)
from balprice.oracle import default_family, opt, residual_opt
from balprice.pricing import BalanceParams, PricingRule, mphk_item_prices, pip_prices
from balprice.serialize import encode_valuation, load_instance_file
from balprice.stochastic import expected_opt

from helpers import argmax_first_twin, expected_opt_twin
from test_ratio_path import mixed_dist, stochastic_case

KINDS = ("uniform", "partition", "k4", "xos", "knapsack", "compose-add", "mph", "pip")

STRONG = BalanceParams(alpha=1.0, beta=1.0)
WEAK = BalanceParams(alpha=1.0, beta1=1.0, beta2=1.0)

# dyadic and non-dyadic values, one below TOL, so sums round
VALUES = (0.0, 1e-10, 0.1, 0.2, 0.3, 0.7, 1.0, 1.5, 2.0, 3.7)


def catalog_case(kind, seed):
    """(env, two profiles on it, per-profile rule, balance parameters, a
    distribution over the two)."""
    if kind == "mph":
        a, b = gen_mph_random(n=3, m=3, seed=seed), gen_mph_random(n=3, m=3, seed=seed + 7919)
        env, a, b = a.env, a.profile, b.profile
        rule = lambda p: mphk_item_prices(env, p, opt(env, p))
        return env, a, b, rule, WEAK, mixed_dist([a, b])
    if kind == "pip":
        inst = gen_pip_random(n=4 + seed % 2, m=3, d=2, seed=seed)
        env, a = inst.env, inst.profile
        # rates off the binary grid, so a welfare summed another way can differ
        b = tuple(ScalarValuation(v.rate / 3 + (i + 1) / 7) for i, v in enumerate(a))
        rule = lambda p: pip_prices(env, p, opt(env, p))
        return env, a, b, rule, WEAK, mixed_dist([a, b])
    env, dist, rule = stochastic_case(kind, seed)
    a, b = (tuple(atoms[k][0] for atoms in dist.supports) for k in (0, 1))
    return env, a, b, rule, WEAK if kind == "xos" else STRONG, dist


@st.composite
def explicit_cases(draw):
    """A random downward-closed explicit environment whose agents have two
    non-null tokens each, two table profiles on it, a static rule, the
    strong parameters and a distribution over the two profiles."""
    n = draw(st.integers(min_value=2, max_value=4))
    tops = draw(st.lists(st.tuples(*[st.sampled_from((0, 1, 2))] * n), min_size=1, max_size=5))
    listed = {(NULL,) * n}
    for top in tops:
        slots = [(NULL, t) if t != NULL else (NULL,) for t in top]
        listed.update(itertools.product(*slots))
    env = ExplicitEnv(n=n, outcome_tokens=((0, 1, 2),) * n, feasible_set=frozenset(listed))

    def profile():
        return tuple(
            TableValuation(((1, draw(st.sampled_from(VALUES))), (2, draw(st.sampled_from(VALUES)))))
            for _ in range(n)
        )

    a, b = profile(), profile()
    rule = lambda p: PricingRule(env, lambda i, x_i, y: 0.3 * x_i, static=True)
    return env, a, b, rule, STRONG, mixed_dist([a, b])


def welfare_column_twin(env, profile):
    """Twin of ``oracle._welfare_column``, which the walk reads residual
    optima off by position: each listed allocation's welfare on its own."""
    return [welfare(profile, y) for y in enumerate_feasible(env)]


def assert_matches_twin(env, a, b, rule, params, dist):
    """Alternate ``a``, ``b``, ``a`` and an equal copy of ``a`` on one
    environment object; every result must equal the twin's by ``repr``."""
    family = default_family(env)
    check = check_weakly_balanced if params.weak else check_balanced
    feasible = enumerate_feasible(env)
    want_expected = repr(expected_opt_twin(env, dist))
    for p in (a, b, a, copy.deepcopy(a), b):
        alg = opt(env, p)
        assert repr(alg) == repr(argmax_first_twin(feasible, p))
        for x in feasible:
            got = residual_opt(env, p, family, x)
            assert repr(got) == repr(argmax_first_twin(family.members(x), p))
        prices = rule(p)
        got = check(env, p, prices, alg, family, params, order_mode="declared")
        with mock.patch.object(balance, "_welfare_column", welfare_column_twin):
            want = check(env, p, prices, alg, family, params, order_mode="declared")
        assert got == want
        assert repr(got) == repr(want)
        # the expected optimum leaves the column of its last profile behind
        assert repr(expected_opt(env, dist)) == want_expected


class TestDifferential:
    @given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=31))
    @settings(max_examples=24, deadline=None)
    def test_catalog_kinds_match_twin(self, kind, seed):
        assert_matches_twin(*catalog_case(kind, seed))

    @given(explicit_cases())
    @settings(max_examples=24, deadline=None)
    def test_explicit_tables_match_twin(self, case):
        assert_matches_twin(*case)

    def test_length_mismatch_is_a_value_error(self):
        env, a, *_ = catalog_case("xos", 1)
        opt(env, a)
        with pytest.raises(ValueError):
            opt(env, a[:-1])


class _CountingMath:
    """``math`` with its ``fsum`` calls counted."""

    def __init__(self):
        self.fsums = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, xs):
        self.fsums += 1
        return math.fsum(xs)


class TestCounterGate:
    """In a whole ``balance`` job, the rule's ``opt``, the reference ``opt``
    and every residual optimum share one column: one ``value`` call per
    distinct (agent, token) pair of the list and one welfare ``fsum`` per
    listed allocation.  The reference allocation's welfare is one
    ``welfare`` call, with one ``value`` call per agent."""

    @pytest.mark.parametrize("pricing,catalog,cls", [
        ("xos", ["xos", "--n", "3", "--m", "4"], XosValuation),
        ("pip", ["pip", "--n", "6"], ScalarValuation),
    ])
    def test_value_and_welfare_once(self, tmp_path, monkeypatch, capsys, pricing, catalog, cls):
        path = tmp_path / "inst.json"
        assert main(["catalog", *catalog, "-o", str(path)]) == 0
        feasible = enumerate_feasible(load_instance_file(str(path)).env)
        pairs = {(i, tok) for y in feasible for i, tok in enumerate(y) if tok != NULL}

        calls = {"value": 0, "welfare": 0}
        real_value, real_welfare = cls.value, core.welfare

        def counted_value(self, x):
            calls["value"] += 1
            return real_value(self, x)

        def counted_welfare(profile, alloc):
            calls["welfare"] += 1
            return real_welfare(profile, alloc)

        monkeypatch.setattr(cls, "value", counted_value)
        for mod in (core, oracle, balance):
            if getattr(mod, "welfare", None) is real_welfare:
                monkeypatch.setattr(mod, "welfare", counted_welfare)
        counting_math = _CountingMath()
        monkeypatch.setattr(oracle, "math", counting_math)

        assert main(["balance", "--instance", str(path), "--pricing", pricing]) in (0, 1)
        capsys.readouterr()
        n = len(feasible[0])
        assert 0 < calls["value"] <= len(pairs) + n
        assert calls["welfare"] == 1
        assert counting_math.fsums <= len(feasible)


# one valuation of every kind
VALUATIONS = (
    AdditiveValuation((1.0, 0.5, 0.25)),
    XosValuation(((1.0, 0.0), (0.0, 2.0))),
    MphValuation((((0b11, 1.5), (0b01, 0.5)),)),
    ThresholdValuation(2.0, 0.25),
    ScalarValuation(0.7),
    TableValuation(((1, 0.5), ((1, 2), 1.0))),
    MarketValuation((AdditiveValuation((1.0,)), ScalarValuation(2.0))),
)


class TestHashOnce:
    def test_every_kind_covered(self):
        assert {type(v) for v in VALUATIONS} == set(typing.get_args(Valuation))

    @pytest.mark.parametrize("v", VALUATIONS, ids=lambda v: v.kind)
    def test_hash_is_the_field_hash_computed_once(self, v):
        v = copy.deepcopy(v)
        fields = tuple(getattr(v, f.name) for f in dataclasses.fields(v))
        before = (repr(v), encode_valuation(v))
        assert "_hash" not in vars(v)
        assert hash(v) == hash(fields)
        assert vars(v)["_hash"] == hash(fields)
        assert hash(v) == hash(fields)
        assert (repr(v), encode_valuation(v)) == before
        twin = copy.deepcopy(v)
        assert "_hash" not in vars(twin)  # copies and pickles carry no hash
        assert twin == v and hash(twin) == hash(v)
        loaded = pickle.loads(pickle.dumps(v))
        assert loaded == v and "_hash" not in vars(loaded)
        assert {v: 1}[twin] == 1
