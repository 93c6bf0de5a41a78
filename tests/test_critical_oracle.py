"""The critical-value oracle against its twins.

``critical_value`` and ``permeability`` share one oracle over the kept
feasible list.  The twins in ``helpers`` are the member walk, the greedy run
on rebuilt profiles and the grid^n scan that rates each feasible set on its
own; every result must equal theirs by ``repr``."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import balprice.oracle
from balprice.catalog import gen_matroid
from balprice.core import (
    ExplicitEnv,
    ScalarValuation,
    TableValuation,
    enumerate_feasible,
)
from balprice.oracle import (
    GREEDY_RULE,
    OPT_RULE,
    AllocationRule,
    critical_value,
    permeability,
)

from helpers import critical_value_twin, permeability_twin

RULES = (OPT_RULE, GREEDY_RULE)

# dyadic and non-dyadic values, one below TOL, so sums round
VALUES = (0.0, 1e-10, 0.1, 0.2, 0.3, 0.7, 1.0, 1.5, 2.0, 3.7)


def explicit_env(n, tops):
    """The binary set system of every subset of the agent masks ``tops``."""
    sets = {sub for top in tops for sub in range(1 << n) if sub & top == sub}
    return ExplicitEnv(
        n=n,
        outcome_tokens=((0, 1),) * n,
        feasible_set=frozenset(tuple(s >> j & 1 for j in range(n)) for s in sets),
    )


@st.composite
def set_systems(draw):
    """A random binary set system with 2 to 5 agents, a profile on it, a
    mask of agents outside which the profile is zeroed, and a bid grid."""
    n = draw(st.integers(min_value=2, max_value=5))
    tops = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
    members = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    grid = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3))
    profile = tuple(TableValuation(((1, v),)) for v in values)
    return explicit_env(n, tops), profile, members, grid


def catalog_case(kind, seed):
    if kind == "uniform":
        inst = gen_matroid("uniform", seed=seed, rank=1 + seed % 3, ground=3 + seed % 3)
    elif kind == "partition":
        inst = gen_matroid("partition", seed=seed, ground=4 + seed % 2)
    else:
        inst = gen_matroid("graphic_k4", seed=seed)
    return inst.env, inst.profile


def zero_outside(profile, members):
    """The profile with every agent outside the mask ``members`` worth 0, as
    the reference-allocation prices pass it."""
    return tuple(
        v if members >> j & 1 else ScalarValuation(0.0) for j, v in enumerate(profile)
    )


def assert_critical_values_match(env, profile, members):
    for rule in RULES:
        for fixed in enumerate_feasible(env):
            for p in (profile, zero_outside(profile, members)):
                for i in range(env.n):
                    got = critical_value(rule, env, p, i, fixed)
                    want = critical_value_twin(rule, env, p, i, fixed)
                    assert repr(got) == repr(want), (rule.kind, fixed, i)


class TestCriticalValueTwins:
    @given(set_systems())
    @settings(max_examples=40, deadline=None)
    def test_set_systems(self, case):
        env, profile, members, _ = case
        assert_critical_values_match(env, profile, members)

    @given(
        st.sampled_from(("uniform", "partition", "k4")),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=15, deadline=None)
    def test_catalog_matroids(self, kind, seed, members):
        env, profile = catalog_case(kind, seed)
        assert_critical_values_match(env, profile, members)


# sets {0, 1} and {2}, where permeability is 2 (see test_gamma_above_one)
GAMMA_TWO = (
    explicit_env(3, (0b011, 0b100)),
    tuple(TableValuation(((1, v),)) for v in (0.0, 0.0, 2.0)),
    0b011,
    [0.0, 2.0],
)


class TestPermeabilityTwin:
    @given(set_systems())
    @example(GAMMA_TWO)
    @settings(max_examples=30, deadline=None)
    def test_set_systems(self, case):
        env, _, _, grid = case
        for rule in RULES:
            assert repr(permeability(env, rule, grid)) == repr(permeability_twin(env, rule, grid))

    @given(st.sampled_from(("uniform", "partition", "k4")), st.integers(min_value=0, max_value=63))
    @example("k4", 0)
    @settings(max_examples=6, deadline=None)
    def test_catalog_matroids(self, kind, seed):
        env, profile = catalog_case(kind, seed)
        grid = sorted({0.0} | {v.values[j] for j, v in enumerate(profile)})[:3]
        for rule in RULES:
            assert repr(permeability(env, rule, grid)) == repr(permeability_twin(env, rule, grid))

    def test_gamma_above_one(self):
        """At bids (0, 0, 2) agents 0 and 1 each must displace the 2, so
        {0, 1} carries critical values 4 against a declared welfare of 2."""
        env = GAMMA_TWO[0]
        for rule in RULES:
            assert permeability(env, rule, (0.0, 2.0)) == 2.0
            assert repr(permeability(env, rule, (0.0, 0.7, 2.0))) == repr(
                permeability_twin(env, rule, (0.0, 0.7, 2.0))
            )


class TestOracleCount:
    @pytest.mark.parametrize("rule", RULES, ids=["opt", "greedy"])
    def test_once_per_agent_and_other_bids(self, monkeypatch, rule):
        calls = [0]
        oracle = balprice.oracle._critical_value

        def counted(*args):
            calls[0] += 1
            return oracle(*args)

        monkeypatch.setattr(balprice.oracle, "_critical_value", counted)
        env, _ = catalog_case("uniform", 4)
        grid = (0.0, 0.5, 1.0, 2.0)
        permeability(env, rule, grid)
        n, g = env.n, len(grid)
        assert 0 < calls[0] <= n * g ** (n - 1)


class TestRulesWithoutCriticalValues:
    LP_RULE = AllocationRule("fractional_lp")

    def test_critical_value_refuses(self):
        env, profile = catalog_case("uniform", 1)
        with pytest.raises(ValueError, match="^critical values undefined for rule fractional_lp$"):
            critical_value(self.LP_RULE, env, profile, 0, env.null_allocation())

    def test_permeability_refuses_before_grid_work(self):
        # the feasible list alone (11 allocations) would exceed this cap
        env, _ = catalog_case("uniform", 1)
        assert len(enumerate_feasible(env)) > 10
        with pytest.raises(ValueError, match="^critical values undefined for rule fractional_lp$"):
            permeability(env, self.LP_RULE, range(10), cap=10)
