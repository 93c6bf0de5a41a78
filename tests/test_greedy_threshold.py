"""The greedy critical value as a threshold on the others' ranking.

``oracle._critical_value`` scans the other agents once in greedy order on
the environment's DFS step and returns the value of the last one scanned
before the agent stops fitting.  It must equal the probing twin
(``helpers.critical_value_greedy_twin``) wherever the twin's probes are
sound, on every binary kind; the DFS step it runs on must accept the same
tokens whatever order the agents join in; and two inputs on which the
probes were wrong must give OPT's critical value.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice.catalog import gen_matroid
from balprice.core import (
    NULL,
    TOL,
    CombinatorialAuctionEnv,
    ExplicitEnv,
    KnapsackEnv,
    Matroid,
    MatroidEnv,
    PipEnv,
    SingleItemEnv,
    enumerate_feasible,
    replace_at,
)
from balprice.oracle import GREEDY_RULE, OPT_RULE, _binary_token, _dfs_state, critical_value, is_binary_env

from helpers import binary_profile, critical_value_twin


@st.composite
def set_systems(draw):
    """Every subset of one to four drawn agent masks, on 1 to 5 agents."""
    n = draw(st.integers(1, 5))
    tops = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    sets = {sub for top in tops for sub in range(1 << n) if sub & top == sub}
    return ExplicitEnv(
        n=n,
        outcome_tokens=((0, 1),) * n,
        feasible_set=frozenset(tuple(s >> j & 1 for j in range(n)) for s in sets),
    )


@st.composite
def catalog_matroids(draw):
    kind = draw(st.sampled_from(("uniform", "partition", "graphic_k4")))
    seed = draw(st.integers(0, 63))
    if kind == "uniform":
        ground = draw(st.integers(1, 6))
        return gen_matroid(kind, seed=seed, rank=draw(st.integers(0, ground)), ground=ground).env
    if kind == "partition":
        return gen_matroid(kind, seed=seed, ground=draw(st.integers(2, 6))).env
    return gen_matroid(kind, seed=seed).env


@st.composite
def pips(draw):
    n = draw(st.integers(1, 5))
    coeff = st.sampled_from((0.0, -0.0, 0.1, 0.25, 0.3, 1 / 3, 0.5, 0.5 + TOL))
    matrix = tuple(tuple(draw(coeff) for _ in range(n)) for _ in range(draw(st.integers(1, 2))))
    return PipEnv(n=n, matrix=matrix, capacities=(1.0,) * len(matrix))


@st.composite
def binary_knapsacks(draw):
    # the step equals the largest share, so each agent's one token is a step
    step = draw(st.sampled_from((0.1, 0.125, 0.2, 0.3, 1 / 3, 0.5, 1.0)))
    return KnapsackEnv(n=draw(st.integers(1, 5)), step=step, max_share=step)


BINARY_KINDS = {
    "explicit": set_systems(),
    "matroid": catalog_matroids(),
    "single_item": st.integers(1, 5).map(lambda n: SingleItemEnv(n=n)),
    "pip": pips(),
    "one_item_auction": st.integers(1, 5).map(lambda n: CombinatorialAuctionEnv(n=n, items=1)),
    "knapsack": binary_knapsacks(),
}

# the values at which the twin's probes are sound: 0, below TOL (never
# ranked), or above 2 TOL (a probe between 0 and the lowest is above TOL)
# and below 2^52 (the probe past the top, c + 0.5, is exact)
VALUES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=TOL, exclude_max=True),
    st.floats(min_value=2 * TOL, max_value=2.0**52, exclude_min=True, exclude_max=True),
    st.sampled_from((0.1, 0.3, 1.0, 2.0)),
)


def spaced(values) -> bool:
    """No two ranked values are adjacent floats, so each midpoint probe lies
    strictly between its candidates."""
    ranked = sorted({v for v in values if v > TOL})
    return all(b > math.nextafter(a, math.inf) for a, b in zip(ranked, ranked[1:]))


@pytest.mark.parametrize("kind", sorted(BINARY_KINDS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_matches_probing_twin(kind, data):
    env = data.draw(BINARY_KINDS[kind])
    assert is_binary_env(env)
    values = data.draw(st.lists(VALUES, min_size=env.n, max_size=env.n).filter(spaced))
    profile = binary_profile(env, values)
    feasible = enumerate_feasible(env)
    # a feasible allocation restricted to the agents before a cut
    x = data.draw(st.sampled_from(feasible))
    cut = data.draw(st.integers(0, env.n))
    fixed = x[:cut] + (NULL,) * (env.n - cut)
    for agent in range(env.n):
        got = critical_value(GREEDY_RULE, env, profile, agent, fixed)
        want = critical_value_twin(GREEDY_RULE, env, profile, agent, fixed)
        assert repr(got) == repr(want), (fixed, agent)


@pytest.mark.parametrize("kind", sorted(BINARY_KINDS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_dfs_step_ignores_join_order(kind, data):
    """Joined in two drawn orders, an allocation's agents give states that
    are None exactly when it is infeasible, and that otherwise accept the
    same further agents: those whose token keeps it feasible."""
    env = data.draw(BINARY_KINDS[kind])
    toks = [_binary_token(env, i) for i in range(env.n)]
    mask = data.draw(st.integers(0, (1 << env.n) - 1))
    x = tuple(toks[i] if mask >> i & 1 else NULL for i in range(env.n))
    agents = [i for i in range(env.n) if x[i] != NULL]
    states = []
    for order in (data.draw(st.permutations(agents)), data.draw(st.permutations(agents))):
        state = env.start_state
        for i in order:
            if state is not None:
                state = env.extend(state, i, toks[i])
        states.append(state)
    states.append(_dfs_state(env, x))
    feasible = env.is_feasible(x)
    assert [s is not None for s in states] == [feasible] * 3
    if feasible:
        for j in range(env.n):
            if x[j] == NULL:
                fits = env.is_feasible(replace_at(x, j, toks[j]))
                assert [env.extend(s, j, toks[j]) is not None for s in states] == [fits] * 3


class TestProbePins:
    """Two inputs on which the float probes were wrong; the threshold is
    OPT's critical value on each."""

    def test_adjacent_tops_on_a_single_item(self):
        # the probe above c rounded onto nextafter(c) and won the tie on index
        c = 1 + 2**-52
        top = math.nextafter(c, math.inf)
        env = SingleItemEnv(n=3)
        profile = binary_profile(env, (0.0, c, top))
        null = env.null_allocation()
        assert critical_value(GREEDY_RULE, env, profile, 0, null) == top
        assert critical_value(OPT_RULE, env, profile, 0, null) == top

    def test_room_for_both_below_twice_tol(self):
        # the probe between 0 and 1.5e-9 fell below TOL and was never ranked
        env = MatroidEnv(n=2, matroid=Matroid.uniform(2, 2), elements=((0,), (1,)))
        profile = binary_profile(env, (0.0, 1.5e-9))
        null = env.null_allocation()
        assert critical_value(GREEDY_RULE, env, profile, 0, null) == 0.0
        assert critical_value(OPT_RULE, env, profile, 0, null) == 0.0
