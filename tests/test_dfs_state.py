"""The DFS of ``enumerate_feasible`` carries each environment kind's partial
state (a count, a mask, a running sum, per-row load terms) and extends it by
one agent per level.

The list must be ``repr``-equal to the twin that checks every node's whole
allocation with ``is_feasible``, and to the filtered cartesian product when
the family is downward closed; the work counters show that no whole-prefix
check is left on the kinds with a step of their own.
"""

import collections
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balprice.catalog import gen_knapsack_random, gen_matroid, gen_pip_random, gen_xos_random
from balprice.core import (
    DEFAULT_CAP,
    NULL,
    TOL,
    CapExceeded,
    CombinatorialAuctionEnv,
    EnvironmentBase,
    ExplicitEnv,
    KnapsackEnv,
    Matroid,
    MatroidEnv,
    PipEnv,
    ProductEnv,
    SingleItemEnv,
    enumerate_feasible,
    replace_at,
    support,
)

from helpers import brute_feasible, dfs_feasible_twin

# non-dyadic steps and shares below the capacity, so the running sum rounds
KNAPSACK_STEPS = (0.1, 0.125, 0.2, 0.3, 1 / 3, 0.375, 0.5)
KNAPSACK_SHARES = (0.35, 0.5, 0.7, 1.0)
# zero terms of both signs and both ends of the range
PIP_COEFFS = (0.0, -0.0, 0.1, 0.125, 0.25, 0.3, 1 / 3, 0.5, 0.5 + TOL)
PIP_CAPS = (1.0, 1.0 - 5e-10, 1.0 + 5e-10)
# product spaces are tested whole by the brute-force twin; keep them small
MAX_PRODUCT = 1500


@st.composite
def knapsacks(draw):
    step = draw(st.sampled_from(KNAPSACK_STEPS))
    share = draw(st.sampled_from(KNAPSACK_SHARES))
    levels = round(share / step) + 1
    n = draw(st.integers(1, max(1, int(math.log(MAX_PRODUCT, levels)))))
    return KnapsackEnv(n=n, step=step, max_share=share)


@st.composite
def pips(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 3))
    coeff = st.sampled_from(PIP_COEFFS)
    matrix = tuple(tuple(draw(coeff) for _ in range(n)) for _ in range(m))
    caps = tuple(draw(st.sampled_from(PIP_CAPS)) for _ in range(m))
    return PipEnv(n=n, matrix=matrix, capacities=caps)


@st.composite
def matroids(draw):
    kind = draw(st.sampled_from(("uniform", "partition", "graphic_k4")))
    if kind == "uniform":
        ground = draw(st.integers(1, 7))
        matroid = Matroid.uniform(draw(st.integers(0, ground)), ground)
    elif kind == "partition":
        ground = draw(st.integers(2, 7))
        block_of = [draw(st.integers(0, 2)) for _ in range(ground)]
        blocks = [tuple(e for e in range(ground) if block_of[e] == b) for b in range(3)]
        matroid = Matroid.partition(blocks, [draw(st.integers(0, 2)) for _ in blocks])
    else:
        matroid = Matroid.graphic_k4()
    # every element goes to one agent or to none, so agents own zero, one
    # or several elements
    n = draw(st.integers(1, 5))
    owner = [draw(st.integers(-1, n - 1)) for _ in range(matroid.ground)]
    elements = tuple(tuple(e for e in range(matroid.ground) if owner[e] == i) for i in range(n))
    return MatroidEnv(n=n, matroid=matroid, elements=elements)


@st.composite
def auctions(draw):
    n = draw(st.integers(1, 3))
    items = draw(st.integers(0, 3 if n < 3 else 2))
    return CombinatorialAuctionEnv(n=n, items=items, fractional=draw(st.booleans()))


@st.composite
def explicits(draw):
    n = draw(st.integers(1, 3))
    extra = st.lists(st.sampled_from((1, 2, (1, 2))), unique=True, max_size=3)
    tokens = tuple((NULL,) + tuple(draw(extra)) for _ in range(n))
    listed = draw(st.lists(st.tuples(*(st.sampled_from(t) for t in tokens)), max_size=6))
    # close the drawn allocations downward
    feasible = {(NULL,) * n}
    stack = list(listed)
    while stack:
        alloc = stack.pop()
        if alloc not in feasible:
            feasible.add(alloc)
            stack += [replace_at(alloc, i, NULL) for i in support(alloc)]
    return ExplicitEnv(n=n, outcome_tokens=tokens, feasible_set=frozenset(feasible))


@st.composite
def products(draw):
    n = draw(st.integers(1, 3))
    market = st.sampled_from(
        (
            SingleItemEnv(n=n),
            KnapsackEnv(n=n, step=0.5, max_share=1.0),
            CombinatorialAuctionEnv(n=n, items=1),
            MatroidEnv(n=n, matroid=Matroid.uniform(1, n), elements=tuple((i,) for i in range(n))),
        )
    )
    return ProductEnv(markets=tuple(draw(st.lists(market, min_size=1, max_size=2))))


KINDS = {
    "single_item": st.integers(1, 6).map(lambda n: SingleItemEnv(n=n)),
    "matroid": matroids(),
    "combinatorial_auction": auctions(),
    "knapsack": knapsacks(),
    "pip": pips(),
    "explicit": explicits(),
    "product": products(),
}


def _downward_closed(allocs) -> bool:
    listed = set(allocs)
    return all(replace_at(a, i, NULL) in listed for a in allocs for i in support(a))


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_matches_twin_and_brute_force(kind, data):
    env = data.draw(KINDS[kind])
    want = dfs_feasible_twin(env)
    brute = brute_feasible.__wrapped__(env)
    if _downward_closed(brute):
        assert repr(want) == repr(tuple(brute))
    cap = data.draw(st.integers(0, len(want) + 1))
    if cap < len(want):
        with pytest.raises(CapExceeded) as got:
            enumerate_feasible(env, cap)
        with pytest.raises(CapExceeded) as twin:
            dfs_feasible_twin(env, cap)
        assert str(got.value) == str(twin.value)
        cap = DEFAULT_CAP
    assert repr(enumerate_feasible(env, cap)) == repr(want)


@pytest.mark.parametrize(
    "coeff",
    [-TOL, -5e-10, -1e-12, -math.ulp(0.0)],
    ids=["minus-tol", "minus-half-tol", "minus-1e-12", "minus-ulp"],
)
def test_pip_refuses_negative_coefficients(coeff):
    # a negative coefficient breaks downward closure: with agent 2's term,
    # agents 0 and 1 would fit only together with agent 2
    with pytest.raises(ValueError, match=r"outside \[0, 1/2\]$"):
        PipEnv(n=3, matrix=((0.5 + 1e-9, 0.5 + 1e-9, coeff),), capacities=(1.0,))
    env = PipEnv(n=3, matrix=((0.5 + 1e-9, 0.5 + 1e-9, -0.0),), capacities=(1.0,))
    assert _downward_closed(enumerate_feasible(env))


@pytest.mark.parametrize(
    "row, fits",
    [
        # a left-to-right sum rounds these loads to the wrong side of 1 + TOL
        ((0.4527549237953228, 0.35101380514788433, 0.19623127205679308), True),
        ((0.3990870174183882, 0.3898982129577476, 0.21101477062386442), False),
    ],
)
def test_pip_rows_are_fsummed(row, fits):
    env = PipEnv(n=3, matrix=(row,), capacities=(1.0,))
    assert ((1, 1, 1) in enumerate_feasible(env)) is fits
    assert repr(enumerate_feasible(env)) == repr(dfs_feasible_twin(env))


@pytest.mark.parametrize(
    "matrix, capacities",
    [(((math.nan, 0.5),), (1.0,)), (((0.5, 0.5),), (math.nan,))],
)
def test_pip_refuses_nan_entries(matrix, capacities):
    # a nan coefficient or capacity would make even the null allocation
    # infeasible under ``is_feasible``
    with pytest.raises(ValueError):
        PipEnv(n=2, matrix=matrix, capacities=capacities)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_pip_random(n=8).env,
        lambda: gen_xos_random(n=3, m=4).env,
        lambda: gen_knapsack_random(n=5).env,
        lambda: gen_matroid("uniform", rank=3, ground=7).env,
    ],
    ids=["pip8", "xos3x4", "knapsack5", "uniform3of7"],
)
def test_one_step_per_prefix_and_token(make, monkeypatch):
    env = make()
    cls = type(env)
    assert cls.extend is not EnvironmentBase.extend
    loads, checks, steps = [0], [0], collections.Counter()
    load, is_feasible, extend = PipEnv.load, cls.is_feasible, cls.extend

    def counted_load(self, alloc):
        loads[0] += 1
        return load(self, alloc)

    def counted_check(self, alloc):
        checks[0] += 1
        return is_feasible(self, alloc)

    def counted_step(self, state, i, tok):
        steps[i, tok] += 1
        return extend(self, state, i, tok)

    monkeypatch.setattr(PipEnv, "load", counted_load)
    monkeypatch.setattr(cls, "is_feasible", counted_check)
    monkeypatch.setattr(cls, "extend", counted_step)
    feasible = enumerate_feasible(env)
    monkeypatch.undo()

    assert loads[0] == 0
    assert checks[0] <= 1
    # one step per feasible prefix of i agents and non-null token of agent
    # i, and one for agent 0's null token, the only null one checked
    want = collections.Counter({(0, NULL): 1})
    for i in range(env.n):
        prefixes = {a[:i] for a in feasible}
        for tok in env.agent_outcomes(i):
            if tok != NULL:
                want[i, tok] += len(prefixes)
    assert steps == want
    assert repr(feasible) == repr(dfs_feasible_twin(env))
