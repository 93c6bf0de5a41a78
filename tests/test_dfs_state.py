"""The DFS of ``enumerate_feasible`` carries each environment kind's partial
state (a count, a mask, a running sum, per-row load terms) and extends it by
one agent per level.

The list must be ``repr``-equal to the twin that checks every node's whole
allocation with ``is_feasible``, and to the filtered cartesian product when
the family is downward closed: the ``feasible-lists`` entry of
``twins.TWINS`` draws every kind.  The work counters here show that no
whole-prefix check is left on the kinds with a step of their own.
"""

import collections
import math

import pytest

from balprice.catalog import gen_knapsack_random, gen_matroid, gen_pip_random, gen_xos_random
from balprice.core import NULL, TOL, EnvironmentBase, PipEnv, enumerate_feasible

from helpers import dfs_feasible_twin
from twins import downward_closed


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
    assert downward_closed(enumerate_feasible(env))


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
