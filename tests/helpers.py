"""Brute-force twins and checks shared by the tests.

The twins here recompute what the library computes by the most direct means
available (full cartesian enumeration, each family kind's defining
condition), so the library's fast paths can be compared against them.
"""

import functools
import itertools
import math
import sys

import balprice.core
from balprice.core import (
    NULL,
    TOL,
    Matroid,
    MatroidEnv,
    enumerate_feasible,
    restrict,
    support,
    value,
    welfare,
    _token_key,
)
from balprice.mechanism import OnlinePostedPriceRunner
from balprice.oracle import argmax_first
from balprice.stochastic import RatioEstimate, _ratio_ci95, trial_rng


def check_downward_closed(env, cap=balprice.core.DEFAULT_CAP) -> bool:
    """Exhaustively verify that every restriction of a feasible allocation is
    feasible (desk-scale environments only).

    It enumerates through ``enumerate_feasible``, whose DFS prunes every
    prefix that is infeasible and so never lists an allocation with an
    infeasible prefix; the check is therefore meaningful only on
    environments that are closed by construction."""
    for alloc in enumerate_feasible(env, cap):
        agents = support(alloc)
        for r in range(len(agents) + 1):
            for subset in itertools.combinations(agents, r):
                if not env.is_feasible(restrict(alloc, subset)):
                    return False
    return True


def multi_element_matroid():
    """Three agents owning two elements each of a rank-3 uniform matroid, so
    tokens are masks with more than one bit."""
    return MatroidEnv(n=3, matroid=Matroid.uniform(3, 6), elements=((0, 1), (2, 3), (4, 5)))


@functools.lru_cache(maxsize=8)
def brute_feasible(env) -> list:
    """Every feasible allocation, found by testing the whole cartesian
    product of the agents' outcome spaces (no pruning), in lexicographic
    token order."""
    spaces = [sorted(env.agent_outcomes(i), key=_token_key) for i in range(env.n)]
    return [a for a in itertools.product(*spaces) if env.is_feasible(a)]


def _items(alloc) -> int:
    mask = 0
    for a in alloc:
        mask |= a
    return mask


def filtered_members(family, x) -> list:
    """Brute-force twin of ``ExchangeFamily.members``: every feasible
    allocation, kept when it meets the kind's defining condition; a
    product member is a product allocation whose every market projection
    is a member of that market's component family."""
    kind, env = family.kind, family.env
    feasible = brute_feasible(env)
    null = env.null_allocation()
    if kind == "product":
        per_market = [
            set(filtered_members(fam, env.project(x, ell)))
            for ell, fam in enumerate(family.components)
        ]

        def keep(y):
            return all(env.project(y, ell) in ms for ell, ms in enumerate(per_market))
    elif kind == "single_item_gate":
        def keep(y):
            return not support(x) or y == null
    elif kind == "knapsack_threshold":
        def keep(y):
            return sum(x) < 0.5 or y == null
    elif kind == "canonical_contraction":
        def keep(y):
            return all(y[i] == NULL for i in support(x)) and env.is_feasible(
                tuple(xi if xi != NULL else yi for xi, yi in zip(x, y))
            )
    elif kind == "item_disjoint":
        def keep(y):
            return not _items(y) & _items(x) and env.is_feasible(
                tuple(xi | yi for xi, yi in zip(x, y))
            )
    else:
        caps = [1.0 if l <= 0.5 + TOL else 0.0 for l in env.load(x)]

        def keep(y):
            return all(l <= c + TOL for l, c in zip(env.load(y), caps))
    return [y for y in feasible if keep(y)]


def count_dfs_runs(monkeypatch) -> list:
    """Count the DFS runs of ``enumerate_feasible``: the calls that find no
    list kept on their environment.  Patches every ``balprice`` module name
    bound to it; the count is element 0 of the returned list."""
    runs = [0]
    orig = balprice.core.enumerate_feasible

    def counted(env, *args, **kwargs):
        if getattr(env, "_feasible", None) is None:
            runs[0] += 1
        return orig(env, *args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "balprice" or mod_name.startswith("balprice."):
            if getattr(mod, "enumerate_feasible", None) is orig:
                monkeypatch.setattr(mod, "enumerate_feasible", counted)
    return runs


def tied_candidates_twin(prices, v, i, y) -> list:
    """Twin of ``PricingRule.best_entries`` without its memo: agent i's
    utility-maximizing entries of a freshly built menu, lexmin token first."""
    menu = prices.menu(i, y)
    best = max(value(v, tok) - p for tok, p in menu)
    cands = [(tok, p) for tok, p in menu if value(v, tok) - p >= best - TOL]
    cands.sort(key=lambda tp: _token_key(tp[0]))
    return cands


def expected_opt_twin(env, dist) -> float:
    """Twin of ``expected_opt``: the welfare of ``argmax_first`` over the
    feasible list on every support profile."""
    feasible = enumerate_feasible(env)
    return math.fsum(prob * welfare(p, argmax_first(feasible, p)) for p, prob in dist.profiles())


def monte_carlo_twin(env, prices, dist, order_mode, trials, seed, tie="adversarial_min_welfare"):
    """Twin of ``monte_carlo_ratio`` as a plain loop over trials: each trial
    draws its profile (then, in random order, its permutation) from its own
    stream, runs a runner of its own, and takes ``argmax_first`` over the
    feasible list for its optimum."""
    feasible = enumerate_feasible(env)
    ws, os_ = [], []
    for t in range(trials):
        rng = trial_rng(seed, t)
        profile = dist.sample(rng)
        if order_mode == "fixed":
            order = tuple(range(env.n))
        else:
            order = tuple(int(i) for i in rng.permutation(env.n))
        ws.append(OnlinePostedPriceRunner(env, prices, dist, order, tie).run(profile).welfare)
        os_.append(welfare(profile, argmax_first(feasible, profile)))
    return RatioEstimate.of(
        math.fsum(ws) / trials,
        math.fsum(os_) / trials,
        "monte_carlo",
        trials=trials,
        seed=seed,
        ci95_halfwidth=_ratio_ci95(ws, os_),
    )
