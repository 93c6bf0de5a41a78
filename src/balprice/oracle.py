"""Allocation oracles: brute-force OPT, residual OPT over exchange-compatible
families, greedy, critical values, permeability measurement, and the dense
configuration-LP solver for combinatorial auctions.

Everything here is a pure function of immutable inputs with deterministic
tie-breaking, so downstream pricing rules are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import le, or_
from typing import Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_CAP,
    NULL,
    TOL,
    UNAVAILABLE,
    Allocation,
    CapExceeded,
    CombinatorialAuctionEnv,
    Environment,
    KnapsackEnv,
    MatroidEnv,
    PipEnv,
    ProductEnv,
    SingleItemEnv,
    ThresholdValuation,
    Valuation,
    _first_max,
    enumerate_feasible,
    replace_at,
    support,
    value,
)

# ---------------------------------------------------------------------------
# OPT and helpers
# ---------------------------------------------------------------------------


# builders of the tables ``fact`` keeps in an environment's store, given the
# environment and its kept feasible list
_FACTS = {
    "tokens": lambda env, feasible: tuple(zip(*feasible)),
    "positions": lambda env, feasible: {y: k for k, y in enumerate(feasible)},
    # read off the DFS states ``enumerate_feasible`` keeps beside the list
    "loads": lambda env, feasible: list(map(env.row_loads, fact(env, "states"))),
    # each item mask (a union environment's state) -> its listed positions
    "item_positions": lambda env, feasible: _positions_by(fact(env, "states")),
    # the union of the listed item masks
    "item_union": lambda env, feasible: functools.reduce(or_, fact(env, "item_positions"), 0),
    "greedy": lambda env, feasible: {},
    # each agent's one non-null outcome; None where it has several or none
    "binary_tokens": lambda env, feasible: [
        toks[0] if len(toks) == 1 else None
        for toks in ([t for t in env.agent_outcomes(i) if t != NULL] for i in range(env.n))
    ],
}


def _positions_by(values) -> dict:
    """Each distinct value, in order of first appearance -> the positions
    holding it, ascending."""
    table = {v: [] for v in dict.fromkeys(values)}
    for k, v in enumerate(values):
        table[v].append(k)
    return table


def fact(env: Environment, name: str):
    """Table ``name`` of ``env``'s store, built by ``_FACTS`` on first use."""
    facts = env._facts
    table = facts.get(name)
    if table is None:
        table = facts[name] = _FACTS[name](env, facts.get("feasible"))
    return table


def _welfare_column(env: Environment, profile, tables=None) -> tuple[float, ...]:
    """The welfare of every allocation on the feasible list kept in ``env``'s
    store, in list order.  Agent i's column holds ``value(v_i, token)`` for
    its token in each listed allocation, from one ``value`` call per distinct
    token, and each row is the ``fsum`` across the columns; ``fsum`` is
    correctly rounded, so a row is the ``welfare`` float of its allocation.

    The store keeps the column of the last profile asked, compared by
    equality.  ``tables``, one dict per agent, keeps an agent's value column
    per distinct valuation across profiles."""
    profile = tuple(profile)
    held = env._facts.get("welfare")
    if held is not None and held[0] == profile:
        return held[1]
    if len(profile) != env.n:
        raise ValueError("profile and allocation lengths differ")
    columns = []
    for i, (v, tokens) in enumerate(zip(profile, fact(env, "tokens"))):
        col = None if tables is None else tables[i].get(v)
        if col is None:
            values = {tok: value(v, tok) for tok in dict.fromkeys(tokens)}
            col = tuple(map(values.__getitem__, tokens))
            if tables is not None:
                tables[i][v] = col
        columns.append(col)
    column = tuple(map(math.fsum, zip(*columns))) if columns else (0.0,) * len(env._facts["feasible"])
    env._facts["welfare"] = (profile, column)
    return column


def opt(env: Environment, profile: Sequence[Valuation], cap: int = DEFAULT_CAP) -> Allocation:
    """Welfare-maximizing feasible allocation; ties go to the first maximizer
    in lexicographic enumeration order."""
    feasible = enumerate_feasible(env, cap)
    return feasible[_first_max(_welfare_column(env, profile))]


# environment kinds whose outcomes are item masks, merged agent-wise by
# union; each one's DFS state is the union of an allocation's masks
_UNION_ENVS = (CombinatorialAuctionEnv, MatroidEnv, SingleItemEnv)


# ---------------------------------------------------------------------------
# Exchange-compatible families
# ---------------------------------------------------------------------------

FAMILY_KINDS = (
    "canonical_contraction",
    "item_disjoint",
    "knapsack_threshold",
    "pip_threshold",
    "product",
)


@dataclass(frozen=True)
class ExchangeFamily:
    """A family (F_x) of outcome sets that are exchange compatible with x:
    swapping any single agent's member outcome into x stays feasible."""

    kind: str
    env: Environment
    components: tuple["ExchangeFamily", ...] = ()

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown exchange family kind {self.kind}")

    def members_key(self, x: Allocation):
        """What the exchange set at a feasible x depends on: ``_keys``
        applied to x and its DFS state.  The set is built from the key alone
        (``_members_of``), so equal keys give equal member lists and callers
        may take one list per key.  An infeasible x has no exchange set."""
        if not self.env.is_feasible(x):
            raise ValueError(f"no exchange set at the infeasible allocation {x}")
        return self._keys((x,))[0]

    def _keys(self, allocs=None) -> list:
        """The ``members_key`` of each of ``allocs``, the one place a kind
        reads an allocation, from its DFS state (folded from each allocation
        by ``_dfs_state``): a knapsack's running sum, each packing row's
        nonzero load terms, or an item mask.  Without ``allocs``, the keys
        of the kept feasible list, from the states kept beside it and a
        packing's kept ``"loads"``.  A contraction's key is the allocation
        itself, and a product's holds each market's key of its projection."""
        env, kept = self.env, allocs is None
        if kept:
            allocs = env._facts["feasible"]
        states = fact(env, "states") if kept else (_dfs_state(env, y) for y in allocs)
        if self.kind == "knapsack_threshold":
            return [s < 0.5 - TOL for s in states]  # a load within TOL of 1/2 is closed
        if self.kind == "pip_threshold":
            loads = fact(env, "loads") if kept else map(env.row_loads, states)
            return [tuple(l <= 0.5 + TOL for l in load) for load in loads]
        if self.kind == "item_disjoint":
            if not isinstance(env, _UNION_ENVS):
                raise TypeError(f"union merge undefined for environment kind {env.kind}")
            return list(states)
        if self.kind == "product":
            assert isinstance(env, ProductEnv)
            return [
                tuple(fam.members_key(env.project(y, ell)) for ell, fam in enumerate(self.components))
                for y in allocs
            ]
        return list(allocs)

    def members(self, x: Allocation, cap: int = DEFAULT_CAP) -> list[Allocation]:
        """The exchange set at x in the environment's list order.  A closed
        knapsack set's one member, the listed null allocation (each agent's
        grid quantity 0), is built without enumerating."""
        key = self.members_key(x)
        env = self.env
        if self.kind == "knapsack_threshold" and not key:
            return [tuple(env.agent_outcomes(i)[0] for i in range(env.n))]
        return list(map(enumerate_feasible(env, cap).__getitem__, self._members_of(key, cap)))

    def _members_of(self, key, cap: int) -> list[int]:
        """The positions on the kept feasible list of the exchange set of
        ``members_key`` value ``key``: the allocations meeting the kind's
        condition.  A product member is a listed allocation whose every
        market projection is a member of that market's component family at
        the component's key.  Every kind's condition is downward closed, and
        the environment is, so filtering the list gives exactly the
        allocations a DFS pruned by it would.

        An item-disjoint member's mask s lies inside the listed items
        outside the key, and both s and key | s are listed, so the set is
        read off ``"item_positions"`` at each such submask, walked from the
        largest down.  When those submasks outnumber the listed masks, each
        listed mask is tested instead; both give the same positions."""
        # A closed exchange set is the singleton {all-null} rather than the
        # empty set: the residual optimum is 0 either way, the null member
        # is trivially exchange compatible, and products of per-market
        # families then decompose market by market.  The null allocation
        # is listed first, as every null token sorts first.
        env = self.env
        feasible = enumerate_feasible(env, cap)
        if self.kind == "knapsack_threshold":
            return list(range(len(feasible) if key else 1))

        if self.kind == "pip_threshold":
            bounds = [(1.0 if open_ else 0.0) + TOL for open_ in key]
            return [k for k, load in enumerate(fact(env, "loads")) if all(map(le, load, bounds))]

        if self.kind == "canonical_contraction":
            # x merged over a member is a listed z agreeing with x on
            # supp(x); clearing those slots gives the member back, read off
            # the list so that a cleared slot holds the listed null token
            supp = support(key)
            positions = fact(env, "positions")
            return [
                positions[tuple(NULL if xi != NULL else zi for xi, zi in zip(key, z))]
                for z in feasible
                if all(z[i] == key[i] for i in supp)
            ]

        if self.kind == "item_disjoint":
            # the union of disjoint feasible x and y is feasible exactly when
            # its item set is some feasible allocation's item set; members
            # are taken per mask, then put back in list order
            masks = fact(env, "item_positions")
            comp = fact(env, "item_union") & ~key
            if 1 << comp.bit_count() > len(masks):
                return sorted(itertools.chain.from_iterable(
                    ks for m, ks in masks.items() if not m & key and key | m in masks
                ))
            found, s = [], comp
            while True:
                if key | s in masks:
                    ks = masks.get(s)
                    if ks is not None:
                        found += ks
                if not s:
                    return sorted(found)
                s = (s - 1) & comp

        per_market = [
            (set(fam._members_of(k, cap)), fact(fam.env, "positions"))
            for fam, k in zip(self.components, key)
        ]
        return [
            k
            for k, y in enumerate(feasible)
            if all(positions[env.project(y, ell)] in ks for ell, (ks, positions) in enumerate(per_market))
        ]


def default_family(env: Environment) -> ExchangeFamily:
    """The family each pricing construction is certified against.  On a
    single item the item-disjoint set is the whole list while the item is
    unsold and only the null allocation once it is held."""
    if isinstance(env, KnapsackEnv):
        return ExchangeFamily("knapsack_threshold", env)
    if isinstance(env, PipEnv):
        return ExchangeFamily("pip_threshold", env)
    if isinstance(env, _UNION_ENVS):
        return ExchangeFamily("item_disjoint", env)
    if isinstance(env, ProductEnv):
        return ExchangeFamily(
            "product", env, components=tuple(default_family(m) for m in env.markets)
        )
    return ExchangeFamily("canonical_contraction", env)


def residual_opt(
    env: Environment,
    profile: Sequence[Valuation],
    family: ExchangeFamily,
    x: Allocation,
    cap: int = DEFAULT_CAP,
) -> Allocation:
    """Welfare-maximizing member of the exchange set at x, which always
    holds the null allocation; the first maximum within TOL in list order."""
    at = family._members_of(family.members_key(x), cap)
    column = _welfare_column(env, profile)
    return enumerate_feasible(env, cap)[at[_first_max(map(column.__getitem__, at))]]


# ---------------------------------------------------------------------------
# Binary single-parameter helpers (greedy, critical values, permeability)
# ---------------------------------------------------------------------------


def is_binary_env(env: Environment) -> bool:
    """True when every agent has exactly one non-null outcome (win or lose)."""
    return None not in fact(env, "binary_tokens")


def _binary_token(env: Environment, i: int):
    """The non-null outcome of agent i in a binary or singleton-element env."""
    tok = fact(env, "binary_tokens")[i]
    if tok is None:
        raise TypeError("environment is not binary single-parameter")
    return tok


def agent_value(env, profile, i) -> float:
    return value(profile[i], _binary_token(env, i))


def greedy(env: Environment, profile: Sequence[Valuation], fixed: Optional[Allocation] = None):
    """Greedy allocation by non-increasing value, ties by agent index.

    For binary single-parameter environments, scans agents and accepts when
    feasible together with ``fixed`` and prior acceptances (zero-value agents
    are skipped).  For multi-element matroid environments, repeatedly adds the
    element with the largest marginal gain.
    """
    # the binary outcome is stored per fixed allocation, so it is a tuple
    fixed = env.null_allocation() if fixed is None else tuple(fixed)
    if is_binary_env(env):
        return _greedy_binary(env, [agent_value(env, profile, i) for i in range(env.n)], fixed)
    if isinstance(env, MatroidEnv):
        return _greedy_matroid_elements(env, profile, fixed)
    raise TypeError(f"greedy undefined for environment kind {env.kind}")


def _ranking(vals: Sequence[float], fixed: Allocation) -> tuple:
    """The agents the binary greedy scan tries, in its order: those null in
    ``fixed`` with a value above TOL, by (-value, index)."""
    return tuple(
        # a stable sort in reverse keeps equal values in index order
        i for i in sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
        if fixed[i] == NULL and not vals[i] <= TOL
    )


def _greedy_binary(env: Environment, vals: Sequence[float], fixed: Allocation) -> Allocation:
    """The binary greedy scan on the agents' values ``vals``, which it reads
    only through their ranking; the environment's store keeps the outcome
    per (fixed, ranking)."""
    ranking = _ranking(vals, fixed)
    outcomes = fact(env, "greedy")
    out = outcomes.get((fixed, ranking))
    if out is None:
        out = outcomes[fixed, ranking] = _greedy_scan(env, ranking, fixed)
    return out


def _dfs_state(env: Environment, alloc: Allocation):
    """``alloc``'s DFS state: its allocated agents joined to ``start_state``
    one ``extend`` at a time; None when it is infeasible."""
    state = env.start_state
    for i in support(alloc):
        if state is not None:
            state = env.extend(state, i, alloc[i])
    return state


def _greedy_scan(env: Environment, ranking: tuple, fixed: Allocation) -> Allocation:
    chosen, state = list(env.null_allocation()), _dfs_state(env, fixed)
    for i in ranking:
        tok = _binary_token(env, i)
        nxt = None if state is None else env.extend(state, i, tok)
        if nxt is not None:
            state, chosen[i] = nxt, tok
    return tuple(chosen)


def _greedy_matroid_elements(env: MatroidEnv, profile, fixed: Allocation) -> Allocation:
    chosen = list(env.null_allocation())
    blocked = env.union_mask(fixed)
    while True:
        best_gain, best_pick = TOL, None
        for i in range(env.n):
            if fixed[i] != NULL:
                continue
            cur = value(profile[i], chosen[i])
            for e in env.elements[i]:
                b = 1 << e
                if chosen[i] & b or blocked & b:
                    continue
                if not env.matroid.independent(env.union_mask(tuple(chosen)) | blocked | b):
                    continue
                gain = value(profile[i], chosen[i] | b) - cur
                if gain > best_gain + TOL:
                    best_gain, best_pick = gain, (i, b)
        if best_pick is None:
            return tuple(chosen)
        i, b = best_pick
        chosen[i] |= b


@dataclass(frozen=True)
class AllocationRule:
    """Named allocation rule; ``run`` maps (env, profile) to an allocation."""

    kind: str  # opt_bruteforce | greedy_by_value | fractional_lp

    def run(self, env, profile, fixed: Optional[Allocation] = None, cap: int = DEFAULT_CAP):
        if self.kind == "opt_bruteforce":
            if fixed is None:
                return opt(env, profile, cap)
            return contracted_opt(env, profile, fixed, cap)
        if self.kind == "greedy_by_value":
            return greedy(env, profile, fixed)
        if self.kind == "fractional_lp":
            sol = fractional_opt_config_lp(env, profile)
            integral = sol.integral_allocation()
            if integral is None:
                raise ValueError("fractional LP optimum is not integral")
            return integral
        raise ValueError(f"unknown allocation rule kind {self.kind}")


OPT_RULE = AllocationRule("opt_bruteforce")
GREEDY_RULE = AllocationRule("greedy_by_value")


def contracted_opt(env, profile, fixed: Allocation, cap: int = DEFAULT_CAP) -> Allocation:
    """OPT over agents unallocated in ``fixed``, jointly feasible with it
    (first maximizer in enumeration order; zero-value agents stay null)."""
    fam = ExchangeFamily("canonical_contraction", env)
    return residual_opt(env, profile, fam, fixed, cap)


def _check_critical_rule(rule: AllocationRule) -> None:
    if rule.kind not in (OPT_RULE.kind, GREEDY_RULE.kind):
        raise ValueError(f"critical values undefined for rule {rule.kind}")


def critical_value(
    rule: AllocationRule,
    env: Environment,
    profile_others: Sequence[Valuation],
    agent: int,
    fixed: Allocation,
    cap: int = DEFAULT_CAP,
):
    """Exact infimum bid at which ``agent`` wins under the rule in the
    subinstance holding ``fixed`` allocated; UNAVAILABLE when no bid wins."""
    tok = _binary_token(env, agent)
    _check_critical_rule(rule)
    if fixed[agent] != NULL or not env.is_feasible(replace_at(fixed, agent, tok)):
        return UNAVAILABLE
    vals = [0.0 if j == agent else agent_value(env, profile_others, j) for j in range(env.n)]
    return _critical_value(rule, env, vals, agent, fixed, cap)


def _critical_value(rule, env, vals: Sequence[float], agent: int, fixed: Allocation, cap) -> float:
    """The critical value of ``agent`` against the other agents' values
    ``vals`` (the agent's own entry is ignored) with ``fixed`` allocated;
    math.inf when no bid wins.

    Under OPT it is the externality read off the kept feasible list: among
    the sets holding ``fixed``, the others' best value in one leaving the
    agent out minus their best in one holding the agent.  Greedy is monotone,
    so its critical value is a threshold (Myerson 1981): greedy decides the
    others ranked above the agent without it, and what they take only grows
    down the ranking, so the agent wins when ranked above the first other
    after whose turn it no longer fits, whose value one scan reads."""
    if rule.kind == OPT_RULE.kind:
        held = support(fixed)
        others = [j for j in range(env.n) if j != agent and fixed[j] == NULL]
        without = with_ = -math.inf
        for x in enumerate_feasible(env, cap):
            if held and any(x[j] == NULL for j in held):
                continue
            w = math.fsum([vals[j] for j in others if x[j] != NULL])
            if x[agent] == NULL:
                without = max(without, w)
            else:
                with_ = max(with_, w)
        return math.inf if with_ == -math.inf else max(0.0, without - with_)
    tok = _binary_token(env, agent)
    state, threshold = _dfs_state(env, fixed), math.inf
    for j in _ranking(vals, replace_at(fixed, agent, tok)):
        if state is None or env.extend(state, agent, tok) is None:
            return threshold
        nxt = env.extend(state, j, _binary_token(env, j))
        state, threshold = state if nxt is None else nxt, vals[j]
    return 0.0 if state is not None and env.extend(state, agent, tok) is not None else threshold


def agent_classes(env: Environment, rule: AllocationRule, cap: int = DEFAULT_CAP):
    """The agents in classes of interchangeable ones, in agent order.  Under
    OPT, i and j are interchangeable when swapping them maps the kept list's
    support sets onto themselves, checked on the list; the relation is
    transitive, as (i k) = (i j)(j k)(i j).  Greedy breaks ties by agent
    index, so under it each agent is a class of its own."""
    if rule.kind != OPT_RULE.kind:
        return [(i,) for i in range(env.n)]
    sets = frozenset(sum(1 << j for j in support(x)) for x in enumerate_feasible(env, cap))

    def swappable(i, j):
        flip = 1 << i | 1 << j
        return all((m ^ flip if (m >> i ^ m >> j) & 1 else m) in sets for m in sets)

    classes = []
    for i in range(env.n):
        if not any(i in c for c in classes):
            classes.append((i, *(j for j in range(i + 1, env.n) if swappable(i, j))))
    return classes


def bid_vector_count(classes, grid_size: int) -> int:
    """The bid vectors non-decreasing within each class: one per orbit."""
    return math.prod(math.comb(grid_size + len(c) - 1, len(c)) for c in classes)


def _bid_vectors(classes, grid):
    """Each bid vector non-decreasing within each class, with its bids per
    class; the vector is one list, refilled in place."""
    bids = [0.0] * sum(map(len, classes))
    per_class = (itertools.combinations_with_replacement(grid, len(c)) for c in classes)
    for parts in itertools.product(*per_class):
        for c, part in zip(classes, parts):
            for i, b in zip(c, part):
                bids[i] = b
        yield bids, parts


def permeability(
    env: Environment,
    rule: AllocationRule,
    value_grid: Sequence[float],
    cap: int = DEFAULT_CAP,
):
    """Largest observed ratio of summed critical values of a feasible set to
    the rule's declared welfare, over all grid bid vectors.  A lower bound on
    the continuum quantity; at least 1 by convention.  Returns math.inf when
    some bid vector has zero declared welfare but positive critical-value
    mass.  One vector per orbit of ``agent_classes`` is scanned: a swap
    within a class maps each ``fsum`` here and in the OPT critical value to
    an ``fsum`` of the same multiset, which is correctly rounded alike."""
    if not is_binary_env(env):
        raise TypeError("permeability requires a binary single-parameter environment")
    _check_critical_rule(rule)
    grid = sorted(set(float(g) for g in value_grid))
    supports = [support(x) for x in enumerate_feasible(env, cap)]
    classes = agent_classes(env, rule, cap)
    total = bid_vector_count(classes, len(grid))
    if total > cap:
        raise CapExceeded(total, cap, "bid vectors")
    null = env.null_allocation()
    # an agent's critical value depends only on its class and the multiset
    # of the other agents' bids in each class, and the numerator only on the
    # critical values
    tau_cache: dict = {}
    numerators: dict = {}
    taus = [0.0] * env.n
    gamma = 1.0
    for bids, parts in _bid_vectors(classes, grid):
        if rule.kind == OPT_RULE.kind:
            declared = max((math.fsum([bids[j] for j in s]) for s in supports), default=0.0)
        else:
            declared = math.fsum([bids[i] for i in support(_greedy_binary(env, bids, null))])
        for k, (c, part) in enumerate(zip(classes, parts)):
            for p, i in enumerate(c):
                key = (k, parts[:k] + (part[:p] + part[p + 1 :],) + parts[k + 1 :])
                t = tau_cache.get(key)
                if t is None:
                    t = tau_cache[key] = _critical_value(rule, env, bids, i, null, cap)
                taus[i] = t
        # rounded division by a positive float is monotone, so the largest
        # numerator gives the largest ratio
        vec = tuple(taus)
        num = numerators.get(vec)
        if num is None:
            num = numerators[vec] = max(
                (math.fsum([taus[i] for i in s]) for s in supports), default=0.0
            )
        if num > TOL:
            if declared <= TOL:
                return math.inf
            gamma = max(gamma, num / declared)
    return gamma


# ---------------------------------------------------------------------------
# Knapsack dynamic program
# ---------------------------------------------------------------------------


def knapsack_dp(env: KnapsackEnv, profile: Sequence[Valuation]) -> Allocation:
    """Exact optimum for threshold valuations, by a DP over the
    environment's DFS state, the running total, one agent at a time.  An
    agent is served at its demand, the first grid quantity its valuation
    pays for that ``extend`` admits, or not at all.  Each reachable total
    keeps the first (value, allocation) best within TOL, and the result is
    the first best allocation."""
    if not isinstance(env, KnapsackEnv):
        raise TypeError("knapsack_dp requires a knapsack environment")
    null, *grid = env.agent_outcomes(0)  # the grid every agent shares
    start = env.start_state
    # each reachable running total -> its first (value, allocation) best within TOL
    dp = {start: (0.0, ())}
    for i, v in enumerate(profile):
        if not isinstance(v, ThresholdValuation):
            raise TypeError("knapsack_dp requires threshold valuations")
        demand = next((q for q in grid if value(v, q) and env.extend(start, i, q) is not None), None)
        moves = ((0.0, null),) if demand is None else ((0.0, null), (value(v, demand), demand))
        nxt: dict = {}
        for total, (w, alloc) in dp.items():
            for gain, q in moves:
                # a null outcome keeps the total, as the DFS keeps its state
                state = total if q == null else env.extend(total, i, q)
                cand = w + gain
                if state is not None and (state not in nxt or cand > nxt[state][0] + TOL):
                    nxt[state] = (cand, alloc + (q,))
        dp = nxt
    kept = list(dp.values())
    return kept[_first_max(w for w, _alloc in kept)][1]


# ---------------------------------------------------------------------------
# Configuration LP for combinatorial auctions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal bundle weights from the configuration LP."""

    env: CombinatorialAuctionEnv
    weights: tuple[tuple[int, int, float], ...]  # (agent, bundle mask, weight)
    objective: float

    def integral_allocation(self) -> Optional[Allocation]:
        alloc = [NULL] * self.env.n
        for a, m, w in self.weights:
            if w > 1.0 - 1e-6:
                alloc[a] = m
            elif w > 1e-6:
                return None
        out = tuple(alloc)
        return out if self.env.is_feasible(out) else None


def fractional_opt_config_lp(
    env: CombinatorialAuctionEnv, profile: Sequence[Valuation]
) -> FractionalSolution:
    """Solve max sum v_i(S) x_{i,S} subject to per-agent and per-item unit
    caps over all (agent, bundle) pairs, by dense primal simplex."""
    if env.items > 8:
        raise CapExceeded(env.items, 8, "configuration LP items")
    if env.n > 6:
        raise CapExceeded(env.n, 6, "configuration LP agents")
    bundles = [m for m in range(1, 1 << env.items)]
    variables = [(i, m) for i in range(env.n) for m in bundles]
    c = np.array([value(profile[i], m) for i, m in variables])
    rows = []
    rhs = []
    for i in range(env.n):
        rows.append([1.0 if vi == i else 0.0 for vi, _ in variables])
        rhs.append(1.0)
    for j in range(env.items):
        rows.append([1.0 if m >> j & 1 else 0.0 for _, m in variables])
        rhs.append(1.0)
    x, objective = _simplex_max(np.array(rows), np.array(rhs), c)
    weights = tuple(
        (i, m, float(x[k])) for k, (i, m) in enumerate(variables) if x[k] > 1e-9
    )
    return FractionalSolution(env=env, weights=weights, objective=float(objective))


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int = 100_000):
    """Primal simplex with Bland's rule for max c.x s.t. A x <= b, x >= 0,
    b >= 0 (the slack basis is feasible, so no phase one is needed)."""
    m, n = A.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -c
    basis = list(range(n, n + m))
    piv_tol = 1e-9
    for _ in range(max_iter):
        enter = -1
        for j in range(n + m):  # Bland: lowest eligible index
            if tableau[m, j] < -piv_tol:
                enter = j
                break
        if enter < 0:
            break
        leave, best_ratio = -1, math.inf
        for r in range(m):
            if tableau[r, enter] > piv_tol:
                ratio = tableau[r, -1] / tableau[r, enter]
                if ratio < best_ratio - piv_tol or (
                    abs(ratio - best_ratio) <= piv_tol
                    and (leave < 0 or basis[r] < basis[leave])
                ):
                    leave, best_ratio = r, ratio
        if leave < 0:
            raise ArithmeticError("LP unbounded (cannot happen with unit caps)")
        piv = tableau[leave, enter]
        tableau[leave, :] /= piv
        for r in range(m + 1):
            if r != leave and abs(tableau[r, enter]) > 0:
                tableau[r, :] -= tableau[r, enter] * tableau[leave, :]
        basis[leave] = enter
    else:
        raise ArithmeticError(f"simplex did not converge within {max_iter} iterations")
    x = np.zeros(n + m)
    for r, bi in enumerate(basis):
        x[bi] = tableau[r, -1]
    return x[:n], tableau[m, -1]
