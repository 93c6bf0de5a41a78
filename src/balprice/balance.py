"""Certification of the two price-balance conditions by exhaustive
enumeration against the allocation oracles.

For every feasible allocation x, condition (a) lower-bounds the price sum of
x itself against the welfare the reference rule loses to the exchange set at
x, and condition (b) upper-bounds the price sum of every member of that
exchange set.  Condition sums follow a declared agent indexing; the checker
can also quantify over all indexings, which it does with a min/max subset
dynamic program over predecessor sets rather than a factorial loop.  A DP
state is fixed by the conditioning prefix and the outcomes priced so far,
so one memo per sign serves every sum of a walk and computes each state
once.
"""

from __future__ import annotations

import math
from functools import partial
from operator import add
from dataclasses import dataclass, field
from typing import Sequence

from .core import (
    DEFAULT_CAP,
    NULL,
    TOL,
    UNAVAILABLE,
    Allocation,
    Environment,
    Valuation,
    _check_order,
    _first_max,
    enumerate_feasible,
    welfare,
)
from .oracle import ExchangeFamily, _positions_by, _welfare_column, fact
from .pricing import BalanceParams, PricingRule

# the order kinds the certifier takes besides a permutation
CHECK_ORDER_KINDS = ("all",)


@dataclass
class BalanceReport:
    passed: bool
    params: BalanceParams
    condition_a_min_slack: float
    condition_b_min_slack: float
    witnesses: list = field(default_factory=list)
    structural_violations: list = field(default_factory=list)
    checked_allocations: int = 0
    checked_members: int = 0
    order_mode: str = "declared"
    # largest exchange member's price sum over its residual optimum (0/0 is
    # satisfied, positive/0 is inf): the smallest beta meeting condition (b);
    # not part of the serialized result
    max_b_ratio: float = 0.0

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "params": {
                "alpha": self.params.alpha,
                "beta": self.params.beta,
                "beta1": self.params.beta1,
                "beta2": self.params.beta2,
            },
            "condition_a_min_slack": self.condition_a_min_slack,
            "condition_b_min_slack": self.condition_b_min_slack,
            "witnesses": self.witnesses[:10],
            "structural_violations": self.structural_violations[:10],
            "checked_allocations": self.checked_allocations,
            "checked_members": self.checked_members,
            "order_mode": self.order_mode,
        }


class _OrderSums:
    """Price sums Σ_i p_i(z_i | x restricted to i's predecessors), minimized
    or maximized over agent orders by a subset DP, with one memo per sign
    shared by every (x, z) pair of a walk.

    A DP state is a pair (y, w): y is x restricted to the agents placed so
    far, w the outcomes priced so far.  Its value, its UNAVAILABLE flag and
    its first-within-TOL choice depend on nothing else, so the state recurs
    under every x extending y.  Its candidates, in agent order, are each
    placed agent a with y_a or w_a non-null (a live agent), which steps to
    (y - a, w - a) and adds p_a(w_a | y - a); y - a is y itself where y_a is
    null.  A null outcome adds 0.0 unpriced.  UNAVAILABLE terms count 0 in
    the sum but are flagged.

    States are keyed by the positions of y and w on the environment's kept
    list, and ``cleared[a][k]`` is the position of entry k with agent a's
    outcome cleared, k itself where that outcome is null: environments are
    downward closed and every member of an exchange set is listed, so every
    state is.  ``live[k]`` is the bitmask of entry k's non-null agents, and
    ``_agents`` maps each mask ``live[py] | live[pw]`` a solved state met to
    its agents in ascending order, so it holds at most one entry per state
    solved.  These three depend on the environment alone and are kept in
    its store, for every walk on it; the values are the rule's, per walk."""

    def __init__(self, env: Environment, prices: PricingRule):
        self.prices = prices
        self.feasible = fact(env, "feasible")
        self.positions = fact(env, "positions")
        self.size = len(self.feasible)
        self.cleared, self.live = fact(env, "cleared"), fact(env, "live")
        self._agents = fact(env, "live_agents")
        # per sign (min, max): state key -> signed value, and the flagged keys
        self._values: tuple = ({}, {})
        self._flagged: tuple = (set(), set())

    def _solve(self, py: int, pw: int, maximize: bool) -> tuple:
        """State (py, pw)'s signed value, min over orders of sign·Σ p, with
        its missing sub-states solved first: (value, agent, sub-state key)
        of the first candidate within TOL of the minimum, or (0.0, -1, -1)
        when no agent is live.  Solving a state again writes the same value
        and flag."""
        values, flagged = self._values[maximize], self._flagged[maximize]
        size, feasible, cleared, price = self.size, self.feasible, self.cleared, self.prices.price
        sign = -1.0 if maximize else 1.0
        mask = self.live[py] | self.live[pw]
        agents = self._agents.get(mask)
        if agents is None:
            agents = self._agents[mask] = tuple(a for a in range(mask.bit_length()) if mask >> a & 1)
        w = feasible[pw]
        best, best_a, best_key, best_bad = math.inf, -1, -1, False
        for a in agents:
            row = cleared[a]
            cy, cw = row[py], row[pw]
            sub = cy * size + cw
            src = values.get(sub)
            if src is None:
                src = self._solve(cy, cw, maximize)[0]
            w_a = w[a]
            p = 0.0 if w_a == NULL else price(a, w_a, feasible[cy])
            if p is UNAVAILABLE:
                if src < best - TOL:
                    best, best_a, best_key, best_bad = src, a, sub, True
            else:
                cand = src + sign * p
                if cand < best - TOL:
                    best, best_a, best_key, best_bad = cand, a, sub, False
        if best_key < 0:
            best = 0.0
        key = py * size + pw
        values[key] = best
        if best_bad or best_key in flagged:
            flagged.add(key)
        return best, best_a, best_key

    def extremal_at(self, py: int, at: Sequence[int], maximize: bool) -> list:
        """Min (or max) over all agent orders of the price sum for the
        outcomes listed at each position of ``at``, in that order, each
        conditioned on prefixes of the allocation listed at position py:
        (value, saw_unavailable) pairs.  ``witness`` gives an order that
        attains one."""
        values, flagged, size = self._values[maximize], self._flagged[maximize], self.size
        out = []
        for pw in at:
            key = py * size + pw
            v = values.get(key)
            if v is None:
                v = self._solve(py, pw, maximize)[0]
            out.append(((-v if maximize else v), key in flagged))
        return out

    def witness(self, x: Allocation, z: Allocation, maximize: bool) -> tuple:
        """The n-agent order whose sum ``extremal_at`` returns for x against
        z, built last arrival first along each state's own ``_solve`` choice
        down from (x, z).  An inert agent, null in both x and z, is placed
        where the first-within-TOL scan would keep it with the state's own
        value as its candidate: the lowest one left goes while its index is
        below the state's choice, and all the rest once no agent is live."""
        inert = [a for a, (x_a, z_a) in enumerate(zip(x, z)) if x_a == NULL and z_a == NULL]
        py, pw = self.positions[x], self.positions[z]
        order = []
        while True:
            _, a, sub = self._solve(py, pw, maximize)
            while inert and (a < 0 or inert[0] < a):
                order.append(inert.pop(0))
            if a < 0:
                return tuple(reversed(order))
            order.append(a)
            py, pw = divmod(sub, self.size)


def _score_members(scored, rhs_b: float, residual_w: float):
    """Condition (b) over one exchange set, given as (member, lhs,
    unavailable?) triples: (min slack, max member-sum / residual ratio,
    violations), where violations lists (member, lhs, unavailable?, slack)
    for every member that has an UNAVAILABLE entry or breaks the bound, in
    member order."""
    min_slack, max_ratio, violations = math.inf, 0.0, []
    for member, lhs, bad in scored:
        slack = rhs_b - lhs
        if slack < min_slack:
            min_slack = slack
        if lhs > TOL:
            ratio = math.inf if residual_w <= TOL else lhs / residual_w
            if ratio > max_ratio:
                max_ratio = ratio
        if bad or slack < -TOL:
            violations.append((member, lhs, bad, slack))
    return min_slack, max_ratio, violations


def _term_sums(prices: PricingRule, order: Sequence[int], x: Allocation, allocs: Sequence):
    """Σ p_i(z_i | x restricted to i's predecessors in ``order``) for each z
    of ``allocs``, with one ``price`` call per distinct non-null token of
    each agent among them: (sums, flags), where a flag marks a row holding
    an UNAVAILABLE term.  Rows add column by column from 0.0 in ``order``;
    a null or UNAVAILABLE term adds 0.0, a no-op as such a sum is never
    -0.0."""
    sums, flags = [0.0] * len(allocs), [False] * len(allocs)
    columns, y = list(zip(*allocs)), [NULL] * len(x)
    for i in order:
        toks, prefix = columns[i], tuple(y)
        terms = {tok: 0.0 if tok == NULL else prices.price(i, tok, prefix) for tok in dict.fromkeys(toks)}
        for tok, p in terms.items():
            if p is UNAVAILABLE:
                terms[tok] = 0.0
                flags = [f or t == tok for f, t in zip(flags, toks)]
        sums = list(map(add, sums, map(terms.__getitem__, toks)))
        y[i] = x[i]
    return sums, flags


def _record(report: BalanceReport, x, lhs_a, bad, rhs_a, rhs_b, members, score, witness, count=1):
    """Add x's condition (a) and its exchange set's condition-(b) score to
    the report; ``witness(z, maximize)`` gives the order of each recorded
    entry, replayed only for the entries the report records.  ``count``
    allocations of one exchange set that record nothing are added at once,
    with lhs_a their least sum."""
    report.checked_allocations += count
    slack_a = lhs_a - rhs_a
    if bad or slack_a < -TOL:
        wit_a = witness(x, False)
    if bad:
        report.structural_violations.append(("a", x, wit_a))
        report.passed = False
    if slack_a < report.condition_a_min_slack:
        report.condition_a_min_slack = slack_a
    if slack_a < -TOL:
        report.passed = False
        report.witnesses.append(("a", x, None, lhs_a, rhs_a, wit_a))

    min_b, max_ratio, violations = score
    report.checked_members += count * len(members)
    if min_b < report.condition_b_min_slack:
        report.condition_b_min_slack = min_b
    if max_ratio > report.max_b_ratio:
        report.max_b_ratio = max_ratio
    for member, lhs_b, bad, slack_b in violations:
        report.passed = False
        if bad:
            report.structural_violations.append(("b", x, member))
        if slack_b < -TOL:
            report.witnesses.append(("b", x, member, lhs_b, rhs_b, witness(member, True)))


def _check(
    env: Environment,
    profile: Sequence[Valuation],
    prices: PricingRule,
    alg_alloc: Allocation,
    family: ExchangeFamily,
    params: BalanceParams,
    order,
    cap: int,
) -> BalanceReport:
    """One walk over the feasible allocations by list position.  Each
    listed x's ``members_key`` comes from one key pass over the DFS states
    kept beside the list; exchange members (as list positions), their
    residual optimum and the condition bounds are taken once per key, each
    residual welfare read off the environment's welfare column and ALG's
    from ``welfare``, the same float.  The feasible list and every exchange
    set of a listed x hold the null allocation, so none is empty.

    A static rule's terms do not depend on the prefix, so its walk reads
    each sum off one column, the term table of the whole list conditioned
    on the null allocation in agent order.  Neither side of condition (b)
    depends on x beyond its exchange set, so the walk groups positions by
    key and scores each group once; condition (a) is one pass over the
    group's column entries.  Rounding is monotone for ``rhs_b - lhs`` and
    for ``lhs / residual_w`` with ``residual_w`` positive, so the largest
    member sum gives the smallest slack and the largest ratio.  A key with
    a flagged member, or whose bound breaks, is scored member by member
    from the column, which lists the violations in member order; every
    member is listed, as the family must belong to ``env`` and every
    environment is downward closed.  Only the entries that record a witness
    or a structural violation are expanded, in walk order.

    ``order`` is ``"all"`` for every agent indexing, or a declared one: a
    permutation, the identity for None.  A dynamic rule's all-orders sums
    share one ``_OrderSums`` memo across the walk; its declared-order sums
    come from one term table per x over x and its exchange set."""
    order = _check_order(env.n, order, CHECK_ORDER_KINDS)
    if family.env != env:
        raise ValueError("the exchange family belongs to another environment")
    feasible = enumerate_feasible(env, cap)
    alg_w = welfare(profile, alg_alloc)
    column = _welfare_column(env, profile)
    report = BalanceReport(
        passed=True,
        params=params,
        condition_a_min_slack=math.inf,
        condition_b_min_slack=math.inf,
        order_mode="all" if order == "all" else "declared",
    )
    keys = family._keys()
    groups = _positions_by(keys)
    # members_key -> (member positions, residual optimum's welfare, rhs_a, rhs_b)
    sets = {}
    for key in groups:
        at = family._members_of(key, cap)
        ws = list(map(column.__getitem__, at))
        residual_w = ws[_first_max(ws)]
        rhs_a = (alg_w - residual_w) / params.alpha
        if params.weak:
            rhs_b = params.beta1 * residual_w + params.beta2 * alg_w
        else:
            rhs_b = params.beta * residual_w
        sets[key] = (at, residual_w, rhs_a, rhs_b)

    def declared(z, maximize):
        return tuple(range(env.n)) if order == "all" else order

    if prices.static:
        col, flags = _term_sums(prices, range(env.n), env.null_allocation(), feasible)
        recorded = []  # (position, rhs_a, rhs_b, member positions, score) per expanded x
        for key, ks in groups.items():
            at, residual_w, rhs_a, rhs_b = sets[key]
            top = max(map(col.__getitem__, at))
            if rhs_b - top >= -TOL and not any(map(flags.__getitem__, at)):
                score = _score_members([(None, top, False)], rhs_b, residual_w)
            else:
                scored = ((feasible[p], col[p], flags[p]) for p in at)
                score = _score_members(scored, rhs_b, residual_w)
            # merged in the order the keys first appear, as x by x, so that
            # a signed zero lands alike; ``_record`` merges it again unchanged
            min_b, max_ratio, violations = score
            if min_b < report.condition_b_min_slack:
                report.condition_b_min_slack = min_b
            if max_ratio > report.max_b_ratio:
                report.max_b_ratio = max_ratio
            # condition (a): the least sum gives the least slack, unless a
            # NaN hides from ``min``
            lhs = list(map(col.__getitem__, ks))
            low = min(lhs)
            if (violations or any(map(flags.__getitem__, ks)) or not low - rhs_a >= -TOL
                    or any(map(math.isnan, lhs))):
                recorded += ((k, rhs_a, rhs_b, at, score) for k in ks)
            else:
                _record(report, None, low, False, rhs_a, rhs_b, at, score, declared, len(ks))
        recorded.sort()  # back in walk order
        for k, *entry in recorded:
            _record(report, feasible[k], col[k], flags[k], *entry, declared)
    elif order == "all":
        sums = _OrderSums(env, prices)
        for k, (x, key) in enumerate(zip(feasible, keys)):
            at, residual_w, rhs_a, rhs_b = sets[key]
            ((lhs_a, bad),) = sums.extremal_at(k, (k,), False)
            scored = zip(map(feasible.__getitem__, at), *zip(*sums.extremal_at(k, at, True)))
            score = _score_members(scored, rhs_b, residual_w)
            _record(report, x, lhs_a, bad, rhs_a, rhs_b, at, score, partial(sums.witness, x))
    else:
        for x, key in zip(feasible, keys):
            at, residual_w, rhs_a, rhs_b = sets[key]
            members = list(map(feasible.__getitem__, at))
            (lhs_a, *lhs_b), (bad, *bad_b) = _term_sums(prices, order, x, [x, *members])
            score = _score_members(zip(members, lhs_b, bad_b), rhs_b, residual_w)
            _record(report, x, lhs_a, bad, rhs_a, rhs_b, at, score, declared)
    if report.condition_b_min_slack == math.inf:
        report.condition_b_min_slack = 0.0  # every member's slack was NaN
    return report


def check_balanced(
    env,
    profile,
    prices,
    alg_alloc,
    family,
    params: BalanceParams,
    order="all",
    cap: int = DEFAULT_CAP,
) -> BalanceReport:
    """Certify the strong-form conditions at (alpha, beta) under ``order``:
    ``"all"`` for every agent indexing, or a declared permutation (the
    identity for None)."""
    if params.weak:
        raise ValueError("strong-form check requires beta, not beta1/beta2")
    return _check(env, profile, prices, alg_alloc, family, params, order, cap)


def check_weakly_balanced(
    env,
    profile,
    prices,
    alg_alloc,
    family,
    params: BalanceParams,
    order="all",
    cap: int = DEFAULT_CAP,
) -> BalanceReport:
    """Certify the weak-form conditions at (alpha, beta1, beta2) under
    ``order``, as ``check_balanced`` takes it."""
    if not params.weak:
        raise ValueError("weak-form check requires beta1 and beta2")
    return _check(env, profile, prices, alg_alloc, family, params, order, cap)


def minimal_beta(
    env,
    profile,
    prices,
    alg_alloc,
    family,
    alpha: float,
    order="all",
    cap: int = DEFAULT_CAP,
) -> float:
    """Smallest beta for which the strong upper-bound condition holds, given
    that the lower-bound condition already holds at alpha: the largest ratio
    of an exchange member's price sum to the residual optimum (0/0 counts as
    satisfied; positive/0 is unbounded)."""
    report = _check(
        env, profile, prices, alg_alloc, family, BalanceParams(alpha=alpha, beta=1.0),
        order, cap,
    )
    if any(v[0] == "b" for v in report.structural_violations):
        raise ValueError("unavailable entry in a condition sum")
    return report.max_b_ratio
