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
from typing import Optional, Sequence

from .core import (
    DEFAULT_CAP,
    NULL,
    TOL,
    UNAVAILABLE,
    Allocation,
    Environment,
    Valuation,
    _first_max,
    enumerate_feasible,
    replace_at,
)
from .oracle import ExchangeFamily, _listed_welfare, fact
from .pricing import BalanceParams, PricingRule

ORDER_MODES = ("declared", "all")


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
    placed agent a with y_a non-null, which steps to (y - a, w - a) and adds
    p_a(w_a | y - a), and each placed agent a with y_a null and w_a non-null,
    which steps to (y, w - a) and adds p_a(w_a | y).  A null outcome adds
    0.0 unpriced.  UNAVAILABLE terms count 0 in the sum but are flagged.

    States are keyed by the positions of y and w on the environment's kept
    list, and ``cleared[a][k]`` is the position of entry k with agent a's
    outcome cleared: environments are downward closed and every member of
    an exchange set is listed, so every state is."""

    def __init__(self, env: Environment, prices: PricingRule):
        self.prices = prices
        self.feasible = feasible = fact(env, "feasible")
        self.positions = positions = fact(env, "positions")
        self.size = len(feasible)
        self.cleared = [
            [
                k if t == NULL else positions[replace_at(y, a, NULL)]
                for k, (y, t) in enumerate(zip(feasible, toks))
            ]
            for a, toks in enumerate(fact(env, "tokens"))
        ]
        # per sign (min, max): state key -> signed value, and the flagged keys
        self._values: tuple = ({}, {})
        self._flagged: tuple = (set(), set())

    def _solve(self, py: int, pw: int, maximize: bool) -> float:
        """The signed value min over orders of sign·Σ p of state (py, pw),
        its missing sub-states solved first; the first candidate within TOL
        of the minimum is kept, and the empty state is 0.0."""
        values, flagged = self._values[maximize], self._flagged[maximize]
        size, feasible, cleared, price = self.size, self.feasible, self.cleared, self.prices.price
        sign = -1.0 if maximize else 1.0
        best, best_key, best_bad = math.inf, -1, False
        for a, (y_a, w_a) in enumerate(zip(feasible[py], feasible[pw])):
            if y_a != NULL:
                cy = cleared[a][py]
            elif w_a != NULL:
                cy = py
            else:
                continue
            cw = cleared[a][pw]
            sub = cy * size + cw
            src = values.get(sub)
            if src is None:
                src = self._solve(cy, cw, maximize)
            p = 0.0 if w_a == NULL else price(a, w_a, feasible[cy])
            if p is UNAVAILABLE:
                if src < best - TOL:
                    best, best_key, best_bad = src, sub, True
            else:
                cand = src + sign * p
                if cand < best - TOL:
                    best, best_key, best_bad = cand, sub, False
        if best_key < 0:
            best = 0.0
        key = py * size + pw
        values[key] = best
        if best_bad or best_key in flagged:
            flagged.add(key)
        return best

    def extremal(self, x: Allocation, z: Allocation, maximize: bool):
        """Min (or max) over all agent orders of the price sum for outcomes z
        conditioned on x-prefixes: (value, saw_unavailable).  ``witness``
        gives an order that attains it."""
        py, pw = self.positions[x], self.positions[z]
        key = py * self.size + pw
        v = self._values[maximize].get(key)
        if v is None:
            v = self._solve(py, pw, maximize)
        return (-v if maximize else v), key in self._flagged[maximize]

    def witness(self, x: Allocation, z: Allocation, maximize: bool) -> tuple:
        """The n-agent order whose sum ``extremal`` returns: the DP's
        first-within-TOL scan replayed along one path down from (x, z), last
        arrival first.  An inert agent, null in both y and w, has the current
        state's own value as its candidate, so it never moves the scan past
        an equal live candidate."""
        self.extremal(x, z, maximize)
        values = self._values[maximize]
        size, feasible, cleared, price = self.size, self.feasible, self.cleared, self.prices.price
        sign = -1.0 if maximize else 1.0
        py, pw = self.positions[x], self.positions[z]
        order = []
        agents = list(range(len(x)))
        while agents:
            here = values[py * size + pw]
            y, w = feasible[py], feasible[pw]
            best, best_i, best_state = math.inf, -1, (py, pw)
            for i in agents:
                y_i, w_i = y[i], w[i]
                if y_i != NULL:
                    cy = cleared[i][py]
                elif w_i != NULL:
                    cy = py
                else:
                    if here < best - TOL:
                        best, best_i, best_state = here, i, (py, pw)
                    continue
                cw = cleared[i][pw]
                p = 0.0 if w_i == NULL else price(i, w_i, feasible[cy])
                cand = values[cy * size + cw] + (0.0 if p is UNAVAILABLE else sign * p)
                if cand < best - TOL:
                    best, best_i, best_state = cand, i, (cy, cw)
            order.append(best_i)
            agents.remove(best_i)
            py, pw = best_state
        order.reverse()
        return tuple(order)


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


def _record(report: BalanceReport, x, lhs_a, bad, rhs_a, rhs_b, members, score, witness):
    """Add x's condition (a) and its exchange set's condition-(b) score to
    the report; ``witness(z, maximize)`` gives the order of each recorded
    entry, replayed only for the entries the report records."""
    report.checked_allocations += 1
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
    report.checked_members += len(members)
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
    order: Optional[Sequence[int]],
    order_mode: str,
    cap: int,
) -> BalanceReport:
    """One walk over the feasible allocations.  Exchange members, their
    residual optimum and the condition bounds are taken once per
    ``members_key``; the reference allocation's welfare and each residual
    optimum are read off the environment's welfare column.  The feasible
    list and every exchange set of a listed x hold the null allocation, so
    none is empty.

    A static rule's terms do not depend on the prefix, so its walk reads
    each sum off one column, the term table of the whole list conditioned
    on the null allocation in agent order, and scores condition (b), which
    then depends on x only through its exchange set, once per key.
    Rounding is monotone for ``rhs_b - lhs`` and for ``lhs / residual_w``
    with ``residual_w`` positive, so the largest member sum gives the
    smallest slack and the largest ratio.  A key with a flagged member, or
    whose bound breaks, is scored member by member from the column, which
    lists the violations in member order; every member is listed, as the
    family must belong to ``env`` and every environment is downward closed.

    A dynamic rule's all-orders sums share one ``_OrderSums`` memo across
    the walk; its declared-order sums come from one term table per x over
    x and its exchange set."""
    if order_mode not in ORDER_MODES:
        raise ValueError(f"unknown order mode {order_mode}")
    if family.env != env:
        raise ValueError("the exchange family belongs to another environment")
    order = tuple(range(env.n)) if order is None else tuple(order)
    feasible = enumerate_feasible(env, cap)
    (alg_w,) = _listed_welfare(env, profile, [alg_alloc])
    report = BalanceReport(
        passed=True,
        params=params,
        condition_a_min_slack=math.inf,
        condition_b_min_slack=math.inf,
        order_mode=order_mode,
    )
    # members_key -> [members, residual optimum's welfare, rhs_a, rhs_b, static score]
    families: dict = {}

    def exchange_set(x):
        fam_key = family.members_key(x)
        fam = families.get(fam_key)
        if fam is None:
            members = family.members(x, cap)
            ws = _listed_welfare(env, profile, members)
            residual_w = ws[_first_max(ws)]
            rhs_a = (alg_w - residual_w) / params.alpha
            if params.weak:
                rhs_b = params.beta1 * residual_w + params.beta2 * alg_w
            else:
                rhs_b = params.beta * residual_w
            fam = families[fam_key] = [members, residual_w, rhs_a, rhs_b, None]
        return fam

    def declared(z, maximize):
        return order

    if prices.static:
        col, flags = _term_sums(prices, range(env.n), env.null_allocation(), feasible)
        positions = fact(env, "positions")
        for k, x in enumerate(feasible):
            members, residual_w, rhs_a, rhs_b, score = fam = exchange_set(x)
            if score is None:
                at = list(map(positions.__getitem__, members))
                top = max(map(col.__getitem__, at))
                if rhs_b - top >= -TOL and not any(map(flags.__getitem__, at)):
                    score = _score_members([(None, top, False)], rhs_b, residual_w)
                else:
                    scored = ((z, col[p], flags[p]) for z, p in zip(members, at))
                    score = _score_members(scored, rhs_b, residual_w)
                fam[4] = score
            _record(report, x, col[k], flags[k], rhs_a, rhs_b, members, score, declared)
    elif order_mode == "all":
        sums = _OrderSums(env, prices)
        for x in feasible:
            members, residual_w, rhs_a, rhs_b, _ = exchange_set(x)
            lhs_a, bad = sums.extremal(x, x, False)
            scored = ((z, *sums.extremal(x, z, True)) for z in members)
            score = _score_members(scored, rhs_b, residual_w)
            _record(report, x, lhs_a, bad, rhs_a, rhs_b, members, score, partial(sums.witness, x))
    else:
        for x in feasible:
            members, residual_w, rhs_a, rhs_b, _ = exchange_set(x)
            (lhs_a, *lhs_b), (bad, *bad_b) = _term_sums(prices, order, x, [x, *members])
            score = _score_members(zip(members, lhs_b, bad_b), rhs_b, residual_w)
            _record(report, x, lhs_a, bad, rhs_a, rhs_b, members, score, declared)
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
    order: Optional[Sequence[int]] = None,
    order_mode: str = "all",
    cap: int = DEFAULT_CAP,
) -> BalanceReport:
    """Certify the strong-form conditions at (alpha, beta)."""
    if params.weak:
        raise ValueError("strong-form check requires beta, not beta1/beta2")
    return _check(env, profile, prices, alg_alloc, family, params, order, order_mode, cap)


def check_weakly_balanced(
    env,
    profile,
    prices,
    alg_alloc,
    family,
    params: BalanceParams,
    order: Optional[Sequence[int]] = None,
    order_mode: str = "all",
    cap: int = DEFAULT_CAP,
) -> BalanceReport:
    """Certify the weak-form conditions at (alpha, beta1, beta2)."""
    if not params.weak:
        raise ValueError("weak-form check requires beta1 and beta2")
    return _check(env, profile, prices, alg_alloc, family, params, order, order_mode, cap)


def minimal_beta(
    env,
    profile,
    prices,
    alg_alloc,
    family,
    alpha: float,
    order: Optional[Sequence[int]] = None,
    order_mode: str = "all",
    cap: int = DEFAULT_CAP,
) -> float:
    """Smallest beta for which the strong upper-bound condition holds, given
    that the lower-bound condition already holds at alpha: the largest ratio
    of an exchange member's price sum to the residual optimum (0/0 counts as
    satisfied; positive/0 is unbounded)."""
    report = _check(
        env, profile, prices, alg_alloc, family, BalanceParams(alpha=alpha, beta=1.0),
        order, order_mode, cap,
    )
    if any(v[0] == "b" for v in report.structural_violations):
        raise ValueError("unavailable entry in a condition sum")
    return report.max_b_ratio
