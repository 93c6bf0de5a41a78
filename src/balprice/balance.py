"""Certification of the two price-balance conditions by exhaustive
enumeration against the allocation oracles.

For every feasible allocation x, condition (a) lower-bounds the price sum of
x itself against the welfare the reference rule loses to the exchange set at
x, and condition (b) upper-bounds the price sum of every member of that
exchange set.  Condition sums follow a declared agent indexing; the checker
can also quantify over all indexings, which it does with a min/max subset
dynamic program over predecessor sets rather than a factorial loop.  The
DP's states are kept in layers, one per sign and priced allocation, so all
the sums of one conditioning allocation compute each state once.
"""

from __future__ import annotations

import math
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


class _PriceSums:
    """Price sums Σ_i p_i(z_i | x restricted to predecessors) for a fixed
    conditioning allocation x, minimized or maximized over agent orders by a
    subset DP (the term for an agent depends on its predecessor set only).

    A term depends on the predecessor mask only through mask & support(x).
    One term table per x serves condition (a), every member's sum and every
    witness replay: it maps (agent, outcome) to a list indexed by the prefix
    compressed to support(x) (bit r set when the r-th agent of the support
    precedes), each entry priced on first use.  A null outcome's list is
    zeros, which is what ``PricingRule.price`` returns for it.

    The all-orders DP is kept in layers, one per sign and priced allocation
    w.  Entry k of w's layer is the DP state "the support agents in
    compressed prefix k, plus every off-support agent with a non-null
    outcome in w".  Off-support agents condition no one, so placing one of
    them last steps to the layer of w with its outcome cleared, at the same
    k.  Each layer is computed once per x, and the sums of the walk share
    every layer they reach.

    A declared-order sum adds the terms in the table's ``order``.
    UNAVAILABLE entries poison the sum; they are reported as structural
    violations by the caller."""

    def __init__(
        self, prices: PricingRule, x: Allocation, n: int, order: Optional[Sequence[int]] = None
    ):
        self.prices = prices
        self.x = x
        self.n = n
        self.order = tuple(range(n)) if order is None else tuple(order)
        self.supp = 0
        # bits[i]: agent i's bit in a compressed prefix, 0 off the support
        self._bits = [0] * n
        r = 0
        for j, xj in enumerate(x):
            if xj != NULL:
                self.supp |= 1 << j
                self._bits[j] = 1 << r
                r += 1
        self._prefixes: list = [None] * (1 << r)
        self._table: dict = {}
        # per sign (min, max): priced allocation w -> its layer (dp, flag)
        self._layers: tuple = ({}, {})

    def _row(self, i: int, z_i) -> list:
        row = self._table.get((i, z_i))
        if row is None:
            row = self._table[(i, z_i)] = [0.0 if z_i == NULL else None] * len(self._prefixes)
        return row

    def _fill(self, row: list, i: int, z_i, k: int):
        y = self._prefixes[k]
        if y is None:
            y = self._prefixes[k] = tuple(
                xj if k & b else NULL for xj, b in zip(self.x, self._bits)
            )
        p = row[k] = self.prices.price(i, z_i, y)
        return p

    def declared_order(self, z: Allocation):
        """Σ p_i(z_i | x restricted to the agents before i) in the table's
        order: (sum, saw_unavailable)."""
        total, unavailable, k = 0.0, False, 0
        table, bits = self._table, self._bits
        for i in self.order:
            z_i = z[i]
            row = table.get((i, z_i)) or self._row(i, z_i)
            p = row[k]
            if p is None:
                p = self._fill(row, i, z_i, k)
            if p is UNAVAILABLE:
                unavailable = True
            else:
                total += p
            k |= bits[i]
        return total, unavailable

    def _layer(self, w: Allocation, maximize: bool):
        """w's layer of the DP on signed sums sign·Σ p: (dp, flag), each
        indexed by compressed prefix k.  A state's candidates are its agents
        in index order: support agent j steps from k ^ bit_j in this layer,
        off-support agent t from k in the layer of w with t cleared.  The
        first candidate within TOL of the minimum is kept.  UNAVAILABLE
        terms count 0 in the sum but are flagged."""
        memo = self._layers[maximize]
        layer = memo.get(w)
        if layer is not None:
            return layer
        size = len(self._prefixes)
        dp = [0.0] * size
        flag = [False] * size
        # (bit, term list, source dp, source flag, agent) per live agent;
        # an off-support agent has bit 0, so its source state is k itself
        cands = []
        first = 1  # without an off-support agent, state 0 is the empty set
        for i, w_i in enumerate(w):
            b = self._bits[i]
            if b:
                cands.append((b, self._row(i, w_i), dp, flag, i))
            elif w_i != NULL:
                sub_dp, sub_flag = self._layer(replace_at(w, i, NULL), maximize)
                cands.append((0, self._row(i, w_i), sub_dp, sub_flag, i))
                first = 0
        sign = -1.0 if maximize else 1.0
        for k in range(first, size):
            best, best_flag = math.inf, False
            for b, row, src, src_flag, i in cands:
                if k & b != b:
                    continue
                prev = k ^ b
                p = row[prev]
                if p is None:
                    p = self._fill(row, i, w[i], prev)
                if p is UNAVAILABLE:
                    if src[prev] < best - TOL:
                        best, best_flag = src[prev], True
                else:
                    cand = src[prev] + sign * p
                    if cand < best - TOL:
                        best, best_flag = cand, src_flag[prev]
            dp[k] = best
            flag[k] = best_flag
        layer = memo[w] = (dp, flag)
        return layer

    def extremal(self, z: Allocation, maximize: bool):
        """Min (or max) over all agent orders of the price sum for outcomes z
        conditioned on x-prefixes: (value, saw_unavailable).  ``witness``
        gives an order that attains it."""
        dp, flag = self._layer(z, maximize)
        return (-dp[-1] if maximize else dp[-1]), flag[-1]

    def witness(self, z: Allocation, maximize: bool) -> tuple:
        """The n-agent order whose sum ``extremal`` returns: the DP's
        first-within-TOL scan replayed along one path down from the full
        agent set, last arrival first.  An inert agent, off the support with
        a null outcome, has the candidate dp[k], the optimum over the live
        agents left, so it never moves the scan past an equal live
        candidate.  The layers already priced every term the replay reads."""
        sign = -1.0 if maximize else 1.0
        bits, table = self._bits, self._table
        w, k = z, len(self._prefixes) - 1
        dp = self._layer(w, maximize)[0]
        order = []
        agents = list(range(self.n))
        while agents:
            best, best_i, best_w = math.inf, -1, w
            for i in agents:
                b, w_i = bits[i], w[i]
                if b:
                    prev, src, sub = k ^ b, dp, w
                elif w_i != NULL:
                    sub = replace_at(w, i, NULL)
                    prev, src = k, self._layers[maximize][sub][0]
                else:
                    if dp[k] < best - TOL:
                        best, best_i, best_w = dp[k], i, w
                    continue
                p = table[(i, w_i)][prev]
                cand = src[prev] + (0.0 if p is UNAVAILABLE else sign * p)
                if cand < best - TOL:
                    best, best_i, best_w = cand, i, sub
            order.append(best_i)
            agents.remove(best_i)
            k &= ~bits[best_i]
            if best_w is not w:
                w = best_w
                dp = self._layers[maximize][w][0]
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


def _static_column(env: Environment, prices: PricingRule):
    """A static rule's price sum and UNAVAILABLE flag for each allocation on
    the environment's kept list, from one ``price`` call per distinct
    non-null token of each agent at the null allocation.  Rows add from 0.0
    in agent order, as ``declared_order`` does on the null table; an
    UNAVAILABLE term adds 0.0, a no-op as such a sum is never -0.0."""
    null, size = env.null_allocation(), len(fact(env, "feasible"))
    col, flags = [0.0] * size, [False] * size
    for i, toks in enumerate(fact(env, "tokens")):
        terms = {tok: 0.0 if tok == NULL else prices.price(i, tok, null) for tok in dict.fromkeys(toks)}
        for tok, p in terms.items():
            if p is UNAVAILABLE:
                terms[tok] = 0.0
                flags = [f or t == tok for f, t in zip(flags, toks)]
        col = list(map(add, col, map(terms.__getitem__, toks)))
    return col, flags


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
    optimum are read off the environment's welfare column.

    A static rule's terms do not depend on the prefix, so its walk reads
    each sum off one column (``_static_column``) and scores condition (b),
    which then depends on x only through its exchange set, once per key.
    Rounding is monotone for ``rhs_b - lhs`` and for ``lhs / residual_w``
    with ``residual_w`` positive, so the largest member sum gives the
    smallest slack and the largest ratio.  A key with a flagged member, or
    whose bound breaks, is scored member by member from the column, which
    lists the violations in member order; every member is listed, as the
    family must belong to ``env`` and every environment is downward closed."""
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
            residual_w = ws[_first_max(ws)] if members else 0.0
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
        col, flags = _static_column(env, prices)
        positions = fact(env, "positions")
        for k, x in enumerate(feasible):
            members, residual_w, rhs_a, rhs_b, score = fam = exchange_set(x)
            if score is None:
                at = list(map(positions.__getitem__, members))
                # with no members, top -inf scores (inf, 0.0, []) as none would
                top = max(map(col.__getitem__, at), default=-math.inf)
                if rhs_b - top >= -TOL and not any(map(flags.__getitem__, at)):
                    score = _score_members([(None, top, False)], rhs_b, residual_w)
                else:
                    scored = ((z, col[p], flags[p]) for z, p in zip(members, at))
                    score = _score_members(scored, rhs_b, residual_w)
                fam[4] = score
            _record(report, x, col[k], flags[k], rhs_a, rhs_b, members, score, declared)
    else:
        for x in feasible:
            members, residual_w, rhs_a, rhs_b, _ = exchange_set(x)
            sums = _PriceSums(prices, x, env.n, order)
            if order_mode == "all":
                lhs_a, bad = sums.extremal(x, False)
                scored = ((z, *sums.extremal(z, True)) for z in members)
                witness = sums.witness
            else:
                lhs_a, bad = sums.declared_order(x)
                scored = ((z, *sums.declared_order(z)) for z in members)
                witness = declared
            score = _score_members(scored, rhs_b, residual_w)
            _record(report, x, lhs_a, bad, rhs_a, rhs_b, members, score, witness)
    if not feasible:
        report.condition_a_min_slack = 0.0
        report.condition_b_min_slack = 0.0
    if report.condition_b_min_slack == math.inf:
        report.condition_b_min_slack = 0.0  # no exchange members anywhere
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
