"""Certification of the two price-balance conditions by exhaustive
enumeration against the allocation oracles.

For every feasible allocation x, condition (a) lower-bounds the price sum of
x itself against the welfare the reference rule loses to the exchange set at
x, and condition (b) upper-bounds the price sum of every member of that
exchange set.  Condition sums follow a declared agent indexing; the checker
can also quantify over all indexings, which it does with a min/max subset
dynamic program over predecessor sets rather than a factorial loop.
"""

from __future__ import annotations

import math
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
    welfare,
)
from .oracle import ExchangeFamily, residual_opt
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


def _submasks_of(mask: int) -> list[int]:
    subs = [0]
    m = mask
    while m:
        bit = m & -m
        m ^= bit
        subs.extend([s | bit for s in subs])
    return subs


class _PriceSums:
    """Price sums Σ_i p_i(z_i | x restricted to predecessors) for a fixed
    conditioning allocation x, minimized or maximized over agent orders by a
    subset DP (the term for an agent depends on its predecessor set only).

    A term depends on the predecessor mask only through mask & support(x), so
    each restricted prefix of x is built once, on first use, and shared by
    condition (a), every member's sum and the DP's term table.

    UNAVAILABLE entries poison the sum; they are reported as structural
    violations by the caller."""

    def __init__(self, prices: PricingRule, x: Allocation, n: int):
        self.prices = prices
        self.x = x
        self.n = n
        self.supp = 0
        for j, xj in enumerate(x):
            if xj != NULL:
                self.supp |= 1 << j
        self._prefixes: dict[int, Allocation] = {}

    def prefix(self, pred_mask: int) -> Allocation:
        """x restricted to the agents in ``pred_mask``."""
        key = pred_mask & self.supp
        y = self._prefixes.get(key)
        if y is None:
            y = tuple(xj if key >> j & 1 else NULL for j, xj in enumerate(self.x))
            self._prefixes[key] = y
        return y

    def term(self, i: int, z_i, pred_mask: int):
        return self.prices.price(i, z_i, self.prefix(pred_mask))

    def declared_order(self, z: Allocation, order: Sequence[int]):
        total, unavailable = 0.0, False
        mask = 0
        for i in order:
            p = self.term(i, z[i], mask)
            if p is UNAVAILABLE:
                unavailable = True
            else:
                total += p
            mask |= 1 << i
        return total, unavailable

    def extremal(self, z: Allocation, maximize: bool):
        """Min (or max) over all agent orders of the price sum for outcomes z
        conditioned on x-prefixes.  Returns (value, witness order, saw_unavailable).

        Terms are precomputed per collapsed mask (pred_mask & support(x)) and
        the subset DP runs on floats.  UNAVAILABLE terms are treated as 0 in
        the sum but flagged."""
        n = self.n
        supp = self.supp
        cond_masks = _submasks_of(supp)
        # term_table[i][collapsed mask] = (price, unavailable?)
        term_table: list[dict] = []
        for i in range(n):
            row = {}
            for cm in cond_masks:
                p = self.term(i, z[i], cm & ~(1 << i))
                row[cm & ~(1 << i)] = (0.0, True) if p is UNAVAILABLE else (p, False)
            term_table.append(row)

        full = (1 << n) - 1
        sign = -1.0 if maximize else 1.0
        dp = [math.inf] * (full + 1)
        flag = [False] * (full + 1)
        parent = [-1] * (full + 1)
        dp[0] = 0.0
        for mask in range(1, full + 1):
            best, best_i, best_flag = math.inf, -1, False
            m = mask
            while m:
                bit = m & -m
                i = bit.bit_length() - 1
                m ^= bit
                prev = mask ^ bit
                p, bad = term_table[i][prev & supp & ~bit]
                cand = dp[prev] + sign * p
                if cand < best - TOL:
                    best, best_i, best_flag = cand, i, bad or flag[prev]
            dp[mask] = best
            parent[mask] = best_i
            flag[mask] = best_flag
        order = []
        mask = full
        while mask:
            i = parent[mask]
            order.append(i)
            mask ^= 1 << i
        return sign * dp[full], tuple(reversed(order)), flag[full]


class _StaticSums:
    """Price sums for a static rule: p_i(z_i | ∅) for every agent, summed in
    agent order.  The conditioning prefix never changes a feasible entry's
    price, so every order gives the same sum and each (agent, outcome) term
    is priced once."""

    def __init__(self, prices: PricingRule, n: int):
        self.prices = prices
        self.null = (NULL,) * n
        self._terms: dict = {}

    def total(self, z: Allocation):
        total, unavailable = 0.0, False
        for i, z_i in enumerate(z):
            p = self._terms.get((i, z_i))
            if p is None:
                p = self._terms[(i, z_i)] = self.prices.price(i, z_i, self.null)
            if p is UNAVAILABLE:
                unavailable = True
            else:
                total += p
        return total, unavailable


def _condition_bounds(params: BalanceParams, alg_w: float, residual_w: float):
    rhs_a = (alg_w - residual_w) / params.alpha
    if params.weak:
        rhs_b = params.beta1 * residual_w + params.beta2 * alg_w
    else:
        rhs_b = params.beta * residual_w
    return rhs_a, rhs_b


def _score_members(members, price_sum, rhs_b: float, residual_w: float):
    """Condition (b) over one exchange set: (min slack, max member-sum /
    residual ratio, violations), where violations lists (member, lhs, order
    witness, unavailable?, slack) for every member that has an UNAVAILABLE
    entry or breaks the bound, in member order."""
    min_slack, max_ratio, violations = math.inf, 0.0, []
    for member in members:
        lhs, wit, bad = price_sum(member)
        slack = rhs_b - lhs
        if slack < min_slack:
            min_slack = slack
        if lhs > TOL:
            ratio = math.inf if residual_w <= TOL else lhs / residual_w
            if ratio > max_ratio:
                max_ratio = ratio
        if bad or slack < -TOL:
            violations.append((member, lhs, wit, bad, slack))
    return min_slack, max_ratio, violations


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
    feasible: Optional[list] = None,
) -> BalanceReport:
    """One walk over the feasible allocations.  For static rules condition
    (b) depends on x only through its exchange set, so it is scored once per
    ``members_key`` and replayed for every x that shares the key."""
    from .core import enumerate_feasible

    if order_mode not in ORDER_MODES:
        raise ValueError(f"unknown order mode {order_mode}")
    order = tuple(range(env.n)) if order is None else tuple(order)
    alg_w = welfare(profile, alg_alloc)
    report = BalanceReport(
        passed=True,
        params=params,
        condition_a_min_slack=math.inf,
        condition_b_min_slack=math.inf,
        order_mode=order_mode,
    )
    if feasible is None:
        feasible = enumerate_feasible(env, cap)
    static = _StaticSums(prices, env.n) if prices.static else None
    # members_key -> (members, residual optimum, cached condition-(b) score)
    families: dict = {}
    for x in feasible:
        report.checked_allocations += 1
        fam_key = family.members_key(x)
        fam = families.get(fam_key)
        if fam is None:
            members = family.members(x, cap)
            residual_w = welfare(profile, residual_opt(env, profile, family, x, cap))
            fam = families[fam_key] = [members, residual_w, None]
        members, residual_w, score = fam
        rhs_a, rhs_b = _condition_bounds(params, alg_w, residual_w)

        sums = None if static is not None else _PriceSums(prices, x, env.n)

        def price_sum(z, maximize=True):
            if static is not None:
                total, bad = static.total(z)
                return total, order, bad
            if order_mode == "declared":
                total, bad = sums.declared_order(z, order)
                return total, order, bad
            return sums.extremal(z, maximize=maximize)

        lhs_a, wit_a, bad = price_sum(x, maximize=False)
        if score is None:
            score = _score_members(members, price_sum, rhs_b, residual_w)
            if static is not None:
                fam[2] = score

        if bad:
            report.structural_violations.append(("a", x, wit_a))
            report.passed = False
        slack_a = lhs_a - rhs_a
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
        for member, lhs_b, wit_b, bad, slack_b in violations:
            report.passed = False
            if bad:
                report.structural_violations.append(("b", x, member))
            if slack_b < -TOL:
                report.witnesses.append(("b", x, member, lhs_b, rhs_b, wit_b))
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
