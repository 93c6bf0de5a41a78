"""Posted-price mechanism execution as one sequential game, and the
better-of-two selector for unrestricted knapsack instances.

Agents arrive in an order fixed in advance or chosen by an adaptive
adversary, nature draws each arriving agent's valuation, and the agent buys
a utility-maximizing menu entry, ties resolved by a named policy or
adversarially.  ``OnlinePostedPriceRunner`` evaluates this game tree with one
recursion memoized on (agents still to arrive, purchases so far).
``run_posted_price``, ``expected_posted_price_welfare``,
``adaptive_adversary_welfare`` and ``worst_order_welfare`` are configurations
of it; on every one of them ``cap`` bounds the memo states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    DEFAULT_CAP,
    NULL,
    TOL,
    UNAVAILABLE,
    Allocation,
    CapExceeded,
    Environment,
    KnapsackEnv,
    ThresholdValuation,
    Valuation,
    _first_max,
    replace_at,
    value,
    welfare,
)
from .oracle import knapsack_dp
from .pricing import BalanceParams, PricingRule, knapsack_prices

TIE_POLICIES = ("prefer_null", "prefer_buy_lexmin", "adversarial_min_welfare")

# Most evaluator memo states a recursion keeps by default.
MEMO_CAP = 1_000_000


@dataclass(frozen=True)
class MechanismTrace:
    order: tuple[int, ...]
    outcomes: Allocation
    payments: tuple[float, ...]
    utilities: tuple[float, ...]
    welfare: float
    revenue: float
    utility_sum: float

    def as_dict(self) -> dict:
        return {
            "order": list(self.order),
            "outcomes": list(self.outcomes),
            "payments": list(self.payments),
            "utilities": list(self.utilities),
            "welfare": self.welfare,
            "revenue": self.revenue,
            "utility_sum": self.utility_sum,
        }


def _check_order(n: int, order: Sequence[int]) -> tuple[int, ...]:
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of {n} agents")
    return order


def _pick(cands, tie: str):
    if tie == "prefer_null":
        for tok, p in cands:
            if tok == NULL:
                return tok, p
        return cands[0]
    if tie == "prefer_buy_lexmin":
        for tok, p in cands:
            if tok != NULL:
                return tok, p
        return cands[0]
    raise ValueError(f"unknown tie policy {tie}")


def _decide(prices, tie: str, left: int, i: int, v, y: Allocation, tied):
    """Agent i's (token, payment) at history ``y`` with valuation ``v``, the
    agents in bitmask ``left`` (i among them) yet to arrive: a named policy's
    pick, or under ``adversarial_min_welfare`` the one utility-maximizing
    entry, or ``tied(left, i, v, y, cands)`` when there are several."""
    cands = prices.best_entries(i, v, y)
    if tie != "adversarial_min_welfare":
        return _pick(cands, tie)
    if len(cands) == 1:
        return cands[0]
    return tied(left, i, v, y, cands)


def realized_walk(env, prices, order: Sequence[int], tie: str, profile: Sequence[Valuation],
                  tied) -> tuple[Allocation, tuple[float, ...]]:
    """The final allocation and each agent's payment of one realized-profile
    execution in ``order`` with the online tie policy, without building a
    trace.  ``tied`` is an ``OnlinePostedPriceRunner._tied`` on ``order``,
    asked only at an arrival with several candidates (``_decide``), so a
    caller may build the runner only then."""
    y, left = env.null_allocation(), (1 << env.n) - 1
    payments = [0.0] * env.n
    for i in order:
        tok, payments[i] = _decide(prices, tie, left, i, profile[i], y, tied)
        y, left = replace_at(y, i, tok), left & ~(1 << i)
    return y, tuple(payments)


def _members(left: int) -> list[int]:
    """Agents in bitmask ``left``, ascending."""
    return [i for i in range(left.bit_length()) if left >> i & 1]


class OnlinePostedPriceRunner:
    """The posted-price game tree, evaluated by one memoized recursion.

    Each state is (agents still to arrive, purchases so far), with three
    kinds of node below it:

    - arrival: the next agent of ``order``, or with ``order=None`` the
      adversary's minimum over the agents still to arrive, chosen after
      seeing realized valuations and purchases;
    - nature: the arriving agent's atoms ``atoms[i]``, its
      (valuation, probability) pairs (a distribution's ``supports``);
    - tie: a named policy, or under ``adversarial_min_welfare`` the entry
      minimizing expected continuation welfare (lexmin token unless another
      is lower by more than ``TOL``).  A forced choice, with one
      utility-maximizing entry, evaluates no continuation.

    Tie choices condition on realized history and the distribution, never
    on unrealized future values.  (Resolving ties against the realized
    future values instead is strictly stronger than any utility-maximizing
    behaviour and genuinely breaks the welfare guarantees, because early
    choices would leak later agents' values.)  On one atom per agent the
    two coincide.  The memo is shared between the exact expectation and
    sampled runs; ``cap`` bounds its states.  The entries an arrival may buy
    come from the pricing rule's own memo (``PricingRule.best_entries``), so
    every runner on one rule decides each (agent, valuation, history) once.
    """

    def __init__(self, env, prices, atoms, order: Optional[Sequence[int]],
                 tie: str = "adversarial_min_welfare", cap: int = MEMO_CAP):
        if tie not in TIE_POLICIES:
            raise ValueError(f"unknown tie policy {tie}")
        self.env = env
        self.prices = prices
        self.atoms = atoms
        self.order = None if order is None else _check_order(env.n, order)
        self.tie = tie
        self.cap = cap
        self._memo: dict = {}
        # per history, the agents known closed and known open there (bitmasks)
        self._closure: dict[Allocation, list[int]] = {}
        # a fixed order's next arrival, keyed by the agents still to arrive
        self._next: dict[int, tuple[int]] = {}
        left = self._everyone = (1 << env.n) - 1
        for i in self.order or ():
            self._next[left] = (i,)
            left &= ~(1 << i)

    def _tied(self, left: int, i: int, v, y: Allocation, cands):
        """Under ``adversarial_min_welfare``, the entry of ``cands`` (more
        than one) minimizing expected continuation welfare, lexmin token
        unless another is lower by more than ``TOL``."""
        rest = left & ~(1 << i)
        best, best_cand = math.inf, cands[0]
        for tok, p in cands:
            w = value(v, tok) + self._value(rest, replace_at(y, i, tok))
            if w < best - TOL:
                best, best_cand = w, (tok, p)
        return best_cand

    def _closed(self, left: int, y: Allocation) -> bool:
        """Whether each agent in bitmask ``left`` buys only null at ``y``
        under every atom.  Then no later arrival changes ``y``, so what is
        still to come is worth exactly 0.0.  Only agents not yet known closed
        or open at ``y`` are scanned, so it asks ``best_entries`` only for
        keys the full recursion at this state asks too."""
        known = self._closure.setdefault(y, [0, 0])
        if left & known[1]:
            return False
        for i in _members(left & ~known[0]):
            for v, _prob in self.atoms[i]:
                entries = self.prices.best_entries(i, v, y)
                if len(entries) > 1 or entries[0][0] != NULL:
                    known[1] |= 1 << i
                    return False
            known[0] |= 1 << i
        return True

    def _value(self, left: int, y: Allocation) -> float:
        """Expected welfare still to come when the agents in bitmask ``left``
        are yet to arrive and ``y`` holds the purchases so far."""
        if not left:
            return 0.0
        key = (left, y)
        if key in self._memo:
            return self._memo[key]
        if len(self._memo) > self.cap:
            raise CapExceeded(len(self._memo), self.cap, "evaluator memo states")
        if self.order is None:
            if self._closed(left, y):
                self._memo[key] = 0.0
                return 0.0
            agents = _members(left)
        else:
            agents = self._next[left]
        prices, tie, tied = self.prices, self.tie, self._tied
        worst = math.inf
        for i in agents:
            rest = left & ~(1 << i)
            total = 0.0
            for v, prob in self.atoms[i]:
                tok, _p = _decide(prices, tie, left, i, v, y, tied)
                total += prob * (value(v, tok) + self._value(rest, replace_at(y, i, tok)))
            worst = min(worst, total)
        self._memo[key] = worst
        return worst

    def expected_welfare(self) -> float:
        return self._value(self._everyone, self.env.null_allocation())

    def run(self, profile: Sequence[Valuation]) -> MechanismTrace:
        """One realized-profile execution in the fixed order with the online
        tie policy: ``realized_walk``, ties decided by this runner's memo."""
        if self.order is None:
            raise ValueError("a realized run needs a fixed arrival order")
        outcomes, payments = realized_walk(
            self.env, self.prices, self.order, self.tie, profile, self._tied
        )
        utilities = tuple(
            value(profile[i], outcomes[i]) - payments[i] for i in range(self.env.n)
        )
        return MechanismTrace(
            order=self.order,
            outcomes=outcomes,
            payments=payments,
            utilities=utilities,
            welfare=welfare(profile, outcomes),
            revenue=math.fsum(payments),
            utility_sum=math.fsum(utilities),
        )


def run_posted_price(
    env: Environment,
    prices: PricingRule,
    profile: Sequence[Valuation],
    order: Sequence[int],
    tie: str = "adversarial_min_welfare",
) -> MechanismTrace:
    """Approach agents in ``order``; each buys a utility-maximizing entry from
    the menu of finitely-priced outcomes given prior purchases.

    The evaluator runs on the profile's point masses, so under
    ``adversarial_min_welfare`` each tie takes the branch minimizing the
    final total welfare (lexmin token on exact ties).  This is
    full-information tie resolution over the given realized profile — the
    right semantics for worst-order studies on deterministic instances;
    expectations over a distribution must use OnlinePostedPriceRunner on
    that distribution instead, whose tie choices cannot see unrealized
    future values.
    """
    point_masses = tuple(((v, 1.0),) for v in profile)
    return OnlinePostedPriceRunner(env, prices, point_masses, order, tie).run(profile)


def worst_order_welfare(
    env,
    prices,
    profile,
    tie: str = "adversarial_min_welfare",
    cap: int = MEMO_CAP,
) -> tuple[float, tuple[int, ...]]:
    """Minimum trace welfare over all arrival permutations, with a witness:
    the lexicographically first order that reaches the minimum.

    On a realized profile the worst fixed order is the adaptive adversary's
    value, so the minimum comes from the ``order=None`` evaluator.  The
    witness walk then commits, position by position, the first agent from
    whose arrival the minimum is still reachable.  It keeps every purchase
    history the committed prefix reaches under some tie choice: following a
    single tie choice can rule out the first minimizing order.  The reported
    welfare is the witness trace's own.
    """
    point_masses = tuple(((v, 1.0),) for v in profile)
    runner = OnlinePostedPriceRunner(env, prices, point_masses, None, tie, cap)
    target = runner.expected_welfare()
    left, witness = runner._everyone, []
    frontier = {env.null_allocation()}
    while left:
        for i in _members(left):
            rest, reached = left & ~(1 << i), set()
            for y in frontier:
                cands = prices.best_entries(i, profile[i], y)
                if tie != "adversarial_min_welfare":
                    cands = [_pick(cands, tie)]
                reached.update(replace_at(y, i, tok) for tok, _p in cands)
            if any(welfare(profile, y) + runner._value(rest, y) <= target + TOL for y in reached):
                break
        witness.append(i)
        left, frontier = rest, reached
    return run_posted_price(env, prices, profile, witness, tie).welfare, tuple(witness)


def expected_posted_price_welfare(
    env,
    prices,
    dist,
    order: Sequence[int],
    tie: str = "adversarial_min_welfare",
    cap: int = MEMO_CAP,
) -> float:
    """Exact expected welfare of the posted-price mechanism under a fixed
    arrival order, with history-conditioned tie choices."""
    return OnlinePostedPriceRunner(env, prices, dist.supports, order, tie, cap).expected_welfare()


def adaptive_adversary_welfare(
    env, prices, dist, tie: str = "adversarial_min_welfare", cap: int = MEMO_CAP
) -> float:
    """Exact minimax expected welfare: the adversary picks the next agent
    after observing realized valuations and purchases; agents break ties by
    ``tie`` (by default also adversarially)."""
    return OnlinePostedPriceRunner(env, prices, dist.supports, None, tie, cap).expected_welfare()


# ---------------------------------------------------------------------------
# Better-of-two selection for unrestricted knapsack
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectorResult:
    choice: str  # per_unit | whole_unit
    expected_welfare: float
    per_unit_welfare: float
    whole_unit_welfare: float
    per_unit_rate: float
    whole_unit_price: float


def whole_unit_prices(env: KnapsackEnv, price: float) -> PricingRule:
    """Take-it-or-leave-it price for the entire unit; partial quantities are
    kept off the menu (a deliberately non-total rule)."""

    def finite(i, q, y):
        return price if abs(float(q) - 1.0) <= TOL else UNAVAILABLE

    return PricingRule(
        env,
        finite,
        static=True,
        provenance={"construction": "whole-unit", "price": price},
    )


def _restricted_expected_reference_welfare(env: KnapsackEnv, dist, cap: int) -> float:
    """E[v(ALG(v))] where the reference rule serves only demands at most half
    the capacity (larger demands are zeroed out of the instance)."""
    total = 0.0
    for profile, prob in dist.profiles(cap):
        clipped = tuple(
            v if isinstance(v, ThresholdValuation) and v.size <= 0.5 + TOL
            else ThresholdValuation(0.0, getattr(v, "size", 1.0))
            for v in profile
        )
        total += prob * welfare(clipped, knapsack_dp(env, clipped))
    return total


def two_mechanism_selector(
    env: KnapsackEnv, dist, cap: int = DEFAULT_CAP
) -> SelectorResult:
    """Exact adversarial expected welfare of the scaled per-unit mechanism
    (serving demands at most half the capacity) versus the best whole-unit
    take-it-or-leave-it price; returns the better of the two."""
    params = BalanceParams(alpha=1.0, beta=2.0)
    rate = params.scale_factor() * _restricted_expected_reference_welfare(env, dist, cap)
    per_unit_rule = knapsack_prices(env, (), rate)
    per_unit_w = adaptive_adversary_welfare(env, per_unit_rule, dist)

    atoms = sorted(
        {
            v.value_at_size
            for i in range(env.n)
            for v, _ in dist.atoms(i)
            if isinstance(v, ThresholdValuation)
        }
    )
    candidates = [0.0] + atoms
    for lo, hi in zip(atoms, atoms[1:]):
        candidates.append((lo + hi) / 2.0)
    candidates.sort()
    ws = [adaptive_adversary_welfare(env, whole_unit_prices(env, p), dist) for p in candidates]
    best = _first_max(ws)
    best_p, best_w = candidates[best], ws[best]

    if per_unit_w >= best_w:
        return SelectorResult(
            "per_unit", per_unit_w, per_unit_w, best_w, rate, best_p
        )
    return SelectorResult(
        "whole_unit", best_w, per_unit_w, best_w, rate, best_p
    )
