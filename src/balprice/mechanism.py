"""Posted-price mechanism execution as one sequential game, and the
better-of-two selector for unrestricted knapsack instances.

Agents arrive in an order fixed in advance or chosen by an adaptive
adversary, nature draws each arriving agent's valuation, and the agent buys
a utility-maximizing menu entry, ties resolved by a named policy or
adversarially.  ``OnlinePostedPriceRunner`` evaluates this game tree with one
recursion memoized on (agents still to arrive, purchase history id), each
arrival read from one step table entry per (agent, atom, history).
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


def distinct_atoms(supports) -> tuple[list[dict], tuple]:
    """(at, index): ``at[i]`` maps agent i's distinct valuations (compared
    by equality, first appearance first) to their indices, and ``index[i]``
    holds each of agent i's atoms' index among them."""
    at, index = [], []
    for atoms in supports:
        d: dict = {}
        row = []
        for v, _prob in atoms:
            row.append(d.setdefault(v, len(d)))
        at.append(d)
        index.append(tuple(row))
    return at, tuple(index)


class _Steps(dict):
    """The arrivals of the posted-price game on one pricing rule, tie policy
    and atom tuple, one entry per (agent, atom, history).

    A purchase history is an allocation numbered in order of first
    appearance (``ids``; the null allocation is 0, and ``histories`` maps
    numbers back).  An atom is an index among agent i's distinct valuations
    ``values[i]``; ``index[i]`` numbers agent i's atoms.  Entry (i, a, h)
    holds agent i's candidates on arriving with valuation ``values[i][a]``
    at history h: per utility-maximizing entry, lexmin token first (or the
    one a named tie policy picks), its (token, payment, value gained, next
    history).  One candidate is a forced step; several go to the
    evaluator's ``_tied``.  A miss is the only place ``best_entries``,
    ``value`` and ``replace_at`` are called.
    """

    def __init__(self, env, prices, tie: str, atoms):
        self.prices, self.tie = prices, tie
        self.at, self.index = distinct_atoms(atoms)
        self.values = [list(d) for d in self.at]
        null = env.null_allocation()
        self.histories = [null]
        self.ids = {null: 0}

    def atom(self, i: int, v: Valuation) -> int:
        """``v``'s index among agent i's distinct valuations, added if new."""
        a = self.at[i].setdefault(v, len(self.values[i]))
        if a == len(self.values[i]):
            self.values[i].append(v)
        return a

    def __missing__(self, key):
        i, a, h = key
        y, v = self.histories[h], self.values[i][a]
        cands = self.prices.best_entries(i, v, y)
        if self.tie != "adversarial_min_welfare":
            cands = (_pick(cands, self.tie),)
        step = self[key] = []
        for tok, p in cands:
            if tok == NULL:
                # agent i has not arrived at y, so a null purchase gains 0.0
                # and leaves y as it is
                step.append((tok, p, 0.0, h))
                continue
            z = replace_at(y, i, tok)
            nxt = self.ids.setdefault(z, len(self.histories))
            if nxt == len(self.histories):
                self.histories.append(z)
            step.append((tok, p, value(v, tok), nxt))
        return step


def realized_walk(steps: _Steps, order: Sequence[int], atoms: Sequence[int], tied):
    """One realized execution in ``order``, agent i arriving with atom
    ``atoms[i]`` of ``steps``, without building a trace: each agent's
    outcome, payment and value gained.  ``tied`` is an
    ``OnlinePostedPriceRunner._tied`` on ``order`` sharing ``steps``, asked
    only at an arrival with several candidates, so a caller may build the
    runner only then."""
    n = len(order)
    h, left = 0, (1 << n) - 1
    outcomes, payments, gains = [NULL] * n, [0.0] * n, [0.0] * n
    for i in order:
        step = steps[i, atoms[i], h]
        outcomes[i], payments[i], gains[i], h = step[0] if len(step) == 1 else tied(left, i, step)
        left &= ~(1 << i)
    return outcomes, payments, gains


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
    two coincide.  The memo is keyed by (agents still to arrive, history
    id) and shared between the exact expectation and sampled runs; ``cap``
    bounds its states.  Each arrival reads its step table entry
    (``_Steps``), built once per (agent, atom, history) from the pricing
    rule's ``best_entries``; ``steps`` shares one table, built on the same
    atoms and tie policy, between runners.
    """

    def __init__(self, env, prices, atoms, order: Optional[Sequence[int]],
                 tie: str = "adversarial_min_welfare", cap: int = MEMO_CAP,
                 steps: Optional[_Steps] = None):
        if tie not in TIE_POLICIES:
            raise ValueError(f"unknown tie policy {tie}")
        self.env = env
        self.prices = prices
        self.atoms = atoms
        self.order = None if order is None else _check_order(env.n, order)
        self.tie = tie
        self.cap = cap
        self._steps = _Steps(env, prices, tie, atoms) if steps is None else steps
        self._memo: dict = {}
        # per history id, the agents known closed and known open there (bitmasks)
        self._closure: dict[int, list[int]] = {}
        # a fixed order's next arrival, keyed by the agents still to arrive
        self._next: dict[int, tuple[int]] = {}
        left = self._everyone = (1 << env.n) - 1
        for i in self.order or ():
            self._next[left] = (i,)
            left &= ~(1 << i)

    def _tied(self, left: int, i: int, cands):
        """Under ``adversarial_min_welfare``, the candidate of ``cands`` (a
        step table entry of more than one) minimizing expected continuation
        welfare, lexmin token unless another is lower by more than ``TOL``."""
        rest = left & ~(1 << i)
        best, best_cand = math.inf, cands[0]
        for cand in cands:
            w = cand[2] + self._value(rest, cand[3])
            if w < best - TOL:
                best, best_cand = w, cand
        return best_cand

    def _closed(self, left: int, h: int) -> bool:
        """Whether each agent in bitmask ``left`` buys only null at history
        ``h`` under every atom.  Then no later arrival changes the history,
        so what is still to come is worth exactly 0.0.  Only agents not yet
        known closed or open at ``h`` are scanned, so it reads only step
        entries the full recursion at this state reads too."""
        known = self._closure.setdefault(h, [0, 0])
        if left & known[1]:
            return False
        steps = self._steps
        for i in _members(left & ~known[0]):
            for a in steps.index[i]:
                cands = steps[i, a, h]
                if len(cands) > 1 or cands[0][0] != NULL:
                    known[1] |= 1 << i
                    return False
            known[0] |= 1 << i
        return True

    def _value(self, left: int, h: int) -> float:
        """Expected welfare still to come when the agents in bitmask ``left``
        are yet to arrive and history ``h`` holds the purchases so far."""
        if not left:
            return 0.0
        key = (left, h)
        if key in self._memo:
            return self._memo[key]
        if len(self._memo) > self.cap:
            raise CapExceeded(len(self._memo), self.cap, "evaluator memo states")
        steps = self._steps
        if self.order is None:
            if self._closed(left, h):
                self._memo[key] = 0.0
                return 0.0
            agents = _members(left)
        else:
            agents = self._next[left]
        worst = math.inf
        for i in agents:
            rest = left & ~(1 << i)
            total = 0.0
            for a, (_v, prob) in zip(steps.index[i], self.atoms[i]):
                step = steps[i, a, h]
                _tok, _p, gain, nxt = step[0] if len(step) == 1 else self._tied(left, i, step)
                total += prob * (gain + self._value(rest, nxt))
            worst = min(worst, total)
        self._memo[key] = worst
        return worst

    def expected_welfare(self) -> float:
        return self._value(self._everyone, 0)

    def _walk(self, profile: Sequence[Valuation]) -> tuple[Allocation, Sequence[float]]:
        """The final allocation and each agent's payment of ``run``."""
        steps = self._steps
        atoms = [steps.atom(i, profile[i]) for i in range(self.env.n)]
        outcomes, payments, _gains = realized_walk(steps, self.order, atoms, self._tied)
        return tuple(outcomes), payments

    def run(self, profile: Sequence[Valuation]) -> MechanismTrace:
        """One realized-profile execution in the fixed order with the online
        tie policy: ``realized_walk``, ties decided by this runner's memo."""
        if self.order is None:
            raise ValueError("a realized run needs a fixed arrival order")
        outcomes, payments = self._walk(profile)
        utilities = tuple(
            value(profile[i], outcomes[i]) - payments[i] for i in range(self.env.n)
        )
        return MechanismTrace(
            order=self.order,
            outcomes=outcomes,
            payments=tuple(payments),
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
    welfare is the witness trace's own, replayed on the same step table.
    """
    point_masses = tuple(((v, 1.0),) for v in profile)
    runner = OnlinePostedPriceRunner(env, prices, point_masses, None, tie, cap)
    target = runner.expected_welfare()
    steps = runner._steps
    # each agent's one atom is index 0; a step holds every history a tie
    # choice reaches, or the one a named policy picks
    left, witness, frontier = runner._everyone, [], {0}
    while left:
        for i in _members(left):
            rest = left & ~(1 << i)
            reached = {cand[3] for h in frontier for cand in steps[i, 0, h]}
            if any(
                welfare(profile, steps.histories[h]) + runner._value(rest, h) <= target + TOL
                for h in reached
            ):
                break
        witness.append(i)
        left, frontier = rest, reached
    replay = OnlinePostedPriceRunner(env, prices, point_masses, witness, tie, cap, steps)
    return replay.run(profile).welfare, tuple(witness)


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
    """E[v(ALG(v))] where the reference rule is the optimum of the same
    knapsack with each agent's share capped at half the capacity."""
    half = KnapsackEnv(env.n, env.step, max_share=min(env.max_share, 0.5))
    total = 0.0
    for profile, prob in dist.profiles(cap):
        total += prob * welfare(profile, knapsack_dp(half, profile))
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
            for atoms in dist.supports
            for v, _ in atoms
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
