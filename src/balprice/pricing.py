"""Pricing-rule constructions: item prices from supporting clauses and
fractional bundle weights, per-unit capacity prices, dynamic residual-value
prices, critical-value prices, reference-allocation prices for binary
single-parameter problems, composition across markets and over maxima, and
the scaled expected-price transform for stochastic instances: the scaled
exact expectation of the per-profile prices over the product support, read
by atom index (``SupportTable``), with support forms that price a miss for
every support profile at once.

Every rule prices the null outcome at zero and is UNAVAILABLE exactly on
entries infeasible given the current partial allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import islice, product
from operator import mul
from typing import Callable, Optional, Sequence

from .core import (
    DEFAULT_CAP,
    NULL,
    TOL,
    UNAVAILABLE,
    AdditiveValuation,
    Allocation,
    CombinatorialAuctionEnv,
    Environment,
    KnapsackEnv,
    MatroidEnv,
    MphValuation,
    PipEnv,
    ProductEnv,
    ScalarValuation,
    SingleItemEnv,
    Valuation,
    XosValuation,
    _token_key,
    bitmask_items,
    enumerate_feasible,
    prefix,
    replace_at,
    value,
    welfare,
)
from .oracle import (
    AllocationRule,
    FractionalSolution,
    OPT_RULE,
    agent_value,
    critical_value,
    greedy,
    is_binary_env,
    opt,
)


class PricingError(ValueError):
    """Invalid pricing parameters or construction preconditions."""


@dataclass(frozen=True)
class BalanceParams:
    """Parameters of the price-balance conditions.

    The strong form carries (alpha, beta); the weak form carries
    (alpha, beta1, beta2) and requires beta1 + beta2 >= 1/alpha for the
    scaled-price welfare guarantee to apply.
    """

    alpha: float
    beta: Optional[float] = None
    beta1: Optional[float] = None
    beta2: Optional[float] = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise PricingError(f"alpha must be positive, got {self.alpha!r}")
        for name in ("beta", "beta1", "beta2"):
            b = getattr(self, name)
            if b is not None and not b >= 0:
                raise PricingError(f"{name} must not be negative, got {b!r}")
        strong = self.beta is not None
        weak = self.beta1 is not None or self.beta2 is not None
        if strong == weak:
            raise PricingError("give either beta (strong) or beta1+beta2 (weak)")
        if weak and (self.beta1 is None or self.beta2 is None):
            raise PricingError("weak form needs both beta1 and beta2")

    @property
    def weak(self) -> bool:
        return self.beta is None

    def scale_factor(self) -> float:
        """Multiplier applied to expected prices in the posted mechanism."""
        if not self.weak:
            return self.alpha / (1.0 + self.alpha * self.beta)
        if self.beta1 + self.beta2 < 1.0 / self.alpha - TOL:
            raise PricingError("weak form requires beta1 + beta2 >= 1/alpha")
        return 1.0 / (self.beta1 + max(2.0 * self.beta2, 1.0 / self.alpha))

    def welfare_guarantee(self) -> float:
        """Fraction of the reference rule's expected welfare guaranteed by the
        scaled expected prices."""
        if not self.weak:
            return 1.0 / (1.0 + self.alpha * self.beta)
        self.scale_factor()  # validates the weak-form precondition
        return 1.0 / (self.alpha * (2.0 * self.beta1 + 4.0 * self.beta2))


class PricingRule:
    """Priced menu evaluator p_i(x_i | y) with caching and provenance.

    ``finite_price`` is only consulted on entries feasible given the partial
    allocation y (with the agent's own slot cleared); infeasible entries are
    UNAVAILABLE and the null outcome is free.  ``_cache`` gains exactly one
    entry per price miss.
    """

    def __init__(
        self,
        env: Environment,
        finite_price: Callable[[int, object, Allocation], float],
        *,
        static: bool,
        provenance: Optional[dict] = None,
    ):
        self.env = env
        self._finite_price = finite_price
        self.static = static
        self.provenance = provenance or {}
        self._cache: dict = {}

    def price(self, i: int, x_i, y: Allocation):
        if x_i == NULL:
            return 0.0
        if y[i] is not NULL:
            y = replace_at(y, i, NULL)
        key = (i, x_i, y)
        # cached prices are floats or UNAVAILABLE, never None
        p = self._cache.get(key)
        if p is None:
            if not self.env.is_feasible(replace_at(y, i, x_i)):
                p = UNAVAILABLE
            else:
                p = self._finite_price(i, x_i, y)
            self._cache[key] = p
        return p

    def menu(self, i: int, y: Allocation) -> list[tuple[object, float]]:
        """Purchasable (outcome, price) pairs for agent i given y."""
        out = []
        for tok in self.env.agent_outcomes(i):
            p = self.price(i, tok, y)
            if p is not UNAVAILABLE:
                out.append((tok, p))
        return out

    def best_entries(self, i: int, v: Valuation, y: Allocation) -> tuple[tuple[object, float], ...]:
        """Agent i's utility-maximizing menu entries at ``y`` under valuation
        ``v``, lexmin token first.  The null outcome is always purchasable at
        zero, so the best utility is non-negative."""
        scored = [(tok, p, value(v, tok) - p) for tok, p in self.menu(i, y)]
        best = max(u for _tok, _p, u in scored)
        tied = [(tok, p) for tok, p, u in scored if u >= best - TOL]
        tied.sort(key=lambda tp: _token_key(tp[0]))
        return tuple(tied)


def scaled_prices(rule: PricingRule, factor: float) -> PricingRule:
    """The same menu with every finite price multiplied by ``factor``."""

    def finite(i, x_i, y):
        p = rule.price(i, x_i, y)
        return UNAVAILABLE if p is UNAVAILABLE else factor * p

    return PricingRule(
        rule.env,
        finite,
        static=rule.static,
        provenance=dict(rule.provenance, scale=factor),
    )


# ---------------------------------------------------------------------------
# Item-price constructions
# ---------------------------------------------------------------------------


def _item_price_rule(env, per_item: Sequence[float], provenance: dict) -> PricingRule:
    per_item = tuple(per_item)

    def finite(i, mask, y):
        return math.fsum(per_item[j] for j in bitmask_items(mask))

    provenance = dict(provenance, item_prices=list(per_item))
    return PricingRule(env, finite, static=True, provenance=provenance)


def single_item_prices(env: SingleItemEnv, profile: Sequence[Valuation]) -> PricingRule:
    """Post the highest value; purchasable while the item is unallocated."""
    if not isinstance(env, SingleItemEnv):
        raise PricingError("single_item_prices requires a single-item environment")
    top = max(value(v, 1) for v in profile)

    def finite(i, x_i, y):
        return top

    return PricingRule(
        env,
        finite,
        static=True,
        provenance={"construction": "single-item", "price": top},
    )


def bundle_split_item_prices(env, profile, alloc: Allocation) -> PricingRule:
    """Each item allocated to a winner is priced at the winner's bundle value
    split evenly over the bundle; unallocated items are free."""
    if not isinstance(env, CombinatorialAuctionEnv):
        raise PricingError("bundle split prices require a combinatorial auction")
    per_item = [0.0] * env.items
    for i, mask in enumerate(alloc):
        items = bitmask_items(mask)
        if not items:
            continue
        share = value(profile[i], mask) / len(items)
        for j in items:
            per_item[j] = share
    return _item_price_rule(
        env, per_item, {"construction": "intro-bundle", "base_allocation": list(alloc)}
    )


def supporting_valuation(v: Valuation, x, items: int) -> Valuation:
    """The first maximum-attaining clause of an XOS or hypergraph valuation on
    outcome x, as a standalone valuation; other kinds support themselves."""
    if isinstance(v, XosValuation):
        if not v.clauses:
            return AdditiveValuation((0.0,) * items)
        return AdditiveValuation(v.clauses[v.supporting_clause(x)])
    if isinstance(v, MphValuation):
        if not v.clauses:
            return v
        return MphValuation((v.clauses[v.supporting_clause(x)],))
    return v


def xos_item_prices(env, profile, alloc: Allocation) -> PricingRule:
    """Price each allocated item at its winner's supporting additive clause."""
    if not isinstance(env, CombinatorialAuctionEnv):
        raise PricingError("xos item prices require a combinatorial auction")
    per_item = [0.0] * env.items
    for i, mask in enumerate(alloc):
        if mask == NULL:
            continue
        sup = supporting_valuation(profile[i], mask, env.items)
        if isinstance(sup, AdditiveValuation):
            clause = sup.values
        elif isinstance(sup, ScalarValuation):
            raise PricingError("xos item prices need additive or xos valuations")
        else:
            raise PricingError(f"unsupported valuation kind {sup.kind} for xos prices")
        for j in bitmask_items(mask):
            per_item[j] = clause[j]
    return _item_price_rule(
        env, per_item, {"construction": "xos", "base_allocation": list(alloc)}
    )


def mphk_item_prices(env, profile, alg_alloc: Allocation) -> PricingRule:
    """Each item is priced at the total weight of its winner's supporting
    hyperedges containing it, extended additively to bundles."""
    if not isinstance(env, CombinatorialAuctionEnv):
        raise PricingError("hypergraph item prices require a combinatorial auction")
    per_item = [0.0] * env.items
    for i, mask in enumerate(alg_alloc):
        if mask == NULL:
            continue
        v = profile[i]
        if isinstance(v, MphValuation):
            sup = supporting_valuation(v, mask, env.items)
            clause = sup.clauses[0] if sup.clauses else ()
        elif isinstance(v, (XosValuation, AdditiveValuation)):
            sup = supporting_valuation(v, mask, env.items)
            vals = sup.values if isinstance(sup, AdditiveValuation) else ()
            clause = tuple((1 << j, vals[j]) for j in range(env.items))
        else:
            raise PricingError(f"unsupported valuation kind {v.kind} for hypergraph prices")
        for j in bitmask_items(mask):
            per_item[j] += math.fsum(
                w for edge, w in clause if edge >> j & 1 and edge & mask == edge
            )
    return _item_price_rule(
        env, per_item, {"construction": "mph", "base_allocation": list(alg_alloc)}
    )


def fractional_ca_item_prices(env, profile, lp_solution: FractionalSolution) -> PricingRule:
    """Items priced by their total value-weighted mass in the optimal
    fractional bundle assignment; buyers purchase integral bundles."""
    per_item = [0.0] * env.items
    for i, mask, w in lp_solution.weights:
        v = value(profile[i], mask)
        for j in bitmask_items(mask):
            per_item[j] += w * v
    return _item_price_rule(
        env,
        per_item,
        {"construction": "fractional-ca", "lp_objective": lp_solution.objective},
    )


# ---------------------------------------------------------------------------
# Capacity-based constructions
# ---------------------------------------------------------------------------


def knapsack_prices(env: KnapsackEnv, profile, alg_welfare: float) -> PricingRule:
    """A single static anonymous per-unit price equal to the reference
    welfare; quantities are purchasable while they fit."""
    if not isinstance(env, KnapsackEnv):
        raise PricingError("knapsack prices require a knapsack environment")

    def finite(i, q, y):
        return float(q) * alg_welfare

    return PricingRule(
        env,
        finite,
        static=True,
        provenance={"construction": "knapsack", "per_unit": alg_welfare},
    )


def pip_prices(env: PipEnv, profile, alg_alloc: Allocation) -> PricingRule:
    """Per-constraint unit prices: each constraint carries the total reference
    value of the agents loading it; an agent pays their load-weighted sum."""
    if not isinstance(env, PipEnv):
        raise PricingError("pip prices require a packing environment")
    rates = []
    for i, v in enumerate(profile):
        if not isinstance(v, ScalarValuation):
            raise PricingError("pip prices require scalar (linear) valuations")
        rates.append(v.rate)
    row_price = [
        math.fsum(
            rates[i] * float(alg_alloc[i]) for i in range(env.n) if row[i] > TOL
        )
        for row in env.matrix
    ]

    def finite(i, q, y):
        return float(q) * math.fsum(
            env.matrix[j][i] * row_price[j] for j in range(env.rows)
        )

    return PricingRule(
        env,
        finite,
        static=True,
        provenance={"construction": "pip", "constraint_prices": row_price},
    )


# ---------------------------------------------------------------------------
# Dynamic matroid prices
# ---------------------------------------------------------------------------


def _matroid_residual_value(env: MatroidEnv, element_vals, order, taken_mask: int) -> float:
    """Max-weight independent extension of ``taken_mask``: greedy over
    ``order``, the positive-valued elements by decreasing value, ties by
    index (exact for additive element values)."""
    chosen = taken_mask
    total = 0.0
    for e in order:
        b = 1 << e
        if chosen & b:
            continue
        if env.matroid.independent(chosen | b):
            chosen |= b
            total += element_vals[e]
    return total


def _element_values(env: MatroidEnv, i: int, v) -> tuple:
    """Agent i's values of its own elements under ``v``, in ``env.elements``
    order, checked to add up to its value of all of them."""
    column = tuple(value(v, 1 << e) for e in env.elements[i])
    if abs(value(v, env.agent_mask(i)) - math.fsum(column)) > 1e-7:
        raise PricingError(
            "dynamic matroid prices require additive element values; "
            "use compose_max for structured valuations"
        )
    return column


def _require_matroid(env) -> None:
    if not isinstance(env, MatroidEnv):
        raise PricingError("dynamic matroid prices require a matroid environment")


def matroid_dynamic_prices(env: MatroidEnv, profile) -> PricingRule:
    """Price a set of elements at the drop in residual optimum it causes,
    given the elements already sold.  Additive element values required;
    route structured valuations through compose_max."""
    _require_matroid(env)
    element_vals = [0.0] * env.matroid.ground
    for i, v in enumerate(profile):
        for e, x in zip(env.elements[i], _element_values(env, i, v)):
            element_vals[e] = x
    order = [
        e
        for e in sorted(range(env.matroid.ground), key=lambda e: (-element_vals[e], e))
        if element_vals[e] > TOL
    ]
    # R(mask) per sold element mask: at most 2^ground entries, held by this rule
    @cache
    def residual_value(mask: int) -> float:
        return _matroid_residual_value(env, element_vals, order, mask)

    def finite(i, x_i, y):
        taken = env.union_mask(y)
        before = residual_value(taken)
        after = residual_value(taken | x_i)
        return before - after

    return PricingRule(
        env,
        finite,
        static=False,
        provenance={"construction": "matroid", "element_values": element_vals},
    )


# ---------------------------------------------------------------------------
# Critical-value prices for binary single-parameter problems
# ---------------------------------------------------------------------------


class MonotonicityError(PricingError):
    """Critical values decreased along a partial-allocation extension."""

    def __init__(self, witness):
        super().__init__(f"critical values are not monotone: {witness}")
        self.witness = witness


def _extends(y: Allocation, z: Allocation) -> bool:
    return all(a == NULL or a == b for a, b in zip(y, z))


def monotone_critical_prices(
    env,
    profile,
    rule: AllocationRule = OPT_RULE,
    smoothness: tuple[float, float] = (1.0, 1.0),
    cap: int = DEFAULT_CAP,
) -> PricingRule:
    """Post max(own value, critical value) per agent, conditioned on prior
    sales.  Verifies that critical values are non-decreasing along feasible
    extensions before constructing the rule (refusing with a witness
    otherwise).  With a (lam, mu)-smooth underlying rule the construction is
    (1, (mu + 1 + lam) / lam)-balanced against the contraction family."""
    if not is_binary_env(env):
        raise PricingError("critical-value prices require a binary environment")

    @cache
    def cleared_tau(i: int, y: Allocation):
        return critical_value(rule, env, profile, i, y, cap)

    def tau(i: int, y: Allocation):
        return cleared_tau(i, replace_at(y, i, NULL))

    feasible = enumerate_feasible(env, cap)
    for y in feasible:
        for z in feasible:
            if y == z or not _extends(y, z):
                continue
            for i in range(env.n):
                if z[i] != NULL:
                    continue
                t_small, t_big = tau(i, y), tau(i, z)
                small = math.inf if t_small is UNAVAILABLE else t_small
                big = math.inf if t_big is UNAVAILABLE else t_big
                if small > big + TOL:
                    raise MonotonicityError((i, y, z, small, big))

    lam, mu = smoothness

    def finite(i, x_i, y):
        t = tau(i, y)
        assert t is not UNAVAILABLE  # feasibility was checked by the wrapper
        return max(agent_value(env, profile, i), t)

    return PricingRule(
        env,
        finite,
        static=False,
        provenance={
            "construction": "warmup",
            "rule": rule.kind,
            "declared_beta": (mu + 1.0 + lam) / lam,
        },
    )


# ---------------------------------------------------------------------------
# Reference-allocation prices for binary single-parameter problems
# ---------------------------------------------------------------------------


def _zero_outside(env, profile, members: Allocation):
    out = []
    for i in range(env.n):
        if members[i] != NULL:
            out.append(profile[i])
        else:
            out.append(ScalarValuation(0.0))
    return tuple(out)


def _reference_prices(
    env,
    profile,
    alg_alloc: Allocation,
    rule: AllocationRule,
    name: str,
    cap: int = DEFAULT_CAP,
) -> PricingRule:
    if not is_binary_env(env):
        raise PricingError("reference-allocation prices require a binary environment")

    # the nested reference chain per partial allocation y: one entry per y
    # this rule prices, held by this rule
    @cache
    def reference_chain(y: Allocation):
        ref = alg_alloc
        vals = _zero_outside(env, profile, ref)
        for j in range(1, env.n + 1):
            ref = rule.run(env, vals, prefix(y, j), cap)
            vals = _zero_outside(env, profile, ref)
        return ref, vals

    def finite(i, x_i, y):
        ref, vals = reference_chain(y)
        if ref[i] != NULL:
            return agent_value(env, profile, i)
        t = critical_value(rule, env, vals, i, y, cap)
        return 0.0 if t is UNAVAILABLE else t

    return PricingRule(
        env,
        finite,
        static=False,
        provenance={"construction": name, "base_allocation": list(alg_alloc)},
    )


def greedy_derived_prices(env, profile, alg_alloc=None, cap: int = DEFAULT_CAP) -> PricingRule:
    """Prices from nested greedy reference allocations: a reference winner
    pays their value, everyone else the greedy critical value against the
    final reference set."""
    if alg_alloc is None:
        alg_alloc = greedy(env, profile)
    return _reference_prices(
        env, profile, alg_alloc, AllocationRule("greedy_by_value"), "alg1-greedy", cap
    )


def opt_derived_prices(env, profile, alg_alloc=None, cap: int = DEFAULT_CAP) -> PricingRule:
    """Prices from nested residual-optimal reference allocations; the non
    winner price is the welfare externality against the final reference set."""
    if alg_alloc is None:
        alg_alloc = opt(env, profile, cap)
    return _reference_prices(env, profile, alg_alloc, OPT_RULE, "alg2-opt", cap)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def compose_max(
    base_constructor: Callable[[Environment, tuple], PricingRule],
    env,
    profile,
    alg_alloc: Allocation,
    rule: Optional[AllocationRule] = None,
) -> PricingRule:
    """Price a max-of-simpler-valuations profile with the base construction
    applied to the supporting profile of the reference allocation.

    The balance parameters of the base construction carry over when the
    reference rule is consistent; a welfare drop of the supporting profile
    under re-allocation is recorded as a provenance warning.
    """
    items = getattr(env, "items", 0) or getattr(getattr(env, "matroid", None), "ground", 0)
    support_profile = tuple(
        supporting_valuation(v, x, items) for v, x in zip(profile, alg_alloc)
    )
    base = base_constructor(env, support_profile)
    provenance = dict(base.provenance)
    provenance["construction"] = f"compose-max({provenance.get('construction')})"
    if rule is not None:
        realloc = rule.run(env, support_profile)
        drop = welfare(support_profile, alg_alloc) - welfare(support_profile, realloc)
        if drop > TOL:
            provenance["consistency_warning"] = drop
    return PricingRule(env, base._finite_price, static=base.static, provenance=provenance)


def compose_add(product_env: ProductEnv, market_rules: Sequence[PricingRule]) -> PricingRule:
    """Sum of per-market prices on the product environment; a product entry is
    purchasable only when every component is."""
    if len(market_rules) != len(product_env.markets):
        raise PricingError("one pricing rule per market required")

    def finite(i, x_i, y):
        total = 0.0
        for ell, rule in enumerate(market_rules):
            p = rule.price(i, x_i[ell], product_env.project(y, ell))
            if p is UNAVAILABLE:
                raise AssertionError("component unavailable on a feasible product entry")
            total += p
        return total

    return PricingRule(
        product_env,
        finite,
        static=all(r.static for r in market_rules),
        provenance={
            "construction": "compose-add",
            "markets": [r.provenance.get("construction") for r in market_rules],
        },
    )


# ---------------------------------------------------------------------------
# Expected scaled prices (stochastic transform)
# ---------------------------------------------------------------------------


class SupportTable:
    """Distinct valuation profiles by atom index: ``values[i]`` holds agent
    i's distinct valuations in order of first appearance, and the profiles
    are every combination of them, in ``itertools.product`` order (last
    agent fastest), so the first profile's indices are all 0."""

    def __init__(self, values: tuple):
        self.values = values

    def __len__(self) -> int:
        return math.prod(map(len, self.values))

    def profiles(self):
        """The profiles, as valuation tuples."""
        return product(*self.values)

    def column(self, i: int):
        """Agent i's index in each profile, as a numpy array."""
        import numpy as np

        sizes = list(map(len, self.values))
        inner = np.repeat(np.arange(sizes[i]), math.prod(sizes[i + 1:]))
        return np.tile(inner, math.prod(sizes[:i]))

    def slots(self, index: Sequence[Sequence[int]]) -> list[int]:
        """Each profile's position in a product table, for the combinations
        of atoms in ``itertools.product`` order, given each atom's index
        into its agent's values: the mixed-radix number of those indices."""
        import numpy as np

        slots = np.zeros(1, dtype=np.intp)
        for vals, at in zip(self.values, index):
            slots = np.add.outer(slots * len(vals), at).ravel()
        return slots.tolist()


# A support form prices one entry for every distinct support profile at
# once: ``form(env, table)`` takes the profiles as a ``SupportTable`` and
# returns a column function (i, x_i, y) -> one finite price per profile,
# float for float the price that profile's own rule gives, or None where it
# does not apply to these profiles.
SupportForm = Callable[[Environment, SupportTable], Optional[Callable]]

# Fewest distinct support profiles at which a support form prices the misses:
# the matroid form's crossover on uniform matroids of ground 6 and 7 under
# fixed and adversary orders, measured when each miss ran its own numpy
# pass.  With batched passes the matroid form is faster than the per-profile
# rules from 16 profiles on; the constant also gates the single-item form and
# the fixed-point kernel of ``expected_opt``, so it is kept.
SUPPORT_FORM_MIN_PROFILES = 32

# Most support profiles an exact expectation enumerates by default.
EXACT_SUPPORT_CAP = 100_000

# Entries (rows times distinct profiles) up to which a matroid residual pass
# takes the next sold masks that no miss has asked yet, besides the asked
# ones, and the most distinct profiles at which it takes any.  A pass's fixed
# numpy cost is 30-45 us, and one row's element work about 17 us at 512
# profiles but 50 us at 1 024, where a filled row costs more than the pass it
# may save; filling the whole table at the first miss made large Monte Carlo
# jobs several times slower.
RESIDUAL_PASS_ENTRIES = 4096
RESIDUAL_FILL_MAX_PROFILES = 512


def single_item_support_prices(env: SingleItemEnv, table: SupportTable):
    """Support form of ``single_item_prices``: every entry's column holds
    each profile's top value."""
    if not isinstance(env, SingleItemEnv):
        raise PricingError("single_item_prices requires a single-item environment")
    # each agent's distinct valuations valued once, the first profile's
    # first, so a valuation that cannot be valued fails where the first rule
    # would
    first = [value(vals[0], 1) for vals in table.values]
    worth = [[w, *(value(v, 1) for v in vals[1:])] for w, vals in zip(first, table.values)]
    # max over the agents in order, as the rule's own max: the same float,
    # signed zeros included
    tops = list(map(max, product(*worth)))
    return lambda i, x_i, y: tops


class _MatroidColumns:
    """Price columns of the dynamic matroid prices over all-additive support
    profiles: the residual optimum R(T) of every profile at once, one column
    per sold mask T, and an entry's column R(T) - R(T | x_i).  The greedy of
    ``_matroid_residual_value`` runs by position over each profile's order
    (positive elements by decreasing value, ties by index), so each profile
    adds the same floats in the same order and every price is the float its
    own rule gives.

    Up to ``RESIDUAL_FILL_MAX_PROFILES`` profiles, a miss's pass also
    computes the next sold masks not yet computed, in ascending order, up to
    ``RESIDUAL_PASS_ENTRIES`` entries: 64 rows at 64 profiles, 8 at 512.
    Above that a pass holds only the asked masks.  Each row's greedy is its
    own, so the batch changes no float."""

    def __init__(self, env: MatroidEnv, table: SupportTable):
        import numpy as np

        self._env = env
        ground = env.matroid.ground
        # element values, one row per profile, gathered by each agent's
        # index from its distinct valuations' values
        vals = np.zeros((len(table), ground))
        for i, owned in enumerate(env.elements):
            agent = table.values[i]
            element = np.array([_element_values(env, i, v) for v in agent], dtype=float)
            vals[:, list(owned)] = element.reshape(len(agent), len(owned))[table.column(i)]
        order = np.argsort(-vals, axis=1, kind="stable")
        # one row per greedy position, one entry per profile
        self._vals = np.take_along_axis(vals, order, axis=1).T.copy()
        positive = self._vals > TOL
        self._bits = np.left_shift(1, order).T.copy()
        # positive elements lead each profile's order
        self._depth = int(positive.any(axis=1).sum())
        # a position's element, offset to its block of the extension table;
        # a position past the profile's positive elements reads the last,
        # all-False block
        self._block = np.where(positive, order.T, ground) << ground
        # block e, entry T: element e is outside T and T + e is independent
        masks = np.arange(1 << ground)
        independent = np.fromiter(map(env.matroid.independent, masks.tolist()), dtype=bool)
        self._extends = np.zeros((ground + 1) << ground, dtype=bool)
        for e in range(ground):
            fresh = masks & (1 << e) == 0
            self._extends[e << ground:(e + 1) << ground] = fresh & independent[masks | 1 << e]
        # R(T) per sold element mask T: at most 2^ground columns
        self._residual: dict = {}
        # the sold masks, independent sets of the agents' own elements, in
        # ascending order for the passes to fill from
        owned = env.union_mask(map(env.agent_mask, range(env.n)))
        self._unfilled = iter(np.flatnonzero(independent & (masks & ~owned == 0)).tolist())
        fills = len(table) <= RESIDUAL_FILL_MAX_PROFILES
        self._rows = RESIDUAL_PASS_ENTRIES // len(table) if fills else 0

    def _residuals(self, masks: list):
        """R(T) for each T in ``masks``, one row each, in one greedy pass."""
        import numpy as np

        chosen = np.repeat(np.array(masks)[:, None], self._vals.shape[1], axis=1)
        total = np.zeros(chosen.shape)
        for k in range(self._depth):
            take = self._extends[chosen | self._block[k]]
            chosen |= self._bits[k] * take
            # adding 0.0 leaves a total unchanged: totals are never -0.0
            total += self._vals[k] * take
        return total

    def __call__(self, i, x_i, y):
        taken = self._env.union_mask(y)
        residual = self._residual
        asked = [m for m in (taken, taken | x_i) if m not in residual]
        if asked:
            masks = asked
            if self._rows > len(asked):
                fresh = (m for m in self._unfilled if m not in residual and m not in asked)
                masks = asked + list(islice(fresh, self._rows - len(asked)))
            for mask, column in zip(masks, self._residuals(masks)):
                residual[mask] = column
        return (residual[taken] - residual[taken | x_i]).tolist()


def matroid_support_prices(env: MatroidEnv, table: SupportTable):
    """Support form of ``matroid_dynamic_prices``, for profiles that are all
    additive (other profiles take ``compose_max`` and their own rules)."""
    _require_matroid(env)
    if not all(isinstance(v, AdditiveValuation) for vals in table.values for v in vals):
        return None
    return _MatroidColumns(env, table)


def expected_scaled_prices(
    env,
    dist,
    constructor: Callable[[tuple], PricingRule],
    params: BalanceParams,
    cap: int = EXACT_SUPPORT_CAP,
    support: Optional[SupportForm] = None,
) -> PricingRule:
    """Scaled expectation of per-profile pricing rules over the product
    support of a distribution.

    ``constructor`` maps a realized valuation profile to its pricing rule.
    Entries are unavailable only by current feasibility; the per-profile
    rules in scope are finite exactly on feasible entries, so averaging never
    mixes finite and unavailable prices.

    A miss is priced from one column over the distinct support profiles.
    With ``support``, a support form of ``constructor``, and at least
    ``SUPPORT_FORM_MIN_PROFILES`` distinct profiles, the form gives the
    column; otherwise (or where the form does not apply) each profile's own
    rule does.

    The support is read by atom index: the distinct profiles are every
    combination of the agents' distinct valuations, and a support profile's
    slot is the mixed-radix number of its atoms' indices, so no profile is
    hashed.
    """
    delta = params.scale_factor()
    table, index, probs = dist.support_table(cap)
    probs = probs.tolist()
    slot_of = table.slots(index) if len(table) < len(probs) else None
    # with ``slot_of`` None each support entry is its own slot: no agent
    # repeats a valuation among its atoms
    finites: list = []  # each distinct profile's finite price, in slot order
    source = None  # the column source, chosen at the first miss
    # the last miss's column and its price: the single-item form returns one
    # column object for every entry, so it is averaged once
    last_column = last_price = None

    def per_profile_column(i, x_i, y):
        # the outer price() has priced null, cleared slot i and checked
        # feasibility on env, which every per-profile rule shares
        if not finites:
            built = []
            for profile in table.profiles():
                rule = constructor(profile)
                if rule.env != env:
                    raise PricingError("per-profile rule is built on a different environment")
                built.append(rule._finite_price)
            # kept only once every rule is built, so a failed construction
            # raises again at the next miss
            finites.extend(built)
        prices = [f(i, x_i, y) for f in finites]
        if UNAVAILABLE in prices:
            raise AssertionError("per-profile price unavailable on a feasible entry")
        return prices

    def finite(i, x_i, y):
        # rules and forms are built at the first miss, so construction errors
        # surface there
        nonlocal source, last_column, last_price
        if source is None:
            form = None
            if support is not None and len(table) >= SUPPORT_FORM_MIN_PROFILES:
                form = support(env, table)
            source = form or per_profile_column
        column = source(i, x_i, y)
        if column is not last_column:
            last_column = column
            if slot_of is not None:
                column = map(column.__getitem__, slot_of)
            last_price = delta * math.fsum(map(mul, probs, column))
        return last_price

    return PricingRule(
        env,
        finite,
        static=False,
        provenance={
            "construction": "expected-scaled",
            "delta": delta,
            "guarantee": params.welfare_guarantee(),
        },
    )
