"""Domain types for agents, outcomes, feasibility environments, and valuations.

Allocations are plain tuples of per-agent outcome tokens.  The null outcome is
always the numeric token ``0`` (the empty bitmask for set-valued kinds, the
zero quantity for divisible kinds), so restriction and welfare arithmetic need
no per-kind special cases.  All types here are immutable after construction
apart from their derived facts (``DerivedFacts``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

TOL = 1e-9

NULL = 0

Allocation = tuple

MAX_ITEMS = 16

# finest knapsack grid: a step below 1/MAX_GRID_UNITS is rejected
MAX_GRID_UNITS = 1 << 16


class Unavailable:
    """Marker for menu entries priced at infinity (infeasible purchases).

    Never participates in arithmetic; comparisons must check identity against
    the UNAVAILABLE singleton.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNAVAILABLE"


UNAVAILABLE = Unavailable()


def _first_max(ws: Iterable[float]) -> int:
    """Index of the first maximum within ``TOL`` in ``ws`` (-1 when empty)."""
    best, best_w = -1, -math.inf
    for k, w in enumerate(ws):
        if w > best_w + TOL:
            best, best_w = k, w
    return best


class CapExceeded(Exception):
    """Enumeration or search exceeded the configured resource cap; ``what``
    names the things counted (feasible allocations, memo states, ...)."""

    def __init__(self, count: int, cap: int, what: str):
        super().__init__(f"{what} exceeded cap: {count} > {cap}")
        self.count = count
        self.cap = cap


def prefix(alloc: Allocation, k: int) -> Allocation:
    """Zero out agents k, k+1, ..., n-1 (keep the first k)."""
    return alloc[:k] + (NULL,) * (len(alloc) - k)


def replace_at(alloc: Allocation, i: int, outcome) -> Allocation:
    return alloc[:i] + (outcome,) + alloc[i + 1 :]


def support(alloc: Allocation) -> tuple[int, ...]:
    """Indices of agents with a non-null outcome."""
    return tuple(i for i, x in enumerate(alloc) if x != NULL)


def bitmask_items(mask: int) -> tuple[int, ...]:
    """Indices of the set bits among the low ``MAX_ITEMS`` bits, ascending."""
    mask &= (1 << MAX_ITEMS) - 1
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def popcount(mask: int) -> int:
    return mask.bit_count()


def _fields_state(self) -> dict:
    """The pickled state: the instance dict less the derived facts and the
    field hash, which may differ between processes."""
    return {k: v for k, v in self.__dict__.items() if k not in ("_facts", "_hash")}


class DerivedFacts:
    """One store of facts derived from an object's fields: a dict made in
    ``__new__`` (a class ``__getattr__`` making it on first read would slow
    every attribute read), outside the dataclass fields, so ``==``, ``hash``
    and ``repr`` see only the fields, and dropped on pickle and copy.  An
    environment's store holds named tables of its feasible list, kept by
    ``enumerate_feasible`` under ``"feasible"``, with each listed
    allocation's DFS state under ``"states"``; ``oracle.fact`` builds the
    others.  A matroid's store is its one table, independence per mask, read
    in one lookup.  Each table's bound is the one README's memo table states."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls)
        object.__setattr__(self, "_facts", {})
        return self

    __getstate__ = _fields_state


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------


def _hash_once(cls):
    """Compute the generated field hash of frozen dataclass ``cls`` once per
    object: valuations key the pricing and optimum memos, and rehashing every
    clause on each lookup dominates them.  The hash is the generated one,
    kept outside the fields and not pickled."""
    field_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls._hash = None
    cls.__hash__ = __hash__
    cls.__getstate__ = _fields_state
    return cls


@_hash_once
@dataclass(frozen=True)
class AdditiveValuation:
    """Per-item values; the value of a bitmask is the sum over its set bits."""

    values: tuple[float, ...]

    kind = "additive"

    def value(self, x) -> float:
        _check_mask(x)
        return math.fsum(self.values[j] for j in bitmask_items(x))


@_hash_once
@dataclass(frozen=True)
class XosValuation:
    """Maximum over additive clauses (each clause a per-item value vector)."""

    clauses: tuple[tuple[float, ...], ...]

    kind = "xos"

    def value(self, x) -> float:
        _check_mask(x)
        if not self.clauses:
            return 0.0
        return max(math.fsum(c[j] for j in bitmask_items(x)) for c in self.clauses)

    def supporting_clause(self, x) -> int:
        """Index of the first clause attaining the maximum on ``x``."""
        items = bitmask_items(x)
        return _first_max(math.fsum(c[j] for j in items) for c in self.clauses)


# A hypergraph clause is a tuple of (edge bitmask, weight >= 0) pairs.
MphClause = tuple[tuple[int, float], ...]


@_hash_once
@dataclass(frozen=True)
class MphValuation:
    """Maximum over positive-hypergraph clauses of bounded edge size."""

    clauses: tuple[MphClause, ...]

    kind = "mph"

    def __post_init__(self):
        for clause in self.clauses:
            for edge, w in clause:
                if w < 0:
                    raise ValueError(f"negative hyperedge weight {w}")
                if edge == 0:
                    raise ValueError("empty hyperedge")

    @property
    def rank(self) -> int:
        sizes = [popcount(e) for clause in self.clauses for e, _ in clause]
        return max(sizes) if sizes else 1

    def clause_value(self, idx: int, x) -> float:
        return math.fsum(w for e, w in self.clauses[idx] if e & x == e)

    def value(self, x) -> float:
        _check_mask(x)
        if not self.clauses:
            return 0.0
        return max(self.clause_value(i, x) for i in range(len(self.clauses)))

    def supporting_clause(self, x) -> int:
        """Index of the first clause attaining the maximum on ``x``."""
        return _first_max(self.clause_value(idx, x) for idx in range(len(self.clauses)))


@_hash_once
@dataclass(frozen=True)
class ThresholdValuation:
    """All-or-nothing value for receiving at least ``size`` units."""

    value_at_size: float
    size: float

    kind = "knapsack_threshold"

    def value(self, x) -> float:
        q = float(x)
        return self.value_at_size if q >= self.size - TOL else 0.0


@_hash_once
@dataclass(frozen=True)
class ScalarValuation:
    """Linear value: outcome 1 is worth ``rate``; fractional levels scale."""

    rate: float

    kind = "scalar"

    def value(self, x) -> float:
        return self.rate * float(x)


@_hash_once
@dataclass(frozen=True)
class TableValuation:
    """Explicit outcome-token -> value map; unknown tokens are a domain error."""

    entries: tuple[tuple[object, float], ...]

    kind = "table"

    def value(self, x) -> float:
        if x == NULL:
            return 0.0
        for token, v in self.entries:
            if token == x:
                return v
        raise KeyError(f"outcome {x!r} not in table valuation")


@_hash_once
@dataclass(frozen=True)
class MarketValuation:
    """Additive across markets: the outcome is a tuple of per-market outcomes."""

    parts: tuple["Valuation", ...]

    kind = "product"

    def value(self, x) -> float:
        if x == NULL:
            return 0.0
        if len(x) != len(self.parts):
            raise ValueError("product outcome arity mismatch")
        return math.fsum(value(p, xi) for p, xi in zip(self.parts, x))


Valuation = Union[
    AdditiveValuation,
    XosValuation,
    MphValuation,
    ThresholdValuation,
    ScalarValuation,
    TableValuation,
    MarketValuation,
]

ValuationProfile = tuple


def _check_mask(x) -> None:
    if not isinstance(x, int) or x < 0:
        raise KeyError(f"expected item bitmask, got {x!r}")


def value(v: Valuation, x) -> float:
    """Value of outcome ``x`` under valuation ``v``; value(NULL) is always 0."""
    if x == NULL:
        return 0.0
    return v.value(x)


def welfare(profile: Sequence[Valuation], alloc: Allocation) -> float:
    if len(profile) != len(alloc):
        raise ValueError("profile and allocation lengths differ")
    return math.fsum(value(v, x) for v, x in zip(profile, alloc))


# ---------------------------------------------------------------------------
# Matroids
# ---------------------------------------------------------------------------

K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class Matroid(DerivedFacts):
    """Independence oracle over a ground set of at most MAX_ITEMS elements.

    kind is one of uniform | partition | graphic_k4.
    """

    kind: str
    ground: int
    rank_bound: int = 0
    blocks: tuple[tuple[int, ...], ...] = ()
    capacities: tuple[int, ...] = ()

    def __post_init__(self):
        if self.ground > MAX_ITEMS:
            raise ValueError(f"at most {MAX_ITEMS} ground elements supported")

    @staticmethod
    def uniform(rank: int, ground: int) -> "Matroid":
        return Matroid(kind="uniform", ground=ground, rank_bound=rank)

    @staticmethod
    def partition(blocks: Sequence[Sequence[int]], capacities: Sequence[int]) -> "Matroid":
        ground = max((e for b in blocks for e in b), default=-1) + 1
        return Matroid(
            kind="partition",
            ground=ground,
            blocks=tuple(tuple(b) for b in blocks),
            capacities=tuple(capacities),
        )

    @staticmethod
    def graphic_k4() -> "Matroid":
        return Matroid(kind="graphic_k4", ground=len(K4_EDGES))

    def independent(self, mask: int) -> bool:
        """Whether the elements of ``mask`` are independent, answered once
        per mask below 2^ground; a mask with a bit at or above ``ground`` is
        dependent and is not stored."""
        known = self._facts.get(mask)
        if known is None:
            if mask >> self.ground:
                return False
            known = self._facts[mask] = self._decide(mask)
        return known

    def _decide(self, mask: int) -> bool:
        if self.kind == "uniform":
            return popcount(mask) <= self.rank_bound
        if self.kind == "partition":
            for block, cap in zip(self.blocks, self.capacities):
                if sum(1 for e in block if mask >> e & 1) > cap:
                    return False
            return True
        if self.kind == "graphic_k4":
            return self._acyclic(mask)
        raise ValueError(f"unknown matroid kind {self.kind}")

    def _acyclic(self, mask: int) -> bool:
        parent = list(range(4))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in bitmask_items(mask):
            u, v = K4_EDGES[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


def _submasks(mask: int) -> list[int]:
    """Every submask of ``mask`` in ascending order: entry c is the submask
    whose k-th lowest bit of ``mask`` is set exactly when bit k of c is."""
    subs = [0]
    while mask:
        bit = mask & -mask
        mask ^= bit
        subs += [s | bit for s in subs]
    return subs


class EnvironmentBase(DerivedFacts):
    """Shared behaviour: outcome-space access, enumeration, validation."""

    kind: str
    n: int

    def agent_outcomes(self, i: int) -> tuple:
        raise NotImplementedError

    def is_feasible(self, alloc: Allocation) -> bool:
        raise NotImplementedError

    def null_allocation(self) -> Allocation:
        return (NULL,) * self.n

    # DFS step: a feasible allocation's state, null from agent i on, given
    # agent i's ``tok`` (None if infeasible); by default the allocation itself.
    start_state = property(null_allocation)

    def extend(self, state, i: int, tok):
        alloc = replace_at(state, i, tok)
        return alloc if self.is_feasible(alloc) else None


@dataclass(frozen=True)
class SingleItemEnv(EnvironmentBase):
    n: int

    kind = "single_item"
    start_state = 0  # the DFS state: the count of sold items

    def agent_outcomes(self, i: int) -> tuple:
        return (0, 1)

    def is_feasible(self, alloc: Allocation) -> bool:
        return sum(alloc) <= 1

    def extend(self, count, i: int, tok):
        return count + tok if count + tok <= 1 else None


@dataclass(frozen=True)
class MatroidEnv(EnvironmentBase):
    """Ground-set elements partitioned among agents; an allocation is feasible
    when the union of the selected element masks is independent."""

    n: int
    matroid: Matroid
    elements: tuple[tuple[int, ...], ...]

    kind = "matroid"
    start_state = 0  # the DFS state: the union mask

    def __post_init__(self):
        seen: set[int] = set()
        for owned in self.elements:
            for e in owned:
                if e in seen:
                    raise ValueError(f"element {e} owned by two agents")
                seen.add(e)
        # not a field and kept on pickle; writing through ``__dict__`` would
        # slow every attribute read of the object
        masks = tuple(sum(1 << e for e in owned) for owned in self.elements)
        object.__setattr__(self, "_agent_masks", masks)

    def agent_mask(self, i: int) -> int:
        return self._agent_masks[i]

    def agent_outcomes(self, i: int) -> tuple:
        return tuple(_submasks(self.agent_mask(i)))

    def union_mask(self, alloc: Allocation) -> int:
        m = 0
        for x in alloc:
            m |= x
        return m

    def is_feasible(self, alloc: Allocation) -> bool:
        masks = self._agent_masks
        for i, x in enumerate(alloc):
            if x & ~masks[i]:
                return False
        return self.matroid.independent(self.union_mask(alloc))

    def extend(self, union, i: int, tok):
        union |= tok
        ok = not tok & ~self._agent_masks[i] and self.matroid.independent(union)
        return union if ok else None


@dataclass(frozen=True)
class CombinatorialAuctionEnv(EnvironmentBase):
    """Item bitmask outcomes; feasible when assigned bundles are disjoint."""

    n: int
    items: int
    fractional: bool = False

    start_state = 0  # the DFS state: the used item mask

    def __post_init__(self):
        if self.items > MAX_ITEMS:
            raise ValueError(f"at most {MAX_ITEMS} items supported, got {self.items}")

    @property
    def kind(self) -> str:  # type: ignore[override]
        return "fractional_ca" if self.fractional else "combinatorial_auction"

    def agent_outcomes(self, i: int) -> tuple:
        return tuple(range(1 << self.items))

    def is_feasible(self, alloc: Allocation) -> bool:
        used = 0
        for x in alloc:
            if x & used:
                return False
            used |= x
        return True

    def extend(self, used, i: int, tok):
        return None if tok & used else used | tok


@dataclass(frozen=True)
class KnapsackEnv(EnvironmentBase):
    """One divisible unit of capacity; outcomes are grid quantities in
    [0, max_share].  Instances whose demands stay at or below half the
    capacity use max_share = 1/2, which is what keeps the full feasible set
    exchange compatible below the half-load threshold."""

    n: int
    step: float = 0.125
    max_share: float = 1.0

    kind = "knapsack"
    start_state = 0  # the DFS state: the running sum, started as ``sum`` starts

    def __post_init__(self):
        # the outcome grid and the knapsack DP both have about 1/step entries;
        # check before anything that size is built
        if not self.step * MAX_GRID_UNITS >= 1.0:
            raise ValueError(
                f"knapsack step {self.step!r} gives more than {MAX_GRID_UNITS} grid units"
            )

    def agent_outcomes(self, i: int) -> tuple:
        """The grid quantities up to the share, which ``extend`` admits from
        the empty total; a step that does not divide the share stops below
        it."""
        levels = round(self.max_share / self.step)
        grid = (k * self.step for k in range(levels + 1))
        return tuple(q for q in grid if q <= self.max_share + TOL)

    def is_feasible(self, alloc: Allocation) -> bool:
        if any(q > self.max_share + TOL for q in alloc):
            return False
        return sum(alloc) <= 1.0 + TOL

    def extend(self, total, i: int, tok):
        total += tok
        return total if tok <= self.max_share + TOL and total <= 1.0 + TOL else None


@dataclass(frozen=True)
class PipEnv(EnvironmentBase):
    """Packing constraints A x <= c with binary demand levels per agent."""

    n: int
    matrix: tuple[tuple[float, ...], ...]
    capacities: tuple[float, ...]

    kind = "pip"

    def __post_init__(self):
        if len(self.capacities) != len(self.matrix):
            raise ValueError(
                f"{len(self.capacities)} capacities for {len(self.matrix)} constraint rows"
            )
        for row in self.matrix:
            if len(row) != self.n:
                raise ValueError("constraint row length != agent count")
            for a in row:
                if not 0.0 <= a <= 0.5 + TOL:
                    raise ValueError(f"coefficient {a} outside [0, 1/2]")
        for c in self.capacities:
            if not abs(c - 1.0) <= TOL:
                raise ValueError("capacities must be 1")

    @property
    def rows(self) -> int:
        return len(self.matrix)

    def load(self, alloc: Allocation) -> tuple[float, ...]:
        return tuple(
            math.fsum(row[i] * float(alloc[i]) for i in range(self.n)) for row in self.matrix
        )

    @staticmethod
    def row_loads(rows) -> tuple[float, ...]:
        """Each row's load from a DFS state's nonzero load terms: the floats
        ``load`` gives, as ``fsum`` is exact and a zero term adds nothing."""
        return tuple(map(math.fsum, rows))

    def column_sparsity(self, i: int) -> int:
        return sum(1 for row in self.matrix if row[i] > TOL)

    def agent_outcomes(self, i: int) -> tuple:
        return (0, 1)

    def is_feasible(self, alloc: Allocation) -> bool:
        return all(l <= c + TOL for l, c in zip(self.load(alloc), self.capacities))

    start_state = property(lambda self: ((),) * self.rows)  # each row's nonzero load terms

    def extend(self, rows, i: int, tok):
        # only the rows agent i loads change; zero terms leave an fsum as it is
        rows = list(rows)
        for r, (row, c) in enumerate(zip(self.matrix, self.capacities)):
            if row[i] * float(tok):
                rows[r] += (row[i] * float(tok),)
                if not math.fsum(rows[r]) <= c + TOL:
                    return None
        return tuple(rows)


@dataclass(frozen=True)
class ExplicitEnv(EnvironmentBase):
    """Feasibility by membership in an explicit allocation list."""

    n: int
    outcome_tokens: tuple[tuple[object, ...], ...]
    feasible_set: frozenset

    kind = "explicit"

    def __post_init__(self):
        if len(self.outcome_tokens) != self.n:
            raise ValueError(
                f"explicit outcomes has {len(self.outcome_tokens)} token lists for {self.n} agents"
            )
        for tokens in self.outcome_tokens:
            if NULL not in tokens:
                raise ValueError("every agent's outcome space must contain the null token 0")
        # a listed allocation outside the token spaces would pass is_feasible
        # but never be enumerated, so OPT and the exchange sets would drop it
        for alloc in self.feasible_set:
            if len(alloc) != self.n:
                raise ValueError(f"listed allocation {alloc} has {len(alloc)} entries for {self.n} agents")
            for i, (x, tokens) in enumerate(zip(alloc, self.outcome_tokens)):
                if x not in tokens:
                    raise ValueError(
                        f"listed allocation {alloc} gives agent {i} the token {x!r}, "
                        f"outside its outcomes {tokens}"
                    )
        if self.null_allocation() not in self.feasible_set:
            raise ValueError("the all-null allocation must be feasible")
        # downward closed: every one-slot drop of a listed allocation is
        # listed, so by induction every restriction is
        for alloc in self.feasible_set:
            for i, x in enumerate(alloc):
                if x != NULL and replace_at(alloc, i, NULL) not in self.feasible_set:
                    raise ValueError(
                        f"feasible set is not downward closed: {alloc} is listed "
                        f"but {replace_at(alloc, i, NULL)} is not"
                    )

    def agent_outcomes(self, i: int) -> tuple:
        return tuple(sorted(self.outcome_tokens[i], key=_token_key))

    def is_feasible(self, alloc: Allocation) -> bool:
        return alloc in self.feasible_set


@dataclass(frozen=True)
class ProductEnv(EnvironmentBase):
    """Independent markets sharing the same agents; outcomes are tuples of
    per-market outcomes and feasibility is market-wise."""

    markets: tuple[EnvironmentBase, ...]

    kind = "product"

    def __post_init__(self):
        ns = {m.n for m in self.markets}
        if len(ns) != 1:
            raise ValueError("all markets must share the agent count")

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.markets[0].n

    def agent_outcomes(self, i: int) -> tuple:
        per_market = [m.agent_outcomes(i) for m in self.markets]
        out = [combo for combo in itertools.product(*per_market)]
        null = (NULL,) * len(self.markets)
        return tuple(x if x != null else NULL for x in sorted(out))

    def project(self, alloc: Allocation, market: int) -> Allocation:
        return tuple(
            NULL if x == NULL else x[market] for x in alloc
        )

    def is_feasible(self, alloc: Allocation) -> bool:
        for x in alloc:
            if x != NULL and len(x) != len(self.markets):
                return False
        return all(
            m.is_feasible(self.project(alloc, ell)) for ell, m in enumerate(self.markets)
        )


Environment = Union[
    SingleItemEnv,
    MatroidEnv,
    CombinatorialAuctionEnv,
    KnapsackEnv,
    PipEnv,
    ExplicitEnv,
    ProductEnv,
]


def _token_key(tok):
    # ints sort before tuple tokens; mixed spaces stay deterministic
    if isinstance(tok, tuple):
        return (1, tok)
    return (0, (tok,))


DEFAULT_CAP = 200_000


def enumerate_feasible(env: Environment, cap: int = DEFAULT_CAP) -> tuple[Allocation, ...]:
    """All feasible allocations in lexicographic token order (agent 0 most
    significant).  Raises CapExceeded when the count passes ``cap``.

    Feasibility must be downward closed: a partial allocation is pruned as
    soon as it fails with trailing nulls, since no completion of it can pass.
    The DFS carries each kind's state one agent per level (``extend``), a null
    token below agent 0 reusing its parent's verdict; ``is_feasible`` stays the spec.

    The list is a property of the environment, so the first enumeration that
    finishes within its cap is kept in ``env``'s store and later calls return
    it; a call whose cap is below its length raises as the enumeration would.
    Each listed allocation's DFS leaf state is kept beside it, under
    ``"states"``.
    """
    feasible = env._facts.get("feasible")
    if feasible is not None:
        if len(feasible) > cap:
            raise CapExceeded(cap + 1, cap, "feasible allocations")
        return feasible
    n = env.n
    extend = env.extend
    spaces = [sorted(env.agent_outcomes(i), key=_token_key) for i in range(n)]
    out: list[Allocation] = []
    states: list = []
    cur: list = [NULL] * n

    def rec(i: int, state) -> None:
        if i == n:
            out.append(tuple(cur))
            states.append(state)
            if len(out) > cap:
                raise CapExceeded(len(out), cap, "feasible allocations")
            return
        for tok in spaces[i]:
            if i and tok == NULL:
                nxt = state  # the parent's allocation, already feasible
            else:
                nxt = extend(state, i, tok)
                if nxt is None:
                    continue
            cur[i] = tok
            rec(i + 1, nxt)
        cur[i] = NULL

    rec(0, env.start_state)
    env._facts["states"] = states
    feasible = env._facts["feasible"] = tuple(out)
    return feasible
