"""Named instance generators: the two small lower-bound auctions, the
common-outcome construction where no posted prices help, seeded random
families per environment kind, and the tight two-point single-item instance.

Generation is a pure function of (name, parameters, seed); values are drawn
on a 1/8 grid so welfare sums stay exact in binary floating point.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from .core import (
    AdditiveValuation,
    CapExceeded,
    CombinatorialAuctionEnv,
    ExplicitEnv,
    KnapsackEnv,
    Matroid,
    MatroidEnv,
    MphValuation,
    PipEnv,
    ScalarValuation,
    SingleItemEnv,
    TableValuation,
    ThresholdValuation,
    XosValuation,
)
from .serialize import Instance
from .stochastic import ProductDistribution, trial_rng

GRID = 8  # value granularity: integers over eighths


def _grid_value(rng: np.random.Generator, lo: int = 0, hi: int = 16) -> float:
    return int(rng.integers(lo, hi + 1)) / GRID


def gen_unit_demand_vs_bundle(d: int = 4) -> Instance:
    """d items, a unit-demand agent worth 1 per item arriving against an
    agent who wants all d items for value d.  Any static item prices lose a
    factor d in the worst arrival order."""
    if d < 2:
        raise ValueError("need at least two items")
    env = CombinatorialAuctionEnv(n=2, items=d)
    singleton_clauses = tuple(
        tuple(1.0 if k == j else 0.0 for k in range(d)) for j in range(d)
    )
    grand = (1 << d) - 1
    profile = (
        XosValuation(singleton_clauses),
        MphValuation((((grand, float(d)),),)),
    )
    return Instance(env=env, profile=profile)


def gen_single_minded_triangle() -> Instance:
    """Three items; three bidders want distinct pairs at 2 and a fourth wants
    the triple at 3.  The best achievable worst-order welfare is 2 vs 3."""
    env = CombinatorialAuctionEnv(n=4, items=3)
    pair = lambda a, b: (1 << a) | (1 << b)
    profile = (
        MphValuation((((pair(0, 1), 2.0),),)),
        MphValuation((((pair(1, 2), 2.0),),)),
        MphValuation((((pair(0, 2), 2.0),),)),
        MphValuation(((((1 << 3) - 1, 3.0),),)),
    )
    return Instance(env=env, profile=profile)


def gen_common_outcome_instance(n: int = 3, k: int = 3, cap: int = 4096) -> Instance:
    """Every served agent must receive the same token out of k^n candidates;
    each agent wants one uniformly random coordinate value.  The offline
    optimum always serves everyone, while any posted-price mechanism commits
    to one token and expects at most 1 + (n-1)/k."""
    total = k**n
    if total > cap:
        raise CapExceeded(total, cap, "common outcome tokens")
    tokens = tuple(range(1, total + 1))
    outcome_tokens = tuple((0,) + tokens for _ in range(n))

    feasible = {(0,) * n}
    for t in tokens:
        for pattern in itertools.product((0, t), repeat=n):
            feasible.add(pattern)
    env = ExplicitEnv(
        n=n, outcome_tokens=outcome_tokens, feasible_set=frozenset(feasible)
    )

    def digit(t: int, i: int) -> int:
        return (t - 1) // k**i % k

    supports = []
    for i in range(n):
        atoms = []
        for z in range(k):
            entries = tuple(
                (t, 1.0 if digit(t, i) == z else 0.0) for t in tokens
            )
            atoms.append((TableValuation(entries), 1.0 / k))
        supports.append(tuple(atoms))
    dist = ProductDistribution(tuple(supports))
    profile = tuple(atoms[0][0] for atoms in supports)
    return Instance(env=env, profile=profile, distribution=dist)


def _binary_matroid_instance(matroid: Matroid, rng: np.random.Generator) -> Instance:
    n = matroid.ground
    env = MatroidEnv(n=n, matroid=matroid, elements=tuple((e,) for e in range(n)))
    profile = tuple(
        AdditiveValuation(
            tuple(_grid_value(rng) if e == i else 0.0 for e in range(n))
        )
        for i in range(n)
    )
    return Instance(env=env, profile=profile)


def gen_matroid(
    kind: str = "uniform",
    seed: int = 0,
    rank: int = 2,
    ground: int = 4,
    blocks: Optional[Sequence[Sequence[int]]] = None,
    capacities: Optional[Sequence[int]] = None,
) -> Instance:
    """Binary single-parameter matroid instance (one element per agent) with
    seeded grid values."""
    rng = trial_rng(seed, 0)
    if kind == "uniform":
        matroid = Matroid.uniform(rank, ground)
    elif kind == "partition":
        if blocks is None:
            half = ground // 2
            blocks = (tuple(range(half)), tuple(range(half, ground)))
            capacities = (1, max(1, (ground - half) // 2))
        matroid = Matroid.partition(blocks, capacities)
    elif kind == "graphic_k4":
        matroid = Matroid.graphic_k4()
    else:
        raise ValueError(f"unknown matroid kind {kind!r}")
    return _binary_matroid_instance(matroid, rng)


def gen_knapsack_random(n: int = 3, seed: int = 0, step: float = 0.125) -> Instance:
    """Threshold demands of at most half the capacity, on the grid; the
    outcome space is capped at half the capacity accordingly."""
    rng = trial_rng(seed, 1)
    env = KnapsackEnv(n=n, step=step, max_share=0.5)
    profile = tuple(
        ThresholdValuation(_grid_value(rng, 1, 16), int(rng.integers(1, 5)) / GRID)
        for _ in range(n)
    )
    return Instance(env=env, profile=profile)


def gen_knapsack_mixed(n: int = 3, seed: int = 0, step: float = 0.125) -> Instance:
    """Unrestricted demands: sizes across the whole unit, for the
    better-of-two selection."""
    rng = trial_rng(seed, 2)
    env = KnapsackEnv(n=n, step=step)
    profile = tuple(
        ThresholdValuation(_grid_value(rng, 1, 16), int(rng.integers(1, 9)) / GRID)
        for _ in range(n)
    )
    return Instance(env=env, profile=profile)


def gen_pip_random(n: int = 3, m: int = 2, d: int = 2, seed: int = 0) -> Instance:
    """Column sparsity at most d and coefficients at most 1/2, unit caps."""
    if d < 1 or d > m:
        raise ValueError("column sparsity must be between 1 and the row count")
    rng = trial_rng(seed, 3)
    columns = [[0.0] * n for _ in range(m)]
    for i in range(n):
        rows = rng.permutation(m)[: int(rng.integers(1, d + 1))]
        for j in rows:
            columns[int(j)][i] = int(rng.integers(1, 5)) / GRID
    env = PipEnv(
        n=n,
        matrix=tuple(tuple(row) for row in columns),
        capacities=(1.0,) * m,
    )
    profile = tuple(ScalarValuation(_grid_value(rng, 1, 16)) for _ in range(n))
    return Instance(env=env, profile=profile)


def gen_xos_random(n: int = 3, m: int = 3, clauses: int = 2, seed: int = 0) -> Instance:
    rng = trial_rng(seed, 4)
    env = CombinatorialAuctionEnv(n=n, items=m)
    profile = tuple(
        XosValuation(
            tuple(
                tuple(_grid_value(rng, 0, 8) for _ in range(m))
                for _ in range(clauses)
            )
        )
        for _ in range(n)
    )
    return Instance(env=env, profile=profile)


def gen_mph_random(
    n: int = 3, m: int = 3, k: int = 2, clauses: int = 2, seed: int = 0
) -> Instance:
    """Hypergraph valuations of rank exactly min(k, m)."""
    rng = trial_rng(seed, 5)
    env = CombinatorialAuctionEnv(n=n, items=m)
    rank = min(k, m)
    profile = []
    for i in range(n):
        built = []
        for c in range(clauses):
            edges = {}
            edge_count = int(rng.integers(1, 4))
            for _ in range(edge_count):
                size = int(rng.integers(1, rank + 1))
                members = rng.permutation(m)[:size]
                mask = 0
                for j in members:
                    mask |= 1 << int(j)
                edges[mask] = edges.get(mask, 0.0) + _grid_value(rng, 1, 8)
            if c == 0:
                # pin the rank: one full-size edge in the first clause
                members = rng.permutation(m)[:rank]
                mask = 0
                for j in members:
                    mask |= 1 << int(j)
                edges[mask] = edges.get(mask, 0.0) + _grid_value(rng, 1, 8)
            built.append(tuple(sorted(edges.items())))
        profile.append(MphValuation(tuple(built)))
    return Instance(env=env, profile=tuple(profile))


def gen_tight_prophet(q: float = 0.01) -> Instance:
    """Deterministic value-1 agent plus a 1/q jackpot of probability q: the
    classic instance where half the expected optimum is unimprovable."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    env = SingleItemEnv(n=2)
    dist = ProductDistribution(
        (
            ((ScalarValuation(1.0), 1.0),),
            ((ScalarValuation(1.0 / q), q), (ScalarValuation(0.0), 1.0 - q)),
        )
    )
    profile = (ScalarValuation(1.0), ScalarValuation(1.0 / q))
    return Instance(env=env, profile=profile, distribution=dist)


def gen_two_point_single_item(n: int = 2, seed: int = 0) -> Instance:
    """Random two-agent (or n-agent) single-item instance with two-point
    marginals on the value grid."""
    rng = trial_rng(seed, 6)
    env = SingleItemEnv(n=n)
    supports = []
    for _ in range(n):
        hi, lo = _grid_value(rng, 1, 16), _grid_value(rng, 0, 8)
        p = int(rng.integers(1, 8)) / 8.0
        supports.append(
            ((ScalarValuation(hi), p), (ScalarValuation(lo), 1.0 - p))
        )
    dist = ProductDistribution(tuple(supports))
    profile = tuple(atoms[0][0] for atoms in supports)
    return Instance(env=env, profile=profile, distribution=dist)


def gen_product_single_items(n: int = 2, markets: int = 2, seed: int = 0) -> Instance:
    """Product of independent single-item markets with additive values."""
    from .core import MarketValuation, ProductEnv

    rng = trial_rng(seed, 7)
    env = ProductEnv(markets=tuple(SingleItemEnv(n=n) for _ in range(markets)))
    profile = tuple(
        MarketValuation(
            tuple(ScalarValuation(_grid_value(rng, 0, 16)) for _ in range(markets))
        )
        for _ in range(n)
    )
    return Instance(env=env, profile=profile)


GENERATORS = {
    "footnote-lb": gen_unit_demand_vs_bundle,
    "triangle": gen_single_minded_triangle,
    "no-price": gen_common_outcome_instance,
    "matroid": gen_matroid,
    "knapsack": gen_knapsack_random,
    "knapsack-mixed": gen_knapsack_mixed,
    "pip": gen_pip_random,
    "xos": gen_xos_random,
    "mph": gen_mph_random,
    "tight-prophet": gen_tight_prophet,
    "two-point": gen_two_point_single_item,
    "product-single-items": gen_product_single_items,
}
