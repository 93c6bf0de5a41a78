"""Product distributions over valuations, the exact expected optimum and
mechanism welfare over the product support, Monte Carlo estimates of both,
and competitive-ratio reports.  ``exact_ratio`` decides the exact ratio
under each order kind: a fixed order, the adaptive adversary, or the worst
fixed order.

Monte Carlo trials draw from counter-based Philox streams keyed by
(seed, trial index), so estimates are bit-for-bit reproducible and
independent of evaluation order or parallel schedule.  A run re-keys one
Philox generator per trial (``trial_rngs``); a stream is its key, so no
stream changes.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import getitem
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
    TOL,
    CapExceeded,
    Environment,
    Valuation,
    _first_max,
    enumerate_feasible,
    value,
)
from .mechanism import (
    OnlinePostedPriceRunner,
    _check_order,
    _Steps,
    adaptive_adversary_welfare,
    distinct_atoms,
    expected_posted_price_welfare,
    realized_walk,
)
from .oracle import _welfare_column
from .pricing import EXACT_SUPPORT_CAP, SUPPORT_FORM_MIN_PROFILES, SupportTable


@dataclass(frozen=True)
class ProductDistribution:
    """Independent per-agent finite supports: (valuation, probability) atoms."""

    supports: tuple[tuple[tuple[Valuation, float], ...], ...]

    def __post_init__(self):
        for i, atoms in enumerate(self.supports):
            total = math.fsum(p for _, p in atoms)
            # written so that a nan total or probability fails too
            if not abs(total - 1.0) <= 1e-9:
                raise ValueError(f"agent {i} probabilities sum to {total}, not 1")
            if not all(p >= 0.0 for _, p in atoms):
                raise ValueError(f"agent {i} has a negative probability")

    @staticmethod
    def deterministic(profile: Sequence[Valuation]) -> "ProductDistribution":
        return ProductDistribution(tuple(((v, 1.0),) for v in profile))

    @property
    def n(self) -> int:
        return len(self.supports)

    def support_size(self) -> int:
        size = 1
        for atoms in self.supports:
            size *= len(atoms)
        return size

    def profiles(self, cap: int = EXACT_SUPPORT_CAP):
        """All (profile, probability) pairs of the product support, each
        profile of its atoms' own valuations, each probability from
        ``support_table``."""
        probs = self.support_table(cap)[2].tolist()
        values = [[v for v, _ in atoms] for atoms in self.supports]
        yield from zip(itertools.product(*values), probs)

    @cached_property
    def _distinct(self) -> tuple[tuple, tuple]:
        """(values, index): ``values[i]`` agent i's distinct valuations
        (compared by equality, first appearance first), ``index[i]`` each of
        its atoms' index into them, as ``distinct_atoms`` numbers them."""
        at, index = distinct_atoms(self.supports)
        return tuple(map(tuple, at)), index

    @cached_property
    def _draw_tables(self) -> tuple[tuple, tuple, tuple]:
        """(sums, atoms, keys), per agent: the running sums of the atoms'
        probabilities, added left to right; the atoms' valuations, which
        ``monte_carlo_ratio`` reads for each trial's optimum; and their
        ``_distinct`` indices.  ``atoms`` and ``keys`` repeat the last atom
        at the end, the position a float past the last sum draws."""
        sums = tuple(list(accumulate(p for _, p in atoms)) for atoms in self.supports)
        atoms = tuple([*(v for v, _ in a), a[-1][0]] for a in self.supports)
        keys = tuple([*at, at[-1]] for at in self._distinct[1])
        return sums, atoms, keys

    def support_table(self, cap: int = EXACT_SUPPORT_CAP):
        """The product support by atom index, without a profile tuple built
        or hashed: (table, index, probs).  ``table`` is the ``SupportTable``
        of every combination of each agent's distinct valuations (first
        appearance first), ``index[i]`` each of agent i's atoms' index into
        its valuations, and ``probs`` the numpy vector of the support
        profiles' probabilities in ``profiles`` order, each multiplied left
        to right as ``math.prod`` does.  More than ``cap`` support profiles
        raise ``CapExceeded``."""
        size = self.support_size()
        if size > cap:
            raise CapExceeded(size, cap, "distribution support profiles")
        values, index = self._distinct
        probs = np.ones(1)
        for atoms in self.supports:
            probs = np.multiply.outer(probs, [p for _, p in atoms]).ravel()
        return SupportTable(values), index, probs

    def draw(self, rng: np.random.Generator) -> list[int]:
        """Each agent's atom position for one trial, from one
        ``rng.random(n)`` call: the same floats as n single draws.  Agent i
        takes its first atom whose running sum of probabilities passes its
        float, or position ``len(atoms)`` past the last sum, which the
        ``_draw_tables`` read as the last atom."""
        return list(map(bisect_right, self._draw_tables[0], rng.random(self.n).tolist()))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial; streams never overlap across
    trials and do not depend on draw order elsewhere.  The seed and the
    trial index each fill one 64-bit word of the Philox key, so a value
    outside [0, 2^64) is refused rather than reduced onto another stream."""
    for name, k in (("seed", seed), ("trial index", trial)):
        if not 0 <= k < 2**64:
            raise ValueError(f"{name} {k} is outside [0, 2^64)")
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trial_rngs(seed: int, count: int):
    """``trial_rng(seed, t)`` for t in range(count), as one generator
    re-keyed per trial: key (seed, t), a zero counter and an empty buffer
    are the same stream.  Each is valid until the next is drawn."""
    if count > 0:
        rng = trial_rng(seed, count - 1)  # checks the seed and the last index
        bits = rng.bit_generator
        state = bits.state
        for t in range(count):
            state["state"]["key"][1] = t
            bits.state = state
            yield rng


def _optimum_welfare(env: Environment) -> Callable[[tuple], float]:
    """``opt``'s welfare as a function of the profile: the first maximum
    within ``TOL`` of the welfare column over the environment's list.  The
    returned function holds each agent's value column per distinct
    valuation (compared by equality) across the profiles asked."""
    enumerate_feasible(env)
    tables: list[dict] = [{} for _ in range(env.n)]

    def best(profile) -> float:
        column = _welfare_column(env, profile, tables)
        return column[_first_max(column)]

    return best


def _fixed_point_welfare(feasible, table: SupportTable, index):
    """The welfare of every listed allocation on every profile of a product
    support by atom index (``ProductDistribution.support_table``): one row
    per allocation, one column per profile in ``profiles`` order.  None where
    fixed point would not give ``fsum``'s floats.

    Agent i's value column takes one ``value`` call per (distinct valuation,
    distinct token).  Every entry is an integer multiple of 2^e, e the lowest
    set bit over the entries, so the rows are summed exactly in int64, agent
    by agent.  Converting an exact sum to float rounds correctly, as ``fsum``
    does, and scaling it back by 2^e is exact outside the subnormal range: a
    long accumulator cut down to the job's exponent span (Neal, "Fast exact
    summation using small and large superaccumulators", arXiv 1505.05571).
    None when an entry is not finite or is -0.0, when the span plus
    ceil(log2 n) passes 62 bits, when a sum could pass the float range, or
    when a welfare is subnormal."""
    n = len(table.values)
    columns = []
    for vals, at, tokens in zip(table.values, index, zip(*feasible)):
        distinct = list(dict.fromkeys(tokens))
        position = list(map({tok: k for k, tok in enumerate(distinct)}.__getitem__, tokens))
        worth = np.array([[value(v, tok) for tok in distinct] for v in vals], dtype=float)
        # one row per allocation, one column per atom
        columns.append(worth[np.ix_(at, position)].T)
    flat = np.concatenate([c.ravel() for c in columns])
    if not np.isfinite(flat).all() or np.signbit(flat[flat == 0]).any():
        return None
    nonzero = flat[flat != 0]
    low = high = 0
    if nonzero.size:
        mantissa, exponent = np.frexp(nonzero)  # |x| < 2^exponent
        ints = np.ldexp(mantissa, 53).astype(np.int64)
        zeros = np.frexp((ints & -ints).astype(float))[1] - 1  # trailing zero bits
        low, high = int((exponent - 53 + zeros).min()), int(exponent.max())
    carry = (n - 1).bit_length()
    if high - low + carry > 62 or high + carry >= sys.float_info.max_exp:
        return None
    sums = np.zeros((len(feasible), 1), dtype=np.int64)
    for column in columns:
        scaled = np.ldexp(column, -low).astype(np.int64)
        sums = (sums[:, :, None] + scaled[:, None, :]).reshape(len(feasible), -1)
    floats = np.ldexp(sums.astype(float), low)
    if ((floats != 0) & (np.abs(floats) < sys.float_info.min)).any():
        return None
    return floats


def expected_opt(env: Environment, dist: ProductDistribution, cap: int = EXACT_SUPPORT_CAP) -> float:
    """Exact expected optimum: ``opt``'s welfare on every support profile,
    each taken over one feasible list enumerated for the call.  From
    ``SUPPORT_FORM_MIN_PROFILES`` support profiles up the welfare comes from
    ``_fixed_point_welfare`` where it applies, and each profile's optimum
    from ``_first_max``'s scan, one allocation at a time; otherwise each
    profile's welfare column is taken on its own."""
    if dist.support_size() >= SUPPORT_FORM_MIN_PROFILES:
        table, index, probs = dist.support_table(cap)
        rows = _fixed_point_welfare(enumerate_feasible(env), table, index)
        if rows is not None:
            best = rows[0]
            for w in rows[1:]:
                best = np.where(w > best + TOL, w, best)
            return math.fsum((probs * best).tolist())
    profiles = list(dist.profiles(cap))
    best = _optimum_welfare(env)
    return math.fsum(prob * best(p) for p, prob in profiles)


class UndefinedRatio(ZeroDivisionError, ValueError):
    """The expected optimum is zero, so no competitive ratio exists; an input
    error (a ValueError) at the CLI."""


@dataclass(frozen=True)
class RatioEstimate:
    expected_mechanism_welfare: float
    expected_opt: float
    ratio: float
    mode: str  # exact | monte_carlo
    trials: int = 0
    seed: int = 0
    ci95_halfwidth: float = 0.0

    @classmethod
    def of(cls, mech: float, benchmark: float, mode: str, **kwargs) -> "RatioEstimate":
        """The estimate of ``mech / benchmark``: the one place a ratio is
        divided."""
        if benchmark <= TOL:
            raise UndefinedRatio(f"expected optimum is {benchmark:g}; ratio undefined")
        return cls(mech, benchmark, mech / benchmark, mode, **kwargs)

    def as_dict(self) -> dict:
        return {
            "expected_mechanism_welfare": self.expected_mechanism_welfare,
            "expected_opt": self.expected_opt,
            "ratio": self.ratio,
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
            "ci95_halfwidth": self.ci95_halfwidth,
        }


def exact_ratio(
    env: Environment,
    prices,
    dist: ProductDistribution,
    order: Union[Sequence[int], str, None] = None,
    tie: str = "adversarial_min_welfare",
    cap: int = EXACT_SUPPORT_CAP,
) -> RatioEstimate:
    """Exact expected mechanism welfare over the product support divided by
    the exact expected optimum.  ``order`` is a fixed arrival order (a
    permutation of the agents, the identity when None), ``"adversary"`` for
    the adaptive adversary, or ``"all"`` for the worst of the n! fixed
    orders, at most ``EXACT_SUPPORT_CAP`` of them.  ``cap`` bounds the
    support profiles the expected optimum enumerates.  Tie choices condition
    on realized history only (see expected_posted_price_welfare)."""
    if order == "adversary":
        mech = adaptive_adversary_welfare(env, prices, dist, tie)
    elif order == "all":
        mech = worst_order_expected_welfare(env, prices, dist, tie)
    else:
        order = tuple(range(env.n)) if order is None else order
        mech = expected_posted_price_welfare(env, prices, dist, order, tie)
    return RatioEstimate.of(mech, expected_opt(env, dist, cap), "exact")


def _ratio_ci95(ws: list[float], os_: list[float]) -> float:
    """Normal-approximation half-width for a ratio of means (delta method
    with the welfare/optimum covariance)."""
    n = len(ws)
    if n < 2:
        return 0.0
    wbar = math.fsum(ws) / n
    obar = math.fsum(os_) / n
    if obar <= TOL:
        return math.inf
    var_w = math.fsum((w - wbar) ** 2 for w in ws) / (n - 1)
    var_o = math.fsum((o - obar) ** 2 for o in os_) / (n - 1)
    cov = math.fsum((w - wbar) * (o - obar) for w, o in zip(ws, os_)) / (n - 1)
    r = wbar / obar
    var_ratio = (var_w + r * r * var_o - 2.0 * r * cov) / (obar * obar * n)
    return 1.96 * math.sqrt(max(0.0, var_ratio))


def monte_carlo_ratio(
    env: Environment,
    prices,
    dist: ProductDistribution,
    order_mode: str = "fixed",
    trials: int = 1000,
    seed: int = 0,
    tie: str = "adversarial_min_welfare",
    fixed_order: Optional[Sequence[int]] = None,
) -> RatioEstimate:
    """Sampled competitive ratio: per trial, draw a profile from its Philox
    stream, run the mechanism under the requested order mode, and accumulate
    welfare against the per-trial optimum.  Each trial walks one step table
    (``mechanism._Steps``) by its atoms' ``_distinct`` indices, and its
    welfare is the ``fsum`` of the steps' value gains in agent order, the
    float ``welfare`` gives on its final allocation.  Tie choices are
    history-conditioned: an order's runner is built, on the same step table,
    at its first arrival with several candidates, and shares its
    continuation memo across trials.  A fixed order is checked once, before
    the first trial, and each random order as it is drawn."""
    if trials < 1:
        raise ValueError("at least one trial required")
    if order_mode not in ("fixed", "random"):
        raise ValueError(f"unknown order mode {order_mode}")
    n = env.n
    if order_mode == "fixed":
        order = _check_order(n, range(n) if fixed_order is None else fixed_order)

    steps = _Steps(env, prices, tie, dist.supports)
    runners: dict[tuple, OnlinePostedPriceRunner] = {}

    def tied(*at):
        """``_tied`` of the trial's order's runner, built at its first tie."""
        if order not in runners:
            runners[order] = OnlinePostedPriceRunner(
                env, prices, dist.supports, order, tie, steps=steps
            )
        return runners[order]._tied(*at)

    best = _optimum_welfare(env)
    _, atoms, keys = dist._draw_tables
    # the optimum per distinct profile drawn, keyed by its agents'
    # ``_distinct`` indices; at most ``trials`` entries
    optimum: dict[tuple, float] = {}

    ws: list[float] = []
    os_: list[float] = []
    for rng in trial_rngs(seed, trials):
        drawn = dist.draw(rng)
        key = tuple(map(getitem, keys, drawn))
        if order_mode == "random":
            order = _check_order(n, rng.permutation(n).tolist())
        ws.append(math.fsum(realized_walk(steps, order, key, tied)[2]))
        opt_w = optimum.get(key)
        if opt_w is None:
            opt_w = optimum[key] = best(tuple(map(getitem, atoms, drawn)))
        os_.append(opt_w)

    return RatioEstimate.of(
        math.fsum(ws) / trials,
        math.fsum(os_) / trials,
        "monte_carlo",
        trials=trials,
        seed=seed,
        ci95_halfwidth=_ratio_ci95(ws, os_),
    )


def worst_order_expected_welfare(
    env, prices, dist: ProductDistribution, tie: str = "adversarial_min_welfare",
    cap: int = EXACT_SUPPORT_CAP,
) -> float:
    """Minimum over fixed arrival orders of the exact expected welfare.  The
    loop stays over all n! orders, because unlike on a realized profile this
    minimum is not the adaptive adversary's value; ``cap`` bounds n!.  The
    orders' evaluators share one step table."""
    count = math.factorial(env.n)
    if count > cap:
        raise CapExceeded(count, cap, "agent orders")
    steps = _Steps(env, prices, tie, dist.supports)
    worst = math.inf
    for order in itertools.permutations(range(env.n)):
        runner = OnlinePostedPriceRunner(env, prices, dist.supports, order, tie, steps=steps)
        worst = min(worst, runner.expected_welfare())
    return worst
