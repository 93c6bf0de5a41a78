"""The differential checks in one table: each fast path beside its
brute-force twin, the small cases tier-1 draws for it and the large fixed
cases ``ci/twins.py`` runs.

An entry's ``fast(case)`` and ``twin(case)`` must agree under its
``compare``, ``repr`` equality unless the entry says otherwise.  Where a
case names an instance to build (the certifier walks, the support columns),
each side builds its own, so the twin shares no memo with the fast path.
``small`` maps a part name to a strategy, with the example budget and the
pinned examples of the test the part replaced; ``test_twins.py`` runs every
part.  ``large`` holds (label, case, expected summary prefix or None)
triples, and ``summary`` gives a fast result its line of ``ci/twins.py``'s
output.  A twin that swaps a method or a table out does so through
``patched``.

A new fast path adds one entry to ``TWINS``.
"""

import contextlib
import dataclasses
import functools
import io
import itertools
import math
import os
import random
import tempfile
from typing import Callable

from hypothesis import strategies as st

from balprice import cli
from balprice.balance import _OrderSums, check_balanced, check_weakly_balanced
from balprice.catalog import (
    gen_knapsack_random, gen_matroid, gen_pip_random, gen_two_point_single_item,
)
from balprice.core import (
    DEFAULT_CAP, NULL, TOL, UNAVAILABLE, AdditiveValuation, CapExceeded,
    CombinatorialAuctionEnv, ExplicitEnv, KnapsackEnv, Matroid, MatroidEnv, PipEnv, ProductEnv,
    ScalarValuation, SingleItemEnv, ThresholdValuation, XosValuation, enumerate_feasible,
    replace_at, support,
)
from balprice.mechanism import (
    TIE_POLICIES, OnlinePostedPriceRunner, adaptive_adversary_welfare,
    expected_posted_price_welfare, worst_order_welfare,
)
from balprice.oracle import default_family, opt
from balprice.pricing import (
    SUPPORT_FORM_MIN_PROFILES, BalanceParams, PricingRule, expected_scaled_prices,
    matroid_dynamic_prices, single_item_prices, xos_item_prices,
)
from balprice.serialize import Instance, dump_instance_file
from balprice.stochastic import (
    ProductDistribution, UndefinedRatio, expected_opt, monte_carlo_ratio, trial_rng,
    worst_order_expected_welfare,
)

from helpers import (
    MATROID_PRICINGS, brute_feasible, dfs_feasible_twin, drawn_profile, element_profile,
    every_entry, expected_opt_twin, expected_scaled_twin, extremal_at_twin, families,
    filtered_members, gated_unavailable_case, matroid_priced, multi_element_priced, per_x_check,
    report_fields, static_case, two_point_matroid, uniform_matroid_env, witness_twin,
    UnprunedRunner, monte_carlo_twin, worst_order_twin,
)


def same_repr(got, want) -> bool:
    return repr(got) == repr(want)


@dataclasses.dataclass(frozen=True)
class Small:
    """A strategy for small cases, its example budget and its pinned
    examples."""

    strategy: st.SearchStrategy
    max_examples: int
    examples: tuple = ()


@dataclasses.dataclass(frozen=True)
class Twin:
    name: str
    fast: Callable
    twin: Callable
    small: dict
    large: tuple
    summary: Callable = repr
    compare: Callable = same_repr


@contextlib.contextmanager
def patched(target, values: dict):
    """Give ``target``, a class or a dict, the entries of ``values`` for the
    body, and put the old ones back however the body exits."""
    if isinstance(target, dict):
        get, put = target.__getitem__, target.__setitem__
    else:
        get, put = functools.partial(getattr, target), functools.partial(setattr, target)
    old = {k: get(k) for k in values}
    try:
        for k, v in values.items():
            put(k, v)
        yield
    finally:
        for k, v in old.items():
            put(k, v)


def verdict(fields) -> str:
    """A report's verdict and its witness and structural violation counts."""
    shown = "PASS" if fields[0]["passed"] else "FAIL"
    return f"{shown}, {len(fields[1])} witnesses, {len(fields[2])} structural violations"


# ---------------------------------------------------------------------------
# enumerate_feasible against the DFS that checks each whole prefix, and the
# filtered cartesian product.  A case is (env, cap).
# ---------------------------------------------------------------------------

# non-dyadic steps and shares below the capacity, so the running sum rounds
KNAPSACK_STEPS = (0.1, 0.125, 0.2, 0.3, 1 / 3, 0.375, 0.5)
KNAPSACK_SHARES = (0.35, 0.5, 0.7, 1.0)
# zero terms of both signs and both ends of the range
PIP_COEFFS = (0.0, -0.0, 0.1, 0.125, 0.25, 0.3, 1 / 3, 0.5, 0.5 + TOL)
PIP_CAPS = (1.0, 1.0 - 5e-10, 1.0 + 5e-10)
# product spaces are tested whole by the brute-force twin; keep them small
MAX_PRODUCT = 1500


@st.composite
def knapsacks(draw):
    step = draw(st.sampled_from(KNAPSACK_STEPS))
    share = draw(st.sampled_from(KNAPSACK_SHARES))
    levels = round(share / step) + 1
    n = draw(st.integers(1, max(1, int(math.log(MAX_PRODUCT, levels)))))
    return KnapsackEnv(n=n, step=step, max_share=share)


@st.composite
def pips(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 3))
    coeff = st.sampled_from(PIP_COEFFS)
    matrix = tuple(tuple(draw(coeff) for _ in range(n)) for _ in range(m))
    caps = tuple(draw(st.sampled_from(PIP_CAPS)) for _ in range(m))
    return PipEnv(n=n, matrix=matrix, capacities=caps)


@st.composite
def matroids(draw):
    kind = draw(st.sampled_from(("uniform", "partition", "graphic_k4")))
    if kind == "uniform":
        ground = draw(st.integers(1, 7))
        matroid = Matroid.uniform(draw(st.integers(0, ground)), ground)
    elif kind == "partition":
        ground = draw(st.integers(2, 7))
        block_of = [draw(st.integers(0, 2)) for _ in range(ground)]
        blocks = [tuple(e for e in range(ground) if block_of[e] == b) for b in range(3)]
        matroid = Matroid.partition(blocks, [draw(st.integers(0, 2)) for _ in blocks])
    else:
        matroid = Matroid.graphic_k4()
    # every element goes to one agent or to none, so agents own zero, one
    # or several elements
    n = draw(st.integers(1, 5))
    owner = [draw(st.integers(-1, n - 1)) for _ in range(matroid.ground)]
    elements = tuple(tuple(e for e in range(matroid.ground) if owner[e] == i) for i in range(n))
    return MatroidEnv(n=n, matroid=matroid, elements=elements)


@st.composite
def auctions(draw):
    n = draw(st.integers(1, 3))
    items = draw(st.integers(0, 3 if n < 3 else 2))
    return CombinatorialAuctionEnv(n=n, items=items, fractional=draw(st.booleans()))


@st.composite
def explicits(draw):
    n = draw(st.integers(1, 3))
    extra = st.lists(st.sampled_from((1, 2, (1, 2))), unique=True, max_size=3)
    tokens = tuple((NULL,) + tuple(draw(extra)) for _ in range(n))
    listed = draw(st.lists(st.tuples(*(st.sampled_from(t) for t in tokens)), max_size=6))
    # close the drawn allocations downward
    feasible = {(NULL,) * n}
    stack = list(listed)
    while stack:
        alloc = stack.pop()
        if alloc not in feasible:
            feasible.add(alloc)
            stack += [replace_at(alloc, i, NULL) for i in support(alloc)]
    return ExplicitEnv(n=n, outcome_tokens=tokens, feasible_set=frozenset(feasible))


@st.composite
def products(draw):
    n = draw(st.integers(1, 3))
    market = st.sampled_from(
        (
            SingleItemEnv(n=n),
            KnapsackEnv(n=n, step=0.5, max_share=1.0),
            CombinatorialAuctionEnv(n=n, items=1),
            uniform_matroid_env(1, n),
        )
    )
    return ProductEnv(markets=tuple(draw(st.lists(market, min_size=1, max_size=2))))


ENV_KINDS = {
    "single_item": st.integers(1, 6).map(lambda n: SingleItemEnv(n=n)),
    "matroid": matroids(),
    "combinatorial_auction": auctions(),
    "knapsack": knapsacks(),
    "pip": pips(),
    "explicit": explicits(),
    "product": products(),
}


def downward_closed(allocs) -> bool:
    listed = set(allocs)
    return all(replace_at(a, i, NULL) in listed for a in allocs for i in support(a))


@st.composite
def capped(draw, envs):
    """(env, cap), the cap from 0 to one past the length of env's list."""
    env = draw(envs)
    return env, draw(st.integers(0, len(dfs_feasible_twin(env)) + 1))


def _listing(enumerate_, case):
    """(None, the list under the case's cap), or (the CapExceeded message,
    the list under the default cap)."""
    env, cap = case
    try:
        return None, enumerate_(env, cap)
    except CapExceeded as exc:
        return str(exc), enumerate_(env)


def _feasible_twin(case):
    """The whole-prefix DFS's listing, and the filtered cartesian product
    when that is downward closed (else None)."""
    product = tuple(brute_feasible.__wrapped__(case[0]))
    return _listing(dfs_feasible_twin, case), product if downward_closed(product) else None


def _same_listing(got, want) -> bool:
    listing, product = want
    return same_repr(got, listing) and (product is None or same_repr(got[1], product))


FEASIBLE = Twin(
    name="feasible-lists",
    fast=functools.partial(_listing, enumerate_feasible),
    twin=_feasible_twin,
    small={kind: Small(capped(envs), 40) for kind, envs in sorted(ENV_KINDS.items())},
    large=(
        ("pip n = 14", (gen_pip_random(n=14).env, DEFAULT_CAP), None),
        ("knapsack n = 6", (gen_knapsack_random(n=6).env, DEFAULT_CAP), None),
    ),
    summary=lambda got: f"{len(got[1])} feasible allocations",
    compare=_same_listing,
)


# ---------------------------------------------------------------------------
# ExchangeFamily.members (built from the key, filtering the kept list)
# against the filter over the whole cartesian product, for every family of
# the environment and every listed x.  A case names a ``MEMBER_ENVS``
# entry; the small side is test_oracle.py::TestMemberEnumeration.
# ---------------------------------------------------------------------------

MEMBER_ENVS = {
    "uniform rank 5 ground 10": lambda: uniform_matroid_env(5, 10),
    # item-disjoint sets: every key tests each listed mask, as 2^15 or more
    # submasks outnumber the 17 listed masks
    "uniform rank 1 ground 16": lambda: uniform_matroid_env(1, 16),
    # the null key tests each listed mask (2^6 submasks, 42 listed masks),
    # and every other key walks its submasks
    "uniform rank 3 ground 6": lambda: uniform_matroid_env(3, 6),
    "pip n = 10": lambda: gen_pip_random(n=10).env,
    "knapsack n = 5": lambda: gen_knapsack_random(n=5).env,
    "two uniform rank 2 ground 4 markets": lambda: ProductEnv(
        markets=(uniform_matroid_env(2, 4), uniform_matroid_env(2, 4))
    ),
}


def _members(case, twin=False):
    """Each family's exchange set at each x, in list order."""
    env = MEMBER_ENVS[case]()
    if twin:
        return [[filtered_members(fam, x) for x in brute_feasible(env)] for fam in families(env)]
    return [[fam.members(x) for x in enumerate_feasible(env)] for fam in families(env)]


MEMBERS = Twin(
    name="exchange-members",
    fast=_members,
    twin=functools.partial(_members, twin=True),
    small={},
    large=tuple((label, label, None) for label in MEMBER_ENVS),
    summary=lambda got: f"{len(got)} families, {sum(len(m) for fam in got for m in fam)} members",
)


# ---------------------------------------------------------------------------
# The all-orders walk's memo (_OrderSums) against one full subset DP per
# sum.  A case is (kind, *builder arguments, beta); see ``WALKS``.
# ---------------------------------------------------------------------------


def near_tie_unavailable_case():
    """Agent 1's entry is unavailable once agent 0's element is sold, and
    costs 0.5 before; agent 0 pays 1 - 5e-10 first and 0.5 after agent 1.
    The condition-(a) minimum of x = both elements has two last arrivals:
    agent 0, at 0.5 + 0.5, and agent 1, unavailable, at 1 - 5e-10, which is
    within TOL below.  The first candidate within TOL is kept, so the sum is
    1.0 and not flagged."""
    env = uniform_matroid_env(2, 2)

    def finite(i, x_i, y):
        if i == 1:
            return UNAVAILABLE if y[0] else 0.5
        return 0.5 if y[1] else 1.0 - 5e-10

    rule = PricingRule(env, finite, static=False)
    return env, element_profile(env, 1, 1), rule, default_family(env)


def tenths_case():
    """Three agents on a free matroid, priced 0.1, 0.2 and 0.3 whatever was
    sold: 0.1 + 0.2 + 0.3 rounds above 0.3 + 0.2 + 0.1, so a sum depends on
    the order of its additions.  The rule is declared dynamic, so that a
    declared order takes the declared walk."""
    env = uniform_matroid_env(3, 3)
    rule = PricingRule(env, lambda i, x_i, y: (0.1, 0.2, 0.3)[i], static=False)
    return env, element_profile(env, 1, 1, 1), rule, default_family(env)


WALKS = {
    "catalog": matroid_priced,
    "multi-element": multi_element_priced,
    "gated": gated_unavailable_case,
    "near tie": near_tie_unavailable_case,
    "tenths": tenths_case,
}


def _walk(case):
    kind, *args, beta = case
    env, profile, rule, family = WALKS[kind](*args)
    params = BalanceParams(alpha=1.0, beta=beta)
    return report_fields(check_balanced(env, profile, rule, opt(env, profile), family, params))


def _walk_twin(case):
    with patched(_OrderSums, {"extremal_at": extremal_at_twin, "witness": witness_twin}):
        return _walk(case)


BETAS = st.sampled_from((1.0, 0.25))


@st.composite
def catalog_walks(draw):
    kind = draw(st.sampled_from(("uniform", "partition", "graphic_k4")))
    ground, seed = draw(st.integers(3, 7)), draw(st.integers(0, 10_000))
    pricing = draw(st.sampled_from(MATROID_PRICINGS))
    if pricing != "matroid":
        # the reference-price constructions re-run opt per price miss
        ground = min(ground, 4)
    return "catalog", kind, ground, seed, pricing, draw(BETAS)


def _uniform_values(count, seed):
    rng = random.Random(seed)
    return tuple(round(rng.uniform(0.0, 10.0), 3) for _ in range(count))


# the gated case is run by test_balance.py::TestWalkMatchesTwin
UNAVAILABLE_WALKS = (("near tie", 1.0), ("near tie", 0.25))

WALK = Twin(
    name="all-orders-walk",
    fast=_walk,
    twin=_walk_twin,
    small={
        "catalog-matroids": Small(catalog_walks(), 20),
        "multi-element": Small(
            st.tuples(
                st.just("multi-element"),
                st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=6, max_size=6).map(tuple),
                BETAS,
            ),
            15,
        ),
        "unavailable-entries": Small(st.sampled_from(UNAVAILABLE_WALKS), 2, UNAVAILABLE_WALKS),
        # the catalog and multi-element sums come out the same added in any
        # order; these depend on the order the DP scans its candidates in
        "addition-order": Small(
            st.tuples(st.just("tenths"), BETAS), 2, (("tenths", 1.0), ("tenths", 0.25))
        ),
    },
    large=tuple(
        (f"{label}, beta {beta}", (*recipe, beta), None)
        for label, recipe in (
            ("uniform rank 5 ground 11", ("catalog", "uniform", 11, 1, "matroid")),
            ("partition ground 9", ("catalog", "partition", 9, 1, "matroid")),
            ("two elements per agent, uniform rank 4 ground 8",
             ("multi-element", _uniform_values(8, 1))),
        )
        for beta in (1.0, 0.25)
    ),
    summary=verdict,
)


# ---------------------------------------------------------------------------
# The declared-order walk (one term table per x over x and its exchange
# set) against pricing every member of every exchange set afresh along the
# order (``helpers.per_x_check``).  A case is (walk case, order), the walk
# case as in ``WALKS`` and the order "reversed" or a seed that shuffles the
# agents.
# ---------------------------------------------------------------------------


def _declared_walk(case, twin=False):
    (kind, *args, beta), order_key = case
    env, profile, rule, family = WALKS[kind](*args)
    order = list(range(env.n))
    if order_key == "reversed":
        order.reverse()
    else:
        random.Random(order_key).shuffle(order)
    params, alloc = BalanceParams(alpha=1.0, beta=beta), opt(env, profile)
    if twin:
        return report_fields(per_x_check(env, profile, rule, alloc, family, params, order))
    return report_fields(check_balanced(env, profile, rule, alloc, family, params, order, "declared"))


ORDER_SEEDS = st.integers(0, 10_000)
UNAVAILABLE_DECLARED = tuple((kind, beta) for kind in ("gated", "near tie") for beta in (1.0, 0.25))

DECLARED = Twin(
    name="declared-walk",
    fast=_declared_walk,
    twin=functools.partial(_declared_walk, twin=True),
    small={
        "catalog-matroids": Small(st.tuples(catalog_walks(), ORDER_SEEDS), 20),
        "multi-element": Small(
            st.tuples(
                st.tuples(
                    st.just("multi-element"),
                    st.integers(0, 10_000).map(lambda seed: _uniform_values(6, seed)),
                    BETAS,
                ),
                ORDER_SEEDS,
            ),
            15,
        ),
        "unavailable-entries": Small(
            st.tuples(st.sampled_from(UNAVAILABLE_DECLARED), ORDER_SEEDS),
            8,
            tuple((case, "reversed") for case in UNAVAILABLE_DECLARED),
        ),
        # the catalog and multi-element sums come out the same added in any
        # order; these depend on it, at the reversed order among others
        "addition-order": Small(
            st.tuples(st.tuples(st.just("tenths"), BETAS), ORDER_SEEDS),
            4,
            ((("tenths", 1.0), "reversed"), (("tenths", 0.25), "reversed")),
        ),
    },
    large=tuple(
        (f"{label}, reversed order", (case, "reversed"), None) for label, case, _ in WALK.large
    ),
    summary=verdict,
)


# ---------------------------------------------------------------------------
# The static walk (one price-sum column, one max per exchange set) against
# pricing every member of every exchange set afresh.  A case is (kind, n,
# seed, generator sizes, params); see ``helpers.static_case``.
# ---------------------------------------------------------------------------


def _static(case, twin=False):
    kind, n, seed, sizes, params = case
    env, profile, rule, alloc = static_case(kind, n, seed, **sizes)
    if twin:
        check = per_x_check
    else:
        check = check_weakly_balanced if params.weak else check_balanced
    return report_fields(check(env, profile, rule, alloc, default_family(env), params))


def strong(alpha, beta):
    return BalanceParams(alpha=alpha, beta=beta)


def weak(alpha, beta1, beta2):
    return BalanceParams(alpha=alpha, beta1=beta1, beta2=beta2)


STRONG = (strong(1.0, 1.0), strong(1.0, 0.5))
EITHER = STRONG + (weak(2.0, 0.0, 1.0),)


def static_cases(kinds, low, high, params, **sizes):
    """(kind, n, seed, sizes, params) recipes with n from ``low`` to ``high``
    and each size drawn from its strategy."""
    kind, n, seed = st.sampled_from(kinds), st.integers(low, high), st.integers(0, 10_000)
    return st.tuples(kind, n, seed, st.fixed_dictionaries(sizes), st.sampled_from(params))


# (label, recipe, [(params, expected verdict), ...]): each large case runs
# at one parameter set that passes and one that fails.  Whole-unit prices
# leave every partial quantity off the menu, so they fail on the catalog
# knapsack, whose outcomes stop at half the unit; they pass on a knapsack
# with a step of one unit, priced at the reference welfare.
STATIC_LARGE = (
    ("xos 4 agents x 4 items", ("xos", 4, 1, {"m": 4}), ((STRONG[0], "PASS"), (STRONG[1], "FAIL"))),
    ("mph 4 agents x 4 items", ("mph", 4, 1, {"m": 4}),
     ((weak(1.0, 1.0, 1.0), "PASS"), (STRONG[1], "FAIL"))),
    ("pip n = 10", ("pip", 10, 1, {}), ((weak(2.0, 0.0, 2.0), "PASS"), (STRONG[0], "FAIL"))),
    ("knapsack n = 5", ("knapsack", 5, 1, {}),
     ((strong(2.0, 1.0), "PASS"), (strong(1.0, 2.0), "FAIL"))),
    ("compose-add, 3 single-item markets x 4 agents", ("compose-add", 4, 1, {"markets": 3}),
     ((STRONG[0], "PASS"), (STRONG[1], "FAIL"))),
    ("whole-unit knapsack n = 5, step 1", ("whole-unit", 5, 1, {"step": 1.0}),
     ((STRONG[0], "PASS"),)),
    ("whole-unit knapsack n = 5, catalog step", ("whole-unit", 5, 1, {}), ((STRONG[0], "FAIL"),)),
)

STATIC = Twin(
    name="static-walk",
    fast=_static,
    twin=functools.partial(_static, twin=True),
    small={
        "knapsack": Small(
            static_cases(("knapsack",), 2, 5, (strong(2.0, 1.0), strong(1.0, 2.0))),
            10, (("knapsack", 2, 0, {}, strong(2.0, 1.0)),),
        ),
        "item-and-packing-prices": Small(
            static_cases(("xos", "mph", "pip"), 2, 6, EITHER), 30, (("xos", 2, 0, {}, STRONG[1]),)
        ),
        "single-item": Small(static_cases(("two-point",), 1, 6, STRONG), 30),
        "compose-add": Small(
            static_cases(("compose-add",), 2, 3, STRONG, markets=st.integers(2, 3)), 10
        ),
        "whole-unit-knapsack": Small(
            static_cases(("whole-unit",), 3, 5, EITHER, price=st.sampled_from((0.5, 1.0, 4.0))),
            8, (("whole-unit", 3, 0, {"price": 1.0}, STRONG[0]),),
        ),
    },
    large=tuple(
        (f"{label}, {params}", (*recipe, params), expected)
        for label, recipe, runs in STATIC_LARGE
        for params, expected in runs
    ),
    summary=verdict,
)


# ---------------------------------------------------------------------------
# The support forms' price columns against each profile's own rule.  A small
# case is ("exact", kind, seed, distinct profiles or None for a two-point
# product): every price the mechanisms can ask, against
# ``helpers.expected_scaled_twin``.  A large case is the same on a
# ``cli_instance``, ("entries", instance, pricing), or a CLI job, ("cli",
# instance, pricing, command), run with the forms and with them set to None:
# (exit code, stdout, output file).
# ---------------------------------------------------------------------------

PARAMS = BalanceParams(alpha=1.0, beta=1.0)
CROSSOVER = SUPPORT_FORM_MIN_PROFILES


def matroid_env(kind, seed):
    """A catalog matroid with one element per agent, or agents that own
    several elements of a uniform matroid."""
    if kind == "multi-element":
        return MatroidEnv(n=3, matroid=Matroid.uniform(3, 6), elements=((0, 1), (2, 5), (3, 4)))
    matroid_kind = {"k4": "graphic_k4"}.get(kind, kind)
    return gen_matroid(matroid_kind, seed=seed, rank=2 + seed % 2, ground=5 + seed % 3).env


def additive_atom(env, i, rng, top=12):
    """Agent i's values on its own elements, on the 1/3 grid from -1/3 up to
    ``top`` / 3, or 1e-12, which is below ``TOL``: the default grid is coarse,
    so ties occur, and thirds are inexact, so a sum depends on the order of
    its additions.  The greedy skips the negative and tiny values."""

    def element_value():
        return 1e-12 if rng.random() < 0.1 else rng.randint(-1, top) / 3

    owned = env.elements[i]
    g = env.matroid.ground
    return AdditiveValuation(tuple(element_value() if e in owned else 0.0 for e in range(g)))


def distinct_atoms(make, count, rng):
    """``count`` distinct atoms from ``make(rng)``, each of probability 1/count."""
    atoms: dict = {}
    while len(atoms) < count:
        atoms.setdefault(make(rng), None)
    return tuple((v, 1.0 / count) for v in atoms)


def sized_dist(env, make, size, rng):
    """Exactly ``size`` distinct support profiles: agent 0 carries ``size``
    atoms, drawn from 4 * ``size`` + 1 grid values, and every other agent
    one."""
    supports = [distinct_atoms(lambda r: make(env, 0, r, top=4 * size), size, rng)]
    supports += [((make(env, i, rng), 1.0),) for i in range(1, env.n)]
    return ProductDistribution(tuple(supports))


def two_point_dist(env, make, rng):
    """Every agent draws one of two atoms: a product support of 2^n profiles."""
    supports = []
    for i in range(env.n):
        atoms = distinct_atoms(lambda r: make(env, i, r), 2, rng)
        p = rng.randint(1, 7) / 8
        supports.append(((atoms[0][0], p), (atoms[1][0], 1.0 - p)))
    return ProductDistribution(tuple(supports))


def support_case(kind, seed, size):
    """(env, dist, construction name) with ``size`` distinct profiles, or a
    two-point product support for ``size`` None."""
    rng = random.Random(seed)
    if kind == "single-item":
        inst = gen_two_point_single_item(n=6, seed=seed)
        if size is None:
            return inst.env, inst.distribution, "single-item"
        scalar = lambda env, i, r, top=64: ScalarValuation(r.randint(0, top) / 8)
        return inst.env, sized_dist(inst.env, scalar, size, rng), "single-item"
    env = matroid_env(kind, seed)
    if size is None:
        return env, two_point_dist(env, additive_atom, rng), "matroid"
    return env, sized_dist(env, additive_atom, size, rng), "matroid"


def cli_instance(kind, *sizes):
    """Catalog two-point single-item (n), or a two-point matroid of kind
    ``kind`` (ground, rank) whose profile is every agent's first atom."""
    if kind == "single-item":
        return gen_two_point_single_item(n=sizes[0], seed=1)
    ground, rank = sizes
    env, dist = two_point_matroid(kind, 1, ground, rank, key=f"{kind}:{ground}")
    profile = tuple(atoms[0][0] for atoms in dist.supports)
    return Instance(env=env, profile=profile, distribution=dist)


def _cli_job(instance, pricing, command, forms):
    kept = cli.CONSTRUCTIONS[pricing]
    swap = {} if forms else {pricing: dataclasses.replace(kept, support=None)}
    argv = [command[0], "--instance", "support.json", "--pricing", pricing, *command[1:]]
    stdout, home = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # the output names the instance by the path it was given
        os.chdir(tmp)
        try:
            dump_instance_file(cli_instance(*instance), "support.json")
            with patched(cli.CONSTRUCTIONS, swap), contextlib.redirect_stdout(stdout):
                code = cli.main([*argv, "-o", "support.out"])
            with open("support.out") as fh:
                return code, stdout.getvalue(), fh.read()
        finally:
            os.chdir(home)


def _columns(case, forms=True):
    if case[0] == "cli":
        return _cli_job(*case[1:], forms)
    if case[0] == "entries":
        inst, name = cli_instance(*case[1]), case[2]
        env, dist = inst.env, inst.distribution
    else:
        _, kind, seed, count = case
        env, dist, name = support_case(kind, seed, count)

    def construct(profile):
        return cli.CONSTRUCTIONS[name].rule(env, profile, DEFAULT_CAP)

    if forms:
        support_form = cli.CONSTRUCTIONS[name].support
        rule = expected_scaled_prices(env, dist, construct, PARAMS, support=support_form)
    else:
        rule = expected_scaled_twin(env, dist, construct, PARAMS)
    return [rule.price(i, x_i, y) for i, x_i, y in every_entry(env)]


SUPPORT_KINDS = st.sampled_from(("uniform", "partition", "k4", "multi-element", "single-item"))
ADVERSARY = (("ratio", "--exact", "--order", "adversary"), ("simulate", "--order", "adversary"))
CLI_JOBS = (
    ("two-point uniform ground 10", ("uniform", 10, 5), "matroid", (("ratio", "--exact"),)),
    ("two-point uniform ground 8", ("uniform", 8, 4), "matroid", ADVERSARY),
    ("two-point partition ground 9", ("partition", 9, 0), "matroid", ADVERSARY),
    ("two-point single-item n = 12", ("single-item", 12), "single-item",
     (("ratio", "--exact"), *ADVERSARY)),
)

COLUMNS = Twin(
    name="support-columns",
    fast=_columns,
    twin=functools.partial(_columns, forms=False),
    small={
        "exact": Small(
            st.tuples(
                st.just("exact"), SUPPORT_KINDS, st.integers(0, 31),
                st.sampled_from((CROSSOVER - 1, CROSSOVER, None)),
            ),
            40,
        ),
    },
    large=tuple(
        (f"{label}, every entry", ("entries", instance, pricing), None)
        for label, instance, pricing, _ in (CLI_JOBS[3], CLI_JOBS[1])
    ) + tuple(
        (f"{label}, {' '.join(command)}", ("cli", instance, pricing, command), "exit 0")
        for label, instance, pricing, commands in CLI_JOBS
        for command in commands
    ),
    summary=lambda got: f"exit {got[0]}" if isinstance(got, tuple) else f"{len(got)} prices",
)


# ---------------------------------------------------------------------------
# expected_opt (fixed point over the support by atom index) against opt's
# welfare on every listed profile.  A case is (env, dist) or (env, dist,
# cap).
# ---------------------------------------------------------------------------

# value pools: the 1/3 grid (inexact thirds use all 53 mantissa bits), values
# within TOL of each other (so the first maximum within TOL decides), and a
# span no int64 holds (so the fixed point falls back)
THIRDS = tuple(k / 3 for k in range(13))
NEAR_TIES = (0.0, 1 / 3, 1 / 3 + TOL / 2, 1 / 3 + TOL, 2 / 3 - TOL / 3, 2 / 3, 1.0)
WIDE = (0.0, 1e-30, 1 / 3, 1e30)
POOLS = {"thirds": THIRDS, "near-ties": NEAR_TIES, "wide": WIDE}


def atom_maker(kind, env, pool):
    """A strategy for one agent's valuation of environment kind ``kind``,
    with values from ``pool``."""
    v = st.sampled_from(pool)
    if kind == "single-item":
        return v.map(ScalarValuation)
    if kind == "knapsack":
        return st.builds(ThresholdValuation, v, st.sampled_from((0.125, 0.25, 0.5)))
    if kind == "xos":
        clause = st.tuples(*[v] * env.items)
        return st.lists(clause, min_size=1, max_size=2).map(lambda cs: XosValuation(tuple(cs)))
    return v  # matroid: the agent's element value, placed by ``product_case``


def environment(kind, n):
    if kind == "single-item":
        return SingleItemEnv(n=n)
    if kind == "matroid":
        return uniform_matroid_env(2, n)
    if kind == "xos":
        return CombinatorialAuctionEnv(n=n, items=2)
    return KnapsackEnv(n=n, step=0.125, max_share=0.5)


@st.composite
def product_case(draw):
    """(env, dist): a product support drawn from a small pool, so that an
    agent's atoms repeat; small supports have 1 to 3 atoms per agent, and
    large ones enough for ``SUPPORT_FORM_MIN_PROFILES`` profiles."""
    kind = draw(st.sampled_from(("single-item", "matroid", "xos", "knapsack")))
    n = draw(st.integers(min_value=2, max_value={"xos": 3, "knapsack": 3}.get(kind, 6)))
    env = environment(kind, n)
    pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
    least = 1
    if draw(st.booleans()):  # large
        least = math.ceil(SUPPORT_FORM_MIN_PROFILES ** (1 / n) - 1e-9)
    supports = []
    for i in range(n):
        atoms = draw(st.lists(atom_maker(kind, env, pool), min_size=least, max_size=least + 2))
        if kind == "matroid":
            atoms = [AdditiveValuation(tuple(x if e == i else 0.0 for e in range(n))) for x in atoms]
        weights = draw(st.lists(st.integers(min_value=1, max_value=7), min_size=len(atoms),
                                max_size=len(atoms)))
        total = sum(weights)
        supports.append(tuple((a, w / total) for a, w in zip(atoms, weights)))
    return env, ProductDistribution(tuple(supports))


def _single_item_pairs(n, low, high):
    """n single-item agents, each worth ``low`` or ``high`` at probability 1/2."""
    atoms = ((ScalarValuation(low), 0.5), (ScalarValuation(high), 0.5))
    return SingleItemEnv(n=n), ProductDistribution((atoms,) * n)


def _two_point(n, seed):
    inst = gen_two_point_single_item(n=n, seed=seed)
    return inst.env, inst.distribution


LARGE_SUPPORT_CAP = 200_000

EXPECTED_OPT = Twin(
    name="expected-opt",
    fast=lambda case: expected_opt(*case),
    twin=lambda case: expected_opt_twin(*case),
    small={
        "product-supports": Small(
            product_case(),
            120,
            (
                _single_item_pairs(5, 1e-30, 1e30),
                _two_point(12, 1),  # agents 4 and 7 repeat an atom
                # welfares within TOL: the first maximum, not the last, is kept
                _single_item_pairs(5, 1 / 3, 1 / 3 + TOL / 2),
            ),
        ),
    },
    # seeds 0-3 of n = 17 give some agents two equal atoms
    large=tuple(
        (f"two-point n = {n}, seed {seed}", (*_two_point(n, seed), LARGE_SUPPORT_CAP), None)
        for n in (12, 16, 17)
        for seed in range(4)
    ) + (
        (
            "two-point uniform matroid, ground 7",
            (*two_point_matroid("uniform", 1, 7, 3, key="uniform:7:1"), LARGE_SUPPORT_CAP),
            None,
        ),
    ),
)


# ---------------------------------------------------------------------------
# The posted-price game on step tables (history ids, one entry per (agent,
# atom, history)) against ``UnprunedRunner``, which keys states by history
# tuple, decides every arrival afresh and has no closed-history cut, and
# against ``monte_carlo_twin`` and ``worst_order_twin`` built on it.  A case
# is (env, dist, pricing, order, seed, trials, parts): ``pricing`` is
# ("scaled",), the kind's per-profile construction scaled over ``dist``, or
# ("flat", c), every item at c; ``parts`` names what is compared, each
# under every tie policy, and a fixed order (``order``, or 0 to n - 1 when
# None) serves the fixed parts.
# ---------------------------------------------------------------------------

PARTS = ("fixed", "adversary", "all-orders", "witness", "traces", "mc-fixed", "mc-random")


def _posted_price_rule(env, dist, pricing):
    if pricing[0] == "flat":
        c = pricing[1]
        # a knapsack quantity pro rata, else per item of the outcome's mask
        size = float if isinstance(env, KnapsackEnv) else lambda x: bin(x).count("1")
        return PricingRule(env, lambda i, x, y: c * size(x), static=True)
    if isinstance(env, SingleItemEnv):
        build = lambda p: single_item_prices(env, p)
    elif isinstance(env, MatroidEnv):
        build = lambda p: matroid_dynamic_prices(env, p)
    else:
        build = lambda p: xos_item_prices(env, p, opt(env, p))
    return expected_scaled_prices(env, dist, build, BalanceParams(alpha=1.0, beta=1.0))


def _posted_price_part(env, dist, rule, tie, order, seed, trials, part, twin):
    runner = UnprunedRunner if twin else OnlinePostedPriceRunner
    if part == "fixed":
        if twin:
            return runner(env, rule, dist.supports, order, tie).expected_welfare()
        return expected_posted_price_welfare(env, rule, dist, order, tie)
    if part == "adversary":
        if twin:
            return runner(env, rule, dist.supports, None, tie).expected_welfare()
        return adaptive_adversary_welfare(env, rule, dist, tie)
    if part == "all-orders":
        if twin:
            return min(
                runner(env, rule, dist.supports, perm, tie).expected_welfare()
                for perm in itertools.permutations(range(env.n))
            )
        return worst_order_expected_welfare(env, rule, dist, tie)
    if part == "witness":
        profile = drawn_profile(dist, trial_rng(seed, 0))
        return (worst_order_twin if twin else worst_order_welfare)(env, rule, profile, tie)
    if part == "traces":
        # one runner for every profile, so later runs read its memo
        fixed = runner(env, rule, dist.supports, order, tie)
        return [fixed.run(drawn_profile(dist, trial_rng(seed, t))) for t in range(4)]
    mc = monte_carlo_twin if twin else monte_carlo_ratio
    try:
        return mc(env, rule, dist, part[3:], trials, seed, tie, order)
    except UndefinedRatio as exc:  # every drawn optimum is zero
        return exc


def _posted_price(case, twin=False):
    """Each (part, tie policy)'s result on one rule built for this side."""
    env, dist, pricing, order, seed, trials, parts = case
    if order is None:
        order = tuple(range(env.n))
    rule = _posted_price_rule(env, dist, pricing)
    return [
        (part, tie, _posted_price_part(env, dist, rule, tie, order, seed, trials, part, twin))
        for part in parts
        for tie in TIE_POLICIES
    ]


@st.composite
def posted_price_case(draw):
    """A single-item, uniform rank-2 matroid, two-item XOS or knapsack
    instance on 2 to 5 agents (XOS and knapsack 2 to 3), one or
    two atoms per agent from ``NEAR_TIES``, mostly priced flat at a value of
    that pool (a knapsack quantity pro rata, and only flat), so utilities
    and continuations tie within ``TOL``.  A knapsack agent's null entry is
    the float 0.0, where the null allocation holds the int 0."""
    kind = draw(st.sampled_from(("single-item", "matroid", "xos", "knapsack")))
    n = draw(st.integers(min_value=2, max_value=5 if kind in ("single-item", "matroid") else 3))
    env = environment(kind, n)
    supports = []
    for i in range(n):
        atoms = draw(st.lists(atom_maker(kind, env, NEAR_TIES), min_size=1, max_size=2))
        if kind == "matroid":
            atoms = [AdditiveValuation(tuple(x if e == i else 0.0 for e in range(n))) for x in atoms]
        weight = draw(st.sampled_from((0.25, 0.5, 0.75)))
        probs = (1.0,) if len(atoms) == 1 else (weight, 1.0 - weight)
        supports.append(tuple(zip(atoms, probs)))
    flat = st.sampled_from(NEAR_TIES).map(lambda c: ("flat", c))
    pricing = draw(flat if kind == "knapsack" else st.one_of(st.just(("scaled",)), flat, flat))
    order = tuple(draw(st.permutations(range(n))))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return env, ProductDistribution(tuple(supports)), pricing, order, seed, 20, PARTS


def _steps_large(label, env, dist, c, part, trials=0):
    """The large case ``part`` on scaled prices and on every item at ``c``,
    an atom value several agents hold, so that they tie."""
    return tuple(
        (f"{label}, {part}, {pricing[0]} prices", (env, dist, pricing, None, 1, trials, (part,)), None)
        for pricing in (("scaled",), ("flat", c))
    )


STEPS = Twin(
    name="posted-price-steps",
    fast=_posted_price,
    twin=functools.partial(_posted_price, twin=True),
    small={"near-ties": Small(posted_price_case(), 60)},
    large=(
        _steps_large("two-point n = 8", *_two_point(8, 1), 0.75, "adversary")
        + _steps_large(
            "partition ground 7", *two_point_matroid("partition", 1, ground=7), 0.375, "adversary"
        )
        + _steps_large("two-point n = 7", *_two_point(7, 1), 0.75, "mc-random", 200)
        + _steps_large("two-point n = 7", *_two_point(7, 1), 0.75, "all-orders")
    ),
    summary=lambda got: "; ".join(
        f"{tie} {getattr(result, 'ratio', result)!r}" for _part, tie, result in got
    ),
)

TWINS = (FEASIBLE, MEMBERS, WALK, DECLARED, STATIC, COLUMNS, EXPECTED_OPT, STEPS)
