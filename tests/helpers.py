"""Brute-force twins, checks and instance builders shared by the tests.

The twins here recompute what the library computes by the most direct means
available (full cartesian enumeration, each family kind's defining
condition), so the library's fast paths can be compared against them.
"""

import functools
import itertools
import math
import random
import sys
from collections import Counter
from operator import getitem

import balprice.core
from balprice.core import (
    NULL,
    AdditiveValuation,
    TOL,
    UNAVAILABLE,
    CapExceeded,
    CombinatorialAuctionEnv,
    KnapsackEnv,
    Matroid,
    MatroidEnv,
    ProductEnv,
    SingleItemEnv,
    TableValuation,
    enumerate_feasible,
    replace_at,
    support,
    value,
    welfare,
    _submasks,
    _token_key,
)
from balprice.catalog import (
    gen_knapsack_random,
    gen_matroid,
    gen_mph_random,
    gen_pip_random,
    gen_product_single_items,
    gen_two_point_single_item,
    gen_xos_random,
)
from balprice.mechanism import (
    OnlinePostedPriceRunner,
    _members,
    _pick,
    whole_unit_prices,
)
from balprice.oracle import (
    OPT_RULE,
    ExchangeFamily,
    _binary_token,
    agent_value,
    default_family,
    is_binary_env,
    knapsack_dp,
    opt,
)
from balprice.balance import BalanceReport
from balprice.pricing import (
    PricingError,
    PricingRule,
    compose_add,
    greedy_derived_prices,
    knapsack_prices,
    matroid_dynamic_prices,
    monotone_critical_prices,
    mphk_item_prices,
    opt_derived_prices,
    pip_prices,
    single_item_prices,
    xos_item_prices,
)
from balprice.stochastic import (
    EXACT_SUPPORT_CAP,
    ProductDistribution,
    RatioEstimate,
    _ratio_ci95,
    trial_rng,
)


def bit(*items) -> int:
    """The mask of ``items``."""
    m = 0
    for j in items:
        m |= 1 << j
    return m


def argmax_first_twin(allocs, profile):
    """Twin of the welfare column's argmax: the welfare of each allocation in
    ``allocs`` computed on its own, the first maximum within ``TOL`` kept."""
    best, best_w = None, -math.inf
    for alloc in allocs:
        w = welfare(profile, alloc)
        if w > best_w + TOL:
            best, best_w = alloc, w
    if best is None:
        raise ValueError("empty allocation list")
    return best


def merge_over(x, y):
    """Overlay y onto x where x is null."""
    return tuple(xi if xi != NULL else yi for xi, yi in zip(x, y))


def restrict(alloc, agents):
    """Zero out every agent not in ``agents``."""
    keep = set(agents)
    return tuple(x if i in keep else NULL for i, x in enumerate(alloc))


def catalog_matroids(seed=0) -> list:
    """The standard matroid roster used by the certification suites: uniform
    ranks on grounds up to 6, a two-block partition, and the K4 cycle
    matroid."""
    return [
        gen_matroid("uniform", seed=seed, rank=1, ground=3),
        gen_matroid("uniform", seed=seed + 1, rank=2, ground=4),
        gen_matroid("uniform", seed=seed + 2, rank=3, ground=5),
        gen_matroid("partition", seed=seed + 3, ground=5),
        gen_matroid("graphic_k4", seed=seed + 4),
    ]


def verify_trace(env, prices, profile, trace) -> None:
    """Re-derive the menus along the trace and assert the per-purchase
    invariants: quoted payments, feasibility, individual rationality, and
    that no unilateral alternative purchase beats the realized utility."""
    y = env.null_allocation()
    for i in trace.order:
        tok = trace.outcomes[i]
        quoted = prices.price(i, tok, y)
        assert quoted is not UNAVAILABLE, "purchased an unavailable entry"
        assert abs(quoted - trace.payments[i]) <= TOL, "payment differs from quote"
        assert env.is_feasible(replace_at(y, i, tok)), "infeasible purchase"
        u = value(profile[i], tok) - quoted
        assert u >= -TOL, "individually irrational purchase"
        for alt, p in prices.menu(i, y):
            assert value(profile[i], alt) - p <= u + TOL, "better alternative existed"
        y = replace_at(y, i, tok)
    assert abs(trace.welfare - (trace.revenue + trace.utility_sum)) <= 1e-7


def check_downward_closed(env, cap=balprice.core.DEFAULT_CAP) -> bool:
    """Exhaustively verify that every restriction of a feasible allocation is
    feasible (desk-scale environments only).

    It enumerates through ``enumerate_feasible``, whose DFS prunes every
    prefix that is infeasible and so never lists an allocation with an
    infeasible prefix; the check is therefore meaningful only on
    environments that are closed by construction."""
    for alloc in enumerate_feasible(env, cap):
        agents = support(alloc)
        for r in range(len(agents) + 1):
            for subset in itertools.combinations(agents, r):
                if not env.is_feasible(restrict(alloc, subset)):
                    return False
    return True


def uniform_matroid_env(rank, n):
    """A uniform matroid of rank ``rank`` on n elements, one per agent."""
    return MatroidEnv(
        n=n, matroid=Matroid.uniform(rank, n), elements=tuple((i,) for i in range(n))
    )


def element_profile(env, *vals):
    """Agent i worth vals[i] at its single element's mask."""
    return tuple(
        TableValuation(((1 << env.elements[i][0], float(v)),)) for i, v in enumerate(vals)
    )


def two_point_matroid(kind, seed, ground=6, rank=3, key=None):
    """A catalog matroid, one element per agent, where each agent draws a
    high or a low value on the 1/8 grid, from ``random.Random(key)``
    (``random.Random(seed)`` when ``key`` is None): (env, distribution)."""
    env = gen_matroid(kind, seed=seed, rank=rank, ground=ground).env
    g = env.matroid.ground
    rng = random.Random(seed if key is None else key)
    supports = []
    for i in range(env.n):
        hi, lo, p = rng.randint(4, 16) / 8, rng.randint(0, 3) / 8, rng.randint(1, 7) / 8
        atom = lambda v: AdditiveValuation(tuple(v if e == i else 0.0 for e in range(g)))
        supports.append(((atom(hi), p), (atom(lo), 1.0 - p)))
    return env, ProductDistribution(tuple(supports))


MATROID_PRICINGS = ("matroid", "warmup", "alg1-greedy", "alg2-opt")


def matroid_priced(kind, ground, seed, pricing):
    """(env, profile, rule, family) for a catalog matroid under one of the
    dynamic price constructions, with the family the CLI certifies it on."""
    if kind == "uniform":
        inst = gen_matroid("uniform", seed=seed, rank=max(1, ground // 2), ground=ground)
    elif kind == "partition":
        inst = gen_matroid("partition", seed=seed, ground=ground)
    else:
        inst = gen_matroid("graphic_k4", seed=seed)
    env, profile = inst.env, inst.profile
    if pricing == "matroid":
        return env, profile, matroid_dynamic_prices(env, profile), default_family(env)
    build = {
        "warmup": lambda: monotone_critical_prices(env, profile, OPT_RULE),
        "alg1-greedy": lambda: greedy_derived_prices(env, profile),
        "alg2-opt": lambda: opt_derived_prices(env, profile),
    }[pricing]
    return env, profile, build(), ExchangeFamily("canonical_contraction", env)


def multi_element_priced(values):
    """Agents owning two elements each of a uniform matroid of rank the
    number of agents, so an exchange member can give an agent of x's
    support another non-null outcome."""
    n = len(values) // 2
    env = MatroidEnv(
        n=n, matroid=Matroid.uniform(n, 2 * n), elements=tuple((2 * i, 2 * i + 1) for i in range(n))
    )
    profile = multi_element_profile(env, values)
    return env, profile, matroid_dynamic_prices(env, profile), default_family(env)


def gated_unavailable_case():
    """Agent 2's entry is unavailable until agent 0's element is sold, so
    every condition-(a) sum of an x holding elements 0 and 2 is flagged in
    the order that puts agent 2 first: (env, profile, rule, family)."""
    env = uniform_matroid_env(3, 4)
    rule = PricingRule(
        env, lambda i, x_i, y: UNAVAILABLE if i == 2 and not y[0] else 1.0, static=False,
    )
    return env, element_profile(env, 3, 2, 1, 1), rule, default_family(env)


def added_single_item_prices(env, profile, alloc):
    """Single-item prices of each market of a product, added up."""
    rules = [
        single_item_prices(market, tuple(v.parts[ell] for v in profile))
        for ell, market in enumerate(env.markets)
    ]
    return compose_add(env, rules)


STATIC_KINDS = {
    "two-point": (gen_two_point_single_item, lambda env, p, _: single_item_prices(env, p)),
    "compose-add": (gen_product_single_items, added_single_item_prices),
    "xos": (gen_xos_random, xos_item_prices),
    "mph": (gen_mph_random, mphk_item_prices),
    "pip": (gen_pip_random, pip_prices),
}


def static_case(kind, n, seed, **sizes):
    """(env, profile, rule, reference allocation) for a catalog instance
    priced by a static construction, ``sizes`` passed to its generator.
    ``knapsack`` and ``whole-unit`` prices take the knapsack optimum's
    welfare, or ``price``, as reference, on the catalog knapsack or on one
    with step ``step``."""
    if kind in ("knapsack", "whole-unit"):
        price, step = sizes.pop("price", None), sizes.pop("step", None)
        inst = gen_knapsack_random(n=n, seed=seed, **sizes)
        env, profile = (inst.env if step is None else KnapsackEnv(n=n, step=step)), inst.profile
        alloc = knapsack_dp(env, profile)
        ref = welfare(profile, alloc) if price is None else price
        if kind == "knapsack":
            return env, profile, knapsack_prices(env, profile, ref), alloc
        return env, profile, whole_unit_prices(env, ref), alloc
    gen, construct = STATIC_KINDS[kind]
    inst = gen(n=n, seed=seed, **sizes)
    alloc = opt(inst.env, inst.profile)
    return inst.env, inst.profile, construct(inst.env, inst.profile, alloc), alloc


def report_fields(report):
    """What a certifier report must reproduce: its serialized dict, every
    witness and structural violation, and its largest condition-(b) ratio."""
    return report.as_dict(), report.witnesses, report.structural_violations, report.max_b_ratio


def multi_element_matroid():
    """Three agents owning two elements each of a rank-3 uniform matroid, so
    tokens are masks with more than one bit."""
    return MatroidEnv(n=3, matroid=Matroid.uniform(3, 6), elements=((0, 1), (2, 3), (4, 5)))


def multi_element_profile(env, values):
    """Additive valuations on ``env``'s ground set: agent i values element e
    at values[e] when it owns e, else 0."""
    return tuple(
        AdditiveValuation(tuple(v if e in env.elements[i] else 0.0 for e, v in enumerate(values)))
        for i in range(env.n)
    )


@functools.lru_cache(maxsize=8)
def brute_feasible(env) -> list:
    """Every feasible allocation, found by testing the whole cartesian
    product of the agents' outcome spaces (no pruning), in lexicographic
    token order."""
    spaces = [sorted(env.agent_outcomes(i), key=_token_key) for i in range(env.n)]
    return [a for a in itertools.product(*spaces) if env.is_feasible(a)]


def dfs_feasible_twin(env, cap=balprice.core.DEFAULT_CAP) -> tuple:
    """Twin of the DFS in ``enumerate_feasible`` before each kind carried its
    own state: every node rebuilds its whole allocation, trailing nulls
    included, and checks it with ``is_feasible``.  Keeps no list on ``env``."""
    n = env.n
    spaces = [sorted(env.agent_outcomes(i), key=_token_key) for i in range(n)]
    out = []
    cur = [NULL] * n

    def rec(i):
        if i == n:
            out.append(tuple(cur))
            if len(out) > cap:
                raise CapExceeded(len(out), cap, "feasible allocations")
            return
        for tok in spaces[i]:
            cur[i] = tok
            if env.is_feasible(tuple(cur)):
                rec(i + 1)
        cur[i] = NULL

    rec(0)
    return tuple(out)


def _items(alloc) -> int:
    mask = 0
    for a in alloc:
        mask |= a
    return mask


def families(env):
    """A family of every kind that applies to ``env``."""
    out = [ExchangeFamily("canonical_contraction", env), default_family(env)]
    if isinstance(env, (MatroidEnv, CombinatorialAuctionEnv, SingleItemEnv)):
        out.append(ExchangeFamily("item_disjoint", env))
    if isinstance(env, ProductEnv):
        out.append(ExchangeFamily("product", env, components=tuple(
            ExchangeFamily("canonical_contraction", m) for m in env.markets
        )))
    return out


def filtered_members(family, x) -> list:
    """Brute-force twin of ``ExchangeFamily.members``: every feasible
    allocation, kept when it meets the kind's defining condition; a
    product member is a product allocation whose every market projection
    is a member of that market's component family."""
    kind, env = family.kind, family.env
    feasible = brute_feasible(env)
    null = env.null_allocation()
    if kind == "product":
        per_market = [
            set(filtered_members(fam, env.project(x, ell)))
            for ell, fam in enumerate(family.components)
        ]

        def keep(y):
            return all(env.project(y, ell) in ms for ell, ms in enumerate(per_market))
    elif kind == "knapsack_threshold":
        def keep(y):
            return sum(x) < 0.5 or y == null
    elif kind == "canonical_contraction":
        def keep(y):
            return all(y[i] == NULL for i in support(x)) and env.is_feasible(
                tuple(xi if xi != NULL else yi for xi, yi in zip(x, y))
            )
    elif kind == "item_disjoint":
        def keep(y):
            return not _items(y) & _items(x) and env.is_feasible(
                tuple(xi | yi for xi, yi in zip(x, y))
            )
    else:
        caps = [1.0 if l <= 0.5 + TOL else 0.0 for l in env.load(x)]

        def keep(y):
            return all(l <= c + TOL for l, c in zip(env.load(y), caps))
    return [y for y in feasible if keep(y)]


def count_dfs_runs(monkeypatch) -> list:
    """Count the DFS runs of ``enumerate_feasible``: the calls that find no
    list kept on their environment.  Patches every ``balprice`` module name
    bound to it; the count is element 0 of the returned list."""
    runs = [0]
    orig = balprice.core.enumerate_feasible

    def counted(env, *args, **kwargs):
        if "feasible" not in env._facts:
            runs[0] += 1
        return orig(env, *args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "balprice" or mod_name.startswith("balprice."):
            if getattr(mod, "enumerate_feasible", None) is orig:
                monkeypatch.setattr(mod, "enumerate_feasible", counted)
    return runs


def tied_candidates_twin(prices, v, i, y) -> list:
    """Twin of ``PricingRule.best_entries`` without its memo: agent i's
    utility-maximizing entries of a freshly built menu, lexmin token first."""
    menu = prices.menu(i, y)
    best = max(value(v, tok) - p for tok, p in menu)
    cands = [(tok, p) for tok, p in menu if value(v, tok) - p >= best - TOL]
    cands.sort(key=lambda tp: _token_key(tp[0]))
    return cands


def expected_opt_twin(env, dist, cap=EXACT_SUPPORT_CAP) -> float:
    """Twin of ``expected_opt``: the welfare of ``argmax_first_twin`` over the
    feasible list on every support profile, each profile and its
    probability from ``profiles_twin``."""
    feasible = enumerate_feasible(env)
    return math.fsum(
        prob * welfare(p, argmax_first_twin(feasible, p)) for p, prob in profiles_twin(dist, cap)
    )


def decide_twin(prices, tie, left, i, v, y, tied):
    """Agent i's (token, payment) at history ``y`` with valuation ``v``, the
    agents in bitmask ``left`` (i among them) yet to arrive, asked afresh:
    a named policy's pick, the one utility-maximizing entry, or
    ``tied(left, i, v, y, cands)`` when there are several."""
    cands = prices.best_entries(i, v, y)
    if tie != "adversarial_min_welfare":
        return _pick(cands, tie)
    if len(cands) == 1:
        return cands[0]
    return tied(left, i, v, y, cands)


class UnprunedRunner(OnlinePostedPriceRunner):
    """Twin of the evaluator without the closed-history cut and without step
    tables: every state below a history no later arrival can change is still
    visited, each state is keyed by its history tuple, and every arrival
    decides afresh (``decide_twin``), so the twin shares no step table with
    the fast path."""

    def _tied(self, left, i, v, y, cands):
        rest = left & ~(1 << i)
        best, best_cand = math.inf, cands[0]
        for tok, p in cands:
            w = value(v, tok) + self._value(rest, replace_at(y, i, tok))
            if w < best - TOL:
                best, best_cand = w, (tok, p)
        return best_cand

    def _value(self, left, y):
        if not left:
            return 0.0
        key = (left, y)
        if key in self._memo:
            return self._memo[key]
        if len(self._memo) > self.cap:
            raise CapExceeded(len(self._memo), self.cap, "evaluator memo states")
        worst = math.inf
        for i in self._next[left] if self.order is not None else _members(left):
            rest = left & ~(1 << i)
            total = 0.0
            for v, prob in self.atoms[i]:
                tok, _p = decide_twin(self.prices, self.tie, left, i, v, y, self._tied)
                total += prob * (value(v, tok) + self._value(rest, replace_at(y, i, tok)))
            worst = min(worst, total)
        self._memo[key] = worst
        return worst

    def expected_welfare(self):
        return self._value(self._everyone, self.env.null_allocation())

    def _walk(self, profile):
        y, left = self.env.null_allocation(), self._everyone
        payments = [0.0] * self.env.n
        for i in self.order:
            tok, payments[i] = decide_twin(self.prices, self.tie, left, i, profile[i], y, self._tied)
            y, left = replace_at(y, i, tok), left & ~(1 << i)
        return y, payments


def worst_order_twin(env, prices, profile, tie="adversarial_min_welfare"):
    """Twin of ``worst_order_welfare`` on ``UnprunedRunner``: the same
    witness walk over history tuples, each arrival's reachable histories
    taken from a fresh decision, and the witness run by the twin."""
    point_masses = tuple(((v, 1.0),) for v in profile)
    runner = UnprunedRunner(env, prices, point_masses, None, tie)
    target = runner.expected_welfare()
    left, witness, frontier = runner._everyone, [], {env.null_allocation()}
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
    trace = UnprunedRunner(env, prices, point_masses, witness, tie).run(profile)
    return trace.welfare, tuple(witness)


class ScanningRunner(OnlinePostedPriceRunner):
    """Twin of the evaluator's closed-history check without its per-history
    bitmasks: every agent still to arrive is scanned at each state, in
    ascending order, until one buys something under some atom."""

    def _closed(self, left, h):
        steps = self._steps
        for i in _members(left):
            for a in steps.index[i]:
                cands = steps[i, a, h]
                if len(cands) > 1 or cands[0][0] != NULL:
                    return False
        return True


def asked_entries(rule) -> Counter:
    """Count the (agent, valuation, history) keys ``rule.best_entries`` is
    asked from now on, by wrapping it on the rule."""
    asked, real = Counter(), rule.best_entries

    def counted(i, v, y):
        asked[i, v, y] += 1
        return real(i, v, y)

    rule.best_entries = counted
    return asked


def profiles_twin(dist, cap=EXACT_SUPPORT_CAP):
    """Twin of ``ProductDistribution.profiles``: one pass over the product of
    the atoms, each profile and probability taken from its combination."""
    if dist.support_size() > cap:
        raise CapExceeded(dist.support_size(), cap, "distribution support profiles")
    for combo in itertools.product(*dist.supports):
        prob = math.prod(p for _, p in combo)
        yield tuple(v for v, _ in combo), prob


def matroid_element_values_twin(env, profile) -> list:
    """Twin of the element values ``matroid_dynamic_prices`` reads, for one
    profile: every agent's additivity check, then every element's value."""
    for i, v in enumerate(profile):
        additive_sum = math.fsum(value(v, 1 << e) for e in env.elements[i])
        if abs(value(v, env.agent_mask(i)) - additive_sum) > 1e-7:
            raise PricingError(
                "dynamic matroid prices require additive element values; "
                "use compose_max for structured valuations"
            )
    vals = [0.0] * env.matroid.ground
    for i, owned in enumerate(env.elements):
        for e in owned:
            vals[e] = value(profile[i], 1 << e)
    return vals


def every_entry(env):
    """Every (agent, outcome, partial allocation) the mechanisms can ask."""
    for y in enumerate_feasible(env):
        for i in range(env.n):
            for x_i in env.agent_outcomes(i):
                yield i, x_i, y


def expected_scaled_twin(env, dist, constructor, params, cap=EXACT_SUPPORT_CAP) -> PricingRule:
    """Twin of ``expected_scaled_prices`` without support forms or atom
    indices: each support profile is hashed to its slot, one per distinct
    profile in order of first appearance; every miss calls each distinct
    profile's own finite price, the rules built at the first miss in slot
    order, and takes the scaled ``fsum`` of probability times price in
    support order."""
    delta = params.scale_factor()
    weighted = list(dist.profiles(cap))
    slots: dict = {}
    terms = [(slots.setdefault(profile, len(slots)), prob) for profile, prob in weighted]
    distinct = list(slots)
    finites: list = [None] * len(distinct)

    def build(profile):
        rule = constructor(profile)
        if rule.env != env:
            raise PricingError("per-profile rule is built on a different environment")
        return rule._finite_price

    def finite(i, x_i, y):
        prices = []
        for k, profile in enumerate(distinct):
            f = finites[k]
            if f is None:
                f = finites[k] = build(profile)
            p = f(i, x_i, y)
            if p is UNAVAILABLE:
                raise AssertionError("per-profile price unavailable on a feasible entry")
            prices.append(p)
        return delta * math.fsum(prob * prices[k] for k, prob in terms)

    return PricingRule(env, finite, static=False)


def independent_twin(matroid, mask) -> bool:
    """Twin of ``Matroid.independent`` without its memo, each kind by its
    definition; a K4 edge set is independent when it is a forest, that is
    when every nonempty subset of it touches more vertices than it has
    edges."""
    if mask < 0 or mask >> matroid.ground:
        return False
    elems = [e for e in range(matroid.ground) if mask >> e & 1]
    if matroid.kind == "uniform":
        return len(elems) <= matroid.rank_bound
    if matroid.kind == "partition":
        return all(
            sum(1 for e in block if e in elems) <= cap
            for block, cap in zip(matroid.blocks, matroid.capacities)
        )
    for r in range(1, len(elems) + 1):
        for edges in itertools.combinations(elems, r):
            touched = {u for e in edges for u in balprice.core.K4_EDGES[e]}
            if len(edges) >= len(touched):
                return False
    return True


def drawn_profile(dist, rng) -> tuple:
    """The profile one trial of ``monte_carlo_ratio`` draws: each agent's
    atom at its ``ProductDistribution.draw`` position, read off the
    ``_draw_tables`` valuations."""
    return tuple(map(getitem, dist._draw_tables[1], dist.draw(rng)))


def sample_twin(dist, rng) -> tuple:
    """Twin of ``drawn_profile``: one ``rng.random()`` call per agent, which
    takes its first atom whose running sum of probabilities passes the
    float, else its last atom."""
    out = []
    for atoms in dist.supports:
        u = rng.random()
        acc = 0.0
        pick = atoms[-1][0]
        for v, p in atoms:
            acc += p
            if u < acc:
                pick = v
                break
        out.append(pick)
    return tuple(out)


def monte_carlo_twin(env, prices, dist, order_mode, trials, seed, tie="adversarial_min_welfare",
                     fixed_order=None):
    """Twin of ``monte_carlo_ratio`` as a plain loop over trials: each trial
    draws its profile by ``sample_twin`` (then, in random order, its
    permutation) from its own stream, runs an ``UnprunedRunner`` of its own,
    and takes ``argmax_first_twin`` over the feasible list for its
    optimum."""
    feasible = enumerate_feasible(env)
    ws, os_ = [], []
    for t in range(trials):
        rng = trial_rng(seed, t)
        profile = sample_twin(dist, rng)
        if order_mode == "fixed":
            order = tuple(range(env.n)) if fixed_order is None else tuple(fixed_order)
        else:
            order = tuple(int(i) for i in rng.permutation(env.n))
        runner = UnprunedRunner(env, prices, dist.supports, order, tie)
        ws.append(runner.run(profile).welfare)
        os_.append(welfare(profile, argmax_first_twin(feasible, profile)))
    return RatioEstimate.of(
        math.fsum(ws) / trials,
        math.fsum(os_) / trials,
        "monte_carlo",
        trials=trials,
        seed=seed,
        ci95_halfwidth=_ratio_ci95(ws, os_),
    )


def greedy_twin(env, profile, fixed):
    """Twin of the binary branch of ``greedy``: agents by non-increasing
    value, ties by index, each accepted when feasible with ``fixed`` and the
    earlier acceptances."""
    vals = [agent_value(env, profile, i) for i in range(env.n)]
    order = sorted(range(env.n), key=lambda i: (-vals[i], i))
    chosen = list(env.null_allocation())
    for i in order:
        if fixed[i] != NULL or vals[i] <= TOL:
            continue
        chosen[i] = _binary_token(env, i)
        if not env.is_feasible(merge_over(fixed, tuple(chosen))):
            chosen[i] = NULL
    return tuple(chosen)


def critical_value_opt_twin(env, profile, agent, fixed, cap=balprice.core.DEFAULT_CAP):
    """Twin of the OPT critical value as a member walk: the best residual
    welfare of the others without the agent minus their best with the agent
    forced in, feasibility tested on each forced member."""
    fam = ExchangeFamily("canonical_contraction", env)
    tok = _binary_token(env, agent)
    without_w = -math.inf
    with_w = -math.inf
    for y in fam.members(fixed, cap):
        others = math.fsum(value(profile[j], y[j]) for j in range(env.n) if j != agent)
        if y[agent] == NULL and others > without_w:
            without_w = others
        forced = replace_at(y, agent, tok)
        if env.is_feasible(merge_over(fixed, forced)):
            if others > with_w:
                with_w = others
    if with_w == -math.inf:
        return UNAVAILABLE
    return max(0.0, without_w - with_w)


def critical_value_greedy_twin(env, profile, agent, fixed):
    """Twin of the greedy critical value: a greedy run on a rebuilt profile
    just above each of the others' values, lowest first."""
    others = sorted(
        {
            agent_value(env, profile, j)
            for j in range(env.n)
            if j != agent and agent_value(env, profile, j) > TOL
        }
    )
    candidates = [0.0] + others
    tok = _binary_token(env, agent)

    def wins(bid):
        trial = list(profile)
        trial[agent] = TableValuation(((tok, bid),))
        return greedy_twin(env, tuple(trial), fixed)[agent] != NULL

    for idx, c in enumerate(candidates):
        upper = candidates[idx + 1] if idx + 1 < len(candidates) else c + 1.0
        if wins((c + upper) / 2.0):
            return c
    return UNAVAILABLE


def critical_value_twin(rule, env, profile, agent, fixed, cap=balprice.core.DEFAULT_CAP):
    """Twin of ``critical_value`` for the OPT and greedy rules."""
    tok = _binary_token(env, agent)
    if fixed[agent] != NULL or not env.is_feasible(replace_at(fixed, agent, tok)):
        return UNAVAILABLE
    if rule.kind == "opt_bruteforce":
        return critical_value_opt_twin(env, profile, agent, fixed, cap)
    return critical_value_greedy_twin(env, profile, agent, fixed)


def binary_profile(env, bids):
    """Valuations worth ``bids[i]`` at agent i's single non-null token."""
    return tuple(
        TableValuation(((_binary_token(env, i), float(b)),)) for i, b in enumerate(bids)
    )


def permeability_twin(env, rule, value_grid, cap=balprice.core.DEFAULT_CAP):
    """Twin of ``permeability`` over every grid bid vector and every feasible
    set: the OPT critical value by the externality formula on support lists,
    the greedy one through ``critical_value_twin``, and each set's ratio
    taken on its own."""
    if not is_binary_env(env):
        raise TypeError("permeability requires a binary single-parameter environment")
    grid = sorted(set(float(g) for g in value_grid))
    feasible = enumerate_feasible(env, cap)
    supports = [support(x) for x in feasible]
    n = env.n
    total = len(grid) ** n
    if total > cap:
        raise CapExceeded(total, cap, "bid vectors")
    without_i = [[s for x, s in zip(feasible, supports) if x[i] == NULL] for i in range(n)]
    with_i = [[s for x, s in zip(feasible, supports) if x[i] != NULL] for i in range(n)]
    gamma = 1.0
    tau_cache = {}

    def tau(i, bids):
        key = (i, tuple(b for j, b in enumerate(bids) if j != i))
        if key in tau_cache:
            return tau_cache[key]
        if rule.kind == "opt_bruteforce":
            best_without = max((math.fsum(bids[j] for j in s) for s in without_i[i]), default=0.0)
            if not with_i[i]:
                t = math.inf
            else:
                best_with = max(math.fsum(bids[j] for j in s if j != i) for s in with_i[i])
                t = max(0.0, best_without - best_with)
        else:
            profile = binary_profile(env, bids)
            t0 = critical_value_twin(rule, env, profile, i, env.null_allocation(), cap)
            t = math.inf if t0 is UNAVAILABLE else t0
        tau_cache[key] = t
        return t

    for bids in itertools.product(grid, repeat=n):
        if rule.kind == "opt_bruteforce":
            declared = max((math.fsum(bids[j] for j in s) for s in supports), default=0.0)
        else:
            won = greedy_twin(env, binary_profile(env, bids), env.null_allocation())
            declared = math.fsum(bids[i] for i in support(won))
        for s in supports:
            num = math.fsum(tau(i, bids) for i in s)
            if num <= TOL:
                continue
            if declared <= TOL:
                return math.inf
            gamma = max(gamma, num / declared)
    return gamma


def price_term(rule, x, i, z_i, pred_mask):
    """p_i(z_i | x restricted to the agents in ``pred_mask``), asked of the
    pricing rule itself."""
    return rule.price(i, z_i, tuple(t if pred_mask >> j & 1 else NULL for j, t in enumerate(x)))


# The all-orders price sum as it was computed before witness orders were
# replayed on demand: value, flag and full witness order from one call.
# ``self`` is a ``balance._OrderSums``; the twins read only its pricing rule.
def eager_extremal(self, x, z, maximize: bool):
    """Min (or max) over all agent orders of the price sum for outcomes z
    conditioned on x-prefixes, with an order that attains it: (value,
    witness order, saw_unavailable), from ``extremal_twin`` and
    ``witness_twin``, each a full ``subset_dp_twin`` run of its own."""
    value, flag = extremal_twin(self, x, z, maximize)
    return value, witness_twin(self, x, z, maximize), flag


def subset_dp_twin(rule, x, z, maximize: bool):
    """The all-orders DP as one full run per sum, over the live agents (those
    with x_i or z_i non-null), every term asked of the pricing rule:
    (dp, term, live).  Bit j of a DP mask is agent live[j], and ``term(j,
    c)`` is that agent's price after the agents of DP mask c.  An inert
    agent prices NULL at exactly 0.0 and conditions no one, so dp[S] equals
    dp[S & live] in value and flag.  UNAVAILABLE terms count 0 in the sum
    but are flagged."""
    live = [i for i, (x_i, z_i) in enumerate(zip(x, z)) if x_i != NULL or z_i != NULL]
    subs = _submasks(sum(1 << i for i in live))

    def term(j: int, c: int):
        i = live[j]
        return price_term(rule, x, i, z[i], subs[c])

    sign = -1.0 if maximize else 1.0
    full = len(subs) - 1
    dp = [0.0] * (full + 1)
    flag = [False] * (full + 1)
    for mask in range(1, full + 1):
        best, best_flag = math.inf, False
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            prev = mask ^ bit
            p = term(bit.bit_length() - 1, prev)
            if p is UNAVAILABLE:
                if dp[prev] < best - TOL:
                    best, best_flag = dp[prev], True
            else:
                cand = dp[prev] + sign * p
                if cand < best - TOL:
                    best, best_flag = cand, flag[prev]
        dp[mask] = best
        flag[mask] = best_flag
    return dp, flag, term, live


def extremal_twin(sums, x, z, maximize: bool):
    """Twin of ``_OrderSums.extremal`` on ``subset_dp_twin``, reading only
    the pricing rule of ``sums``."""
    dp, flag, _, _ = subset_dp_twin(sums.prices, x, z, maximize)
    return (-dp[-1] if maximize else dp[-1]), flag[-1]


def extremal_at_twin(sums, py: int, at, maximize: bool) -> list:
    """Twin of ``_OrderSums.extremal_at``, the walk's entry: ``extremal_twin``
    of the allocation listed at position py against each one listed at the
    positions ``at``."""
    x = sums.feasible[py]
    return [extremal_twin(sums, x, sums.feasible[pw], maximize) for pw in at]


def witness_twin(sums, x, z, maximize: bool) -> tuple:
    """Twin of ``_OrderSums.witness``: the first-within-TOL scan of
    ``subset_dp_twin`` replayed over all n agents, last arrival first; an
    inert agent's candidate is dp[c], the optimum over the live agents
    left."""
    dp, _, term, live = subset_dp_twin(sums.prices, x, z, maximize)
    sign = -1.0 if maximize else 1.0
    rank = {i: j for j, i in enumerate(live)}
    order = []
    agents, c = list(range(len(x))), len(dp) - 1
    while agents:
        best, best_i = math.inf, -1
        for i in agents:
            j = rank.get(i)
            if j is None:
                cand = dp[c]
            else:
                prev = c ^ 1 << j
                p = term(j, prev)
                cand = dp[prev] + (0.0 if p is UNAVAILABLE else sign * p)
            if cand < best - TOL:
                best, best_i = cand, i
        order.append(best_i)
        agents.remove(best_i)
        if best_i in rank:
            c ^= 1 << rank[best_i]
    order.reverse()
    return tuple(order)


def declared_sum_twin(rule, x, z, order):
    """Σ p_i(z_i | x restricted to the agents before i in ``order``), each
    term asked of the pricing rule and added from 0.0 in order:
    (sum, saw_unavailable)."""
    total, unavailable, before = 0.0, False, 0
    for i in order:
        p = price_term(rule, x, i, z[i], before)
        if p is UNAVAILABLE:
            unavailable = True
        else:
            total += p
        before |= 1 << i
    return total, unavailable


def per_x_check(env, profile, prices, alg_alloc, family, params, order=None):
    """Brute-force twin of the static and declared-order walks: for every
    feasible x, take x's exchange set from the family's defining condition
    and price every member afresh.  With no ``order`` the rule must be
    static, and each term is conditioned on the null allocation and summed
    in agent order; with one, each sum is ``declared_sum_twin`` along it."""
    static = order is None
    if static:
        assert prices.static
    order = tuple(range(env.n)) if static else tuple(order)
    alg_w = welfare(profile, alg_alloc)
    report = BalanceReport(
        passed=True,
        params=params,
        condition_a_min_slack=math.inf,
        condition_b_min_slack=math.inf,
        order_mode="all" if static else "declared",
    )
    feasible = enumerate_feasible(env)
    for x in feasible:
        y = env.null_allocation() if static else x
        report.checked_allocations += 1
        members = filtered_members(family, x)
        residual_w = welfare(profile, argmax_first_twin(members, profile)) if members else 0.0
        rhs_a = (alg_w - residual_w) / params.alpha
        if params.weak:
            rhs_b = params.beta1 * residual_w + params.beta2 * alg_w
        else:
            rhs_b = params.beta * residual_w
        lhs_a, bad = declared_sum_twin(prices, y, x, order)
        if bad:
            report.structural_violations.append(("a", x, order))
            report.passed = False
        slack_a = lhs_a - rhs_a
        report.condition_a_min_slack = min(report.condition_a_min_slack, slack_a)
        if slack_a < -TOL:
            report.passed = False
            report.witnesses.append(("a", x, None, lhs_a, rhs_a, order))
        for member in members:
            report.checked_members += 1
            lhs_b, bad = declared_sum_twin(prices, y, member, order)
            if bad:
                report.structural_violations.append(("b", x, member))
                report.passed = False
            slack_b = rhs_b - lhs_b
            report.condition_b_min_slack = min(report.condition_b_min_slack, slack_b)
            if slack_b < -TOL:
                report.passed = False
                report.witnesses.append(("b", x, member, lhs_b, rhs_b, order))
            if lhs_b > TOL:
                ratio = math.inf if residual_w <= TOL else lhs_b / residual_w
                report.max_b_ratio = max(report.max_b_ratio, ratio)
    if not feasible:
        report.condition_a_min_slack = 0.0
        report.condition_b_min_slack = 0.0
    if report.condition_b_min_slack == math.inf:
        report.condition_b_min_slack = 0.0
    return report
