"""Command-line front end: instance I/O, the pricing-construction table, and
the balance / simulate / ratio / permeability / catalog subcommands.

Exit codes: 0 success or certification pass, 1 certification failure,
2 input error, 3 resource cap exceeded.  Every report embeds the resolved
run configuration so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .balance import CHECK_ORDER_KINDS, check_balanced, check_weakly_balanced
from .catalog import GENERATORS
from .core import (
    DEFAULT_CAP,
    AdditiveValuation,
    CapExceeded,
    CombinatorialAuctionEnv,
    Environment,
    KnapsackEnv,
    MarketValuation,
    MatroidEnv,
    MphValuation,
    PipEnv,
    ProductEnv,
    SingleItemEnv,
    _check_order,
    enumerate_feasible,
    welfare,
)
from .mechanism import adaptive_adversary_welfare, run_posted_price, worst_order_welfare
from .oracle import (
    ExchangeFamily,
    GREEDY_RULE,
    OPT_RULE,
    agent_classes,
    agent_value,
    bid_vector_count,
    default_family,
    fractional_opt_config_lp,
    greedy,
    is_binary_env,
    knapsack_dp,
    opt,
    permeability,
)
from .pricing import (
    BalanceParams,
    PricingError,
    PricingRule,
    SupportForm,
    bundle_split_item_prices,
    compose_add,
    compose_max,
    expected_scaled_prices,
    fractional_ca_item_prices,
    greedy_derived_prices,
    knapsack_prices,
    matroid_dynamic_prices,
    matroid_support_prices,
    monotone_critical_prices,
    mphk_item_prices,
    opt_derived_prices,
    pip_prices,
    single_item_prices,
    single_item_support_prices,
    xos_item_prices,
)
from .serialize import Instance, SchemaError, _bounded, load_instance_file
from .stochastic import (EXACT_ORDER_KINDS, MONTE_CARLO_ORDER_KINDS, ProductDistribution,
                         exact_ratio, monte_carlo_ratio)

RATIO_SCHEMA = "balprice.ratio.v1"
REPORT_SCHEMA = "balprice.report.v1"


def _default_cap() -> int:
    raw = os.environ.get("BALPRICE_CAP")
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise SchemaError(f"BALPRICE_CAP must be an integer, got {raw!r}") from exc
    return DEFAULT_CAP


# ---------------------------------------------------------------------------
# Pricing constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Construction:
    """A pricing construction: the environments it applies to (a class, a
    tuple of classes, or a predicate on the environment), its rule for a
    realized profile, its default balance parameters, its reference rule ALG,
    its exchange-compatible family, and optionally a support form of its rule
    that prices the scaled expected rule's misses over a whole support at
    once.  Calls that enumerate take ``cap``."""

    applies: Union[type, tuple, Callable[[Environment], bool]]
    rule: Callable[[Environment, tuple, int], PricingRule]
    params: Callable[[Instance, int], BalanceParams]
    reference: Callable[[Environment, tuple, int], tuple] = (
        lambda env, profile, cap: opt(env, profile, cap)
    )
    family: Callable[[Environment], ExchangeFamily] = lambda env: default_family(env)
    support: Optional[SupportForm] = None

    def applies_to(self, env: Environment) -> bool:
        if isinstance(self.applies, (type, tuple)):
            return isinstance(env, self.applies)
        return self.applies(env)


def _fixed(**values) -> Callable[[Instance, int], BalanceParams]:
    return lambda instance, cap: BalanceParams(**values)


def _canonical(env: Environment) -> ExchangeFamily:
    return ExchangeFamily("canonical_contraction", env)


def _mph_rank(instance: Instance) -> int:
    ranks = [v.rank for v in instance.profile if isinstance(v, MphValuation)]
    if instance.distribution is not None:
        for atoms in instance.distribution.supports:
            ranks.extend(v.rank for v, _ in atoms if isinstance(v, MphValuation))
    return max(ranks, default=1)


def _value_grid(instance: Instance) -> list[float]:
    """Default bid grid: zero and every agent's own value."""
    env = instance.env
    return sorted({0.0} | {agent_value(env, instance.profile, i) for i in range(env.n)})


def _alg1_params(instance: Instance, cap: int) -> BalanceParams:
    g = permeability(instance.env, GREEDY_RULE, _value_grid(instance), cap)
    return BalanceParams(alpha=g, beta1=0.0, beta2=g)


def _alg2_params(instance: Instance, cap: int) -> BalanceParams:
    g = permeability(instance.env, OPT_RULE, _value_grid(instance), cap)
    return BalanceParams(alpha=1.0, beta1=0.0, beta2=g * g)


def _matroid_rule(env: MatroidEnv, profile, cap) -> PricingRule:
    if all(isinstance(v, AdditiveValuation) for v in profile):
        return matroid_dynamic_prices(env, profile)
    base = greedy(env, profile)
    return compose_max(matroid_dynamic_prices, env, profile, base, rule=GREEDY_RULE)


def _compose_max_rule(env, profile, cap) -> PricingRule:
    if isinstance(env, MatroidEnv):
        return _matroid_rule(env, profile, cap)
    alloc = opt(env, profile, cap)
    return compose_max(
        lambda e, p: xos_item_prices(e, p, alloc), env, profile, alloc, rule=OPT_RULE
    )


def _compose_market_rule(market, profile_parts, cap):
    if isinstance(market, SingleItemEnv):
        return single_item_prices(market, profile_parts)
    if isinstance(market, MatroidEnv):
        return matroid_dynamic_prices(market, profile_parts)
    if isinstance(market, CombinatorialAuctionEnv):
        return xos_item_prices(market, profile_parts, opt(market, profile_parts, cap))
    raise PricingError(f"compose-add has no default construction for {market.kind}")


def _compose_add_rule(env: ProductEnv, profile, cap) -> PricingRule:
    rules = []
    for ell, market in enumerate(env.markets):
        parts = tuple(v.parts[ell] if isinstance(v, MarketValuation) else v for v in profile)
        rules.append(_compose_market_rule(market, parts, cap))
    return compose_add(env, rules)


CONSTRUCTIONS: dict[str, Construction] = {
    "single-item": Construction(
        SingleItemEnv,
        lambda env, p, cap: single_item_prices(env, p),
        _fixed(alpha=1.0, beta=1.0),
        support=single_item_support_prices,
    ),
    "intro-bundle": Construction(
        CombinatorialAuctionEnv,
        lambda env, p, cap: bundle_split_item_prices(env, p, opt(env, p, cap)),
        lambda inst, cap: BalanceParams(alpha=float(inst.env.items), beta1=0.0, beta2=1.0),
    ),
    "xos": Construction(
        CombinatorialAuctionEnv,
        lambda env, p, cap: xos_item_prices(env, p, opt(env, p, cap)),
        _fixed(alpha=1.0, beta=1.0),
    ),
    "mph": Construction(
        CombinatorialAuctionEnv,
        lambda env, p, cap: mphk_item_prices(env, p, opt(env, p, cap)),
        lambda inst, cap: BalanceParams(alpha=1.0, beta1=1.0, beta2=float(_mph_rank(inst) - 1)),
    ),
    "fractional-ca": Construction(
        CombinatorialAuctionEnv,
        lambda env, p, cap: fractional_ca_item_prices(env, p, fractional_opt_config_lp(env, p)),
        lambda inst, cap: BalanceParams(alpha=1.0, beta1=1.0, beta2=float(inst.env.items - 1)),
    ),
    "knapsack": Construction(
        KnapsackEnv,
        lambda env, p, cap: knapsack_prices(env, p, welfare(p, knapsack_dp(env, p))),
        _fixed(alpha=2.0, beta=1.0),
        reference=lambda env, p, cap: knapsack_dp(env, p),
    ),
    "pip": Construction(
        PipEnv,
        lambda env, p, cap: pip_prices(env, p, opt(env, p, cap)),
        lambda inst, cap: BalanceParams(
            alpha=2.0, beta1=0.0,
            beta2=float(max(inst.env.column_sparsity(i) for i in range(inst.env.n))),
        ),
    ),
    "matroid": Construction(
        MatroidEnv, _matroid_rule, _fixed(alpha=1.0, beta=1.0), support=matroid_support_prices
    ),
    "warmup": Construction(
        is_binary_env,
        lambda env, p, cap: monotone_critical_prices(env, p, OPT_RULE, cap=cap),
        _fixed(alpha=1.0, beta=3.0),
        family=_canonical,
    ),
    "alg1-greedy": Construction(
        is_binary_env,
        lambda env, p, cap: greedy_derived_prices(env, p, cap=cap),
        _alg1_params,
        reference=lambda env, p, cap: greedy(env, p),
        family=_canonical,
    ),
    "alg2-opt": Construction(
        is_binary_env,
        lambda env, p, cap: opt_derived_prices(env, p, opt(env, p, cap), cap=cap),
        _alg2_params,
        family=_canonical,
    ),
    "compose-add": Construction(ProductEnv, _compose_add_rule, _fixed(alpha=1.0, beta=1.0)),
    "compose-max": Construction(
        (MatroidEnv, CombinatorialAuctionEnv), _compose_max_rule, _fixed(alpha=1.0, beta=1.0)
    ),
}


def resolve_params(args, construction: Construction, instance: Instance, cap: int) -> BalanceParams:
    """Flags override the construction's defaults; --beta selects the strong
    form, --beta1/--beta2 the weak form.  The defaults are computed only when
    a flag leaves a value unset."""
    weak_flags = args.beta1 is not None or args.beta2 is not None
    if args.beta is not None and weak_flags:
        raise PricingError("give either --beta or --beta1/--beta2, not both")
    beta_given = args.beta is not None or weak_flags
    defaults = None if args.alpha is not None and beta_given else construction.params(instance, cap)
    alpha = args.alpha if args.alpha is not None else defaults.alpha
    if args.beta is not None:
        return BalanceParams(alpha=alpha, beta=args.beta)
    if weak_flags:
        return BalanceParams(
            alpha=alpha, beta1=args.beta1 or 0.0, beta2=args.beta2 or 0.0
        )
    if defaults.weak:
        return BalanceParams(alpha=alpha, beta1=defaults.beta1, beta2=defaults.beta2)
    return BalanceParams(alpha=alpha, beta=defaults.beta)


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


# per job: the order kinds its library entry point takes besides a
# permutation, and how its refusal names them
ORDER_KINDS = {
    "balance": (CHECK_ORDER_KINDS, "--order all or a fixed permutation"),
    "simulate": (EXACT_ORDER_KINDS, "fixed, all, or adversary orders"),
    "exact ratio": (EXACT_ORDER_KINDS, "fixed, all, or adversary orders"),
    "sampled ratio": (MONTE_CARLO_ORDER_KINDS, "fixed or random orders"),
}


def parse_order(raw: Optional[str], n: int):
    """The order value every layer takes: a permutation (written 1-based on
    the CLI), None for the identity, or an order kind some job takes
    (``ORDER_KINDS``)."""
    if raw is None or raw == "fixed":
        return None
    if any(raw in kinds for kinds, _ in ORDER_KINDS.values()):
        return raw
    body = raw[len("fixed:"):] if raw.startswith("fixed:") else raw
    try:
        perm = [int(tok) - 1 for tok in body.split(",")]
    except ValueError as exc:
        raise SchemaError(f"cannot parse order {raw!r}") from exc
    try:
        return _check_order(n, perm)
    except ValueError as exc:
        raise SchemaError(f"order {raw!r} is not a permutation of 1..{n}") from exc


def _exact_ratio(args) -> bool:
    return args.exact or args.trials == 0


TIE_BY_FLAG = {
    "null": "prefer_null",
    "buy": "prefer_buy_lexmin",
    "adversarial": "adversarial_min_welfare",
}


# the flags every report's config echoes, None where a subcommand has none
CONFIG_FIELDS = ("instance", "pricing", "alpha", "beta", "beta1", "beta2", "order", "tie",
                 "trials", "seed", "exact", "cap_feasible", "output")


def _run_config(args, extra: dict) -> dict:
    fields = {name: getattr(args, name, None) for name in CONFIG_FIELDS}
    return {"subcommand": args.command, **fields, **extra}


def _check_output(path: str) -> None:
    """Refuse, before the job, an output path that ``open`` would refuse
    after it: a directory, or a path whose directory is missing or is not
    one.  The error is the one ``open`` raises."""
    name = path.rstrip(os.sep)  # a trailing separator names a directory
    try:
        parent = os.stat(os.path.dirname(name) or ".").st_mode
        code = errno.EISDIR if os.path.isdir(path) or name != path else 0
        code = code if stat.S_ISDIR(parent) else errno.ENOTDIR
    except OSError as exc:
        code = exc.errno
    if code:
        raise OSError(code, os.strerror(code), path)


def _write(args, text: str, header: str = "") -> None:
    """Send ``text`` to ``-o`` or stdout.  A ``header`` (a ratio CSV's) heads
    stdout, and makes the file appended to, headed only when missing or
    empty."""
    if not args.output:
        sys.stdout.write(header + text)
        return
    with open(args.output, "a" if header else "w", newline="", encoding="utf-8") as fh:
        fh.write(header * (fh.tell() == 0) + text)


def _emit_report(args, payload: dict, extra_config: Optional[dict] = None) -> None:
    config = _run_config(args, extra_config or {})
    doc = {"schema": REPORT_SCHEMA, "config": config, "result": payload}
    _write(args, json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n")


def _distribution(instance: Instance) -> ProductDistribution:
    return instance.distribution or ProductDistribution.deterministic(instance.profile)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _job(args, scaled: bool):
    """The steps balance, simulate and ratio share: load the instance, look up
    the construction, check that it applies before anything reads the
    environment, parse --order and refuse an order kind the job does not
    accept (``ORDER_KINDS``), then resolve the parameters.  The job's rule is
    the construction's rule on the realized profile, or with ``scaled`` its
    scaled expectation over the instance's distribution."""
    cap = args.cap_feasible
    instance = load_instance_file(args.instance)
    construction = CONSTRUCTIONS[args.pricing]
    env = instance.env
    if not construction.applies_to(env):
        raise PricingError(f"--pricing {args.pricing} does not apply to a {env.kind} environment")
    order = parse_order(args.order, env.n)
    job = args.command
    if job == "ratio":
        job = "exact ratio" if _exact_ratio(args) else "sampled ratio"
    accepted, named = ORDER_KINDS[job]
    if isinstance(order, str) and order not in accepted:
        raise SchemaError(f"{job} supports {named}")
    params = resolve_params(args, construction, instance, cap)

    def constructor(profile):
        return construction.rule(env, profile, cap)

    if scaled:
        rule = expected_scaled_prices(
            env, _distribution(instance), constructor, params, cap=cap,
            support=construction.support,
        )
    else:
        rule = constructor(instance.profile)
    return instance, construction, params, rule, order


def cmd_balance(args) -> int:
    cap = args.cap_feasible
    instance, construction, params, rule, order = _job(args, scaled=False)
    env, profile = instance.env, instance.profile
    reference = construction.reference(env, profile, cap)
    family = construction.family(env)
    if args.order is None:
        # default: quantify over every indexing at desk scale
        n = env.n
        order = "all" if n <= 6 else None
        why = "n <= 6" if n <= 6 else "n > 6; pass --order all for every agent order"
        print(f"order quantifier: {order or 'declared'} (default for {n} agents, {why})",
              file=sys.stderr)
    check = check_weakly_balanced if params.weak else check_balanced
    report = check(env, profile, rule, reference, family, params, order=order, cap=cap)
    verdict = "PASS" if report.passed else "FAIL"
    label = (
        f"({params.alpha:g},{params.beta1:g},{params.beta2:g})"
        if params.weak
        else f"({params.alpha:g},{params.beta:g})"
    )
    print(
        f"{verdict} {args.pricing} {label} "
        f"slack_a={report.condition_a_min_slack:.3g} "
        f"slack_b={report.condition_b_min_slack:.3g} "
        f"checked {report.checked_allocations} allocations"
    )
    # slack: lhs - rhs for condition a, rhs - lhs for b; the sort is stable,
    # so ties keep walk order
    worst = sorted(report.witnesses, key=lambda w: w[3] - w[4] if w[0] == "a" else w[4] - w[3])
    for w in worst[:3]:
        print(f"  worst witness: condition {w[0]} x={w[1]} member={w[2]} lhs={w[3]:.6g} rhs={w[4]:.6g}")
    _emit_report(args, report.as_dict())
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    instance, _, _, rule, order = _job(args, scaled=True)
    env, profile = instance.env, instance.profile
    tie = TIE_BY_FLAG[args.tie]
    if order == "all":
        w, order = worst_order_welfare(env, rule, profile, tie)
        payload = {"worst_order_welfare": w, "order": [i + 1 for i in order]}
        line = f"worst-order welfare={w:g} order={payload['order']}"
    elif order == "adversary":
        w = adaptive_adversary_welfare(env, rule, _distribution(instance), tie)
        line = f"adaptive-adversary expected welfare={w:g}"
        payload = {"adaptive_adversary_welfare": w}
    else:
        trace = run_posted_price(env, rule, profile, order, tie)
        order = [i + 1 for i in trace.order]
        line = f"welfare={trace.welfare:g} revenue={trace.revenue:g} order={order}"
        payload = {"trace": trace.as_dict()}
    print(line)
    _emit_report(args, payload)
    return 0


def cmd_ratio(args) -> int:
    instance, _, _, rule, order = _job(args, scaled=True)
    env, dist = instance.env, _distribution(instance)
    tie = TIE_BY_FLAG[args.tie]
    # OPT's feasible list is kept on env, so this counts it against the job's cap
    enumerate_feasible(env, args.cap_feasible)
    if _exact_ratio(args):
        est = exact_ratio(env, rule, dist, order, tie, args.cap_feasible)
    else:
        est = monte_carlo_ratio(env, rule, dist, order, args.trials, args.seed, tie)
    est = est.as_dict()
    print(
        f"ratio={est['ratio']:.6g} welfare={est['expected_mechanism_welfare']:.6g} "
        f"opt={est['expected_opt']:.6g} mode={est['mode']}"
    )
    row = {
        "instance": args.instance,
        "pricing": args.pricing,
        "order_mode": args.order or "fixed",
        "trials": est.get("trials", 0),
        "seed": est.get("seed", 0),
        "welfare": est["expected_mechanism_welfare"],
        "opt": est["expected_opt"],
        "ratio": est["ratio"],
        "ci95_halfwidth": est.get("ci95_halfwidth", 0.0),
        "schema": RATIO_SCHEMA,
    }
    header, line = io.StringIO(), io.StringIO()
    csv.writer(header).writerow(row)
    csv.writer(line).writerow(row.values())
    _write(args, line.getvalue(), header.getvalue())
    return 0


def cmd_permeability(args) -> int:
    cap = args.cap_feasible
    instance = load_instance_file(args.instance)
    if not is_binary_env(instance.env):
        raise PricingError(
            f"permeability requires a binary single-parameter environment, "
            f"not a {instance.env.kind} environment"
        )
    rule = {"opt": OPT_RULE, "greedy": GREEDY_RULE}[args.rule]
    if args.grid is not None:
        # reported as scanned: the sorted distinct values
        grid = sorted({_bounded(tok, "--grid entry") for tok in args.grid.split(",")})
    else:
        grid = _value_grid(instance)
    gamma = permeability(instance.env, rule, grid, cap)
    classes, g = agent_classes(instance.env, rule, cap), len(grid)
    shown_classes = " ".join("{" + ",".join(map(str, c)) + "}" for c in classes)
    print(f"permeability({args.rule}): agent classes {shown_classes}; "
          f"{bid_vector_count(classes, g)} of {g ** instance.env.n} bid vectors, one per orbit",
          file=sys.stderr)
    shown = "UNBOUNDED" if math.isinf(gamma) else f"{gamma:.6g}"
    print(f"permeability({args.rule}) >= {shown} on grid {grid}")
    _emit_report(args, {"gamma": None if math.isinf(gamma) else gamma,
                        "unbounded": math.isinf(gamma), "grid": grid}, {"rule": args.rule})
    return 0


# each catalog flag -> its type, in parser order; an unset flag keeps the generator's default
CATALOG_PARAMS = {
    "d": int, "n": int, "k": int, "m": int, "seed": int, "rank": int, "ground": int,
    "clauses": int, "markets": int, "q": float, "step": float, "kind": str,
}


def cmd_catalog(args) -> int:
    kwargs = {key: getattr(args, key) for key in CATALOG_PARAMS if getattr(args, key) is not None}
    try:
        instance = GENERATORS[args.name](**kwargs)
    except TypeError as exc:
        raise SchemaError(f"bad parameters for {args.name}: {exc}") from exc
    _write(args, instance.to_json() + "\n")
    if args.output:
        print(f"wrote {args.name} instance to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


PARAM_FLAGS = ("alpha", "beta", "beta1", "beta2")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--pricing", required=True, choices=sorted(CONSTRUCTIONS))
    # read through ``_bounded`` in ``main``, as --grid entries are
    for flag in PARAM_FLAGS:
        p.add_argument(f"--{flag}", default=None)
    p.add_argument("--order", default=None,
                   help="fixed:<perm> (1-based), a bare permutation, all, random, or adversary")
    p.add_argument("--tie", choices=sorted(TIE_BY_FLAG), default="adversarial")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--cap-feasible", dest="cap_feasible", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balprice",
        description="Balanced posted prices: construction, certification, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("balance", cmd_balance), ("simulate", cmd_simulate), ("ratio", cmd_ratio)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("permeability")
    p.add_argument("--instance", required=True)
    p.add_argument("--rule", choices=("opt", "greedy"), default="opt")
    p.add_argument("--grid", default=None, help="comma-separated bid grid")
    p.add_argument("--cap-feasible", dest="cap_feasible", type=int, default=None)
    p.set_defaults(fn=cmd_permeability)

    p = sub.add_parser("catalog")
    p.add_argument("name", choices=sorted(GENERATORS))
    for name, kind in CATALOG_PARAMS.items():
        p.add_argument(f"--{name}", type=kind, default=None)
    p.set_defaults(fn=cmd_catalog)

    for p in sub.choices.values():  # every job writes to -o, else stdout
        p.add_argument("-o", "--output", default=None)

    return parser


_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if hasattr(args, "cap_feasible") and args.cap_feasible is None:
            args.cap_feasible = _default_cap()
        for flag in PARAM_FLAGS:
            if getattr(args, flag, None) is not None:
                setattr(args, flag, _bounded(getattr(args, flag), f"--{flag}"))
        if args.output:
            _check_output(args.output)
        return args.fn(args)
    except (SchemaError, PricingError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
