"""Layer spans recorded from outside the program.

``Tracer.install`` replaces the public entry points of each ``balprice``
layer with wrappers that record a span: name, start, end, parent span and job
id.  A function is replaced under every name that refers to it in every
``balprice`` module (``opt`` is looked up in ``oracle``, ``stochastic``,
``pricing`` and ``cli``), so calls between layers are caught too.  Spans are
kept in flat arrays in memory and written out by ``dump``.

Two entry points are counted instead of spanned: ``PricingRule.price`` and
``PricingRule.menu`` run millions of times per batch, and a span each would
swamp the overhead figure.  A rule's cache gains exactly one entry per miss,
so price misses are the cache sizes of the rules a job built.  Hot
per-element helpers such as ``is_feasible`` are not wrapped at all.

A span's self time is its duration minus the durations of its child spans;
spans nest strictly because a batch runs on one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, defining module, function name)
FUNCTIONS = [
    ("serialize.load", "balprice.serialize", "load_instance_file"),
    *(
        ("pricing.construct", "balprice.pricing", fn)
        for fn in (
            "single_item_prices", "bundle_split_item_prices", "xos_item_prices",
            "mphk_item_prices", "fractional_ca_item_prices", "knapsack_prices",
            "pip_prices", "matroid_dynamic_prices", "monotone_critical_prices",
            "greedy_derived_prices", "opt_derived_prices", "compose_max",
            "compose_add", "expected_scaled_prices", "scaled_prices",
        )
    ),
    ("balance.check", "balprice.balance", "check_balanced"),
    ("balance.check", "balprice.balance", "check_weakly_balanced"),
    ("oracle.residual_opt", "balprice.oracle", "residual_opt"),
    ("oracle.opt", "balprice.oracle", "opt"),
    ("oracle.permeability", "balprice.oracle", "permeability"),
    ("oracle.critical_value", "balprice.oracle", "critical_value"),
    ("core.enumerate_feasible", "balprice.core", "enumerate_feasible"),
    ("mechanism.run_posted_price", "balprice.mechanism", "run_posted_price"),
    ("mechanism.worst_order", "balprice.mechanism", "worst_order_welfare"),
    ("mechanism.adaptive_adversary", "balprice.mechanism", "adaptive_adversary_welfare"),
    ("stochastic.expected_opt", "balprice.stochastic", "expected_opt"),
    ("stochastic.monte_carlo", "balprice.stochastic", "monte_carlo_ratio"),
]

# (span name, defining module, class, method)
METHODS = [
    ("oracle.members", "balprice.oracle", "ExchangeFamily", "members"),
    ("mechanism.online_expected", "balprice.mechanism", "OnlinePostedPriceRunner", "expected_welfare"),
    ("mechanism.online_run", "balprice.mechanism", "OnlinePostedPriceRunner", "run"),
]

JOB_SPAN = "cli.job"
FINITE_SPAN = "pricing.finite"

LAYERS = ["cli", "serialize", "pricing", "balance", "oracle", "core", "mechanism", "stochastic"]


def _check_work(report, args) -> dict:
    env, prices = args[0], args[2]  # check_(weakly_)balanced(env, profile, prices, ...)
    checked = report.checked_allocations + report.checked_members
    # the all-orders DP visits every subset of agents once per checked sum
    dynamic_all = not prices.static and report.order_mode == "all"
    return {
        "balance.checked_allocations": report.checked_allocations,
        "balance.checked_members": report.checked_members,
        "balance.dp_states": checked << env.n if dynamic_all else 0,
    }


# work counts read from a span's return value: span name -> (result, args) -> counts
WORK = {
    "oracle.members": lambda out, args: {"oracle.members.returned": len(out)},
    "core.enumerate_feasible": lambda out, args: {"core.enumerate_feasible.allocs": len(out)},
    "balance.check": _check_work,
    "stochastic.monte_carlo": lambda out, args: {"stochastic.trials": out.trials},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[int, dict] = {}
        self._stack = [-1]
        self._job = -1
        self._job_span = -1
        self._restore: list[tuple[object, str, object]] = []
        self._price_calls = [0]
        self._menu_calls = [0]
        self._job_rules: list = []
        self.job_counters: list[dict] = []

    # -- span recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def spanned(self, name: str, fn):
        nid = self._name_id(name)
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                self.work[idx] = work(out, args)
            return out

        wrapper.span = name
        return wrapper

    def begin_job(self, job: int) -> None:
        self._job = job
        self._price_calls[0] = self._menu_calls[0] = 0
        self._job_rules = []
        self._job_span = self._open(self._name_id(JOB_SPAN))

    def end_job(self) -> None:
        self._close(self._job_span)
        self.job_counters.append({
            "pricing.price.calls": self._price_calls[0],
            "pricing.price.misses": sum(len(rule._cache) for rule in self._job_rules),
            "pricing.menu.calls": self._menu_calls[0],
        })
        self._job_rules = []
        self._job = -1

    # -- patching -------------------------------------------------------------

    def _replace_everywhere(self, orig, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "balprice" or mod_name.startswith("balprice.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        for name, mod_name, fn in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], fn)
            self._replace_everywhere(orig, self.spanned(name, orig))
        for name, mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._replace_method(cls, meth, self.spanned(name, cls.__dict__[meth]))

        rule_cls = sys.modules["balprice.pricing"].PricingRule
        orig_init, orig_price, orig_menu = rule_cls.__init__, rule_cls.price, rule_cls.menu
        price_calls, menu_calls = self._price_calls, self._menu_calls
        tracer = self

        def __init__(rule, env, finite_price, **kwargs):
            # compose_max reuses another rule's (already wrapped) finite price
            if getattr(finite_price, "span", None) != FINITE_SPAN:
                finite_price = tracer.spanned(FINITE_SPAN, finite_price)
            orig_init(rule, env, finite_price, **kwargs)
            tracer._job_rules.append(rule)

        def price(rule, i, x_i, y):
            price_calls[0] += 1
            return orig_price(rule, i, x_i, y)

        def menu(rule, i, y):
            menu_calls[0] += 1
            return orig_menu(rule, i, y)

        self._replace_method(rule_cls, "__init__", __init__)
        self._replace_method(rule_cls, "price", price)
        self._replace_method(rule_cls, "menu", menu)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # -- derived metrics --------------------------------------------------------

    def _arrays(self, job_scale):
        """Span names, durations and self times; each span's times are
        multiplied by its job's entry in ``job_scale``."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        job = np.frombuffer(self.job, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        dur = dur * np.asarray(job_scale)[job]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return name, dur, dur - child

    def self_times(self, job_scale) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        name, _, self_t = self._arrays(job_scale)
        sums = np.bincount(name, weights=self_t, minlength=len(self.names))
        return {n: float(sums[i]) for i, n in enumerate(self.names)}

    def job_counts(self) -> list[dict[str, int]]:
        """The exact counts of each job: span calls, work counts and counters."""
        jobs = len(self.job_counters)
        counts = [dict(c) for c in self.job_counters]
        job = np.frombuffer(self.job, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        for nid, span in enumerate(self.names):
            if span == JOB_SPAN:
                continue
            per_job = np.bincount(job[(name == nid) & (job >= 0)], minlength=jobs)
            for j in range(jobs):
                counts[j][f"{span}.calls"] = int(per_job[j])
        for idx, work in self.work.items():
            job_counts = counts[self.job[idx]]
            for metric, n in work.items():
                job_counts[metric] = job_counts.get(metric, 0) + n
        return counts

    def layer_shares(self, job_scale) -> dict[str, float]:
        """Each layer's self time as a share of the summed job time (the
        blocking time: jobs run one after another on one thread)."""
        name, dur, _ = self._arrays(job_scale)
        job_nid = self._name_ids[JOB_SPAN]
        blocking = float(dur[name == job_nid].sum())
        shares = dict.fromkeys(LAYERS, 0.0)
        for span, t in self.self_times(job_scale).items():
            shares[span.split(".")[0]] += t / blocking
        return shares

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
