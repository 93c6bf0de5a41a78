"""The three benchmark workloads and their seeded input generator.

A workload is a fixed mix of job classes.  A job class names how its
instances are made (a ``balprice.catalog`` generator, or a two-point
distribution the benchmark writes itself through ``balprice.serialize``), the
CLI flags of its jobs, and how many jobs of the class one batch runs.  Each
class has a pool of ``POOL`` instances; the workload seed only chooses which
pool entries a batch uses and the order the jobs run in, so every seed gives the same mix of
work on different instances.  Every pool entry has a golden output in
``golden/<workload>.json``, recorded once by ``run.py --record-golden``.

This module imports ``balprice``; only the worker process imports it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

from balprice.catalog import GENERATORS
from balprice.core import AdditiveValuation
from balprice.serialize import Instance, dump_instance_file
from balprice.stochastic import ProductDistribution


@dataclass(frozen=True)
class JobClass:
    name: str  # unique across workloads: "<workload>/<short name>"
    make: Callable[[int], Instance]  # pool index -> instance
    argv: tuple  # subcommand and flags; "{idx}" is replaced by the pool index
    count: int  # jobs of this class in one batch

    @property
    def output_kind(self) -> str:
        return "csv" if self.argv[0] == "ratio" else "report"


@dataclass(frozen=True)
class Job:
    key: str  # "<class name>/<pool index>", the golden-output key
    instance_path: str
    output_path: str
    output_kind: str  # "report" (JSON with a result block) or "csv" (ratio rows)
    argv: list


def catalog(name: str, **params) -> Callable[[int], Instance]:
    """Instances from a seeded catalog generator; the pool index is the seed."""
    return lambda idx: GENERATORS[name](seed=idx, **params)


def tight_prophet(idx: int) -> Instance:
    # jackpot probabilities on a binary grid, so expectations stay exact
    return GENERATORS["tight-prophet"](q=(idx + 1) / 128)


def two_point_matroid(kind: str, ground: int, rank: int = 0) -> Callable[[int], Instance]:
    """A catalog matroid whose agents each draw a high value with probability
    p and a low value otherwise; values and p lie on the catalog's 1/8 grid."""

    def make(idx: int) -> Instance:
        base = GENERATORS["matroid"](kind=kind, seed=idx, rank=rank, ground=ground)
        rng = random.Random(f"two-point-matroid:{kind}:{ground}:{idx}")
        supports = []
        for i in range(ground):
            hi, lo, p = rng.randint(4, 16) / 8, rng.randint(0, 3) / 8, rng.randint(1, 7) / 8
            atom = lambda v: AdditiveValuation(tuple(v if e == i else 0.0 for e in range(ground)))
            supports.append(((atom(hi), p), (atom(lo), 1.0 - p)))
        profile = tuple(atoms[0][0] for atoms in supports)
        return Instance(env=base.env, profile=profile, distribution=ProductDistribution(tuple(supports)))

    return make


POOL = 32  # instances per class; the pool index is the generator seed


def _class(workload, short, make, argv, count):
    return JobClass(f"{workload}/{short}", make, tuple(argv), count)


def _certify_orders() -> list[JobClass]:
    w = "certify-orders"
    bal = ("balance", "--order", "all", "--pricing")
    return [
        _class(w, "uniform6", catalog("matroid", kind="uniform", rank=3, ground=6), bal + ("matroid",), 20),
        _class(w, "uniform7", catalog("matroid", kind="uniform", rank=3, ground=7), bal + ("matroid",), 10),
        _class(w, "uniform8", catalog("matroid", kind="uniform", rank=4, ground=8), bal + ("matroid",), 1),
        _class(w, "partition6", catalog("matroid", kind="partition", ground=6), bal + ("matroid",), 12),
        _class(w, "partition7", catalog("matroid", kind="partition", ground=7), bal + ("matroid",), 4),
        _class(w, "partition8", catalog("matroid", kind="partition", ground=8), bal + ("matroid",), 4),
        _class(w, "partition9", catalog("matroid", kind="partition", ground=9), bal + ("matroid",), 1),
        _class(w, "k4", catalog("matroid", kind="graphic_k4", ground=6), bal + ("matroid",), 10),
        _class(w, "warmup4", catalog("matroid", kind="uniform", rank=2, ground=4), bal + ("warmup",), 8),
        _class(w, "warmup5", catalog("matroid", kind="uniform", rank=2, ground=5), bal + ("warmup",), 8),
        _class(w, "alg2-opt4", catalog("matroid", kind="uniform", rank=2, ground=4), bal + ("alg2-opt",), 8),
        _class(w, "alg1-greedy3", catalog("matroid", kind="uniform", rank=1, ground=3), bal + ("alg1-greedy",), 10),
        _class(w, "alg1-greedy4", catalog("matroid", kind="uniform", rank=2, ground=4), bal + ("alg1-greedy",), 1),
        # documented exit 3: 163 feasible allocations against a cap of 100
        _class(w, "over-cap", catalog("matroid", kind="uniform", rank=4, ground=8),
               bal + ("matroid", "--cap-feasible", "100"), 4),
    ]


def _certify_static() -> list[JobClass]:
    w = "certify-static"
    return [
        _class(w, "knapsack4", catalog("knapsack", n=4), ("balance", "--pricing", "knapsack", "--alpha", "2", "--beta", "1"), 10),
        _class(w, "knapsack5", catalog("knapsack", n=5), ("balance", "--pricing", "knapsack", "--alpha", "2", "--beta", "1"), 2),
        # documented exit 1: the per-unit knapsack prices fail condition (a) at (1,2)
        _class(w, "knapsack4-fail", catalog("knapsack", n=4), ("balance", "--pricing", "knapsack", "--alpha", "1", "--beta", "2"), 4),
        # documented exit 3: the enumeration passes --cap-feasible
        _class(w, "over-cap", catalog("knapsack", n=4), ("balance", "--pricing", "knapsack", "--cap-feasible", "20"), 6),
        _class(w, "xos3", catalog("xos", n=3, m=4), ("balance", "--pricing", "xos"), 16),
        _class(w, "xos4", catalog("xos", n=4, m=4), ("balance", "--pricing", "xos"), 2),
        _class(w, "mph3", catalog("mph", n=3, m=4), ("balance", "--pricing", "mph"), 16),
        _class(w, "mph4", catalog("mph", n=4, m=4), ("balance", "--pricing", "mph"), 2),
        _class(w, "pip5", catalog("pip", n=5), ("balance", "--pricing", "pip"), 16),
        _class(w, "pip6", catalog("pip", n=6), ("balance", "--pricing", "pip"), 16),
        _class(w, "pip7", catalog("pip", n=7), ("balance", "--pricing", "pip"), 8),
        _class(w, "pip8", catalog("pip", n=8), ("balance", "--pricing", "pip"), 4),
    ]


def _ratio_stochastic() -> list[JobClass]:
    w = "ratio-stochastic"
    exact = ("ratio", "--exact", "--pricing")
    rev8 = "8,7,6,5,4,3,2,1"
    return [
        _class(w, "tight-fixed", tight_prophet, exact + ("single-item",), 16),
        _class(w, "tight-adversary", tight_prophet, exact + ("single-item", "--order", "adversary"), 16),
        _class(w, "two-point6-fixed", catalog("two-point", n=6), exact + ("single-item",), 16),
        _class(w, "two-point8-fixed", catalog("two-point", n=8), exact + ("single-item", "--order", rev8), 8),
        _class(w, "two-point10-fixed", catalog("two-point", n=10), exact + ("single-item",), 1),
        _class(w, "two-point6-adversary", catalog("two-point", n=6), exact + ("single-item", "--order", "adversary"), 16),
        _class(w, "two-point8-adversary", catalog("two-point", n=8), exact + ("single-item", "--order", "adversary"), 4),
        _class(w, "two-point7-mc-random", catalog("two-point", n=7),
               ("ratio", "--pricing", "single-item", "--order", "random", "--trials", "200", "--seed", "{idx}"), 8),
        _class(w, "two-point8-mc-fixed", catalog("two-point", n=8),
               ("ratio", "--pricing", "single-item", "--order", rev8, "--trials", "200", "--seed", "{idx}"), 8),
        _class(w, "matroid6-fixed", two_point_matroid("uniform", 6, 3), exact + ("matroid",), 10),
        _class(w, "matroid6-adversary", two_point_matroid("uniform", 6, 3), exact + ("matroid", "--order", "adversary"), 2),
        _class(w, "matroid7-adversary", two_point_matroid("partition", 7), exact + ("matroid", "--order", "adversary"), 1),
        _class(w, "matroid6-mc-random", two_point_matroid("uniform", 6, 3),
               ("ratio", "--pricing", "matroid", "--order", "random", "--trials", "50", "--seed", "{idx}"), 2),
        _class(w, "matroid6-simulate-adversary", two_point_matroid("uniform", 6, 3),
               ("simulate", "--pricing", "matroid", "--order", "adversary"), 1),
        _class(w, "uniform6-simulate-all", catalog("matroid", kind="uniform", rank=3, ground=6),
               ("simulate", "--pricing", "matroid", "--order", "all"), 4),
        _class(w, "uniform7-simulate-all", catalog("matroid", kind="uniform", rank=3, ground=7),
               ("simulate", "--pricing", "matroid", "--order", "all"), 1),
        _class(w, "uniform12-mc", catalog("matroid", kind="uniform", rank=6, ground=12),
               ("ratio", "--pricing", "matroid", "--trials", "10", "--seed", "{idx}"), 1),
    ]


WORKLOADS: dict[str, list[JobClass]] = {
    "certify-orders": _certify_orders(),
    "certify-static": _certify_static(),
    "ratio-stochastic": _ratio_stochastic(),
}


def _materialize(cls: JobClass, idx: int, workdir: str, slot: int) -> Job:
    instance_path = os.path.join(workdir, f"{slot:04d}-in.json")
    dump_instance_file(cls.make(idx), instance_path)
    ext = "csv" if cls.output_kind == "csv" else "json"
    output_path = os.path.join(workdir, f"{slot:04d}-out.{ext}")
    flags = [a.format(idx=idx) for a in cls.argv]
    argv = [flags[0], "--instance", instance_path, *flags[1:], "-o", output_path]
    return Job(f"{cls.name}/{idx}", instance_path, output_path, cls.output_kind, argv)


def generate(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the instance files of one batch into ``workdir`` and return its
    jobs in run order.  The same seed gives the same files and order."""
    rng = random.Random(f"{workload}:{seed}")
    picks = [
        (cls, idx)
        for cls in WORKLOADS[workload]
        for idx in sorted(rng.sample(range(POOL), cls.count))
    ]
    rng.shuffle(picks)
    return [_materialize(cls, idx, workdir, slot) for slot, (cls, idx) in enumerate(picks)]


def pool_jobs(workload: str, workdir: str) -> list[Job]:
    """Every pool entry of every class, for recording golden outputs."""
    picks = [(cls, idx) for cls in WORKLOADS[workload] for idx in range(POOL)]
    return [_materialize(cls, idx, workdir, slot) for slot, (cls, idx) in enumerate(picks)]

