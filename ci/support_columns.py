"""The support forms' price columns against each profile's own rule, at
sizes beyond the benchmark's.

Each job runs once with the constructions' support forms and once with them
set to None, so every price comes from each profile's own rule; the CSV
rows, reports and stdout must be identical.  The jobs are ``ratio --exact``
and the adversary orders of ``ratio --exact`` and ``simulate`` on two-point
uniform and partition matroids of ground 8 to 10 built here, and on catalog
two-point single-item n = 12.

Run from the repository root:  python3 ci/support_columns.py [DIR]
(DIR holds the instance and outputs; a temporary directory by default.)
"""

import contextlib
import dataclasses
import io
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from balprice import cli  # noqa: E402
from balprice.catalog import gen_matroid, gen_two_point_single_item  # noqa: E402
from balprice.core import AdditiveValuation  # noqa: E402
from balprice.serialize import Instance, dump_instance_file  # noqa: E402
from balprice.stochastic import ProductDistribution  # noqa: E402


def two_point(kind, ground, rank=0):
    # each agent draws a high or a low value on the 1/8 grid
    base = gen_matroid(kind, seed=1, rank=rank, ground=ground)
    rng = random.Random(f"{kind}:{ground}")
    supports = []
    for i in range(ground):
        hi, lo, p = rng.randint(4, 16) / 8, rng.randint(0, 3) / 8, rng.randint(1, 7) / 8
        atom = lambda v: AdditiveValuation(tuple(v if e == i else 0.0 for e in range(ground)))  # noqa: E731
        supports.append(((atom(hi), p), (atom(lo), 1.0 - p)))
    profile = tuple(atoms[0][0] for atoms in supports)
    return Instance(env=base.env, profile=profile, distribution=ProductDistribution(tuple(supports)))


def run(argv, out):
    if os.path.exists(out):
        os.remove(out)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([*argv, "-o", out])
    with open(out) as fh:
        return code, stdout.getvalue(), fh.read()


def main(tmp) -> int:
    adversary = [["ratio", "--exact", "--order", "adversary"], ["simulate", "--order", "adversary"]]
    cases = [
        ("two-point uniform ground 10", two_point("uniform", 10, 5), "matroid", [["ratio", "--exact"]]),
        ("two-point uniform ground 8", two_point("uniform", 8, 4), "matroid", adversary),
        ("two-point partition ground 9", two_point("partition", 9), "matroid", adversary),
        ("two-point single-item n = 12", gen_two_point_single_item(n=12, seed=1), "single-item",
         [["ratio", "--exact"], *adversary]),
    ]
    kept = dict(cli.CONSTRUCTIONS)
    for name, inst, pricing, commands in cases:
        path, out = os.path.join(tmp, "support.json"), os.path.join(tmp, "support.out")
        dump_instance_file(inst, path)
        for command in commands:
            argv = [command[0], "--instance", path, "--pricing", pricing, *command[1:]]
            shown = " ".join(command)
            got = run(argv, out)
            cli.CONSTRUCTIONS[pricing] = dataclasses.replace(kept[pricing], support=None)
            want = run(argv, out)
            cli.CONSTRUCTIONS[pricing] = kept[pricing]
            if got[0] != 0 or got != want:
                print(f"{name}, {shown}: support columns give {got}, per-profile rules {want}", file=sys.stderr)
                return 1
            print(f"{name}, {shown}: outputs match")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        os.makedirs(sys.argv[1], exist_ok=True)
        sys.exit(main(sys.argv[1]))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(main(tmp))
