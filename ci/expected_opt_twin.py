"""The exact expected optimum against its twin on product supports larger
than the benchmark's.

``expected_opt`` sums every support profile's welfare in fixed point from the
support by atom index; ``helpers.expected_opt_twin`` takes ``opt``'s welfare
on every listed profile.  They must agree by ``repr`` on catalog two-point
instances with n = 12, 16 and 17 (seeds 0-3, where some agents' two atoms are
equal) and on a two-point uniform matroid of ground 7 built here.

Run from the repository root:  python3 ci/expected_opt_twin.py
"""

import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from balprice.catalog import gen_matroid, gen_two_point_single_item  # noqa: E402
from balprice.core import AdditiveValuation  # noqa: E402
from balprice.stochastic import ProductDistribution, expected_opt  # noqa: E402

from helpers import expected_opt_twin  # noqa: E402

CAP = 200_000


def two_point_uniform(ground: int, rank: int, seed: int):
    """A uniform matroid, one element per agent, where each agent draws a
    high or a low value on the 1/8 grid."""
    env = gen_matroid("uniform", seed=seed, rank=rank, ground=ground).env
    rng = random.Random(f"uniform:{ground}:{seed}")
    supports = []
    for i in range(ground):
        hi, lo, p = rng.randint(4, 16) / 8, rng.randint(0, 3) / 8, rng.randint(1, 7) / 8
        atom = lambda v: AdditiveValuation(tuple(v if e == i else 0.0 for e in range(ground)))
        supports.append(((atom(hi), p), (atom(lo), 1.0 - p)))
    return env, ProductDistribution(tuple(supports))


def cases():
    for n in (12, 16, 17):
        for seed in range(4):
            inst = gen_two_point_single_item(n=n, seed=seed)
            yield f"two-point n = {n}, seed {seed}", inst.env, inst.distribution
    env, dist = two_point_uniform(7, 3, seed=1)
    yield "two-point uniform matroid, ground 7", env, dist


def main() -> int:
    wrong = []
    for name, env, dist in cases():
        got, want = repr(expected_opt(env, dist, CAP)), repr(expected_opt_twin(env, dist, CAP))
        print(f"{name}: {dist.support_size()} profiles, expected_opt {got}, twin {want}")
        if got != want:
            wrong.append(name)
    if wrong:
        print(f"expected_opt differs from its twin on: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
