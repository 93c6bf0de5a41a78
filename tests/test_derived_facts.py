"""The derived-facts store (``core.DerivedFacts``).

An environment, its matroid and an exchange family keep nothing outside
their fields but the store (and a matroid environment's agent masks, kept on
pickle), the store pickles to nothing, and an unpickled environment reruns a
job with identical output.  A packing walk loads each listed allocation once.
"""

import contextlib
import dataclasses
import io
import pickle

import pytest

from balprice import cli, serialize
from balprice.balance import check_balanced
from balprice.catalog import gen_matroid, gen_pip_random
from balprice.core import MatroidEnv, PipEnv, enumerate_feasible
from balprice.oracle import default_family, opt
from balprice.pricing import BalanceParams, pip_prices
from balprice.serialize import dump_instance_file, load_instance_file

JOBS = [
    ("uniform", ["balance", "--pricing", "matroid", "--order", "all"]),
    ("uniform", ["ratio", "--pricing", "matroid", "--exact"]),
    ("pip", ["balance", "--pricing", "pip"]),
]


def _catalog(kind):
    if kind == "uniform":
        return gen_matroid("uniform", seed=1, rank=3, ground=6)
    return gen_pip_random(n=6, seed=1)


def _run(monkeypatch, path, instance, argv):
    """Run ``argv`` on ``instance`` (loaded in place of the file at ``path``)
    and return (exit code, stdout, report) with the families it certified."""
    families = []

    def check(env, profile, rule, reference, family, *args, **kwargs):
        families.append(family)
        return check_balanced(env, profile, rule, reference, family, *args, **kwargs)

    monkeypatch.setattr(cli, "load_instance_file", lambda _: instance)
    monkeypatch.setattr(cli, "check_balanced", check)
    out = path.with_suffix(".out")
    out.unlink(missing_ok=True)  # ratio appends its rows
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([argv[0], "--instance", str(path), *argv[1:], "-o", str(out)])
    return (code, stdout.getvalue(), out.read_text()), families


def _extra_attributes(obj):
    return set(vars(obj)) - {f.name for f in dataclasses.fields(obj)}


@pytest.mark.parametrize("kind,argv", JOBS, ids=lambda a: a if isinstance(a, str) else " ".join(a))
def test_store_is_the_only_extra_state_and_pickles_to_nothing(tmp_path, monkeypatch, kind, argv):
    path = tmp_path / "instance.json"
    dump_instance_file(_catalog(kind), str(path))
    instance = load_instance_file(str(path))
    got, families = _run(monkeypatch, path, instance, argv)
    serialize._LOADED.clear()  # else the load gives back the used environment
    env, fresh = instance.env, load_instance_file(str(path)).env
    assert fresh is not env
    kept = {"_facts", "_agent_masks"} if isinstance(env, MatroidEnv) else {"_facts"}
    pairs = [(env, fresh)]
    if isinstance(env, MatroidEnv):
        pairs.append((env.matroid, fresh.matroid))
    pairs += [(family, default_family(fresh)) for family in families]
    for obj, twin in pairs:
        assert obj == twin
        assert _extra_attributes(obj) <= kept, type(obj).__name__
        assert pickle.dumps(obj) == pickle.dumps(twin), type(obj).__name__
    # the job filled the stores that the pickles drop
    assert "feasible" in env._facts
    assert not pickle.loads(pickle.dumps(env))._facts
    thawed = dataclasses.replace(instance, env=pickle.loads(pickle.dumps(env)))
    assert _run(monkeypatch, path, thawed, argv)[0] == got


def test_pip_walk_loads_each_listed_allocation_once(monkeypatch):
    """Exchange keys and members read the listed loads: beside the loads
    that ``is_feasible`` takes, a walk calls ``PipEnv.load`` at most once
    per listed allocation."""
    inst = gen_pip_random(n=6, seed=1)
    env, profile = inst.env, inst.profile
    feasible = enumerate_feasible(env)
    alloc = opt(env, profile)
    rule = pip_prices(env, profile, alloc)
    calls = {"load": 0, "is_feasible": 0}
    load, is_feasible = PipEnv.load, PipEnv.is_feasible

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(PipEnv, "load", counted("load", load))
    monkeypatch.setattr(PipEnv, "is_feasible", counted("is_feasible", is_feasible))
    params = BalanceParams(alpha=1.0, beta=1.0)
    report = check_balanced(env, profile, rule, alloc, default_family(env), params)
    assert report.checked_allocations == len(feasible)
    assert calls["load"] - calls["is_feasible"] <= len(feasible)
