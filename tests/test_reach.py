"""The reach check of ``ci/reach.py`` on a tiny synthetic package: it passes
when every function is entered or allow-listed, and fails on an unreached
function, on an allow-listed function that a job enters, and on a job that
exits with another code than its own."""

import importlib
import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("reach", os.path.join(ROOT, "ci", "reach.py"))
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

SOURCE = '''\
class Shape:
    side = [k for k in range(2)]

    def area(self):
        return len(self.side) ** 2


def main(argv):
    def parse(arg):
        return int(arg)

    return parse(argv[0]) if argv[0] != "area" else Shape().area() - 1


def unused():
    return (lambda: 0)()
'''


@pytest.fixture
def package(tmp_path, monkeypatch):
    """(directory, loader of its ``main``) of a package ``tiny_<test>``,
    written fresh for each test and dropped from ``sys.modules`` after it."""
    name = f"tiny_{os.path.basename(tmp_path)}".replace("-", "_")
    directory = tmp_path / name
    directory.mkdir()
    (directory / "__init__.py").write_text("")
    (directory / "cli.py").write_text(SOURCE)
    monkeypatch.syspath_prepend(str(tmp_path))
    yield str(directory), lambda: importlib.import_module(f"{name}.cli").main
    for module in [m for m in sys.modules if m.split(".")[0] == name]:
        del sys.modules[module]


def test_functions_are_named_defs_nested_ones_included(package):
    directory, _ = package
    assert sorted(reach.functions(directory).values()) == [
        "cli.Shape.area", "cli.main", "cli.main.parse", "cli.unused",
    ]


def test_passes_with_every_function_entered_or_allowed(package):
    directory, load = package
    jobs = [(0, ("0",)), (3, ("area",))]
    assert reach.audit(load, jobs, directory, {"cli.unused": "kept for a reason"}) == []


def test_fails_on_an_unreached_function(package):
    directory, load = package
    assert reach.audit(load, [(0, ("0",)), (3, ("area",))], directory, {}) == [
        "no job enters cli.unused: give it a job, an ALLOW reason, or delete it"
    ]


def test_fails_on_an_allowed_function_a_job_enters(package):
    directory, load = package
    allow = {"cli.unused": "kept", "cli.Shape.area": "kept", "cli.gone": "kept"}
    assert reach.audit(load, [(0, ("0",)), (3, ("area",))], directory, allow) == [
        "stale ALLOW entry cli.Shape.area: a job enters it",
        "stale ALLOW entry cli.gone: no such function",
    ]


def test_fails_on_a_job_with_another_exit_code(package):
    directory, load = package
    allow = {"cli.unused": "kept", "cli.Shape.area": "kept"}
    problems = reach.audit(load, [(0, ("2",)), (0, ("x",))], directory, allow)
    assert problems[0] == "job '2' gave 2, not 0:\n"
    assert problems[1].startswith("job 'x' gave \"ValueError: invalid literal")
    assert len(problems) == 2
