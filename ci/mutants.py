"""Mutation checks: each mutant in ``MUTANTS`` is applied to a fresh
temporary copy of the repository, and the tests it names must then fail.

A mutant is (name, file, old text, new text, selection).  The old text must
occur exactly once in the file, so a refactor that moves it must carry the
table along.  The copy leaves out ``.git``, ``.hypothesis``, ``bench/_work``
and bytecode caches.  The selection runs from the copy's root with the
copy's ``src`` on PYTHONPATH: ``("twins", ENTRY)`` as ``python3 ci/twins.py
ENTRY``, anything else as pytest arguments after ``python -m pytest -x -q -p
no:cacheprovider --hypothesis-seed=0``.  A selection that exits 0 on the
mutant makes it a survivor.

``EQUIVALENT`` lists mutants that change no result, each with the reason.
They are not run, but their old text must still occur exactly once.

Prints one line per mutant, in table order: ``killed``, ``SURVIVED``, or
``BROKEN`` when the old text does not occur exactly once or the selection
neither passes nor fails (a pytest ``-k`` that selects nothing, an unknown
twin entry, a run past ``TIMEOUT``).  Exits 1 unless every mutant is
killed.  Each distinct selection first runs on an unmutated copy, where it
must pass, so that a test that already fails cannot count as a kill.  Copies
run ``WORKERS`` at a time, the unmutated ones before any mutant.

Run from anywhere:  python3 ci/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
Mutant = namedtuple("Mutant", "name file old new selection")
BALANCE = "src/balprice/balance.py"
CLI = "src/balprice/cli.py"
MECHANISM = "src/balprice/mechanism.py"
ORACLE = "src/balprice/oracle.py"
PRICING = "src/balprice/pricing.py"
SERIALIZE = "src/balprice/serialize.py"
STOCHASTIC = "src/balprice/stochastic.py"
# seconds a selection may run; none takes a tenth of this unmutated
TIMEOUT = 300
# seconds the whole run should take, reported beside its time
BUDGET = 180
# copies run at once, each selection in its own process
WORKERS = min(2, os.cpu_count() or 1)

MUTANTS = (
    Mutant(
        "DP choice by strict minimum, killed by TestLiveAgentDp",
        BALANCE,
        "                if cand < best - TOL:\n",
        "                if cand < best:\n",
        ("tests/test_balance.py::TestLiveAgentDp",),
    ),
    Mutant(
        "UNAVAILABLE branch without TOL, killed by all-orders-walk",
        BALANCE,
        "                if src < best - TOL:\n",
        "                if src < best:\n",
        ("tests/test_twins.py", "-k", "all-orders-walk"),
    ),
    Mutant(
        "flag not carried from the chosen sub-state, killed by TestWalkMatchesTwin",
        BALANCE,
        "        if best_bad or best_key in flagged:\n",
        "        if best_bad:\n",
        ("tests/test_balance.py::TestWalkMatchesTwin",),
    ),
    Mutant(
        "terms conditioned on w, killed by all-orders-walk",
        BALANCE,
        "price(a, w_a, feasible[cy])",
        "price(a, w_a, feasible[cw])",
        ("tests/test_twins.py", "-k", "all-orders-walk"),
    ),
    Mutant(
        "witness's inert agents only at the end, killed by all-orders-walk",
        BALANCE,
        "while inert and (a < 0 or inert[0] < a):",
        "while inert and a < 0:",
        ("tests/test_twins.py", "-k", "all-orders-walk"),
    ),
    Mutant(
        "DP agents scanned in descending order, killed by all-orders-walk-addition-order",
        BALANCE,
        "        for a in agents:\n",
        "        for a in reversed(agents):\n",
        ("tests/test_twins.py", "-k", "all-orders-walk-addition-order"),
    ),
    Mutant(
        "min for max in the static column score, killed by static-walk",
        BALANCE,
        "top = max(map(col.__getitem__, at))",
        "top = min(map(col.__getitem__, at))",
        ("twins", "static-walk"),
    ),
    Mutant(
        "static walk's flag check dropped, killed by static-walk",
        BALANCE,
        "if rhs_b - top >= -TOL and not any(map(flags.__getitem__, at)):",
        "if rhs_b - top >= -TOL:",
        ("twins", "static-walk"),
    ),
    Mutant(
        "static walk's condition-(b) bound check dropped, killed by static-walk",
        BALANCE,
        "if rhs_b - top >= -TOL and not any(map(flags.__getitem__, at)):",
        "if not any(map(flags.__getitem__, at)):",
        ("twins", "static-walk"),
    ),
    Mutant(
        "static walk's recorded entries in group order, killed by static-walk",
        BALANCE,
        "        recorded.sort()  # back in walk order\n",
        "",
        ("twins", "static-walk"),
    ),
    Mutant(
        "static walk's checked members counted once per key, killed by static-walk",
        BALANCE,
        "report.checked_members += count * len(members)",
        "report.checked_members += len(members)",
        ("twins", "static-walk"),
    ),
    Mutant(
        "item-disjoint submask walk keeps a mask whose union with the key is unlisted, "
        "killed by TestMemberEnumeration",
        ORACLE,
        "                if key | s in masks:\n",
        "                if s in masks:\n",
        ("tests/test_oracle.py::TestMemberEnumeration",),
    ),
    Mutant(
        "item-disjoint scan keeps a mask whose union with the key is unlisted, "
        "killed by TestMemberEnumeration",
        ORACLE,
        "ks for m, ks in masks.items() if not m & key and key | m in masks",
        "ks for m, ks in masks.items() if not m & key",
        ("tests/test_oracle.py::TestMemberEnumeration",),
    ),
    Mutant(
        "packing row closed at exactly 1/2 + TOL, killed by test_pip_row_open_at_half_plus_tol",
        ORACLE,
        "l <= 0.5 + TOL for l in",
        "l < 0.5 + TOL for l in",
        ("tests/test_oracle.py::TestResidualOpt::test_pip_row_open_at_half_plus_tol",),
    ),
    Mutant(
        "knapsack key open at a load within TOL below 1/2, killed by test_knapsack_load_within_tol_of_half_is_closed",
        ORACLE,
        "[s < 0.5 - TOL for s in states]",
        "[s < 0.5 for s in states]",
        ("tests/test_oracle.py::TestMemberEnumeration::test_knapsack_load_within_tol_of_half_is_closed",),
    ),
    Mutant(
        "knapsack demand at the second admissible quantity, killed by TestKnapsackDp",
        ORACLE,
        "        demand = next((q for q in grid if value(v, q) and env.extend(start, i, q) is not None), None)\n",
        "        demand = next(itertools.islice(\n"
        "            (q for q in grid if value(v, q) and env.extend(start, i, q) is not None), 1, None\n"
        "        ), None)\n",
        ("tests/test_oracle.py::TestKnapsackDp",),
    ),
    Mutant(
        "knapsack DP state kept on a gain within TOL, killed by test_near_tie_keeps_the_first_listed_best",
        ORACLE,
        "cand > nxt[state][0] + TOL",
        "cand > nxt[state][0]",
        ("tests/test_oracle.py::TestKnapsackDp::test_near_tie_keeps_the_first_listed_best",),
    ),
    Mutant(
        "greedy outcome memo always recomputes, killed by TestGreedyMemo",
        ORACLE,
        "    out = outcomes.get((fixed, ranking))\n",
        "    out = None\n",
        ("tests/test_critical_oracle.py::TestGreedyMemo",),
    ),
    Mutant(
        "greedy outcome keyed by its first ranked agent, killed by TestGreedyMemo",
        ORACLE,
        "    out = outcomes.get((fixed, ranking))\n"
        "    if out is None:\n"
        "        out = outcomes[fixed, ranking] = _greedy_scan(env, ranking, fixed)\n",
        "    out = outcomes.get((fixed, ranking[:1]))\n"
        "    if out is None:\n"
        "        out = outcomes[fixed, ranking[:1]] = _greedy_scan(env, ranking, fixed)\n",
        ("tests/test_critical_oracle.py::TestGreedyMemo",),
    ),
    Mutant(
        "permeability numerator keyed by its first critical value, killed by TestPermeabilityTwin",
        ORACLE,
        "        vec = tuple(taus)\n",
        "        vec = tuple(taus[:1])\n",
        ("tests/test_critical_oracle.py::TestPermeabilityTwin",),
    ),
    Mutant(
        "-o not checked before the job, killed by TestPathErrors",
        CLI,
        "        if args.output:\n            _check_output(args.output)\n",
        "",
        ("tests/test_cli.py::TestPathErrors",),
    ),
    Mutant(
        "member sums in (0, TOL] count toward the ratio, killed by TestMinimalBetaFromCheck",
        BALANCE,
        "        if lhs > TOL:\n",
        "        if lhs > 0.0:\n",
        ("tests/test_balance.py::TestMinimalBetaFromCheck",),
    ),
    Mutant(
        "declared terms added in agent order, killed by declared-walk-addition-order",
        BALANCE,
        "        sums = list(map(add, sums, map(terms.__getitem__, toks)))\n"
        "        y[i] = x[i]\n"
        "    return sums, flags\n",
        "        columns[i] = list(map(terms.__getitem__, toks))\n"
        "        y[i] = x[i]\n"
        "    for col in columns:\n"
        "        sums = list(map(add, sums, col))\n"
        "    return sums, flags\n",
        ("tests/test_twins.py", "-k", "declared-walk-addition-order"),
    ),
    Mutant(
        "declared walk's flags dropped, killed by declared-walk",
        BALANCE,
        "(lhs_a, *lhs_b), (bad, *bad_b) = _term_sums(prices, order, x, [x, *members])\n",
        "(lhs_a, *lhs_b), _ = _term_sums(prices, order, x, [x, *members])\n"
        "            bad, bad_b = False, [False] * len(members)\n",
        ("tests/test_twins.py", "-k", "declared-walk"),
    ),
    Mutant(
        "draw's last-atom fallback dropped, killed by TestDrawMatchesTwin",
        STOCHASTIC,
        "atoms = tuple([*(v for v, _ in a), a[-1][0]] for a in self.supports)",
        "atoms = tuple([v for v, _ in a] for a in self.supports)",
        ("tests/test_trial_draw.py::TestDrawMatchesTwin",),
    ),
    Mutant(
        "exact_ratio routes the worst fixed order to the adversary, killed by TestExactRatioRows",
        STOCHASTIC,
        '    if order == "adversary":\n',
        '    if order in ("adversary", "all"):\n',
        ("tests/test_cli.py::TestExactRatioRows",),
    ),
    Mutant(
        "Monte Carlo tie takes the first candidate without a runner, killed by TestTies",
        STOCHASTIC,
        "            runners[order] = OnlinePostedPriceRunner(\n"
        "                env, prices, dist.supports, order, tie, steps=steps\n"
        "            )\n"
        "        return runners[order]._tied(*at)\n",
        "            pass\n"
        "        return at[-1][0]\n",
        ("tests/test_trial_draw.py::TestTies",),
    ),
    Mutant(
        "per-profile UNAVAILABLE check dropped, killed by the whole-unit knapsack refusal",
        PRICING,
        "        if UNAVAILABLE in prices:\n"
        "            raise AssertionError(\"per-profile price unavailable on a feasible entry\")\n",
        "",
        ("tests/test_ratio_path.py::TestExpectedScaledPricesTwin"
         "::test_whole_unit_rule_is_refused_at_a_partial_quantity",),
    ),
    Mutant(
        "realized walk keeps the arrived agent to come, killed by TestTies",
        MECHANISM,
        "        outcomes[i], payments[i], gains[i], h = step[0] if len(step) == 1 else tied(left, i, step)\n"
        "        left &= ~(1 << i)\n",
        "        outcomes[i], payments[i], gains[i], h = step[0] if len(step) == 1 else tied(left, i, step)\n",
        ("tests/test_trial_draw.py::TestTies",),
    ),
    Mutant(
        "a tied arrival cached as a forced step, killed by posted-price-steps",
        MECHANISM,
        "        step = self[key] = []\n        for tok, p in cands:\n",
        "        step = self[key] = []\n        for tok, p in cands[:1]:\n",
        ("tests/test_twins.py", "-k", "posted-price-steps"),
    ),
    Mutant(
        "a step key without the atom index, killed by posted-price-steps",
        MECHANISM,
        "                step = steps[i, a, h]\n",
        "                step = steps[i, 0, h]\n",
        ("twins", "posted-price-steps"),
    ),
    Mutant(
        "a residual pass's rows paired with its masks reversed, "
        "killed by the support-columns twin's passes cases",
        PRICING,
        "            for mask, column in zip(masks, self._residuals(masks)):\n",
        "            for mask, column in zip(masks[::-1], self._residuals(masks)):\n",
        ("tests/test_twins.py::test_small_cases[support-columns-passes]",),
    ),
    Mutant(
        "an XOS winner's item priced at the next item's clause value, killed by xos-prices",
        PRICING,
        "clause = tuple((1 << j, vals[j]) for j in bitmask_items(mask))",
        "clause = tuple((1 << j, vals[(j + 1) % len(vals)]) for j in bitmask_items(mask))",
        ("twins", "xos-prices"),
    ),
    Mutant(
        "profiles take the probabilities reversed, killed by TestProfiles::test_matches_twin",
        STOCHASTIC,
        "        yield from zip(itertools.product(*values), probs)\n",
        "        yield from zip(itertools.product(*values), reversed(probs))\n",
        ("tests/test_once_per_key.py::TestProfiles::test_matches_twin",),
    ),
    Mutant(
        "exchange-set memo keyed without the family kind, killed by TestStoredTables",
        ORACLE,
        "(self.kind, self.components, key)",
        "(self.components, key)",
        ("tests/test_load_table.py::TestStoredTables",),
    ),
    Mutant(
        "load table keyed by the environment's kind and agent count, killed by TestKeys",
        SERIALIZE,
        "    text = json.dumps(block, sort_keys=True)\n",
        "    text = json.dumps([block.get(\"kind\"), block.get(\"agents\")])\n",
        ("tests/test_load_table.py::TestKeys",),
    ),
    Mutant(
        "certifier's permutation check dropped, killed by test_refused",
        BALANCE,
        "    order = _check_order(env.n, order, CHECK_ORDER_KINDS)\n",
        "    order = order if order == \"all\" else tuple(range(env.n) if order is None else order)\n",
        ("tests/test_order_argument.py", "-k", "test_refused and check_balanced"),
    ),
    Mutant(
        "monte_carlo_ratio accepts \"all\", killed by test_refused",
        STOCHASTIC,
        "MONTE_CARLO_ORDER_KINDS = (\"random\",)\n",
        "MONTE_CARLO_ORDER_KINDS = (\"random\", \"all\")\n",
        ("tests/test_order_argument.py", "-k", "test_refused and monte_carlo_ratio"),
    ),
    Mutant(
        "negative counts decoded, killed by test_negative_matroid_count_rejected",
        SERIALIZE,
        "    if k < 0:\n"
        "        raise SchemaError(f\"{what} must not be negative, got {value!r}\")\n",
        "",
        ("tests/test_serialize.py", "-k", "test_negative_matroid_count_rejected"),
    ),
)

EQUIVALENT = (
    (
        Mutant(
            "a term conditioned on a prefix that holds the agent's own outcome",
            BALANCE,
            "        toks, prefix = columns[i], tuple(y)\n",
            "        y[i] = x[i]\n        toks, prefix = columns[i], tuple(y)\n",
            None,
        ),
        "PricingRule.price clears agent i's own slot of the conditioning "
        "allocation before it reads its cache or the rule",
    ),
    (
        Mutant(
            "knapsack demand without its extend admission",
            ORACLE,
            " and env.extend(start, i, q) is not None), None)",
            "), None)",
            None,
        ),
        "a threshold valuation pays for every quantity from its first valued "
        "one on, and extend from the empty total refuses every quantity from "
        "its first refused one on, so the first valued quantity is admitted "
        "or none is; the DP step then refuses an unadmitted demand from every "
        "total, as totals are never negative",
    ),
)


def ignored(directory, names) -> set:
    """The entries of ``directory`` that the copy leaves out."""
    skip = {".git", ".hypothesis", ".pytest_cache", "__pycache__"}
    if os.path.relpath(directory, ROOT) == "bench":
        skip.add("_work")
    return skip.intersection(names)


def occurrences(mutant) -> int:
    with open(os.path.join(ROOT, mutant.file), encoding="utf-8") as fh:
        return fh.read().count(mutant.old)


def command(selection) -> list:
    if selection[0] == "twins":
        return [sys.executable, os.path.join("ci", "twins.py"), *selection[1:]]
    return [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *selection]


def run(selection, mutant=None):
    """Run ``selection`` on a fresh copy, with ``mutant`` applied if one is
    given: (exit code, the first line naming a failure, else the last)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=ignored)
        if mutant is not None:
            path = os.path.join(copy, mutant.file)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(command(selection), cwd=copy, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT} s"
    lines = (done.stdout + done.stderr).strip().splitlines() or [""]
    shown = next((line for line in lines if line.startswith(("FAILED ", "ERROR ", "FAIL "))), lines[-1])
    return done.returncode, shown[:160]


def verdict(mutant):
    """(killed, SURVIVED or BROKEN; what the selection printed; seconds)"""
    start = time.perf_counter()
    found = occurrences(mutant)
    if found != 1:
        return "BROKEN", f"the old text occurs {found} times in {mutant.file}", 0.0
    code, shown = run(mutant.selection, mutant)
    seconds = time.perf_counter() - start
    if code == 0:
        return "SURVIVED", shown, seconds
    # pytest exits 1 on a failed test and 2 on a collection error; ci/twins.py
    # exits 1 on a failed case
    if code == 1 or (code == 2 and mutant.selection[0] != "twins"):
        return "killed", shown, seconds
    shown = f"the selection exited {code}: {shown}" if code is not None else shown
    return "BROKEN", shown, seconds


def main() -> int:
    start = time.perf_counter()
    failed = 0
    for mutant, reason in EQUIVALENT:
        found = occurrences(mutant)
        failed += found != 1
        shown = "equivalent" if found == 1 else f"BROKEN (the old text occurs {found} times)"
        print(f"{shown}  {mutant.name}: {reason}", flush=True)
    selections = list(dict.fromkeys(m.selection for m in MUTANTS))
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        # a selection that fails unmutated would count every mutant as killed
        for selection, (code, shown) in zip(selections, pool.map(run, selections)):
            if code:
                failed += 1
                print(f"BROKEN  {' '.join(selection)} fails without a mutant: {shown}", flush=True)
        # map yields in table order, each verdict as soon as it and those
        # before it are done
        for mutant, (word, shown, seconds) in zip(MUTANTS, pool.map(verdict, MUTANTS)):
            failed += word != "killed"
            print(f"{word}  {mutant.name}  ({seconds:.1f} s): {shown}", flush=True)
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.1f} s, "
          f"against a budget of {BUDGET} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
