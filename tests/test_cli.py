import csv
import functools
import json
import subprocess
import sys

import pytest

from balprice.cli import CONSTRUCTIONS, main, parse_order
from balprice.serialize import Instance, SchemaError

from helpers import two_point_matroid


def run_cli(argv):
    return main(argv)


@pytest.fixture()
def tight_instance(tmp_path):
    path = tmp_path / "tight.json"
    assert run_cli(["catalog", "tight-prophet", "--q", "0.01", "-o", str(path)]) == 0
    return path


@pytest.fixture()
def matroid_instance(tmp_path):
    path = tmp_path / "matroid.json"
    assert run_cli(
        ["catalog", "matroid", "--kind", "uniform", "--rank", "2", "--ground", "4",
         "--seed", "5", "-o", str(path)]
    ) == 0
    return path


class TestParseOrder:
    def test_fixed_one_based(self):
        assert parse_order("2,1", 2) == (1, 0)
        assert parse_order("fixed:1,2", 2) == (0, 1)

    def test_modes(self):
        assert parse_order("all", 3) == "all"
        assert parse_order(None, 2) is None
        assert parse_order("fixed", 2) is None

    def test_rejects_non_permutation(self):
        with pytest.raises(SchemaError):
            parse_order("1,1", 2)


class TestBalanceCommand:
    def test_single_item_passes(self, tmp_path):
        inst = tmp_path / "si.json"
        run_cli(["catalog", "two-point", "--n", "2", "--seed", "3", "-o", str(inst)])
        report = tmp_path / "report.json"
        code = run_cli(
            ["balance", "--instance", str(inst), "--pricing", "single-item",
             "--alpha", "1", "--beta", "1", "-o", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["result"]["passed"] is True
        assert doc["config"]["pricing"] == "single-item"

    def test_tight_beta_fails_with_witness(self, tmp_path):
        inst = tmp_path / "si.json"
        run_cli(["catalog", "two-point", "--n", "2", "--seed", "3", "-o", str(inst)])
        code = run_cli(
            ["balance", "--instance", str(inst), "--pricing", "single-item",
             "--alpha", "1", "--beta", "0.4"]
        )
        assert code == 1

    def test_matroid_default_params(self, matroid_instance):
        assert run_cli(
            ["balance", "--instance", str(matroid_instance), "--pricing", "matroid"]
        ) == 0

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["balance", "--instance", str(bad), "--pricing", "single-item"]) == 2

    def test_unknown_keys_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "environment": {"kind": "single_item", "agents": 1},
            "agents": [{"kind": "scalar", "value": 1.0}],
            "surprise": True,
        }))
        assert run_cli(["balance", "--instance", str(bad), "--pricing", "single-item"]) == 2

    def test_default_order_quantifier_on_stderr(self, matroid_instance, tmp_path, capsys):
        assert run_cli(
            ["balance", "--instance", str(matroid_instance), "--pricing", "matroid"]
        ) == 0
        assert capsys.readouterr().err == (
            "order quantifier: all (default for 4 agents, n <= 6)\n"
        )
        big = tmp_path / "u7.json"
        run_cli(["catalog", "matroid", "--kind", "uniform", "--rank", "3", "--ground", "7",
                 "-o", str(big)])
        capsys.readouterr()
        report = tmp_path / "report.json"
        run_cli(["balance", "--instance", str(big), "--pricing", "matroid", "-o", str(report)])
        err = capsys.readouterr().err
        assert err.startswith("order quantifier: declared (default for 7 agents, n > 6")
        assert err.count("\n") == 1
        assert json.loads(report.read_text())["result"]["order_mode"] == "declared"
        run_cli(["balance", "--instance", str(big), "--pricing", "matroid", "--order", "all"])
        assert capsys.readouterr().err == ""

    def test_prints_the_three_worst_witnesses(self, tmp_path, capsys, monkeypatch):
        import balprice.cli

        inst = tmp_path / "u.json"
        run_cli(["catalog", "matroid", "--kind", "uniform", "--rank", "3", "--ground", "6",
                 "--seed", "1", "-o", str(inst)])
        reports = []
        check = balprice.cli.check_balanced

        def kept_check(*args, **kwargs):
            reports.append(check(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(balprice.cli, "check_balanced", kept_check)
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert run_cli(["balance", "--instance", str(inst), "--pricing", "matroid",
                        "--order", "all", "--beta", "0.25", "-o", str(out)]) == 1
        printed = [line for line in capsys.readouterr().out.splitlines() if "worst witness" in line]
        (report,) = reports
        slack = {"a": lambda w: w[3] - w[4], "b": lambda w: w[4] - w[3]}
        slacks = [slack[w[0]](w) for w in report.witnesses]
        # the smallest slacks, ties in walk order
        worst = sorted(range(len(slacks)), key=slacks.__getitem__)[:3]
        assert worst != [0, 1, 2]
        assert printed == [
            f"  worst witness: condition {w[0]} x={w[1]} member={w[2]} lhs={w[3]:.6g} rhs={w[4]:.6g}"
            for w in (report.witnesses[k] for k in worst)
        ]
        assert slacks[worst[0]] == report.condition_b_min_slack
        result = json.loads(out.read_text())["result"]
        assert result == json.loads(json.dumps(report.as_dict()))
        assert len(result["witnesses"]) == 10 < len(report.witnesses)

    def test_cap_exit_3(self, matroid_instance):
        assert run_cli(
            ["balance", "--instance", str(matroid_instance), "--pricing", "matroid",
             "--cap-feasible", "2"]
        ) == 3

    def test_knapsack_members_print_as_listed(self, tmp_path):
        """A contraction member's cleared slots hold the knapsack list's
        null quantity 0.0, as its other slots do, not the int 0."""
        inst, out = tmp_path / "k.json", tmp_path / "r.json"
        assert run_cli(
            ["catalog", "knapsack", "--n", "4", "--step", "0.5", "--seed", "0", "-o", str(inst)]
        ) == 0
        assert run_cli(
            ["balance", "--instance", str(inst), "--pricing", "warmup", "--beta", "0.5",
             "-o", str(out)]
        ) == 1
        witnesses = json.loads(out.read_text())["result"]["witnesses"]
        members = [w[2] for w in witnesses if w[1] == [0.0, 0.0, 0.0, 0.5]]
        assert [0.0, 0.0, 0.5, 0.0] in members
        for member in members:
            assert all(isinstance(t, float) for t in member)


def _null_agent_count(doc):
    doc["environment"]["agents"] = None


def _null_agents(doc):
    doc["agents"] = None


def _null_additive_value(doc):
    doc["agents"][0]["values"][1] = None


def _element_outside_ground(doc):
    doc["environment"]["elements"][0] = [9]


def _short_additive_values(doc):
    doc["agents"][0]["values"] = [1.0]


def _short_xos_clause(doc):
    doc["agents"][0]["clauses"][0] = [1.0]


def _hyperedge_outside_items(doc):
    doc["agents"][0]["clauses"][0][0]["items"] = [0, 7]


def _negative_hyperedge_item(doc):
    doc["agents"][0]["clauses"][0][0]["items"] = [-1]


def _negative_threshold_size(doc):
    doc["agents"][0]["size"] = -1


def _missing_market_parts(doc):
    doc["agents"][0]["parts"] = []


def _zero_step(doc):
    doc["environment"]["step"] = 0


def _huge_max_share(doc):
    doc["environment"]["max_share"] = 1e308


def _zero_max_share(doc):
    doc["environment"]["max_share"] = 0


def _short_pip_capacities(doc):
    # two constraint rows, one capacity: the second row would go unchecked
    doc["environment"]["capacities"] = [1.0]


def _negative_pip_coefficient(doc):
    # within TOL of 0, and still a term that would make the feasible set not
    # downward closed
    doc["environment"]["matrix"][0][2] = -1e-9


def _negative_atom_probability(doc):
    # the probabilities still sum to 1 within 1e-9, and the second is negative
    doc["distribution"][0][0]["prob"] = 1.0 + 5e-10
    doc["distribution"][0][1]["prob"] = -5e-10


# base instance -> (catalog arguments, pricing construction); the auctions have 4 items
MALFORMED_BASES = {
    "matroid": (["matroid", "--kind", "uniform", "--rank", "2", "--ground", "4", "--seed", "5"],
                "matroid"),
    "xos": (["xos", "--n", "3", "--m", "4"], "xos"),
    "mph": (["mph", "--n", "3", "--m", "4"], "mph"),
    "knapsack": (["knapsack", "--n", "3"], "knapsack"),
    "product": (["product-single-items", "--n", "2"], "compose-add"),
    "pip": (["pip", "--n", "3"], "pip"),
    "two-point": (["two-point", "--n", "2"], "single-item"),
}


class TestMalformedInstances:
    """A malformed instance is bad input: exit 2 with a one-line error."""

    @pytest.mark.parametrize(
        "base,mutate,message",
        [
            ("matroid", _null_agent_count, "environment agents must be a number, got None"),
            ("matroid", _null_agents, "agents must be a JSON array, got None"),
            ("matroid", _null_additive_value, "additive values entry must be a number, got None"),
            ("matroid", _element_outside_ground, "matroid element 9 outside the ground set 0..3"),
            ("matroid", _short_additive_values,
             "additive values has 1 entries for 4 ground elements"),
            ("xos", _short_xos_clause, "xos clause has 1 entries for 4 items"),
            ("mph", _hyperedge_outside_items, "hyperedge item 7 outside items 0..3"),
            ("mph", _negative_hyperedge_item, "hyperedge item -1 outside 0..15"),
            ("product", _missing_market_parts, "product valuation has 0 parts for 2 markets"),
            ("knapsack", _negative_threshold_size,
             "threshold size must be non-negative, got -1.0"),
            ("knapsack", _huge_max_share, "knapsack max_share must lie in (0, 1], got 1e+308"),
            ("knapsack", _zero_max_share, "knapsack max_share must lie in (0, 1], got 0.0"),
            ("knapsack", _zero_step, "knapsack step must be positive, got 0.0"),
            ("pip", _short_pip_capacities, "1 capacities for 2 constraint rows"),
            ("pip", _negative_pip_coefficient, "coefficient -1e-09 outside [0, 1/2]"),
            ("two-point", _negative_atom_probability, "agent 0 has a negative probability"),
        ],
        ids=["env-agents-null", "agents-null", "additive-value-null", "element-outside-ground",
             "additive-values-short", "xos-clause-short", "hyperedge-outside-items",
             "hyperedge-item-negative", "market-parts-missing", "threshold-size-negative",
             "max-share-huge", "max-share-zero", "step-zero", "pip-capacities-short",
             "pip-coefficient-negative", "atom-probability-negative"],
    )
    def test_exit_2_without_traceback(self, tmp_path, capsys, base, mutate, message):
        argv, pricing = MALFORMED_BASES[base]
        good = tmp_path / "good.json"
        assert run_cli(["catalog", *argv, "-o", str(good)]) == 0
        doc = json.loads(good.read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["balance", "--instance", str(bad), "--pricing", pricing]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "base,path,bad,message",
        [
            ("mph", ("agents", 0, "clauses", 0, 0, "weight"), 1e308,
             "hyperedge weight must have magnitude at most 1e+100, got 1e+308"),
            ("xos", ("agents", 0, "clauses", 0, 0), 1e308,
             "xos clause entry must have magnitude at most 1e+100, got 1e+308"),
            ("matroid", ("agents", 0, "values", 0), -1e101,
             "additive values entry must have magnitude at most 1e+100, got -1e+101"),
            ("knapsack", ("agents", 0, "value"), float("inf"),
             "threshold value must have magnitude at most 1e+100, got inf"),
            ("knapsack", ("environment", "step"), 1e-300,
             "knapsack step 1e-300 gives more than 65536 grid units"),
            ("knapsack", ("environment", "step"), 5e-324,
             "knapsack step 5e-324 gives more than 65536 grid units"),
        ],
        ids=["mph-weight-1e308", "xos-value-1e308", "additive-value-huge",
             "threshold-value-inf", "step-1e-300", "step-denormal"],
    )
    def test_out_of_range_number_exits_2(self, tmp_path, capsys, base, path, bad, message):
        """Values past the magnitude bound would overflow a sum, and a step
        past the grid bound would build a grid of any size: both are bad
        input, rejected before any of that work."""
        argv, pricing = MALFORMED_BASES[base]
        good = tmp_path / "good.json"
        assert run_cli(["catalog", *argv, "-o", str(good)]) == 0
        doc = json.loads(good.read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        inst = tmp_path / "bad.json"
        inst.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["balance", "--instance", str(inst), "--pricing", pricing]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_huge_threshold_size_never_fits(self, tmp_path):
        """A demand far above the capacity is certified like any other demand
        that cannot fit, instead of overflowing in the knapsack optimum."""
        argv, pricing = MALFORMED_BASES["knapsack"]
        good = tmp_path / "good.json"
        assert run_cli(["catalog", *argv, "-o", str(good)]) == 0
        results = []
        for size in (1.5, 1e308):
            doc = json.loads(good.read_text())
            doc["agents"][0]["size"] = size
            inst, report = tmp_path / "inst.json", tmp_path / "report.json"
            inst.write_text(json.dumps(doc))
            code = run_cli(["balance", "--instance", str(inst), "--pricing", pricing,
                            "-o", str(report)])
            results.append((code, json.loads(report.read_text())["result"]))
        assert results[0] == results[1]
        assert results[0][0] in (0, 1)


    def test_explicit_not_downward_closed_exits_2(self, tmp_path, capsys):
        """Feasibility by list must be downward closed: (1, 1) without (0, 1)
        would make OPT's welfare 0 while (1, 1) is listed as feasible."""
        doc = {
            "environment": {"kind": "explicit", "agents": 2, "outcomes": [[0, 1], [0, 1]],
                            "feasible": [[0, 0], [1, 1]]},
            "agents": [{"kind": "scalar", "value": 1.0}, {"kind": "scalar", "value": 1.0}],
        }
        inst = tmp_path / "explicit.json"
        inst.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["balance", "--instance", str(inst), "--pricing", "warmup"]) == 2
        assert capsys.readouterr().err == (
            "error: feasible set is not downward closed: (1, 1) is listed but (0, 1) is not\n"
        )

    @pytest.mark.parametrize(
        "outcomes,feasible,message",
        [
            ([[0, 1]], [[0, 0]], "explicit outcomes has 1 token lists for 2 agents"),
            ([[0, 1], [0, 1]], [[0, 0], [2, 0], [0, 1]],
             "listed allocation (2, 0) gives agent 0 the token 2, outside its outcomes (0, 1)"),
        ],
        ids=["outcomes-short", "token-outside-outcomes"],
    )
    def test_explicit_list_outside_token_spaces_exits_2(
        self, tmp_path, capsys, outcomes, feasible, message
    ):
        """A listed allocation must lie in the agents' token spaces, or it
        passes is_feasible but is never enumerated."""
        doc = {
            "environment": {"kind": "explicit", "agents": 2, "outcomes": outcomes,
                            "feasible": feasible},
            "agents": [{"kind": "scalar", "value": 1.0}, {"kind": "scalar", "value": 1.0}],
        }
        inst = tmp_path / "explicit.json"
        inst.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["balance", "--instance", str(inst), "--pricing", "warmup"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRatioCommand:
    def test_exact_tight_ratio(self, tight_instance, tmp_path, capsys):
        out = tmp_path / "ratio.csv"
        code = run_cli(
            ["ratio", "--instance", str(tight_instance), "--pricing", "single-item",
             "--trials", "0", "--exact", "-o", str(out)]
        )
        assert code == 0
        shown = capsys.readouterr().out
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert abs(float(rows[0]["ratio"]) - 1.0 / 1.99) < 1e-9
        assert rows[0]["schema"] == "balprice.ratio.v1"
        assert "ratio=0.502" in shown

    def test_monte_carlo_deterministic(self, tight_instance, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert run_cli(
                ["ratio", "--instance", str(tight_instance), "--pricing", "single-item",
                 "--trials", "100", "--seed", "9", "-o", str(out)]
            ) == 0
        assert out1.read_text() == out2.read_text()

    def test_empty_output_file_gets_the_header(self, tight_instance, tmp_path):
        """An existing empty ``-o`` file is headed like a missing one, and a
        second run appends its row under the same header."""
        out = tmp_path / "touched.csv"
        out.touch()
        argv = ["ratio", "--instance", str(tight_instance), "--pricing", "single-item",
                "--exact", "-o", str(out)]
        assert run_cli(argv) == 0 and run_cli(argv) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3 and lines[0].startswith("instance,pricing,")
        assert lines[1] == lines[2] and not lines[1].startswith("instance,")


class TestSimulateCommand:
    def test_high_agent_first(self, tmp_path):
        inst = tmp_path / "si.json"
        inst.write_text(json.dumps({
            "environment": {"kind": "single_item", "agents": 2},
            "agents": [
                {"kind": "scalar", "value": 1.0},
                {"kind": "scalar", "value": 2.0},
            ],
        }))
        report = tmp_path / "trace.json"
        code = run_cli(
            ["simulate", "--instance", str(inst), "--pricing", "single-item",
             "--order", "2,1", "-o", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["result"]["trace"]["welfare"] == 2.0

    def test_worst_order(self, tmp_path):
        fn = tmp_path / "fn.json"
        run_cli(["catalog", "footnote-lb", "--d", "4", "-o", str(fn)])
        report = tmp_path / "worst.json"
        code = run_cli(
            ["simulate", "--instance", str(fn), "--pricing", "intro-bundle",
             "--order", "all", "-o", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["result"]["worst_order_welfare"] <= 1.0 + 1e-9


    def test_tie_applies_under_adversary_order(self, tmp_path, capsys):
        # on a realized profile the adaptive adversary's value is the worst
        # fixed order's, under every tie policy
        inst = tmp_path / "si.json"
        inst.write_text(json.dumps({
            "environment": {"kind": "single_item", "agents": 2},
            "agents": [
                {"kind": "scalar", "value": 1.0},
                {"kind": "scalar", "value": 2.0},
            ],
        }))
        values = {}
        for order in ("all", "adversary"):
            report = tmp_path / f"{order}.json"
            code = run_cli(
                ["simulate", "--instance", str(inst), "--pricing", "single-item",
                 "--order", order, "--tie", "null", "-o", str(report)]
            )
            assert code == 0
            result = json.loads(report.read_text())["result"]
            values[order] = result.get("worst_order_welfare",
                                       result.get("adaptive_adversary_welfare"))
        assert values == {"all": 2.0, "adversary": 2.0}

    def test_knapsack_sizes_just_above_the_grid_price_alike(self, tmp_path):
        # a size 5e-10 above a grid point is served at it, so the reference
        # welfare, and with it each posted price, is the on-grid document's
        payments = []
        for size in (0.25, 0.25 + 5e-10):
            inst = tmp_path / "k.json"
            inst.write_text(json.dumps({
                "environment": {"kind": "knapsack", "agents": 4, "step": 0.125},
                "agents": [{"kind": "knapsack_threshold", "size": size, "value": 1.0}] * 4,
            }))
            report = tmp_path / "trace.json"
            code = run_cli(
                ["simulate", "--instance", str(inst), "--pricing", "knapsack", "-o", str(report)]
            )
            assert code == 0
            payments.append(json.loads(report.read_text())["result"]["trace"]["payments"])
        assert payments[1] == payments[0] == [2 / 3] * 4

    def test_all_orders_past_eight_agents(self, tmp_path):
        inst = tmp_path / "tp9.json"
        run_cli(["catalog", "two-point", "--n", "9", "--seed", "0", "-o", str(inst)])
        report = tmp_path / "worst.json"
        code = run_cli(
            ["simulate", "--instance", str(inst), "--pricing", "single-item",
             "--order", "all", "-o", str(report)]
        )
        assert code == 0
        assert sorted(json.loads(report.read_text())["result"]["order"]) == list(range(1, 10))


class TestRatioErrors:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--exact"],
            ["--exact", "--order", "adversary"],
            ["--exact", "--order", "all"],
            ["--trials", "10"],
        ],
    )
    def test_zero_expected_optimum_exit_2(self, tmp_path, capsys, flags):
        inst = tmp_path / "zero.json"
        inst.write_text(json.dumps({
            "environment": {"kind": "single_item", "agents": 2},
            "agents": [
                {"kind": "scalar", "value": 0.0},
                {"kind": "scalar", "value": 0.0},
            ],
        }))
        code = run_cli(
            ["ratio", "--instance", str(inst), "--pricing", "single-item",
             "-o", str(tmp_path / "out.csv"), *flags]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: expected optimum is 0")
        assert "Traceback" not in err

    def test_all_orders_exact_cap_exit_3(self, tmp_path, capsys):
        inst = tmp_path / "tp9.json"
        run_cli(["catalog", "two-point", "--n", "9", "--seed", "0", "-o", str(inst)])
        code = run_cli(
            ["ratio", "--instance", str(inst), "--pricing", "single-item",
             "--exact", "--order", "all", "-o", str(tmp_path / "out.csv")]
        )
        assert code == 3
        assert "362880" in capsys.readouterr().err

    def test_exact_random_order_exit_2(self, tight_instance, tmp_path):
        code = run_cli(
            ["ratio", "--instance", str(tight_instance), "--pricing", "single-item",
             "--exact", "--order", "random", "-o", str(tmp_path / "out.csv")]
        )
        assert code == 2


class TestRefusedOrderKinds:
    """An order kind a job does not accept is bad input, refused before the
    parameters or the rule are worked out: uniform rank 4 on 8 elements lists
    163 allocations, past a cap of 100, yet each job exits 2, not 3."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["balance", "--pricing", "matroid", "--order", "random"],
             "balance supports --order all or a fixed permutation"),
            (["ratio", "--pricing", "matroid", "--exact", "--order", "random"],
             "exact ratio supports fixed, all, or adversary orders"),
            (["ratio", "--pricing", "matroid", "--trials", "50", "--order", "adversary"],
             "sampled ratio supports fixed or random orders"),
        ],
        ids=["balance-random", "exact-ratio-random", "sampled-ratio-adversary"],
    )
    def test_exit_2_before_any_work(self, tmp_path, capsys, argv, message):
        inst = tmp_path / "u48.json"
        assert run_cli(["catalog", "matroid", "--kind", "uniform", "--rank", "4",
                        "--ground", "8", "-o", str(inst)]) == 0
        capsys.readouterr()
        code = run_cli([*argv, "--instance", str(inst), "--cap-feasible", "100",
                        "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRatioCap:
    """The ratio command enumerates OPT's feasible list within --cap-feasible,
    like balance does: uniform rank 3 on 6 elements has 42 allocations."""

    @pytest.mark.parametrize("mode", [["--exact"], ["--trials", "50"]], ids=["exact", "sampled"])
    def test_opt_enumeration_counts_against_cap(self, tmp_path, capsys, mode):
        inst = tmp_path / "u36.json"
        assert run_cli(["catalog", "matroid", "--kind", "uniform", "--rank", "3",
                        "--ground", "6", "--seed", "1", "-o", str(inst)]) == 0
        argv = ["ratio", "--instance", str(inst), "--pricing", "matroid", *mode,
                "-o", str(tmp_path / "out.csv")]
        capsys.readouterr()
        assert run_cli([*argv, "--cap-feasible", "5"]) == 3
        assert capsys.readouterr().err == (
            "resource cap exceeded: feasible allocations exceeded cap: 6 > 5\n"
        )
        assert run_cli([*argv, "--cap-feasible", "42"]) == 0

    def test_exact_expected_optimum_takes_the_job_cap(self, tmp_path, monkeypatch):
        """The expected optimum enumerates the support under --cap-feasible,
        as the scaled prices do, not under a cap of its own."""
        import balprice.stochastic

        caps = []
        real = balprice.stochastic.expected_opt

        def recording(env, dist, cap):
            caps.append(cap)
            return real(env, dist, cap)

        monkeypatch.setattr(balprice.stochastic, "expected_opt", recording)
        inst = tmp_path / "tp3.json"
        assert run_cli(["catalog", "two-point", "--n", "3", "-o", str(inst)]) == 0
        argv = ["ratio", "--instance", str(inst), "--pricing", "single-item", "--exact",
                "-o", str(tmp_path / "out.csv")]
        assert run_cli([*argv, "--cap-feasible", "150000"]) == 0
        monkeypatch.setenv("BALPRICE_CAP", "8")
        assert run_cli(argv) == 0
        assert caps == [150000, 8]


class TestExactRatioRows:
    """``ratio --exact`` decides each order kind through ``exact_ratio``: the
    CSV rows below were recorded before it did, when the command composed
    the fixed, adversary and all-orders ratios itself.  On the two catalog
    documents the adversary's welfare equals the worst fixed order's; on the
    two-point matroid (``helpers.two_point_matroid``, uniform rank 3 on 5
    elements, seed 1) the three order kinds give three welfares."""

    ROWS = {
        ("two-point", ()): "tp.json,single-item,fixed,0,0,1.63623046875,"
                           "1.6900634765625,0.9681473456121343,0.0,balprice.ratio.v1",
        ("two-point", ("--order", "adversary")): "tp.json,single-item,adversary,0,0,"
                                                 "1.59423828125,1.6900634765625,"
                                                 "0.9433008306247743,0.0,balprice.ratio.v1",
        ("two-point", ("--order", "all")): "tp.json,single-item,all,0,0,1.59423828125,"
                                           "1.6900634765625,0.9433008306247743,0.0,"
                                           "balprice.ratio.v1",
        ("tight-prophet", ()): "tp.json,single-item,fixed,0,0,1.0,1.99,0.5025125628140703,"
                               "0.0,balprice.ratio.v1",
        ("tight-prophet", ("--order", "adversary")): "tp.json,single-item,adversary,0,0,1.0,"
                                                     "1.99,0.5025125628140703,0.0,"
                                                     "balprice.ratio.v1",
        ("tight-prophet", ("--order", "all")): "tp.json,single-item,all,0,0,1.0,1.99,"
                                               "0.5025125628140703,0.0,balprice.ratio.v1",
        ("tight-prophet", ("--order", "2,1")): 'tp.json,single-item,"2,1",0,0,1.99,1.99,1.0,'
                                               "0.0,balprice.ratio.v1",
        ("two-point-matroid", ()): "tp.json,matroid,fixed,0,0,2.8253936767578125,"
                                   "3.1218719482421875,0.9050318922749823,0.0,balprice.ratio.v1",
        ("two-point-matroid", ("--order", "adversary")): "tp.json,matroid,adversary,0,0,"
                                                         "2.7787933349609375,3.1218719482421875,"
                                                         "0.8901048412717808,0.0,"
                                                         "balprice.ratio.v1",
        ("two-point-matroid", ("--order", "all")): "tp.json,matroid,all,0,0,2.7943115234375,"
                                                   "3.1218719482421875,0.8950756372345365,0.0,"
                                                   "balprice.ratio.v1",
    }
    CATALOG = {"two-point": ["--n", "5", "--seed", "1"], "tight-prophet": []}

    def _write_instance(self, name) -> str:
        """Write ``name``'s document to tp.json; return its pricing flag."""
        if name == "two-point-matroid":
            env, dist = two_point_matroid("uniform", 1, ground=5, rank=3)
            profile = tuple(atoms[0][0] for atoms in dist.supports)
            with open("tp.json", "w", encoding="utf-8") as fh:
                fh.write(Instance(env, profile, dist).to_json())
            return "matroid"
        assert run_cli(["catalog", name, *self.CATALOG[name], "-o", "tp.json"]) == 0
        return "single-item"

    @pytest.mark.parametrize("name, order", list(ROWS), ids=[
        f"{name}-{' '.join(order) or 'fixed'}" for name, order in ROWS
    ])
    def test_row(self, tmp_path, monkeypatch, name, order):
        monkeypatch.chdir(tmp_path)
        pricing = self._write_instance(name)
        argv = ["ratio", "--instance", "tp.json", "--pricing", pricing, "--exact", *order]
        assert run_cli([*argv, "-o", "out.csv"]) == 0
        row = (tmp_path / "out.csv").read_text().splitlines()[1]
        assert repr(row) == repr(self.ROWS[name, order])

    def test_support_profiles_count_against_the_cap(self, tmp_path, monkeypatch, capsys):
        """Two-point n = 5 lists 6 allocations over 32 support profiles."""
        monkeypatch.chdir(tmp_path)
        assert run_cli(["catalog", "two-point", "--n", "5", "--seed", "1", "-o", "tp.json"]) == 0
        argv = ["ratio", "--instance", "tp.json", "--pricing", "single-item", "--exact",
                "--order", "all", "-o", "out.csv"]
        capsys.readouterr()
        assert run_cli([*argv, "--cap-feasible", "20"]) == 3
        assert capsys.readouterr().err == (
            "resource cap exceeded: distribution support profiles exceeded cap: 32 > 20\n"
        )
        assert run_cli([*argv, "--cap-feasible", "32"]) == 0


class TestParamsFromFlags:
    def test_defaults_computed_only_for_unset_flags(self, tmp_path, capsys):
        """alg1-greedy's default parameters scan 4^3 bid vectors for the
        permeability; with every parameter given, that scan never runs."""
        inst, report = tmp_path / "u13.json", tmp_path / "report.json"
        assert run_cli(["catalog", "matroid", "--kind", "uniform", "--rank", "1",
                        "--ground", "3", "--seed", "1", "-o", str(inst)]) == 0
        argv = ["balance", "--instance", str(inst), "--pricing", "alg1-greedy",
                "--beta1", "0", "--beta2", "1", "--cap-feasible", "10", "-o", str(report)]
        assert run_cli([*argv, "--alpha", "1"]) in (0, 1)
        params = json.loads(report.read_text())["result"]["params"]
        assert params == {"alpha": 1.0, "beta": None, "beta1": 0.0, "beta2": 1.0}
        capsys.readouterr()
        assert run_cli(argv) == 3
        assert "bid vectors exceeded cap: 64 > 10" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["balance", "simulate", "ratio"])
    @pytest.mark.parametrize("flags", [
        ("--alpha", "nan"), ("--alpha", "inf"), ("--beta", "nan"), ("--beta", "inf"),
        ("--beta", "-1"), ("--beta1", "-1", "--beta2", "1"), ("--beta1", "0", "--beta2", "nan"),
    ])
    def test_unbounded_or_negative_parameter_exits_2(self, tight_instance, capsys, command, flags):
        # a NaN alpha once passed the positivity test and certified a PASS,
        # and a negative beta posted negative prices (exit 0 both)
        argv = [command, "--instance", str(tight_instance), "--pricing", "single-item", *flags]
        if command == "ratio":
            argv.append("--exact")
        capsys.readouterr()
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(("error: --alpha ", "error: --beta", "error: beta"))
        assert captured.err.count("\n") == 1


class TestPathErrors:
    """A path that names a directory is an input error, exit 2 with one
    line, never a traceback with exit 1 (which means a certificate failed)."""

    def test_instance_directory_exits_2(self, tmp_path, capsys):
        assert run_cli(["balance", "--instance", str(tmp_path), "--pricing", "single-item"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_output_directory_exits_2(self, tight_instance, tmp_path, capsys):
        argv = ["balance", "--instance", str(tight_instance), "--pricing", "single-item",
                "-o", str(tmp_path)]
        capsys.readouterr()
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.endswith(f"error: [Errno 21] Is a directory: '{tmp_path}'\n")

    @pytest.mark.parametrize("argv,name,message", [
        (["balance", "--pricing", "single-item"], None, "[Errno 21] Is a directory"),
        (["ratio", "--pricing", "single-item", "--exact"], None, "[Errno 21] Is a directory"),
        (["permeability"], None, "[Errno 21] Is a directory"),
        (["balance", "--pricing", "single-item"], "missing/out.json", "[Errno 2] No such file or directory"),
        (["catalog", "tight-prophet"], "missing/out.json", "[Errno 2] No such file or directory"),
    ], ids=["balance-dir", "ratio-dir", "permeability-dir", "balance-missing", "catalog-missing"])
    def test_bad_output_refused_before_the_job(self, tight_instance, tmp_path, capsys, argv, name, message):
        """``-o`` naming a directory, or a path under a missing one, exits 2
        before the instance is loaded: nothing on stdout, the one error line
        ``open`` gives, and no file made."""
        out = tmp_path / "out"
        out.mkdir()
        target = str(out if name is None else out / name)
        instance = [] if argv[0] == "catalog" else ["--instance", str(tight_instance)]
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run_cli([*argv, *instance, "-o", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}: {target!r}\n"
        assert sorted(tmp_path.rglob("*")) == before


# key -> (catalog arguments, environment kind): one small instance per kind
MATRIX_INSTANCES = {
    "two-point": (["two-point", "--n", "3"], "single_item"),
    "tight-prophet": (["tight-prophet"], "single_item"),
    "matroid": (["matroid", "--kind", "uniform", "--rank", "1", "--ground", "3"], "matroid"),
    "xos": (["xos", "--n", "2", "--m", "2"], "combinatorial_auction"),
    "mph": (["mph", "--n", "2", "--m", "2"], "combinatorial_auction"),
    "knapsack": (["knapsack", "--n", "2"], "knapsack"),
    "pip": (["pip", "--n", "3"], "pip"),
    "product": (["product-single-items", "--n", "2"], "product"),
}
# every agent of these instances has one non-null outcome; knapsack agents
# have a grid of sizes, auction agents bundles, product agents per-market tuples
BINARY_KINDS = {"single_item", "matroid", "pip"}
APPLIES = {
    "single-item": {"single_item"},
    "intro-bundle": {"combinatorial_auction"},
    "xos": {"combinatorial_auction"},
    "mph": {"combinatorial_auction"},
    "fractional-ca": {"combinatorial_auction"},
    "knapsack": {"knapsack"},
    "pip": {"pip"},
    "matroid": {"matroid"},
    "warmup": BINARY_KINDS,
    "alg1-greedy": BINARY_KINDS,
    "alg2-opt": BINARY_KINDS,
    "compose-add": {"product"},
    "compose-max": {"matroid", "combinatorial_auction"},
}


@pytest.fixture(scope="module")
def matrix_instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrix")
    paths = {}
    for key, (argv, _) in MATRIX_INSTANCES.items():
        paths[key] = root / f"{key}.json"
        assert main(["catalog", *argv, "-o", str(paths[key])]) == 0
    return paths


class TestConstructionMatrix:
    """Every construction through balance, simulate and ratio --exact on one
    small instance per environment kind: no exception leaves main, and a
    construction that does not apply exits 2 with one line naming both."""

    def test_every_construction_listed(self):
        assert set(APPLIES) == set(CONSTRUCTIONS)

    @pytest.mark.parametrize(
        "command,allowed",
        [(["balance"], {0, 1, 2, 3}), (["simulate"], {0, 2, 3}), (["ratio", "--exact"], {0, 2, 3})],
        ids=["balance", "simulate", "ratio-exact"],
    )
    @pytest.mark.parametrize("key", list(MATRIX_INSTANCES))
    def test_exit_codes(self, matrix_instances, capsys, key, command, allowed):
        kind = MATRIX_INSTANCES[key][1]
        for name in sorted(CONSTRUCTIONS):
            capsys.readouterr()
            code = main([command[0], "--instance", str(matrix_instances[key]),
                         "--pricing", name, *command[1:]])
            err = capsys.readouterr().err
            if kind in APPLIES[name]:
                assert code in allowed, (name, code, err)
            else:
                assert (code, err) == (
                    2, f"error: --pricing {name} does not apply to a {kind} environment\n"
                ), name


class TestCapMessages:
    """Exit 3 names what was counted past the cap."""

    def test_balance_feasible_cap(self, matroid_instance, capsys):
        code = run_cli(
            ["balance", "--instance", str(matroid_instance), "--pricing", "matroid",
             "--cap-feasible", "2"]
        )
        assert code == 3
        assert "feasible allocations exceeded cap: 3 > 2" in capsys.readouterr().err

    def test_simulate_compose_max_feasible_cap(self, tmp_path, capsys):
        """compose-max on an auction takes OPT per profile, and that
        enumeration counts against --cap-feasible like every other."""
        inst = tmp_path / "xos.json"
        assert run_cli(["catalog", "xos", "--n", "2", "--m", "2", "-o", str(inst)]) == 0
        capsys.readouterr()
        code = run_cli(["simulate", "--instance", str(inst), "--pricing", "compose-max",
                        "--cap-feasible", "2"])
        assert code == 3
        assert "feasible allocations exceeded cap: 3 > 2" in capsys.readouterr().err

    def test_exact_all_orders_cap(self, tmp_path, capsys):
        inst = tmp_path / "tp9.json"
        run_cli(["catalog", "two-point", "--n", "9", "--seed", "0", "-o", str(inst)])
        code = run_cli(
            ["ratio", "--instance", str(inst), "--pricing", "single-item",
             "--exact", "--order", "all", "-o", str(tmp_path / "out.csv")]
        )
        assert code == 3
        assert "agent orders exceeded cap: 362880 > 100000" in capsys.readouterr().err

    def test_evaluator_memo_cap(self, tight_instance, monkeypatch, capsys):
        import balprice.cli
        from balprice.mechanism import adaptive_adversary_welfare

        monkeypatch.setattr(
            balprice.cli, "adaptive_adversary_welfare",
            functools.partial(adaptive_adversary_welfare, cap=1),
        )
        code = run_cli(
            ["simulate", "--instance", str(tight_instance), "--pricing", "single-item",
             "--order", "adversary"]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "evaluator memo states exceeded cap: 2 > 1" in err
        assert "Traceback" not in err


class TestCapFromEnvironment:
    """``BALPRICE_CAP`` sets the default cap; it is read on every call, inside
    the error handling, while the parser is built once per process."""

    def _balance(self, instance, report):
        return run_cli(["balance", "--instance", str(instance), "--pricing", "matroid",
                        "-o", str(report)])

    def test_changed_cap_takes_effect_between_calls(self, matroid_instance, tmp_path, monkeypatch):
        report = tmp_path / "report.json"
        monkeypatch.setenv("BALPRICE_CAP", "2")
        assert self._balance(matroid_instance, report) == 3
        monkeypatch.setenv("BALPRICE_CAP", "1000")
        assert self._balance(matroid_instance, report) in (0, 1)
        assert json.loads(report.read_text())["config"]["cap_feasible"] == 1000
        monkeypatch.delenv("BALPRICE_CAP")
        assert self._balance(matroid_instance, report) in (0, 1)
        assert json.loads(report.read_text())["config"]["cap_feasible"] == 200_000

    def test_bad_cap_exits_2(self, matroid_instance, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BALPRICE_CAP", "abc")
        capsys.readouterr()
        assert self._balance(matroid_instance, tmp_path / "report.json") == 2
        assert capsys.readouterr().err == "error: BALPRICE_CAP must be an integer, got 'abc'\n"

    def test_parser_is_built_once(self, matroid_instance, tmp_path):
        import balprice.cli

        for _ in range(2):
            self._balance(matroid_instance, tmp_path / "report.json")
        assert balprice.cli._parser.cache_info().misses == 1


class TestPermeabilityCommand:
    def test_uniform_matroid_gamma_one(self, matroid_instance, capsys):
        assert run_cli(["permeability", "--instance", str(matroid_instance)]) == 0
        out = capsys.readouterr().out
        assert "permeability(opt)" in out

    def test_classes_and_scan_size_on_stderr(self, tmp_path, matroid_instance, capsys):
        inst = tmp_path / "u6.json"
        assert run_cli(["catalog", "matroid", "--kind", "uniform", "--rank", "3",
                        "--ground", "6", "--seed", "1", "-o", str(inst)]) == 0
        capsys.readouterr()
        assert run_cli(["permeability", "--instance", str(inst)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "permeability(opt): agent classes {0,1,2,3,4,5}; "
            "462 of 46656 bid vectors, one per orbit\n"
        )
        assert captured.out.startswith("permeability(opt) >= 1 on grid [0.0, 0.25, ")
        argv = ["permeability", "--instance", str(matroid_instance), "--rule", "greedy"]
        assert run_cli([*argv, "--grid", "0,1,1"]) == 0
        assert capsys.readouterr().err == (
            "permeability(greedy): agent classes {0} {1} {2} {3}; "
            "16 of 16 bid vectors, one per orbit\n"
        )

    def test_reports_the_grid_it_scanned(self, matroid_instance, tmp_path, capsys):
        # a duplicated, unsorted grid is scanned as its sorted distinct
        # values, and shown and written as such
        report = tmp_path / "report.json"
        argv = ["permeability", "--instance", str(matroid_instance), "--rule", "greedy"]
        assert run_cli([*argv, "--grid", "1,0,1", "-o", str(report)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "permeability(greedy) >= 1 on grid [0.0, 1.0]\n"
        assert "16 of 16 bid vectors" in captured.err
        assert json.loads(report.read_text())["result"]["grid"] == [0.0, 1.0]

    def test_sorted_distinct_grid_report_unchanged(self, matroid_instance, capsys):
        argv = ["permeability", "--instance", str(matroid_instance), "--rule", "greedy",
                "--grid", "0,0.5,1"]
        assert run_cli(argv) == 0
        config = (
            '  "alpha": null,\n  "beta": null,\n  "beta1": null,\n  "beta2": null,\n'
            '  "cap_feasible": 200000,\n  "exact": null,\n'
            f'  "instance": {json.dumps(str(matroid_instance))},\n'
            '  "order": null,\n  "output": null,\n  "pricing": null,\n  "rule": "greedy",\n'
            '  "seed": null,\n  "subcommand": "permeability",\n  "tie": null,\n  "trials": null\n'
        )
        assert capsys.readouterr().out == (
            "permeability(greedy) >= 1 on grid [0.0, 0.5, 1.0]\n"
            '{\n "config": {\n' + config + ' },\n'
            ' "result": {\n  "gamma": 1.0,\n  "grid": [\n   0.0,\n   0.5,\n   1.0\n  ],\n'
            '  "unbounded": false\n },\n "schema": "balprice.report.v1"\n}\n'
        )

    @pytest.mark.parametrize("rule", ["opt", "greedy"])
    def test_report_config_names_the_rule(self, matroid_instance, tmp_path, rule):
        report = tmp_path / "report.json"
        argv = ["permeability", "--instance", str(matroid_instance), "--rule", rule]
        assert run_cli([*argv, "--grid", "0,1", "-o", str(report)]) == 0
        assert json.loads(report.read_text())["config"]["rule"] == rule

    def test_empty_grid_exits_2(self, matroid_instance, capsys):
        # an empty --grid once scanned the default grid and exited 0
        capsys.readouterr()
        argv = ["permeability", "--instance", str(matroid_instance), "--grid", ""]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --grid entry must be a number, got ''\n"

    @pytest.mark.parametrize("rule", ["opt", "greedy"])
    @pytest.mark.parametrize("grid", [[], ["--grid", "0,1"]], ids=["default-grid", "grid"])
    def test_non_binary_environment_exits_2(self, tmp_path, capsys, rule, grid):
        inst = tmp_path / "triangle.json"
        assert run_cli(["catalog", "triangle", "-o", str(inst)]) == 0
        capsys.readouterr()
        assert run_cli(["permeability", "--instance", str(inst), "--rule", rule, *grid]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: permeability requires a binary single-parameter environment, "
            "not a combinatorial_auction environment\n"
        )

    @pytest.mark.parametrize("grid", ["0,nan", "0,inf", "0,1e308,1.7e308", "0,abc"])
    def test_bad_grid_entry_exits_2(self, matroid_instance, capsys, grid):
        # an unbounded entry once gave nan in the grid (exit 0) or an
        # OverflowError traceback (exit 1)
        capsys.readouterr()
        argv = ["permeability", "--instance", str(matroid_instance), "--grid", grid]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --grid entry must ")
        assert captured.err.count("\n") == 1


class TestCatalogCommand:
    def test_emits_parseable_instance(self, tmp_path):
        path = tmp_path / "f.json"
        assert run_cli(["catalog", "footnote-lb", "--d", "4", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["environment"]["items"] == 4

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["catalog", "mph", "--n", "2", "--m", "3", "--seed", "4", "-o", str(a)])
        run_cli(["catalog", "mph", "--n", "2", "--m", "3", "--seed", "4", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestReproducibility:
    def test_reports_are_byte_identical_across_reruns(self, matroid_instance, tmp_path):
        out = tmp_path / "report.json"
        argv = ["balance", "--instance", str(matroid_instance), "--pricing", "matroid",
                "-o", str(out)]
        assert run_cli(argv) == 0
        first = out.read_bytes()
        assert run_cli(argv) == 0
        assert out.read_bytes() == first

    def test_rerun_from_embedded_config(self, tight_instance, tmp_path):
        first = tmp_path / "first.json"
        run_cli(["simulate", "--instance", str(tight_instance), "--pricing",
                 "single-item", "--order", "1,2", "-o", str(first)])
        config = json.loads(first.read_text())["config"]
        argv = ["simulate", "--instance", config["instance"], "--pricing",
                config["pricing"], "--order", config["order"], "--tie", config["tie"],
                "-o", str(tmp_path / "second.json")]
        assert run_cli(argv) == 0
        assert (tmp_path / "second.json").read_bytes() == first.read_bytes().replace(
            b"first.json", b"second.json"
        )


class TestOrderModes:
    def test_ratio_adversary_order(self, tight_instance, tmp_path, capsys):
        out = tmp_path / "adv.csv"
        code = run_cli(
            ["ratio", "--instance", str(tight_instance), "--pricing", "single-item",
             "--exact", "--order", "adversary", "-o", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # the adversary can at best hold the tight instance to its guarantee
        assert float(rows[0]["ratio"]) >= 0.5 - 1e-9

    def test_ratio_all_orders(self, tight_instance, tmp_path):
        out = tmp_path / "all.csv"
        code = run_cli(
            ["ratio", "--instance", str(tight_instance), "--pricing", "single-item",
             "--exact", "--order", "all", "-o", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["ratio"]) >= 0.5 - 1e-9


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "si.json"
        proc = subprocess.run(
            [sys.executable, "-m", "balprice.cli", "catalog", "tight-prophet",
             "-o", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert path.exists()
