import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import gds
from gds import (
    GeometricDataSet,
    box_heuristic,
    dconc_heuristic,
    emit_gds,
    n_point_discrete,
    parse_gds,
    random_gds,
    singleton_gds,
)
from gds.cli import main
from gds.numerics import Q


def write_dataset(tmp_path, name, X):
    p = tmp_path / name
    p.write_text(emit_gds(X))
    return str(p)


def feed_stdin(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestDconc:
    def test_exact_value_with_generated_inputs(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, emit_gds(n_point_discrete(3)))
        payload = run_json(capsys, ["dconc", "--other", "singleton:1", "--exact"])
        assert payload["exact"] == "1/3"
        assert abs(payload["value"] - 1 / 3) < 1e-9

    def test_two_file_inputs(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", n_point_discrete(2))
        b = write_dataset(tmp_path, "b.json", singleton_gds([1]))
        payload = run_json(capsys, ["dconc", a, b])
        assert payload["exact"] == "1/2"

    def test_heuristic_reports_a_valid_upper_bound(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", random_gds(3, 2, seed=1))
        b = write_dataset(tmp_path, "b.json", random_gds(3, 2, seed=2))
        exact = run_json(capsys, ["dconc", a, b])
        approx = run_json(capsys, ["dconc", "--heuristic", a, b])
        assert approx["value"] >= exact["value"] - 1e-12

    def test_bounds_bracket_the_value(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", random_gds(3, 2, seed=3))
        b = write_dataset(tmp_path, "b.json", random_gds(2, 2, seed=4))
        exact = run_json(capsys, ["dconc", a, b])
        bounds = run_json(capsys, ["dconc", "--bounds", a, b])
        assert bounds["lower"]["value"] - 1e-12 <= exact["value"]
        assert exact["value"] <= bounds["upper"]["value"] + 1e-12

    def test_budget_exit_code(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", random_gds(3, 3, seed=5))
        b = write_dataset(tmp_path, "b.json", random_gds(3, 3, seed=6))
        code = main(["dconc", "--budget", "4", a, b])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("gds: budget:")

    def test_budget_fallback_with_heuristic(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", random_gds(3, 3, seed=5))
        b = write_dataset(tmp_path, "b.json", random_gds(3, 3, seed=6))
        payload = run_json(
            capsys, ["dconc", "--exact", "--heuristic", "--budget", "4", a, b]
        )
        assert "note" in payload
        assert payload["value"] >= 0

    @pytest.mark.parametrize("budget", [0, 1, 5])
    def test_heuristic_budget_is_passed_as_given(self, capsys, tmp_path, budget):
        X, Y = random_gds(3, 2, seed=1), random_gds(3, 2, seed=2)
        a = write_dataset(tmp_path, "a.json", X)
        b = write_dataset(tmp_path, "b.json", Y)
        value, _ = dconc_heuristic(X, Y, budget=budget)
        argv = ["--budget", str(budget), a, b]
        payload = run_json(capsys, ["dconc", "--heuristic"] + argv)
        assert payload["exact"] == str(value)
        payload = run_json(capsys, ["dconc", "--bounds"] + argv)
        assert payload["upper"]["exact"] == str(value)


class TestBox:
    @pytest.mark.parametrize("budget", [0, 1, 5])
    def test_heuristic_budget_is_passed_as_given(self, capsys, tmp_path, budget):
        # --budget 0 used to be read as "no budget" and ran 400 evaluations:
        # on this pair that printed 3/4 where budget 0 scores 1.
        X, Y = random_gds(3, 2, seed=1), random_gds(3, 2, seed=2)
        a = write_dataset(tmp_path, "a.json", X)
        b = write_dataset(tmp_path, "b.json", Y)
        payload = run_json(capsys, ["box", "--heuristic", "--budget", str(budget), a, b])
        assert payload["exact"] == str(box_heuristic(X, Y, budget=budget))
        if budget == 0:
            assert payload["exact"] == "1"

    def test_exact_payload_includes_cells(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", random_gds(2, 2, seed=7))
        b = write_dataset(tmp_path, "b.json", random_gds(2, 2, seed=8))
        payload = run_json(capsys, ["box", a, b])
        assert isinstance(payload["cells"], list)
        for cell in payload["cells"]:
            assert len(cell) == 2

    def test_mm_variant(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", random_gds(2, 2, seed=9))
        b = write_dataset(tmp_path, "b.json", random_gds(2, 2, seed=10))
        mm = run_json(capsys, ["box", "--mm", a, b])
        full = run_json(capsys, ["box", a, b])
        assert mm["value"] <= full["value"] + 1e-12

    def test_cell_budget_flag_and_env(self, capsys, tmp_path, monkeypatch):
        a = write_dataset(tmp_path, "a.json", random_gds(5, 1, seed=11))
        b = write_dataset(tmp_path, "b.json", random_gds(4, 1, seed=12))
        assert main(["box", a, b]) == 3
        capsys.readouterr()
        payload = run_json(capsys, ["box", "--cells", "20", a, b])
        assert payload["value"] is not None
        monkeypatch.setenv("GDS_BUDGET_CELLS", "20")
        payload = run_json(capsys, ["box", a, b])
        assert payload["value"] is not None


    def test_mm_declines_before_converting(self, capsys, tmp_path, monkeypatch):
        # An MmSpace re-checks its metric in O(n**3): two 80-point inputs
        # once spent seconds there before the cell budget declined them.
        # box --mm hands the data sets to box_mm_exact as they are, so no
        # MmSpace is built, over the budget or within it.
        def refuse(self):
            raise AssertionError("box --mm built an MmSpace")

        monkeypatch.setattr(gds.core.MmSpace, "__post_init__", refuse)
        a = write_dataset(tmp_path, "a.json", random_gds(40, 2, seed=13))
        b = write_dataset(tmp_path, "b.json", random_gds(40, 2, seed=14))
        assert main(["box", "--mm", a, b]) == 3
        err = capsys.readouterr().err
        assert err == "gds: budget: 1600 cells exceed the exact budget 16\n"
        a = write_dataset(tmp_path, "a.json", random_gds(4, 2, seed=41))
        b = write_dataset(tmp_path, "b.json", random_gds(4, 2, seed=42))
        payload = run_json(capsys, ["box", "--mm", a, b])
        assert payload == {
            "command": "box", "method": "mm-exact", "value": 0.25, "exact": "1/4"
        }


class TestDiameters:
    def test_od_single_kappa(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", n_point_discrete(4))
        payload = run_json(capsys, ["od", "--kappa", "1/8", a])
        assert payload["exact"] == "1"

    def test_od_grid_csv(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", n_point_discrete(2))
        code = main(["od", a])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("kappa")
        assert len(lines) >= 2

    def test_pd_requires_alpha(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", n_point_discrete(2))
        with pytest.raises(SystemExit):
            main(["pd", a])

    def test_pd_single_feature(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", n_point_discrete(2))
        payload = run_json(capsys, ["pd", "--alpha", "1", "--feature", "d0", a])
        assert payload["exact"] == "1"

    @pytest.mark.parametrize(
        "argv", [["od", "--kappa", "1/8"], ["pd", "--alpha", "1", "--feature", "d0"]]
    )
    def test_single_value_goes_to_the_output_file(self, capsys, tmp_path, argv):
        # -o once left a single-value payload on stdout and wrote no file.
        a = write_dataset(tmp_path, "a.json", n_point_discrete(4))
        target = tmp_path / "out.json"
        assert main(argv + [a, "-o", str(target)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text())
        assert payload["command"] == argv[0]
        assert payload["exact"] == "1"

    @pytest.mark.parametrize(
        "argv", [["od", "--kappa", "1/8"], ["pd", "--alpha", "1", "--feature", "d0"]]
    )
    def test_single_value_to_an_unwritable_path(self, capsys, tmp_path, argv):
        a = write_dataset(tmp_path, "a.json", n_point_discrete(4))
        target = str(tmp_path / "missing" / "out.json")
        assert main(argv + [a, "-o", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"gds: cannot write {target}: ")


class TestMeasureCommands:
    def test_prohorov_identical(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", random_gds(3, 2, seed=13))
        payload = run_json(capsys, ["prohorov", a, a])
        assert payload["value"] == 0

    def test_prohorov_rejects_mismatched_metrics(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", random_gds(3, 2, seed=13))
        b = write_dataset(tmp_path, "b.json", random_gds(3, 2, seed=14))
        code = main(["prohorov", a, b])
        assert code == 2
        assert capsys.readouterr().err.startswith("gds:")

    def test_kyfan_between_features(self, capsys, tmp_path):
        # rows differ by one unit on two of the three points
        a = write_dataset(tmp_path, "a.json", n_point_discrete(3))
        payload = run_json(capsys, ["kyfan", "-f", "d0", "-g", "d1", a])
        assert payload["exact"] == "2/3"


class TestStructureCommands:
    def test_quotient_mapping_on_stderr(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", n_point_discrete(4))
        code = main(["quotient", "--by", "d0,d1", a])
        captured = capsys.readouterr()
        assert code == 0
        quotient = parse_gds(captured.out)
        assert quotient.n == 3
        assert json.loads(captured.err)["mapping"] == [0, 1, 2, 2]

    def test_quotient_unknown_label(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", n_point_discrete(2))
        assert main(["quotient", "--by", "zebra", a]) == 2

    def test_product_shapes(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", n_point_discrete(2))
        b = write_dataset(tmp_path, "b.json", n_point_discrete(3))
        code = main(["product", a, b])
        out = capsys.readouterr().out
        assert code == 0
        assert parse_gds(out).n == 6

    def test_check_domination_verdicts(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", singleton_gds([0]))
        b = write_dataset(tmp_path, "b.json", singleton_gds([1]))
        payload = run_json(capsys, ["check", "domination", a, b])
        assert payload["verdict"] is False
        payload = run_json(capsys, ["check", "domination", a, a])
        assert payload["verdict"] is True
        assert payload["witness"] == [0]


class TestGen:
    def test_singleton(self, capsys):
        payload = main(["gen", "singleton", "--values", "0,1/2"])
        out = capsys.readouterr().out
        assert payload == 0
        X = parse_gds(out)
        assert X.n == 1 and X.k == 2

    def test_discrete_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main(["gen", "discrete", "--n", "3", "-o", str(target)]) == 0
        assert parse_gds(target.read_text()).n == 3

    def test_random_deterministic(self, capsys):
        assert main(["gen", "random", "--n", "3", "--k", "2", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "random", "--n", "3", "--k", "2", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_random_float_mode(self, capsys):
        assert main(["gen", "random", "--n", "3", "--k", "2", "--mode", "float"]) == 0
        weights = json.loads(capsys.readouterr().out)["weights"]
        assert not any("/" in w for w in weights)

    def test_levy_member(self, capsys):
        assert main(["gen", "levy", "--family", "discrete", "--n", "4"]) == 0
        X = parse_gds(capsys.readouterr().out)
        assert X.n == 4

    def test_levy_float_mode(self, capsys):
        assert main(["gen", "levy", "--n", "3", "--mode", "float"]) == 0
        weights = json.loads(capsys.readouterr().out)["weights"]
        assert not any("/" in w for w in weights)

    def test_levy_builds_only_the_emitted_member(self, capsys, monkeypatch):
        built = []

        def counted(N, mode="exact"):
            built.append(N)
            return n_point_discrete(N, mode)

        monkeypatch.setattr(gds.cli, "n_point_discrete", counted)
        monkeypatch.setattr(gds.spaces, "n_point_discrete", counted)
        assert main(["gen", "levy", "--n", "5"]) == 0
        assert parse_gds(capsys.readouterr().out).n == 5
        assert built == [5]

    def test_levy_table(self, capsys):
        assert main(["gen", "levy", "--family", "discrete", "--n", "3", "--table"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "member"
        assert len(lines) == 4


class TestErrorsAndModes:
    def test_missing_file(self, capsys):
        assert main(["od", "--kappa", "0", "/nonexistent.json"]) == 2
        assert capsys.readouterr().err.startswith("gds:")

    def test_bad_json_on_stdin(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "{broken")
        assert main(["od", "--kappa", "0", "-"]) == 2

    def test_bad_mode_env(self, capsys, monkeypatch, tmp_path):
        a = write_dataset(tmp_path, "a.json", n_point_discrete(2))
        monkeypatch.setenv("GDS_MODE", "quantum")
        assert main(["od", "--kappa", "0", a]) == 2

    @pytest.mark.parametrize("command", ["box", "dconc"])
    def test_float_weights_one_tolerance_apart_exit_2(self, capsys, tmp_path, command):
        # Both totals are within FLOAT_TOL of 1 but 1.8e-9 apart, so no
        # witness coupling keeps its marginals within FLOAT_TOL.
        X = GeometricDataSet.build([[0.0, 1.0]], [0.5, 0.5 + 0.9e-9], mode="float")
        Y = GeometricDataSet.build([[0.0, 0.5]], [0.5, 0.5 - 0.9e-9], mode="float")
        a = write_dataset(tmp_path, "a.json", X)
        b = write_dataset(tmp_path, "b.json", Y)
        assert main([command, "--mode", "float", a, b]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "gds: invalid input: marginals carry different total mass\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "domination", "A", "--other", "singleton:1", "--budget", "-1"],
            ["dconc", "A", "--other", "random:3,2,9", "--heuristic", "--budget", "-3"],
            ["dconc", "A", "--other", "random:3,2,9", "--exact", "--budget", "-1"],
            ["dconc", "A", "--other", "random:3,2,9", "--exact", "--heuristic", "--budget", "-1"],
            ["dconc", "A", "--other", "random:3,2,9", "--bounds", "--budget", "-1"],
            ["box", "A", "--other", "random:3,2,9", "--heuristic", "--budget", "-1"],
            ["box", "A", "--other", "random:3,2,9", "--budget", "-1"],
        ],
    )
    def test_negative_budget_is_invalid_input(self, capsys, tmp_path, argv):
        # A negative --budget is refused like --cells 0, not declined as a
        # budget (exit 3) nor run as if it were 1.
        a = write_dataset(tmp_path, "a.json", random_gds(3, 2, seed=3))
        assert main([a if arg == "A" else arg for arg in argv]) == 2
        assert capsys.readouterr() == ("", "gds: budget must be at least 0\n")

    def test_float_mode_flag(self, capsys, tmp_path):
        a = write_dataset(tmp_path, "a.json", n_point_discrete(3))
        payload = run_json(capsys, ["od", "--mode", "float", "--kappa", "0.1", a])
        assert "exact" not in payload
        assert abs(payload["value"] - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "mode, weights, values",
        [
            ("float", ["nan", "1/2"], ["0", "1"]),
            ("float", ["1/2", "1/2"], ["0", "inf"]),
            ("exact", ["1/2", "1/2"], ["0", "1e999999"]),
            ("exact", ["1/2", "1/2"], ["0", "1e-999999"]),
            ("exact", ["1/2", "1/2"], ["0", "1e400"]),
        ],
    )
    def test_non_finite_and_oversized_numbers(
        self, capsys, tmp_path, mode, weights, values
    ):
        doc = {"points": ["p0", "p1"], "weights": weights, "features": {"f0": values}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["od", "--mode", mode, "--kappa", "0", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gds: dataset document:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["od", "--kappa", "abc"],
            ["od", "--mode", "float", "--kappa", "nan"],
            ["od", "--step", "1/0"],
            ["pd", "--alpha", "1e400"],
        ],
    )
    def test_malformed_numeric_options(self, capsys, tmp_path, argv):
        path = write_dataset(tmp_path, "x.json", n_point_discrete(2))
        assert main(argv + [path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"gds: {argv[-2]}:")

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_od_refuses_negative_kappa(self, capsys, tmp_path, mode):
        path = write_dataset(tmp_path, "x.json", n_point_discrete(2))
        assert main(["od", "--mode", mode, "--kappa", "-1", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gds: invalid input: observable diameter needs kappa")

    def test_verify_refuses_negative_trials(self, capsys):
        assert main(["verify", "--trials", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gds: invalid input: trials")

    def test_verify_smoke(self, capsys):
        assert main(["verify", "--trials", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("theorem suite:")
        assert "result: ok" in out


# Numbers as a document might hold them: mostly sound, some malformed,
# non-finite, huge or of the wrong JSON type.
odd_numbers = st.one_of(
    st.integers(-2, 5),
    st.builds("{}/{}".format, st.integers(-2, 5), st.integers(0, 5)),
    st.sampled_from(
        ["0.25", "-1", "nan", "inf", "1e400", "1e-400", "1e999999", "abc", "", "1_0"]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def documents(draw):
    """A sound dataset document, one with a damaged part, or any JSON."""
    n = draw(st.integers(1, 4))
    raw = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    value = st.one_of(
        st.integers(0, 4).map(str),
        st.builds("{}/{}".format, st.integers(-4, 8), st.integers(1, 4)),
    )
    doc = {
        "points": [f"p{i}" for i in range(n)],
        "weights": [f"{w}/{sum(raw)}" for w in raw],
        "features": {
            f"f{j}": draw(st.lists(value, min_size=n, max_size=n))
            for j in range(draw(st.integers(1, 3)))
        },
    }
    kind = draw(st.sampled_from(["sound"] * 3 + ["damaged"] * 2 + ["any"]))
    if kind == "any":
        return draw(json_values)
    if kind == "damaged":
        part = draw(st.sampled_from(["points", "weights", "features", "extra", "leaf"]))
        if part == "leaf":
            key = draw(st.sampled_from(["weights"] + list(doc["features"])))
            row = doc["weights"] if key == "weights" else doc["features"][key]
            row[draw(st.integers(0, n - 1))] = draw(odd_numbers)
        else:
            doc[part] = draw(json_values)
    return doc


option_values = st.one_of(
    st.sampled_from(
        ["0", "1/2", "1", "2", "-1", "abc", "nan", "inf", "1e400", "1/0", "0.1", "",
         "1e-300", "5e-324"]
    ),
    st.builds("{}/{}".format, st.integers(-3, 6), st.integers(1, 6)),
    st.text(max_size=4),
)
int_values = st.one_of(st.integers(-3, 40).map(str), st.text(max_size=3))


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _switch(name):
    return st.sampled_from([[], [name]])


_modes = _flag("--mode", st.sampled_from(["exact", "float"]))
# Feature labels as documents() names them, plus ones no document has.
labels = st.sampled_from(["f0", "f1", "f2", "zz", ""])
small_ints = st.one_of(st.integers(-2, 4).map(str), st.text(max_size=2))
# Levy sizes up to a few past the points cap for every base the documents
# give (1 to 4 points), and far past it.
levy_ints = st.one_of(
    st.one_of(st.integers(-2, 8), st.sampled_from([41, 100000])).map(str),
    st.text(max_size=2),
)
# "@a" stands for the first document's path.
GEN_OPTIONS = st.one_of(
    st.tuples(st.just(["singleton"]), _flag("--values", option_values)),
    st.tuples(st.just(["discrete"]), _flag("--n", int_values)),
    st.tuples(
        st.just(["random"]), _flag("--n", int_values), _flag("--k", small_ints),
        _flag("--seed", int_values), _flag("--scale", small_ints),
    ),
    st.tuples(
        st.just(["levy"]),
        _flag("--family", st.sampled_from(["discrete", "product_power", "x"])),
        _flag("--n", levy_ints), _flag("--base", st.just("@a")),
        _switch("--table"), _flag("--step", st.sampled_from(["1/4", "1/2", "0", "x"])),
    ),
)
COMMAND_OPTIONS = {
    "od": st.tuples(_modes, _flag("--kappa", option_values), _flag("--step", option_values)),
    "dconc": st.tuples(
        _modes, _switch("--exact"), _switch("--heuristic"), _switch("--bounds"),
        _flag("--budget", int_values), _flag("--seed", int_values),
    ),
    "box": st.tuples(
        _modes, _switch("--exact"), _switch("--heuristic"), _switch("--mm"),
        _flag("--budget", int_values), _flag("--cells", int_values),
    ),
    "prohorov": st.tuples(
        _modes, _flag("--method", st.sampled_from(["auto", "brute", "flow", "x"]))
    ),
    "pd": st.tuples(_modes, _flag("--alpha", option_values), _flag("--feature", labels)),
    "kyfan": st.tuples(_modes, _flag("-f", labels), _flag("-g", labels)),
    "quotient": st.tuples(
        _modes, _flag("--by", st.sampled_from(["f0", "f0,f1", "f2,f0", " , ", "zz", ""]))
    ),
    "product": st.tuples(_modes),
    "check": st.tuples(
        st.sampled_from([["domination"], ["isomorphism"], ["x"]]),
        _modes, _flag("--budget", int_values),
    ),
    "gen": st.tuples(GEN_OPTIONS.map(lambda parts: [w for p in parts for w in p]), _modes),
    # --trials is always given, and small, so each example stays cheap.
    "verify": st.tuples(
        st.integers(-2, 1).map(lambda t: ["--trials", str(t)]), _flag("--seed", small_ints)
    ),
}
# Commands that read one dataset, and those that read none.
ONE_INPUT = {"od", "pd", "kyfan", "quotient"}
NO_INPUT = {"gen", "verify"}
# The largest value a command's JSON payload may report: distances lie in
# [0, 1], diameters are only bounded below.  od and pd print a CSV table
# unless the flag named here asks for one value.
VALUE_TOPS = {"dconc": 1, "box": 1, "prohorov": 1, "kyfan": 1, "od": float("inf"),
              "pd": float("inf")}
ONE_VALUE_FLAG = {"od": "--kappa", "pd": "--feature"}
other_specs = st.one_of(
    st.sampled_from(
        ["singleton:1", "singleton:", "discrete:2", "discrete:0", "random:2,1",
         "random:3,2,5", "random:2", "random:3,2,1,-4", "x:1"]
    ),
    st.text(max_size=6),
)


def run_captured(argv, stdin_text):
    """Exit code, stdout and stderr of one in-process CLI run.

    An exception escaping main would print a traceback, so it fails the
    caller's test rather than being caught here.
    """
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


class TestArbitraryInputs:
    @settings(max_examples=100)
    @given(
        st.sampled_from(sorted(COMMAND_OPTIONS)),
        st.data(),
        documents(),
        documents(),
        st.sampled_from(["path", "other", "same-metric"]),
        other_specs,
    )
    def test_exit_codes_and_ranges(
        self, tmp_path_factory, command, data, first, second, second_as, spec
    ):
        if second_as == "same-metric" and isinstance(first, dict) and isinstance(second, dict):
            # Prohorov needs one metric: same features, other weights.
            second = dict(first, weights=second.get("weights"))
        folder = tmp_path_factory.mktemp("docs")
        paths = [folder / "a.json", folder / "b.json"]
        for path, doc in zip(paths, (first, second)):
            path.write_text(json.dumps(doc))
        options = [word for part in data.draw(COMMAND_OPTIONS[command]) for word in part]
        options = [str(paths[0]) if word == "@a" else word for word in options]
        argv = [command] + options
        if command not in NO_INPUT:
            argv.append(str(paths[0]))
        if command not in ONE_INPUT | NO_INPUT:
            argv += ["--other", spec] if second_as == "other" else [str(paths[1])]
        code, out, err = run_captured(argv, json.dumps(second))
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code != 0 or command not in VALUE_TOPS:
            return
        if command in ONE_VALUE_FLAG and ONE_VALUE_FLAG[command] not in argv:
            return
        payload = json.loads(out)
        values = [payload[k]["value"] for k in ("lower", "upper") if k in payload]
        values += [payload["value"]] if "value" in payload else []
        assert values
        top = VALUE_TOPS[command]
        assert all(0 <= value <= top for value in values), (argv, payload)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["box", "--heuristic", "--budget", "0"], 0),
            (["box", "--exact", "--heuristic", "--budget", "0"], 0),
            (["od", "--step", "1e-300"], 3),
            (["od", "--mode", "float", "--step", "5e-324"], 3),
            (["od", "--step", "1/10001"], 3),
            (["od", "--step", "1/10000"], 0),
            (["gen", "random", "--n", "3", "--k", "2", "--scale", "0"], 2),
            (["gen", "random", "--n", "3", "--k", "2", "--scale", "-1"], 2),
            (["gen", "levy", "--n", "0"], 2),
            (["gen", "levy", "--n", "-2", "--table"], 2),
            (["gen", "singleton", "--values", "abc"], 2),
            (["gen", "singleton", "--values", "1/0"], 2),
            (["dconc", "--other", "singleton:1/0"], 2),
            (["gen", "--mode", "float", "random", "--n", "2", "--k", "1"], 2),
            (["gen", "-o", "@tmp/F.json", "discrete", "--n", "2"], 2),
            (["gen", "levy", "--n", "100000"], 3),
            (["gen", "levy", "--family", "product_power", "--base", "@tmp/a.json",
              "--n", "4"], 3),
            (["gen", "levy", "--family", "product_power", "--base", "@tmp/a.json",
              "--n", "3"], 0),
            (["od", "@tmp/latin1.json"], 2),
            (["od", "@tmp/deep.json"], 2),
            (["gen", "discrete", "--n", "2", "-o", "@tmp/missing/x.json"], 2),
            (["gen", "discrete", "--n", "2", "-o", "@tmp"], 2),
        ],
    )
    def test_found_by_the_property(self, tmp_path, argv, code):
        # box --heuristic with a budget below 1 died unpacking an empty
        # search; a very fine --step made od loop for ever; gen random
        # with a scale below 1 died in randrange, gen levy with n below 1
        # died on an empty family, or printed a table with no rows; a
        # singleton constant that is no number (or divides by zero) died
        # in Fraction; --mode and -o before the gen kind were overwritten
        # by the kind's defaults; gen levy built members of any size; a
        # file that is not UTF-8, JSON nested past the recursion limit and
        # an -o path that cannot be opened each ended in a traceback.
        a = write_dataset(tmp_path, "a.json", random_gds(3, 2, seed=1))
        b = write_dataset(tmp_path, "b.json", random_gds(3, 2, seed=2))
        (tmp_path / "latin1.json").write_bytes(b"\xff\xfe{}")
        (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
        names_input = argv[0] != "gen" and any("@tmp" in word for word in argv)
        argv = [word.replace("@tmp", str(tmp_path)) for word in argv]
        if argv[0] == "gen" or names_input:
            inputs = []
        elif argv[0] == "od" or "--other" in argv:
            inputs = [a]
        else:
            inputs = [a, b]
        got, out, err = run_captured(argv + inputs, "")
        assert got == code, err
        assert "Traceback" not in err
        if code == 3:
            assert err.startswith("gds: budget: " + ("--n" if argv[0] == "gen" else "--step"))
        if code == 2 and argv[:2] in (["gen", "--mode"], ["gen", "-o"]):
            # gen itself takes no options: only its kinds do.
            assert err.startswith("usage: gds gen"), err
        elif code == 2 and "-o" in argv:
            assert err.startswith(f"gds: cannot write {argv[-1]}: "), err
        elif code == 2:
            # Refused by the program, not by argparse's usage check.
            assert err.startswith("gds: "), err


# The defects a hand probe of the CLI fed it, each applied to a sound
# document, and the option values it tried.
PROBE_DEFECTS = (
    "sound", "duplicate point", "duplicate label", "1/0", "nan", "1e99999999",
    "bare number", "short row", "zero weight", "extra key",
)
PROBE_OPTIONS = ("1/4", "0", "-1", "1/0", "nan", "1e99999999")
# Every subcommand that reads a document, with each branch of its handler;
# "A" is the probed document, "B" a sound one and "V" the probed option
# value.  verify reads no document (the golden corpus runs it).
PROBE_ARGVS = [
    "od A", "od - --kappa V", "od A --step V",
    "pd A --alpha V", "pd A --alpha V --feature f0",
    "dconc A B", "dconc A --other singleton:V --heuristic", "dconc A B --bounds",
    "dconc - B --exact --heuristic --budget 1",
    "box A B", "box A B --heuristic", "box A B --mm", "box - --other random:2,2,5",
    "prohorov A A", "prohorov A B --method brute",
    "kyfan A -f f0 -g f1",
    "quotient A --by f0",
    "product A B",
    "check domination A B", "check isomorphism A A",
    "gen levy --family product_power --base A --n 2",
    "gen singleton --values V",
]


@st.composite
def probed_documents(draw):
    """A random_gds document, sound or with one of the probe's defects."""
    n = draw(st.integers(2, 4))
    k, seed = draw(st.integers(1, 3)), draw(st.integers(0, 99))
    doc = json.loads(emit_gds(random_gds(n, k, seed=seed)))
    defect = draw(st.sampled_from(PROBE_DEFECTS))
    row = draw(st.sampled_from(["weights", *doc["features"]]))
    values = doc["weights"] if row == "weights" else doc["features"][row]
    i = draw(st.integers(0, n - 1))
    if defect == "duplicate point":
        for column in doc["features"].values():
            column[i] = column[i - 1]
    elif defect == "duplicate label":
        doc["points"][i] = doc["points"][i - 1]
    elif defect in ("1/0", "nan", "1e99999999"):
        values[i] = defect
    elif defect == "bare number":
        values[i] = 0.5
    elif defect == "short row":
        values.pop()
    elif defect == "zero weight":
        doc["weights"][i] = "0"
    elif defect == "extra key":
        doc["extra"] = []
    return doc


class TestProbe:
    @settings(max_examples=20)
    @given(probed_documents(), st.sampled_from(PROBE_OPTIONS))
    def test_every_command_and_mode_exits_cleanly(self, tmp_path_factory, doc, value):
        # Each handler imports its solver layer when it runs, so these runs
        # also catch a deferred import that fails.
        folder = tmp_path_factory.mktemp("probe")
        a, b = folder / "a.json", folder / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(emit_gds(random_gds(3, 2, seed=1)))
        for line in PROBE_ARGVS:
            words = [{"A": str(a), "B": str(b)}.get(w, w.replace("V", value))
                     for w in line.split()]
            for mode in ("exact", "float"):
                argv = words + ["--mode", mode]
                code, _, err = run_captured(argv, json.dumps(doc))
                assert code in (0, 2, 3), (argv, err)
                assert "Traceback" not in err, (argv, err)


class TestShellPipeline:
    # Run the module from this checkout; no installed `gds` script needed.
    gds_cmd = f"{shlex.quote(sys.executable)} -m gds"

    def run(self, line, cwd=None):
        src = os.path.dirname(os.path.dirname(os.path.abspath(gds.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            re.sub(r"(^|\| )gds ", lambda m: f"{m[1]}{self.gds_cmd} ", line),
            shell=True,
            capture_output=True,
            text=True,
            cwd=cwd,
            env=dict(os.environ, PYTHONPATH=path),
        )

    def test_piped_generation(self):
        proc = self.run("gds gen discrete --n 3 | gds dconc --other singleton:1 --exact")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["exact"] == "1/3"

    def test_readme_quick_start(self, tmp_path):
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme) as fh:
            text = fh.read()
        section = text.split("## Quick start, command line", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.splitlines()
        assert lines
        for line in lines:
            proc = self.run(line, cwd=tmp_path)
            assert proc.returncode == 0, (line, proc.stderr)


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv, read, unbuffered",
        [
            # A small document waits in stdout's buffer: main's flush meets the pipe.
            (["gen", "random", "--n", "3", "--k", "2"], 0, False),
            # A large one meets it in the write, after the reader took a byte.
            (["gen", "random", "--n", "2000", "--k", "2"], 1, False),
            # Unbuffered, even a small one meets it in the write.
            (["gen", "random", "--n", "3", "--k", "2"], 0, True),
            # argparse writes a help text into the buffer and exits.
            (["--help"], 0, False),
            (["box", "--help"], 0, False),
        ],
        ids=["3-0-False", "2000-1-False", "3-0-True", "help", "box-help"],
    )
    def test_writer_ends_quietly(self, argv, read, unbuffered):
        # The reader closes its end early; the writer exits 0, no traceback.
        src = os.path.dirname(os.path.dirname(os.path.abspath(gds.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "gds", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0, err
        assert err == ""
