"""Command-line contract: formats, determinism, config merge, exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadosc import ConvergenceFailure, GradedPoly, GridSpec
from quadosc.cli import (
    BLAS_THREAD_VARS,
    EXIT_DISAGREE,
    EXIT_INTERNAL,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    MAX_GRID_POINTS,
    METHODS,
    build_parser,
    build_solution,
    grid_spec,
    main,
    parse_rational,
    render_solution,
    solution_from_doc,
)

from helpers import solution_to_doc, unreachable


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ----- argument and config validation ----------------------------------------


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_unknown_method_is_usage_error(capsys):
    assert main(["run", "--method", "bogus"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        "",
        "bogus",
        "run --method bogus",
        "run --order x",
        "run --b",
        "run --foo",
        "verify --levels x",
        "compare --methods",
        "compare --methods hierarchy,bogus",
        # a window above the run order has no terms to compare, and report
        # compares on the fixed DEFAULT_WINDOW; exit 1 means "methods disagree"
        "compare --b 1 --order 1",
        "compare --b 1 --order 2 --window 3,5",
        "report --methods hierarchy,green,rs --b 1 --order 1",
        # an order past MAX_ORDER would build for hours
        "run --order 100000000000000000000",
        "run --order 33",
        "compare --order 1000000000",
        "verify --order 40",
    ],
)
def test_parser_rejection_is_one_error_line(capsys, monkeypatch, argv):
    # argparse's own error() prints the usage before the message
    monkeypatch.setattr("quadosc.cli.build_solution", unreachable)
    assert main(argv.split()) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "usage:" not in captured.err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quadosc run")


def test_nonpositive_ratio_is_usage_error(capsys):
    assert main(["run", "--method", "hierarchy", "--b", "0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "must be positive" in err


def test_malformed_ratio_is_usage_error(capsys):
    assert main(["run", "--method", "hierarchy", "--b", "1/0"]) == EXIT_USAGE
    assert main(["run", "--method", "hierarchy", "--b", "abc"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "ratio",
    ["1e3000000", "1e-3000000", "1e70", "18446744073709551616", "1/18446744073709551616"],
)
def test_oversized_ratio_is_usage_error(tmp_path, capsys, ratio):
    # Each exact product carries b: a short input with millions of digits
    # used to stall even an order-1 run.
    assert main(["run", "--method", "rs", "--order", "1", "--b", ratio]) == EXIT_USAGE
    assert_one_error_line(capsys.readouterr().err)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": ratio}))
    assert main(["run", "--method", "rs", "--order", "1", "--config", str(cfg)]) == EXIT_USAGE
    assert_one_error_line(capsys.readouterr().err)


def test_largest_ratio_is_accepted(capsys):
    assert main(["run", "--method", "rs", "--order", "1", "--b", "18446744073709551615/7"]) == EXIT_OK


@pytest.mark.parametrize("flag", ["--config", "--golden"])
def test_deeply_nested_json_is_usage_error(tmp_path, capsys, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    command = "run" if flag == "--config" else "compare"
    assert main([command, flag, str(deep)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "nested too deeply" in err


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("2") == Fraction(2)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("x")


def test_order_zero_is_usage_error(capsys):
    assert main(["run", "--method", "hierarchy", "--order", "0"]) == EXIT_USAGE


def test_missing_config_file_is_usage_error(capsys):
    assert main(["run", "--config", "/no/such/file.json"]) == EXIT_USAGE


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methd": "hierarchy"}))
    assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
    assert "unknown config key" in capsys.readouterr().err


def test_non_object_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "doc",
    [
        {"b": None},
        {"order": None},
        {"g": None},
        {"mu": None},
        {"method": None},
        {"format": None},
        {"g": "nan"},
        {"mu": "inf"},
        {"g": 0},
        {"order": [2]},
        {"order": float("inf")},
        {"grid_n": 0},
        {"grid_n": 2},
        {"grid_n": -5},
        {"depth": 5},
        {"order": 2.7},
        {"order": 2.0},
        {"order": True},
        {"order": "2"},
        {"grid_n": 41.9},
        {"grid_n": True},
        {"g": True, "mu": True, "method": "rs", "order": 1},
        {"g": "1e1"},
        {"mu": "0.05"},
        {"g": 10**400},
        {"b": True},
        {"b": [1]},
        {"method": "bogus"},
        {"format": "csv"},
        {"out": 3},
        {"order": 33},
        {"order": 100000000000},
    ],
    ids=str,
)
def test_bad_config_value_is_usage_error(tmp_path, capsys, monkeypatch, doc):
    monkeypatch.setattr("quadosc.cli.build_solution", unreachable)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_is_built_once(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(
        "quadosc.cli.build_parser", lambda: calls.append(1) or build_parser()
    )
    for _ in range(2):
        assert main(["run", "--method", "rs", "--order", "1"]) == EXIT_OK
    assert len(calls) <= 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--g", "0"],
        ["--g", "nan"],
        ["--g", "-5"],
        ["--g", "inf"],
        ["--mu", "nan"],
        ["--grid-n", "0"],
        ["--grid-n", "1"],
        ["--grid-n", "2"],
        ["--grid-n", "-5"],
        ["--mu-sweep=0.01,0.01"],
        ["--mu-sweep=0.02,nan"],
        ["--mu-sweep=0.02,inf"],
        ["--mu-sweep=0,0.01"],
        ["--tol", "nan"],
        ["--tol", "0"],
        ["--tol", "-1"],
        ["--tol", "inf"],
        ["--min-order", "nan"],
        ["--min-order", "inf"],
        ["--levels", "0"],
        ["--mu-sweep="],
        ["--levels", "9", "--grid-n", "41"],
        ["--levels", "3"],
        ["--levels", "99999999999999999999"],
        ["--grid-n", "1025"],
        ["--grid-n", "300", "--mu-sweep=0.02,0.04"],
    ],
)
def test_bad_coupling_flag_is_usage_error(capsys, flags):
    assert main(["verify", "--method", "hierarchy", *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "math domain" not in err


def test_config_merges_under_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": "3", "method": "exp-eps", "format": "json"}))
    code, doc = run_json(capsys, ["run", "--config", str(cfg)])
    assert code == EXIT_OK
    assert doc["method"] == "exp-eps"
    assert doc["b"] == "3"

    code, doc = run_json(
        capsys, ["run", "--config", str(cfg), "--method", "hierarchy"]
    )
    assert code == EXIT_OK
    assert doc["method"] == "hierarchy"  # flag wins
    assert doc["b"] == "3"  # config still supplies the rest


# ----- run: serialization formats ---------------------------------------------


def test_run_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--method", "poly-eps", "--b", "1/2", "--out", str(a)]) == 0
    assert main(["run", "--method", "poly-eps", "--b", "1/2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("method", METHODS)
def test_json_round_trip(method):
    sol = build_solution(method, Fraction(2))
    assert solution_from_doc(solution_to_doc(sol, method)) == sol


def assert_json_is_the_reference(sol, method):
    text = render_solution(sol, method, "json")
    assert text == json.dumps(solution_to_doc(sol, method), indent=2, sort_keys=True) + "\n"
    assert solution_from_doc(json.loads(text)) == sol


@settings(deadline=None, max_examples=20)
@given(
    st.sampled_from(METHODS),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 4),
)
def test_json_writer_is_json_dumps(method, p, q, order):
    assert_json_is_the_reference(build_solution(method, Fraction(p, q), order), method)


def test_json_writer_is_json_dumps_at_order_8():
    assert_json_is_the_reference(build_solution("exp-lambda", Fraction(7, 3), 8), "exp-lambda")


def test_json_writer_lays_out_empty_lists():
    zero_level = build_solution("exp-eps", Fraction(1, 2))
    assert not zero_level.terms[1] and zero_level.base == ()
    assert_json_is_the_reference(zero_level, "exp-eps")
    bare = dataclasses.replace(zero_level, terms=(GradedPoly.zero(),) * 3, energies=GradedPoly.zero())
    assert_json_is_the_reference(bare, "exp-eps")
    assert '"energies": [],' in render_solution(bare, "exp-eps", "json")


def test_run_energy_slots_as_rational_strings(capsys):
    code, doc = run_json(capsys, ["run", "--method", "hierarchy", "--b", "1"])
    assert code == EXIT_OK
    assert {"gp": 0, "ep": 1, "c": "1/4"} in doc["energies"]
    assert {"gp": 1, "ep": 0, "c": "1"} in doc["energies"]
    assert {"gp": -1, "ep": 2, "c": "-3/16"} in doc["energies"]


def test_run_operator_method_energy_slots(capsys):
    code, doc = run_json(capsys, ["run", "--method", "green", "--b", "1"])
    assert code == EXIT_OK
    assert {"gp": -2, "ep": 1, "c": "1/4"} in doc["energies"]
    assert {"gp": -5, "ep": 2, "c": "-3/16"} in doc["energies"]


def test_csv_schema(capsys):
    code = main(["run", "--method", "hierarchy", "--b", "1", "--format", "csv"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "method,ep,gp,i,j,coefficient"
    assert "hierarchy,0,1,2,0,1/2" in lines
    assert "hierarchy,0,1,0,2,1/2" in lines
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        assert cells[0] == "hierarchy"
        int(cells[1]), int(cells[2]), int(cells[3]), int(cells[4])
        Fraction(cells[5])


@pytest.mark.parametrize(
    "method, symbol",
    [
        pytest.param(method, symbol, id=method)
        for method, symbol in [
            ("hierarchy", "mu"),
            ("exp-eps", "eps"),
            ("poly-lambda", "lambda"),
            ("green", "eps"),
        ]
    ],
)
def test_text_format(capsys, method, symbol):
    code = main(["run", "--method", method, "--b", "2", "--format", "text"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert f"method {method}" in out
    assert "energy series:" in out
    assert "level 0:" in out
    assert f"{symbol}^" in out
    assert "p^" not in out


@pytest.mark.parametrize(
    "name, count",
    [
        pytest.param("text_csv_digests.json", 56, id="run-text-csv"),
        pytest.param("report_digests.json", 8, id="report"),
        pytest.param("high_order_digests.json", 28, id="run-json-high-order"),
    ],
)
def test_text_and_csv_output_match_pinned_digests(capsys, name, count):
    """Outputs hash to digests written before a refactor that had to keep
    them: run text and CSV before the parameter flavor moved off the
    polynomial type, report JSON and text before the energy series became a
    polynomial, run JSON at orders 6 and 8 before the exact kernels were
    reworked.  The files are never regenerated."""
    pinned = json.loads((Path(__file__).parent / "data" / name).read_text())
    assert len(pinned) == count
    changed = []
    for key, digest in sorted(pinned.items()):
        assert main(key.split()) == EXIT_OK
        out = capsys.readouterr().out
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(key)
    assert changed == []


@pytest.mark.parametrize("method", METHODS)
def test_energies_are_booked_in_solver_order(method):
    """The one float contract.  `physical_energy` sums the energy series in
    key order, and every method books one key per parameter order as its
    solver reaches it: ep = 0, 1, ..., order, except that `rs` books
    1, ..., order and then its zero-point slot."""
    for b in ("1/2", "1", "5/3", "3", "2/7"):
        for order in range(1, 9):
            keys = list(build_solution(method, Fraction(b), order).energies.num)
            eps = [*range(1, order + 1), 0] if method == "rs" else [*range(order + 1)]
            assert [k[0] for k in keys] == eps, (b, order)
            assert (0, 1, 0, 0) in keys and all(k[2:] == (0, 0) for k in keys)


def test_energy_floats_match_pinned_hex():
    """``verify`` prints the series energy with repr, and the energy sum runs
    in the key order `test_energies_are_booked_in_solver_order` fixes, so
    these floats hold bit for bit.  Keys are "method b order g mu"; written
    before the exact kernels were reworked and never regenerated."""
    pinned = json.loads((Path(__file__).parent / "data" / "energy_float_hex.json").read_text())
    assert len(pinned) == 84
    changed = []
    for key, want in sorted(pinned.items()):
        method, b, order, g, mu = key.split()
        sol = build_solution(method, Fraction(b), int(order))
        if sol.physical_energy(float(g), float(mu)).hex() != want:
            changed.append(key)
    assert changed == []


def test_unknown_format_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "yaml"}))
    assert main(["run", "--config", str(cfg)]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["compare", "verify", "report"])
def test_csv_is_written_by_run_only(tmp_path, capsys, command):
    # these commands write no csv, so their text form must not stand in for it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "csv"}))
    for argv in ([command, "--format", "csv"], [command, "--config", str(cfg)]):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)
    assert main(["run", "--method", "rs", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("method,ep,gp,i,j,coefficient\n")


# JSON values of every type, nested a little
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
CONFIG_KEYS = ("method", "b", "order", "g", "mu", "grid_n", "format", "out")


def run_main(argv):
    """Exit code and stderr of one in-process call (hypothesis admits no capsys)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(CONFIG_KEYS), value=json_values)
def test_any_config_value_runs_or_is_one_error_line(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = str(Path(tmp) / "out")
        code, err = run_main(
            ["run", "--method", "rs", "--order", "1", "--out", out, "--config", str(cfg)]
        )
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert_one_error_line(err)
    else:
        assert err == ""
    # no key takes a bool, and only grid_n and out take null
    if isinstance(value, bool) or (value is None and key not in ("grid_n", "out")):
        assert code == EXIT_USAGE


GOLDEN = solution_to_doc(build_solution("hierarchy", Fraction(1)), "hierarchy")
GOLDEN_FIELDS = [
    *GOLDEN,
    *(("levels", key) for key in ("ep", "gp", "i", "j", "c")),
    *(("energies", key) for key in ("ep", "gp", "c")),
]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), field=st.sampled_from(GOLDEN_FIELDS), value=json_values)
def test_any_golden_field_never_exits_internal(data, field, value):
    doc = json.loads(json.dumps(GOLDEN))
    if isinstance(field, str):
        doc[field] = value
    else:
        rows = doc[field[0]]
        if field[0] == "levels":
            rows = rows[data.draw(st.integers(0, len(rows) - 1))]
        rows[data.draw(st.integers(0, len(rows) - 1))][field[1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        golden = Path(tmp) / "golden.json"
        golden.write_text(json.dumps(doc))
        code, err = run_main(["compare", "--methods", "rs", "--golden", str(golden), "--b", "1"])
    assert code in (EXIT_OK, EXIT_DISAGREE, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert_one_error_line(err)


# ----- compare ------------------------------------------------------------------


def test_compare_all_pipelines_agree(capsys):
    code, doc = run_json(capsys, ["compare", "--b", "1/2"])
    assert code == EXIT_OK
    assert doc["agree"] is True
    assert doc["diffs"] == {}
    assert doc["methods"] == [
        "hierarchy",
        "exp-eps",
        "exp-lambda",
        "poly-eps",
        "poly-lambda",
    ]


def test_compare_against_matching_golden(tmp_path, capsys):
    golden = tmp_path / "golden.json"
    assert main(["run", "--method", "hierarchy", "--b", "1", "--out", str(golden)]) == 0
    code = main(
        ["compare", "--methods", "exp-eps", "--golden", str(golden), "--b", "1"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["reference"] == "golden:hierarchy"


def test_compare_against_corrupted_golden(tmp_path, capsys):
    sol = build_solution("hierarchy", Fraction(1))
    doc = solution_to_doc(sol, "hierarchy")
    for slot in doc["energies"]:
        if slot["gp"] == -1 and slot["ep"] == 2:
            slot["c"] = "99/7"
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(doc))
    code = main(
        [
            "compare",
            "--methods",
            "hierarchy",
            "--golden",
            str(golden),
            "--b",
            "1",
            "--format",
            "text",
        ]
    )
    assert code == EXIT_DISAGREE
    out = capsys.readouterr().out
    assert "DISAGREE" in out
    assert "energy slot" in out


def test_golden_energy_diffs_list_in_g_power_order(tmp_path, capsys):
    doc = solution_to_doc(build_solution("hierarchy", Fraction(1)), "hierarchy")
    for slot in doc["energies"]:
        if (slot["gp"], slot["ep"]) in ((0, 1), (-1, 2)):
            slot["c"] = "7"
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(doc))
    argv = ["compare", "--methods", "hierarchy", "--golden", str(golden)]
    assert main([*argv, "--b", "1", "--format", "text"]) == EXIT_DISAGREE
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "compare b=1 order=2 window=(2,5) reference=golden:hierarchy",
        "hierarchy: DIFFERS",
        "  energy slot g^-5 order 2: 7 != -3/16",
        "  energy slot g^-2 order 1: 7 != 1/4",
        "DISAGREE",
    ]


def _set_row(level, key, value):
    def mutate(doc):
        doc["levels"][level][0][key] = value
        return doc

    return mutate


def _set_energy(key, value):
    def mutate(doc):
        doc["energies"][0][key] = value
        return doc

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(_set_row(0, "c", None), id="c-null"),
        # refused before 10**e is formed, as a ratio's exponent is
        pytest.param(_set_energy("c", "1e30000000"), id="c-exponent-30000000"),
        pytest.param(_set_energy("c", "1e3000000"), id="c-exponent-3000000"),
        pytest.param(_set_row(0, "c", "1e-3000000"), id="c-negative-exponent"),
        pytest.param(lambda doc: {**doc, "levels": "x"}, id="levels-string"),
        pytest.param(lambda doc: [doc], id="top-level-list"),
        pytest.param(_set_row(0, "i", 1.5), id="i-float"),
        pytest.param(lambda doc: {**doc, "levels": [3]}, id="level-int"),
        pytest.param(lambda doc: {**doc, "levels": [[3]]}, id="row-int"),
        pytest.param(lambda doc: {**doc, "flavor": "nu"}, id="unknown-flavor"),
        pytest.param(lambda doc: {**doc, "kind": "x"}, id="unknown-kind"),
        pytest.param(lambda doc: {**doc, "order": "2"}, id="order-string"),
        pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "kind"}, id="no-kind"),
        # a negative parameter power would make the comparison's exp series endless
        pytest.param(_set_row(2, "ep", -1), id="negative-ep"),
    ],
)
def test_malformed_golden_is_one_error_line(tmp_path, capsys, mutate):
    doc = mutate(solution_to_doc(build_solution("hierarchy", Fraction(1)), "hierarchy"))
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(doc))
    argv = ["compare", "--methods", "hierarchy", "--golden", str(golden)]
    assert main(argv) == EXIT_USAGE
    assert_one_error_line(capsys.readouterr().err)


def test_golden_coefficient_has_no_bit_cap(tmp_path, capsys):
    # Only a ratio is held to RATIO_BITS: real high-order coefficients exceed it.
    doc = solution_to_doc(build_solution("hierarchy", Fraction(1)), "hierarchy")
    row = _set_energy("c", str(2**200))(doc)["energies"][0]
    assert solution_from_doc(doc).energies.terms[(row["ep"], row["gp"], 0, 0)] == 2**200
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(doc))
    assert main(["compare", "--methods", "hierarchy", "--golden", str(golden)]) == EXIT_DISAGREE


def test_golden_with_wrong_depth_is_usage_error(tmp_path, capsys):
    doc = solution_to_doc(build_solution("hierarchy", Fraction(1)), "hierarchy")
    doc["depth"] += 1
    with pytest.raises(ValueError):
        solution_from_doc(doc)
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(doc))
    argv = ["compare", "--methods", "hierarchy", "--golden", str(golden)]
    assert main(argv) == EXIT_USAGE
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("field", ["levels", "base", "energies"])
def test_golden_with_a_repeated_key_is_usage_error(tmp_path, capsys, field):
    # the last row of a key used to win, so a file contradicting itself could agree
    golden = tmp_path / "golden.json"
    assert main(["run", "--method", "rs", "--b", "1", "--order", "1", "--out", str(golden)]) == EXIT_OK
    doc = json.loads(golden.read_text())
    rows = doc[field] if field == "energies" else doc[field][0]
    rows.insert(0, {**rows[0], "c": "5"})
    golden.write_text(json.dumps(doc))
    argv = ["compare", "--golden", str(golden), "--b", "1", "--order", "1", "--methods", "green"]
    assert main([*argv, "--window", "1,3", "--format", "text"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    key = (rows[0]["ep"], rows[0]["gp"], rows[0].get("i", 0), rows[0].get("j", 0))
    assert f"{field}: two rows have the key (ep, gp, i, j) = {key}" in captured.err


def test_golden_for_another_ratio_is_usage_error(tmp_path, capsys):
    golden = tmp_path / "golden.json"
    assert main(["run", "--b", "1", "--out", str(golden)]) == EXIT_OK
    argv = ["compare", "--methods", "hierarchy", "--golden", str(golden), "--b", "2"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert_one_error_line(captured.err)
    assert "b=1" in captured.err and "b=2" in captured.err
    assert "DIFFERS" not in captured.out
    argv[-1] = "1"
    assert main(argv) == EXIT_OK


def test_compare_needs_two_runs(capsys):
    assert main(["compare", "--methods", "hierarchy"]) == EXIT_USAGE


def test_compare_window_flag(tmp_path, capsys):
    code, doc = run_json(
        capsys, ["compare", "--methods", "hierarchy,green,rs", "--window", "2,5"]
    )
    assert code == EXIT_OK
    assert doc["window"] == {"ep": 2, "g_depth": 5}
    assert main(["compare", "--window", "2"]) == EXIT_USAGE
    # a window with a negative part keeps nothing, so it must not read as agreement
    doc = solution_to_doc(build_solution("hierarchy", Fraction(1)), "hierarchy")
    for slot in doc["energies"]:
        slot["c"] = "7"
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["compare", "--methods", "hierarchy", "--golden", str(golden)]
    for window in ("--window=2,-1", "--window=-1,5"):
        assert main([*argv, window]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_window_above_the_golden_order_is_usage_error(tmp_path, capsys):
    golden = tmp_path / "golden.json"
    assert main(["run", "--b", "1", "--order", "1", "--out", str(golden)]) == EXIT_OK
    argv = ["compare", "--methods", "hierarchy", "--golden", str(golden), "--b", "1"]
    assert main(argv) == EXIT_USAGE
    assert_one_error_line(capsys.readouterr().err)
    assert main([*argv, "--order", "1", "--window", "1,5"]) == EXIT_OK


# ----- verify ---------------------------------------------------------------------


def test_verify_harmonic_limit_small_grid(capsys):
    code, doc = run_json(
        capsys,
        [
            "verify",
            "--method",
            "hierarchy",
            "--b",
            "1",
            "--g",
            "1",
            "--mu",
            "0",
            "--grid-n",
            "81",
        ],
    )
    assert code == EXIT_OK
    assert doc["pass"] is True
    assert doc["series_energy"] == pytest.approx(1.0)
    assert doc["grid_energy"] == pytest.approx(1.0, abs=1e-5)


def test_verify_unreachable_tolerance_fails(capsys):
    code, doc = run_json(
        capsys,
        [
            "verify",
            "--method",
            "hierarchy",
            "--b",
            "1",
            "--g",
            "1",
            "--mu",
            "0",
            "--grid-n",
            "81",
            "--tol",
            "1e-18",
        ],
    )
    assert code == EXIT_DISAGREE
    assert doc["pass"] is False


def test_verify_maps_convergence_failure(monkeypatch, capsys):
    def blow_up(*args, **kwargs):
        raise ConvergenceFailure("residual stuck")

    monkeypatch.setattr("quadosc.cli.extrapolated_ground_energy", blow_up)
    assert main(["verify", "--method", "hierarchy"]) == EXIT_NUMERIC
    assert "residual stuck" in capsys.readouterr().err


def assert_one_error_line(err: str):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        "verify --method hierarchy --grid-n 21 --mu 1e300",
        "report --numeric --methods hierarchy,rs --grid-n 21 --mu 1e300",
        "verify --method hierarchy --grid-n 21 --mu-sweep=1e300,2e300",
    ],
)
def test_overflowing_coupling_is_usage_error(capsys, argv):
    assert main(argv.split()) == EXIT_USAGE
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "overflows" in err


@pytest.mark.parametrize("grid_n", ["21", "20"])
def test_overflowing_grid_potential_is_numeric_failure(capsys, grid_n):
    # An odd grid used to end in a singular factor, an even one in 200
    # inverse iterations on NaNs.
    argv = ["verify", "--method", "hierarchy", "--grid-n", grid_n, "--g", "1e300"]
    assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "not finite" in err


def test_residual_bound_below_round_off_stops_at_once(monkeypatch, capsys):
    # At g = mu = 1e100 the energy is about 1e100, so no float residual can
    # reach the absolute bound of 1e-10; this used to take 200 solves.
    import quadosc.oracle as oracle

    solves = []
    factor = oracle.splu

    class CountingFactor:
        def __init__(self, inner):
            self.inner = inner

        def solve(self, rhs):
            solves.append(1)
            return self.inner.solve(rhs)

    monkeypatch.setattr(oracle, "splu", lambda ham, **kw: CountingFactor(factor(ham, **kw)))
    argv = ["verify", "--grid-n", "21", "--g", "1e100", "--mu", "1e100"]
    assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "round-off floor" in err
    assert 0 < len(solves) < 5


def test_unmapped_exception_exits_internal(monkeypatch, capsys):
    def blow_up(*args, **kwargs):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr("quadosc.cli.build_solution", blow_up)
    assert main(["run", "--method", "hierarchy"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: RuntimeError: unexpected state\n"


@pytest.mark.parametrize(
    "argv",
    [
        "verify --method hierarchy --grid-n 3",
        "verify --method hierarchy --grid-n 3 --mu-sweep=0.02,0.04",
        "report --numeric --methods hierarchy,rs --grid-n 3",
        "verify --method hierarchy --b 2 --grid-n 15",
        # the default 161-point grid is held to the same rule
        "verify --b 1/200 --format text",
        "verify --b 200 --mu-sweep=0.02,0.04",
        "report --numeric --b 1/200",
        "report --numeric --b 1/200 --format text",
    ],
)
def test_coarse_grid_is_usage_error(capsys, argv):
    # A spacing wider than the gaussian used to read as a disagreement.
    assert main(argv.split()) == EXIT_USAGE
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "too coarse" in err


@pytest.mark.parametrize("flags", ["--levels 3", "--grid-n 512"])
def test_report_grid_finer_than_the_bound_is_usage_error(monkeypatch, capsys, flags):
    # verify's cases are in test_bad_coupling_flag_is_usage_error, where
    # --levels 9 --grid-n 41 used to end in a MemoryError and exit 4.
    argv = f"report --numeric --methods hierarchy,rs {flags}"
    calls = []
    monkeypatch.setattr("quadosc.cli.extrapolated_ground_energy", lambda *a, **kw: calls.append(a))
    assert main(argv.split()) == EXIT_USAGE
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert f"exceeds {MAX_GRID_POINTS} points per axis" in err
    assert calls == []


def test_grid_bound_admits_the_ladders_in_use():
    # criterion 9 and the grid-convergence script: 161 refined twice is 647;
    # 15 points refined six times is 1023, the bound itself
    for n, levels in ((None, 2), (161, 2), (41, 2), (511, 1), (MAX_GRID_POINTS, 0), (15, 6)):
        expected = GridSpec() if n is None else GridSpec(n, n)
        assert grid_spec(n, 10.0, 1, levels) == expected
    for n, levels in ((None, 3), (512, 1), (MAX_GRID_POINTS + 2, 0), (15, 7), (15, 10**30)):
        with pytest.raises(ValueError, match=f"exceeds {MAX_GRID_POINTS} points per axis"):
            grid_spec(n, 10.0, 1, levels)


def test_grid_as_fine_as_the_gaussian_is_admitted(monkeypatch, capsys):
    sol = build_solution("hierarchy", Fraction(2))
    grids = []

    def series_energy(g, b, mu, grid=None, levels=1, tol=1e-10):
        grids.append(grid)
        return sol.physical_energy(g, mu)

    monkeypatch.setattr("quadosc.cli.extrapolated_ground_energy", series_energy)
    argv = ["verify", "--method", "hierarchy", "--b", "2", "--grid-n", "16"]
    assert main(argv) == EXIT_OK
    assert grids == [GridSpec(16, 16)]


def test_verify_sweep_fits_cubic_truncation(monkeypatch, capsys):
    sol = build_solution("hierarchy", Fraction(1))

    def exact_plus_cubic(g, b, mu, grid=None, levels=1, tol=1e-10):
        return sol.physical_energy(g, mu) + 2e-3 * mu**3

    monkeypatch.setattr(
        "quadosc.cli.extrapolated_ground_energy", exact_plus_cubic
    )
    code, doc = run_json(
        capsys,
        ["verify", "--method", "hierarchy", "--mu-sweep", "0.02,0.04,0.08"],
    )
    assert code == EXIT_OK
    assert doc["sweep"]["pass"] is True
    assert doc["sweep"]["fitted_order"] == pytest.approx(3.0, abs=1e-6)


def test_verify_sweep_rejects_low_order(monkeypatch, capsys):
    sol = build_solution("hierarchy", Fraction(1))

    def exact_plus_linear(g, b, mu, grid=None, levels=1, tol=1e-10):
        return sol.physical_energy(g, mu) + 1e-6 * mu

    monkeypatch.setattr(
        "quadosc.cli.extrapolated_ground_energy", exact_plus_linear
    )
    code, doc = run_json(
        capsys,
        ["verify", "--method", "hierarchy", "--mu-sweep", "0.02,0.04,0.08"],
    )
    assert code == EXIT_DISAGREE
    assert doc["sweep"]["pass"] is False
    assert doc["sweep"]["fitted_order"] == pytest.approx(1.0, abs=1e-6)


def test_verify_sweep_needs_two_points(monkeypatch, capsys):
    monkeypatch.setattr(
        "quadosc.cli.extrapolated_ground_energy",
        lambda *a, **k: 10.0,
    )
    assert main(["verify", "--mu-sweep", "0.05"]) == EXIT_USAGE


def test_verify_text_format(monkeypatch, capsys):
    sol = build_solution("hierarchy", Fraction(1))
    monkeypatch.setattr(
        "quadosc.cli.extrapolated_ground_energy",
        lambda g, b, mu, grid=None, levels=1, tol=1e-10: sol.physical_energy(g, mu),
    )
    code = main(["verify", "--method", "hierarchy", "--format", "text"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS" in out
    assert "rel gap" in out


# ----- report --------------------------------------------------------------------


def test_report_symbolic_only(capsys):
    code, doc = run_json(
        capsys, ["report", "--methods", "hierarchy,exp-eps,green", "--b", "2"]
    )
    assert code == EXIT_OK
    assert doc["agree"] is True
    assert doc["reference"] == "hierarchy"
    assert {"gp": 1, "ep": 0, "c": "3/2"} in doc["energy_series"]


def test_report_needs_two_methods(capsys):
    assert main(["report", "--methods", "green"]) == EXIT_USAGE


def test_report_with_numeric_block(monkeypatch, capsys):
    sol = build_solution("hierarchy", Fraction(1))
    monkeypatch.setattr(
        "quadosc.cli.extrapolated_ground_energy",
        lambda g, b, mu, grid=None, levels=1, tol=1e-10: sol.physical_energy(g, mu),
    )
    code, doc = run_json(
        capsys,
        ["report", "--methods", "hierarchy,poly-eps", "--numeric", "--b", "1"],
    )
    assert code == EXIT_OK
    assert doc["numeric"]["pass"] is True
    assert doc["numeric"]["rel_gap"] == pytest.approx(0.0, abs=1e-15)


# ----- cold start ----------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs one statement in a fresh interpreter, with stdout captured, then
# reports `exit_code`, the numpy and SciPy modules then loaded, and the
# BLAS thread variables then set.
COLD_START = """
import contextlib, io, json, os, sys
exit_code = None
with contextlib.redirect_stdout(io.StringIO()):
    {statement}
loaded = sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy"))
threads = {{var: os.environ.get(var) for var in {threads!r}}}
print(json.dumps({{"exit": exit_code, "loaded": loaded, "threads": threads}}))
"""


def cold_start(statement: str, **env: str) -> dict:
    # Not in-process: this interpreter already holds numpy from the helpers.
    # The BLAS thread variables the tests pin are dropped unless given.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    environ = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START.format(statement=statement, threads=BLAS_THREAD_VARS)],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(environ, PYTHONPATH=path, **env),
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main_statement(argv: str) -> str:
    return f"from quadosc.cli import main; exit_code = main({argv.split()!r})"


@pytest.mark.parametrize(
    "statement",
    [
        "import quadosc",
        "import quadosc.cli",
        *map(main_statement, ["run --method hierarchy --order 2", "compare --order 2", "report"]),
    ],
)
def test_exact_series_load_neither_numpy_nor_scipy(statement):
    result = cold_start(statement)
    assert result["exit"] in (None, EXIT_OK)
    assert result["loaded"] == []


def test_grid_solve_loads_numpy_and_scipy():
    # the grid operator is three band arrays, so its solve needs no scipy.sparse;
    # `main` pins BLAS to one thread before numpy loads
    result = cold_start(main_statement("verify --grid-n 21"))
    assert result["exit"] == EXIT_OK
    assert {"numpy", "scipy.linalg"} <= set(result["loaded"])
    assert "scipy.sparse" not in result["loaded"]
    assert result["threads"] == dict.fromkeys(BLAS_THREAD_VARS, "1")


def test_preset_blas_threads_win():
    result = cold_start(main_statement("verify --grid-n 21"), OPENBLAS_NUM_THREADS="2")
    assert result["exit"] == EXIT_OK
    assert result["threads"] == {**dict.fromkeys(BLAS_THREAD_VARS, "1"), "OPENBLAS_NUM_THREADS": "2"}
