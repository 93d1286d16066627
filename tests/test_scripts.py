"""Smoke tests for the scripts: the two sweeps in-process through ``main``,
the benchmark snapshot's hierarchy and method tables in-process, and its
grid-oracle and cold-start tables in a fresh interpreter."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import unreachable

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_agreement_sweep_runs(capsys):
    script = load_script("agreement_sweep")
    assert script.main(["--ratios", "1/2,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "reference: hierarchy   order: 2"
    assert lines[1].split() == ["b", "agree", "seconds"]
    assert [line.split()[:2] for line in lines[2:4]] == [["1/2", "True"], ["2", "True"]]
    assert lines[-1] == "ALL AGREE"


def test_grid_convergence_runs(capsys):
    script = load_script("grid_convergence")
    assert script.main(["--mus", "0.02", "--levels", "1", "--grids", "21,43"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# series vs grid: method=hierarchy b=1 g=10"
    assert lines[1] == "mu,series_energy,grid_energy,residual"
    assert lines[2].startswith("0.02,")
    assert lines[3] == "# zero-coupling refinement ladder (exact energy 10)"
    assert lines[4] == "points_per_axis,energy,error,shrink_factor"
    assert [line.split(",")[0] for line in lines[5:]] == ["21", "43"]


def test_bench_snapshot_fd_table_runs():
    # Its own interpreter: the script loads perfbench/run.py as ``run`` and
    # installs perfbench's tracer over quadosc.
    argv = [sys.executable, str(SCRIPTS / "bench_snapshot.py"), "--checkout", str(ROOT), "--fd-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    table = json.loads(proc.stdout.splitlines()[-1])
    assert [row["n"] for row in table["rows"]] == [41, 83, 161, 323]
    for row in table["rows"]:
        assert row["oracle.fd.factor_s"] > 0
        assert row["oracle.fd_ground_state.self_s"] > 0
        assert row["oracle.fd.iterations"] > 0
    assert table["probe_s.median"] > 0


def test_bench_snapshot_hierarchy_table_runs(monkeypatch):
    # In-process at the lowest order of the table: no tracer is installed.
    script = load_script("bench_snapshot")
    monkeypatch.setattr(script, "HIERARCHY_ORDERS", (8,))
    monkeypatch.setattr(sys, "path", list(sys.path))
    table = script.hierarchy_table(ROOT)
    assert table["b"] == "1/2"
    [row] = table["rows"]
    assert row["build_s"] > 0
    assert (row["order"], row["level_terms"], row["level_max_bits"], row["energy_max_bits"]) == (8, 194, 107, 60)
    assert table["repeats"] == 5
    assert table["probe_s.median"] > 0


def test_bench_snapshot_methods_table_runs(monkeypatch):
    # In-process at order 2: no tracer is installed.
    script = load_script("bench_snapshot")
    monkeypatch.setattr(script, "METHOD_ORDERS", (2,))
    monkeypatch.setattr(sys, "path", list(sys.path))
    table = script.methods_table(ROOT)
    assert table["b"] == "1/2"
    assert [(row["method"], row["order"]) for row in table["rows"]] == [
        ("hierarchy", 2), ("exp-eps", 2), ("exp-lambda", 2), ("poly-eps", 2),
        ("poly-lambda", 2), ("green", 2), ("rs", 2),
    ]
    assert all(row["build_s"] > 0 and row["render_s"] > 0 for row in table["rows"])
    assert table["repeats"] == 5
    assert table["probe_s.median"] > 0


def test_bench_snapshot_cold_start_table_runs():
    argv = [sys.executable, str(SCRIPTS / "bench_snapshot.py"), "--checkout", str(ROOT), "--cold-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    table = json.loads(proc.stdout.splitlines()[-1])
    assert [row["command"] for row in table["rows"]] == [
        "import quadosc.cli",
        "run --method hierarchy --order 2",
        "compare --order 2",
        "verify --grid-n 41",
    ]
    assert all(row["wall_s"] > 0 for row in table["rows"])
    assert table["probe_s.median"] > 0


def test_bench_snapshot_records_checkout_state(tmp_path):
    script = load_script("bench_snapshot")
    assert script.checkout_state(tmp_path) == {"commit": None, "dirty": None}

    def git(*args):
        out = subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", *args],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()

    git("init", "-q")
    (tmp_path / "tracked.txt").write_text("one\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "first")
    head = git("rev-parse", "HEAD")
    (tmp_path / "untracked.txt").write_text("scratch\n")  # not part of the checkout's source
    assert script.checkout_state(tmp_path) == {"commit": head, "dirty": False}
    (tmp_path / "tracked.txt").write_text("two\n")
    assert script.checkout_state(tmp_path) == {"commit": head, "dirty": True}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("agreement_sweep", ["--ratios", "0"]),
        ("agreement_sweep", ["--ratios", "1/2,x"]),
        ("agreement_sweep", ["--order", "0"]),
        ("agreement_sweep", ["--order", "1"]),
        ("agreement_sweep", ["--order", "100000000000000000000"]),
        ("agreement_sweep", ["--methods", "hierarchy,bogus"]),
        ("agreement_sweep", ["--methods", ""]),
        ("grid_convergence", ["--b", "-1"]),
        ("grid_convergence", ["--order", "0"]),
        ("grid_convergence", ["--order", "33"]),
        ("grid_convergence", ["--g", "nan"]),
        ("grid_convergence", ["--levels", "0"]),
        ("grid_convergence", ["--method", "bogus"]),
        ("grid_convergence", ["--mus", "0,0.02"]),
        ("grid_convergence", ["--grids", "2"]),
        ("grid_convergence", ["--grids", "41,5"]),
        ("grid_convergence", ["--grids", "41,1025"]),
        ("grid_convergence", ["--levels", "3"]),
        # the sweep's default grid, under a ladder fine enough for b = 1/200
        ("grid_convergence", ["--b", "1/200", "--grids", "171"]),
    ],
    ids=str,
)
def test_bad_input_exits_2(capsys, monkeypatch, name, argv):
    script = load_script(name)
    # a refused input must not reach a solver: an order of 10**20 would hang it
    monkeypatch.setattr(script, "build_solution", unreachable)
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
