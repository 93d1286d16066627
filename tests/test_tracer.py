"""The benchmark tracer still finds the solver entry points it wraps.

`perfbench/tracing.py` rebinds functions by module and name; a renamed or
merged entry point would otherwise surface only in a traced benchmark run.
"""

from __future__ import annotations

from pathlib import Path

from quadosc.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_records_solver_entry_points(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        for method in ("hierarchy", "exp-eps"):
            assert main(["run", "--method", method]) == 0
    finally:
        tracer.uninstall()
    for name in (
        "perturbation.solve_exponential",
        "hierarchy.solve_levels",
        "hierarchy.quadrature_level",
    ):
        assert tracer.counts[f"{name}.calls"] >= 1, name
    # the levels are solved in the plane; the trajectory route is not run
    for name in (
        "trajectory.solve_classical_trajectory",
        "trajectory.invert_endpoint_constants",
        "trajectory.action_integral",
    ):
        assert tracer.counts[f"{name}.calls"] == 0, name


def test_tracer_records_compare_entry_points(monkeypatch, capsys):
    # The tracer swaps module-level bindings only, so the program must reach
    # each solver through a module-level name: a solver called through a
    # dict or other container escapes its span and its metrics read 0.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert main(["compare", "--methods", "hierarchy,green,rs"]) == 0
    finally:
        tracer.uninstall()
    for name in (
        "greens.solve_green",
        "greens.resolvent_sum",
        "oracle.rs_corrections",
        "oracle.compare_methods",
        "perturbation.canonical_window",
    ):
        assert tracer.counts[f"{name}.calls"] >= 1, name


def test_tracer_wraps_the_grid_factor(monkeypatch, capsys):
    # `verify` solves on the requested grid and on its halved spacing.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        main(["verify", "--grid-n", "41"])
    finally:
        tracer.uninstall()
    assert tracer.counts["oracle.fd.factor.calls"] == 2
    assert tracer.counts["oracle.fd.iterations"] > 0
