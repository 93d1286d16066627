#!/usr/bin/env python3
"""Measure how the truncated energy series tracks a refined grid solver.

Two small studies at a fixed overall coupling:

  1. residual between the series energy and a Richardson-extrapolated grid
     energy across a coupling sweep, with the fitted scaling order of the
     residual (should be one past the truncation order);
  2. raw grid error at zero coupling across a ladder of spacing halvings,
     which should shrink about fourfold per step.
"""

from __future__ import annotations

import argparse
import sys

from quadosc import extrapolated_ground_energy, fd_ground_state
from quadosc.cli import (
    METHODS,
    build_solution,
    comma_list,
    grid_points,
    grid_spec,
    loglog_slope,
    one_of,
    positive_float,
    positive_int,
    positive_rational,
    truncation_order,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--method", type=one_of(METHODS), default="hierarchy", help="series to evaluate"
    )
    parser.add_argument("--b", type=positive_rational, default="1", help="frequency ratio")
    parser.add_argument("--g", type=positive_float, default=10.0, help="overall coupling")
    parser.add_argument("--order", type=truncation_order, default=2, help="coupling order")
    parser.add_argument(
        "--mus",
        type=comma_list(positive_float),
        default="0.02,0.04,0.08",
        help="comma-separated couplings to sweep",
    )
    parser.add_argument(
        "--levels", type=positive_int, default=2, help="Richardson refinement passes"
    )
    parser.add_argument(
        "--grids",
        type=comma_list(grid_points),
        default="41,83,167",
        help="grid sizes for the zero-coupling refinement ladder",
    )
    args = parser.parse_args(argv)
    g = args.g
    b = float(args.b)
    try:
        # the coarse- and fine-grid rules of `quadosc verify`
        ladder = [grid_spec(n, g, args.b, 0) for n in args.grids]
        sweep_grid = grid_spec(None, g, args.b, args.levels)
    except ValueError as exc:
        parser.error(str(exc))

    sol = build_solution(args.method, args.b, args.order)

    print(f"# series vs grid: method={args.method} b={args.b} g={g:g}")
    print("mu,series_energy,grid_energy,residual")
    mus = args.mus
    residuals = []
    for mu in mus:
        series = sol.physical_energy(g, mu)
        grid = extrapolated_ground_energy(g, b, mu, sweep_grid, args.levels)
        residuals.append(abs(series - grid))
        print(f"{mu:g},{series!r},{grid!r},{residuals[-1]:.6e}")
    if len(mus) >= 2:
        print(f"# fitted residual order: {loglog_slope(mus, residuals):.3f}")

    exact = g * (1 + b) / 2
    print(f"# zero-coupling refinement ladder (exact energy {exact:g})")
    print("points_per_axis,energy,error,shrink_factor")
    previous = None
    for grid in ladder:
        energy = fd_ground_state(g, b, 0.0, grid).energy
        error = abs(energy - exact)
        factor = "" if previous is None else f"{previous / error:.2f}"
        print(f"{grid.n_x},{energy!r},{error:.6e},{factor}")
        previous = error
    return 0


if __name__ == "__main__":
    sys.exit(main())
