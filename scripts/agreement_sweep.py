#!/usr/bin/env python3
"""Sweep frequency ratios and check that every method agrees on the window.

For each ratio the requested methods are run at the requested order,
flattened onto the shared comparison window and compared slot by slot
against the first method.  Exits 1 if any ratio disagrees.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from quadosc import DEFAULT_WINDOW, compare_methods
from quadosc.cli import (
    METHODS,
    InputError,
    _window_within,
    build_solution,
    comma_list,
    parse_methods,
    positive_rational,
    truncation_order,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ratios",
        type=comma_list(positive_rational),
        default="1/2,1,2,3,5/3",
        help="comma-separated rational frequency ratios to sweep",
    )
    parser.add_argument(
        "--methods",
        type=parse_methods,
        default=",".join(METHODS),
        help="comma-separated method names (first one is the reference)",
    )
    parser.add_argument("--order", type=truncation_order, default=2, help="coupling order")
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of a table"
    )
    args = parser.parse_args(argv)

    ratios, methods = args.ratios, args.methods
    if not methods:
        parser.error("--methods names no method")
    try:
        _window_within(DEFAULT_WINDOW, args.order, "the runs")
    except InputError as exc:
        parser.error(str(exc))

    rows = []
    all_agree = True
    for b in ratios:
        started = time.perf_counter()
        solutions = [build_solution(name, b, args.order) for name in methods]
        diffs = compare_methods(solutions, names=methods)
        elapsed = time.perf_counter() - started
        all_agree = all_agree and not diffs
        rows.append(
            {
                "b": str(b),
                "agree": not diffs,
                "seconds": round(elapsed, 3),
                "diffs": dict(sorted(diffs.items())),
            }
        )

    if args.json:
        print(
            json.dumps(
                {"order": args.order, "methods": methods, "rows": rows}, indent=2
            )
        )
    else:
        print(f"reference: {methods[0]}   order: {args.order}")
        print(f"{'b':>8}  {'agree':>6}  {'seconds':>8}")
        for row in rows:
            print(f"{row['b']:>8}  {str(row['agree']):>6}  {row['seconds']:>8.3f}")
            for name, diffs in row["diffs"].items():
                print(f"    {name} differs:")
                for line in diffs:
                    print(f"      {line}")
        print("ALL AGREE" if all_agree else "DISAGREEMENT FOUND")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
