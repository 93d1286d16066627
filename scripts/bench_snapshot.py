#!/usr/bin/env python3
"""Record one checkout's benchmark numbers into a committed BENCH_*.json.

    python3 scripts/bench_snapshot.py --checkout . --label change --out BENCH_11.json

For the checkout given, this runs its own ``perfbench/run.py`` on every
workload at seeds 1-3 for 10 s each (``--trace 0``) and keeps each run's
result and provenance lines.  It then times the checkout's grid oracle at
several grid sizes in a fresh interpreter, through the checkout's own
perfbench tracer: the factorization (``oracle.fd.factor_s``), the
oracle's time outside it, most of it the inverse-iteration solves
(``oracle.fd_ground_state.self_s``), and the number of solves
(``oracle.fd.iterations``).  Each time is the median over repeats, scaled
like perfbench's end-to-end times by its calibration probe to one reference
speed of the host.  The snapshot is stored under
``--label`` in the ``--out`` file, next to the labels already there, so a
parent run and a change run made in one session share one file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("series-deep", "agree-sweep", "verify-numeric")
SEEDS = (1, 2, 3)
SECONDS = 10.0
FD_SIZES = (41, 83, 161, 323)
FD_POINT = {"g": 10.0, "b": 1.0, "mu": 0.05}  # the paper's example at b = 1
FD_REPEATS = 5


def perfbench_runs(checkout: Path) -> list[dict]:
    """The result and provenance lines of one perfbench run per workload and seed."""
    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            argv = [
                sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
            ]
            proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            provenance = next(ln for ln in lines if ln.startswith("provenance "))
            runs.append({
                "workload": workload,
                "seed": seed,
                "result": json.loads(lines[-1]),
                "provenance": json.loads(provenance.split(" ", 1)[1]),
            })
            print(f"{workload} seed {seed}: {lines[-1]}", file=sys.stderr)
    return runs


def fd_table(checkout: Path) -> dict:
    """Time the checkout's `fd_ground_state` with its tracer, in this interpreter."""
    sys.path[:0] = [str(checkout / "perfbench"), str(checkout / "src")]
    import run as perfbench  # the checkout's perfbench/run.py
    from tracing import Tracer

    perfbench.pin_threads()
    import quadosc.cli  # noqa: F401  (loads every module the tracer wraps)
    import quadosc.oracle as oracle

    probe = perfbench.Probe()
    times = ("oracle.fd.factor_s", "oracle.fd_ground_state.self_s")
    rows = []
    probes = []
    for n in FD_SIZES:
        samples = []
        for _ in range(FD_REPEATS):
            tracer = Tracer()
            tracer.install()
            try:
                oracle.fd_ground_state(grid=oracle.GridSpec(n, n), **FD_POINT)
            finally:
                tracer.uninstall()
            samples.append(tracer.metrics())
            probes.append(probe())
        scale = perfbench.PROBE_REF_S / statistics.median(probes[-FD_REPEATS:])
        row = {key: statistics.median(s[key] for s in samples) * scale for key in times}
        rows.append({"n": n, **row, "oracle.fd.iterations": samples[0]["oracle.fd.iterations"]})
    return {"point": FD_POINT, "repeats": FD_REPEATS, "probe_s.median": statistics.median(probes), "rows": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path("."), help="repository to measure")
    parser.add_argument("--label", help="key of this snapshot in the output file")
    parser.add_argument("--out", type=Path, help="JSON file to add the snapshot to")
    parser.add_argument("--fd-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()

    if args.fd_only:
        print(json.dumps(fd_table(checkout)))
        return 0
    if not args.label or not args.out:
        parser.error("--label and --out are required")
    snapshot = {"perfbench": perfbench_runs(checkout)}
    # A fresh interpreter, so that this checkout's quadosc is the one imported.
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--checkout", str(checkout), "--fd-only"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=""),
    )
    snapshot["fd"] = json.loads(child.stdout.splitlines()[-1])

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = snapshot
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
