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
speed of the host.  It times the checkout's ``hierarchy`` build at b = 1/2
for orders 8 to 24 in a fresh interpreter, each the median over repeated
builds, each build scaled by the probes either side of it, with the levels'
term count and the largest numerator or denominator bit length of the
levels and of the energies.  Likewise it times each of the seven methods at
b = 1/2 and orders 8 and 12: the build and the JSON rendering of its
``run`` output, each the median over repeated pairs, each pair scaled by
the probes either side of it.
Last, it times a fresh interpreter importing the checkout's ``quadosc.cli``
and running three commands through the console script's ``main``, each the
median over repeats, scaled the same way by the probes either side of it.
The snapshot records the checkout's commit and whether its tracked files
differ from it (``checkout``: ``commit``, ``dirty``), so a run made before
committing is told apart from the parent's.  It is stored under
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
import time
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("series-deep", "agree-sweep", "verify-numeric")
SEEDS = (1, 2, 3)
SECONDS = 10.0
FD_SIZES = (41, 83, 161, 323)
FD_POINT = {"g": 10.0, "b": 1.0, "mu": 0.05}  # the paper's example at b = 1
FD_REPEATS = 5
# fresh-interpreter cold starts, each a `quadosc` command line; () imports quadosc.cli alone
COLD_STARTS = (
    (),
    ("run", "--method", "hierarchy", "--order", "2"),
    ("compare", "--order", "2"),
    ("verify", "--grid-n", "41"),
)
COLD_REPEATS = 5
SERIES_B = "1/2"
HIERARCHY_ORDERS = (8, 12, 16, 20, 24)
METHOD_ORDERS = (8, 12)
BUILD_REPEATS = 5  # builds per row of the hierarchy and method tables


def checkout_state(checkout: Path) -> dict:
    """The commit a checkout is at and whether its tracked files differ from
    it; both None when the checkout is no git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(checkout.parent))

    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", *args], cwd=checkout, env=env, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit is None:
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


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


def _probed(probe, ref_s: float, probes: list, *steps) -> tuple[list, list]:
    """Run ``steps`` in turn, each step given the result of the one before,
    in ``BUILD_REPEATS`` passes with a call of ``probe`` before and after
    each pass (one probe closes a pass and opens the next, and the last of
    ``probes`` opens the first); the last pass's results, and each step's
    median wall time over the passes, each scaled by the mean of the probes
    either side of its pass to the probe time ``ref_s``."""
    if not probes:
        probes.append(probe())
    passes = []
    for _ in range(BUILD_REPEATS):
        results, times = [], []
        for step in steps:
            start = time.perf_counter()
            results.append(step(*results[-1:]))
            times.append(time.perf_counter() - start)
        probes.append(probe())
        scale = 2 * ref_s / (probes[-2] + probes[-1])
        passes.append([t * scale for t in times])
    return results, [statistics.median(col) for col in zip(*passes)]


def hierarchy_table(checkout: Path) -> dict:
    """Build time and size of the checkout's `hierarchy` series, in this interpreter."""
    sys.path[:0] = [str(checkout / "perfbench"), str(checkout / "src")]
    import run as perfbench  # the checkout's perfbench/run.py
    from tracing import poly_size

    from quadosc.cli import build_solution

    probe = perfbench.Probe()
    rows, probes = [], []
    for order in HIERARCHY_ORDERS:
        [sol], [build_s] = _probed(
            probe, perfbench.PROBE_REF_S, probes,
            lambda: build_solution("hierarchy", Fraction(SERIES_B), order),
        )
        terms, bits = poly_size(sol.terms)
        rows.append({
            "order": order,
            "build_s": build_s,
            "level_terms": terms,
            "level_max_bits": bits,
            "energy_max_bits": poly_size((sol.energies,))[1],
        })
    return {"b": SERIES_B, "repeats": BUILD_REPEATS, "probe_s.median": statistics.median(probes), "rows": rows}


def methods_table(checkout: Path) -> dict:
    """Build and JSON render time of each of the checkout's methods, in this interpreter."""
    sys.path[:0] = [str(checkout / "perfbench"), str(checkout / "src")]
    import run as perfbench  # the checkout's perfbench/run.py

    from quadosc.cli import METHODS, build_solution, render_solution

    probe = perfbench.Probe()
    rows, probes = [], []
    for order in METHOD_ORDERS:
        for method in METHODS:
            _, (build_s, render_s) = _probed(
                probe, perfbench.PROBE_REF_S, probes,
                lambda: build_solution(method, Fraction(SERIES_B), order),
                lambda sol: render_solution(sol, method, "json"),
            )
            rows.append({"method": method, "order": order, "build_s": build_s, "render_s": render_s})
    return {"b": SERIES_B, "repeats": BUILD_REPEATS, "probe_s.median": statistics.median(probes), "rows": rows}


def cold_start_table(checkout: Path) -> dict:
    """Wall time of fresh interpreters on the checkout's CLI, at the reference speed."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import run as perfbench  # the checkout's perfbench/run.py

    perfbench.pin_threads()
    probe = perfbench.Probe()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    rows, probes = [], []
    for args in COLD_STARTS:
        code = "import sys; from quadosc.cli import main; sys.exit(main())" if args else "import quadosc.cli"
        times = []
        for i in range(COLD_REPEATS + 1):
            probes.append(probe())
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code, *args], cwd=checkout, env=env, capture_output=True, check=True)
            elapsed = time.perf_counter() - start
            probes.append(probe())
            if i:  # the first run warms the file cache and writes bytecode
                times.append(elapsed * 2 * perfbench.PROBE_REF_S / (probes[-2] + probes[-1]))
        rows.append({"command": " ".join(args) or "import quadosc.cli", "wall_s": statistics.median(times)})
    return {"repeats": COLD_REPEATS, "probe_s.median": statistics.median(probes), "rows": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path("."), help="repository to measure")
    parser.add_argument("--label", help="key of this snapshot in the output file")
    parser.add_argument("--out", type=Path, help="JSON file to add the snapshot to")
    parser.add_argument("--fd-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cold-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--hierarchy-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--methods-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()

    if args.fd_only:
        print(json.dumps(fd_table(checkout)))
        return 0
    if args.hierarchy_only:
        print(json.dumps(hierarchy_table(checkout)))
        return 0
    if args.methods_only:
        print(json.dumps(methods_table(checkout)))
        return 0
    if args.cold_only:
        print(json.dumps(cold_start_table(checkout)))
        return 0
    if not args.label or not args.out:
        parser.error("--label and --out are required")
    snapshot = {"checkout": checkout_state(checkout), "perfbench": perfbench_runs(checkout)}
    # Fresh interpreters, so that this checkout's quadosc is the one imported.
    for key, flag in (("fd", "--fd-only"), ("hierarchy", "--hierarchy-only"), ("methods", "--methods-only")):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--checkout", str(checkout), flag],
            capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=""),
        )
        snapshot[key] = json.loads(child.stdout.splitlines()[-1])
    snapshot["cold_start"] = cold_start_table(checkout)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = snapshot
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
