#!/usr/bin/env python3
"""Write the frozen data the benchmark checks outputs against.

    python3 perfbench/make_data.py

data/digests.json maps every run and compare argv a workload can run to
the sha256 of its stdout; each run must also agree with the rs oracle on the
window (order, 3*order+2), and each compare must report agreement.
data/energies.json holds, per (g, mu, b), a Richardson levels=2 grid energy
on the default 161-point grid, and per grid setting the relative tolerance
a job's grid energy must meet: twice the largest error seen here over all
(g, mu, b), rounded up to two digits.  Rerun only to redefine the benchmark:
the checks exist to catch any change in these outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction

import run
import workloads as w


def fail(msg: str) -> None:
    sys.exit(f"make_data: {msg}")


def digests(cli) -> dict[str, str]:
    checker = w.Checker(digests={}, energies={"references": {}, "tolerances": {}})
    jobs = [
        w.Job(w.run_argv(m, b, k), b, k)
        for tercile in w.SERIES_TERCILES
        for b in tercile
        for k in w.SERIES_ORDERS
        for m in w.METHODS
    ]
    jobs += [
        w.Job(w.compare_argv(b, k, wide), b, k)
        for b in w.AGREE_POOL
        for k in w.AGREE_ORDERS
        for wide in (False, True)
    ]
    out = {}
    for job in jobs:
        code, text, err = run.invoke(cli, job.argv)
        if code != 0:
            fail(f"{job.key}: exit {code} {err}")
        if job.argv[0] == "run":
            reason = checker.check_rs_window(job, text)
            if reason:
                fail(f"{job.key}: {reason}")
        elif json.loads(text)["agree"] is not True:
            fail(f"{job.key}: methods disagree")
        out[job.key] = hashlib.sha256(text.encode()).hexdigest()
    return out


def round_up(x: float, digits: int = 2) -> float:
    scale = 10 ** (math.floor(math.log10(x)) - digits + 1)
    return math.ceil(x / scale) * scale


def energies(cli) -> dict:
    from quadosc.oracle import GridSpec, extrapolated_ground_energy

    references = {}
    worst: dict[str, float] = {}
    for g in w.NUMERIC_G:
        for mu in w.NUMERIC_MU:
            for b in w.NUMERIC_B:
                key = w.combo_key(g, mu, b)
                ref = extrapolated_ground_energy(
                    float(g), float(Fraction(b)), float(mu), grid=GridSpec(161, 161), levels=2
                )
                references[key] = ref
                for cmd, grid_n, levels, _ in w.NUMERIC_ROUND:
                    argv = w.numeric_argv(cmd, g, mu, b, grid_n, levels)
                    code, text, err = run.invoke(cli, argv)
                    if code != 0:
                        fail(f"{' '.join(argv)}: exit {code} {err}")
                    doc = json.loads(text)
                    block = doc["numeric"] if cmd == "report" else doc
                    gk = w.grid_key(grid_n, levels)
                    err_rel = abs(block["grid_energy"] - ref) / ref
                    worst[gk] = max(worst.get(gk, 0.0), err_rel)
                print(key, ref, file=sys.stderr, flush=True)
    return {
        "reference": "extrapolated_ground_energy(g, b, mu, GridSpec(161, 161), levels=2)",
        "references": references,
        "max_error_seen": worst,
        "tolerances": {k: round_up(2 * v) for k, v in sorted(worst.items())},
    }


def main() -> int:
    run.pin_threads()
    cli = run.load_program()
    w.DATA.mkdir(exist_ok=True)
    for name, doc in (("digests.json", digests(cli)), ("energies.json", energies(cli))):
        with open(w.DATA / name, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
