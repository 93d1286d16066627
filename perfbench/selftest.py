#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Shrinks every workload to a handful of jobs and asserts that:
- each mode prints exactly the metrics BENCHMARK.json names, each with its unit;
- an injected wrong digest and an off-tolerance energy are each counted as
  a failed job, without crashing the run and without it passing;
- in a directory holding only BENCHMARK.json and perfbench/, the run exits
  non-zero and prints no result.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
import workloads as w

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def shrink() -> None:
    w.SERIES_ORDERS = (2,)
    w.AGREE_RATIOS_PER_SEED = 1
    w.AGREE_ORDERS = (2,)
    w.NUMERIC_ROUND = (("verify", 41, 1, 1), ("report", 41, 1, 1))
    run.MIN_JOBS = 1
    run.SETUP_REPEATS = 1


def result_of(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0, f"{workload} trace={trace} exited {code}"
    return json.loads(out.getvalue().splitlines()[-1])


def check_metric_names() -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in (x["name"] for x in SPEC["workloads"]):
            res = result_of(workload, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {sorted(set(got) ^ set(want))}"
            assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            print(f"ok   {workload} trace={trace}: {len(got)} metrics with units, no failures")


@contextlib.contextmanager
def corrupted(name: str, corrupt):
    """Serve a damaged copy of one frozen data file to the checker."""
    original = w.load_json

    def load(file_name):
        doc = original(file_name)
        if file_name == name:
            corrupt(doc)
        return doc

    w.load_json = load
    try:
        yield
    finally:
        w.load_json = original


def wrong_digest(doc: dict) -> None:
    for key in doc:
        if "--method green " in key:
            doc[key] = "0" * 64


def off_tolerance(doc: dict) -> None:
    for key in doc["references"]:
        doc["references"][key] *= 1 + 10 * max(doc["tolerances"].values())


def check_injected_failures() -> None:
    for label, data, corrupt, workload in (
        ("wrong digest", "digests.json", wrong_digest, "series-deep"),
        ("off-tolerance energy", "energies.json", off_tolerance, "verify-numeric"),
    ):
        with corrupted(data, corrupt):
            res = result_of(workload, 0)
        assert res["correct"] is False and res["attempted"] >= res["failed"] >= 1, res
        print(f"ok   {label}: {res['failed']} of {res['attempted']} jobs failed, run completed")


def check_empty_directory() -> None:
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "series-deep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok   bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    shrink()
    check_empty_directory()
    check_metric_names()
    check_injected_failures()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
