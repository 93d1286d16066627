#!/usr/bin/env python3
"""Benchmark of the quadosc command line, driven in-process.

    python3 perfbench/run.py --workload series-deep --seed 1 --seconds 10 --trace 0

Each job is one call of ``quadosc.cli.main(argv)``, run as a closed loop with
one client, one job in flight and one thread.  After an untimed warm-up
pass, the run executes whole rounds of the workload's seeded jobs (see
workloads.py) until at least ``--seconds`` of job time and enough jobs for
the 90th percentile have accumulated.  Every job's output is checked outside
its timed span.  A calibration probe runs after each job, and job times are
scaled by it to one reference speed of the host (see Probe).

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` each job of one round runs untraced and then traced, and
the last line carries the per-layer metrics (tracing.py) and the tracing
overhead.  The program is imported from ``src/`` of the checkout this file
sits in; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PINNED_THREADS = 1
SETUP_REPEATS = 9
PROBE_REF_S = 0.02  # the probe's time at the reference speed the metrics are scaled to
PROBE_WINDOW = 5  # a job is scaled by the median of the 2 * 5 + 1 probes around it
MIN_JOBS = 110  # leaves at least ten samples beyond the 90th percentile
DEADLINE_S = 120.0  # no job starts later than this after set-up: runs end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.main.self_s": "s",
    "cli.build_solution.self_s": "s",
    "cli.render_solution.self_s": "s",
    "cli.output_bytes": "bytes",
    "trajectory.solve_classical_trajectory.self_s": "s",
    "trajectory.invert_endpoint_constants.self_s": "s",
    "trajectory.action_integral.self_s": "s",
    "trajectory.endpoint.terms": "count",
    "trajectory.endpoint.max_bits": "bits",
    "hierarchy.solve_levels.self_s": "s",
    "hierarchy.quadrature_level.self_s": "s",
    "hierarchy.quadrature_level.calls": "count",
    "hierarchy.level.terms": "count",
    "hierarchy.level.max_bits": "bits",
    "perturbation.solve_polynomial.self_s": "s",
    "perturbation.solve_exponential.self_s": "s",
    "perturbation.canonical_window.self_s": "s",
    "perturbation.canonical_window.calls": "count",
    "perturbation.canonical_window.terms": "count",
    "greens.solve_green.self_s": "s",
    "greens.resolvent_sum.self_s": "s",
    "greens.resolvent_sum.calls": "count",
    "oracle.rs_corrections.self_s": "s",
    "oracle.compare_methods.self_s": "s",
    "oracle.fd_ground_state.self_s": "s",
    "oracle.fd_ground_state.calls": "count",
    "oracle.fd.factor_s": "s",
    "oracle.fd.iterations": "count",
    "oracle.fd.unknowns": "count",
    "oracle.extrapolated_ground_energy.self_s": "s",
    "oracle.energy_rel_err.max": "ratio",
    "algebra.GradedPoly.mul.calls": "count",
    "algebra.GradedPoly.subs.calls": "count",
    "algebra.restrict_to_trajectory.self_s": "s",
    "algebra.evaluate_at_endpoint.self_s": "s",
    "algebra.integrate_to_T.calls": "count",
    "trace.untraced_jobs_per_s": "1/s",
    "trace.traced_jobs_per_s": "1/s",
    "trace.overhead_jobs_per_s": "1/s",
}


class ProgramMissing(RuntimeError):
    pass


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(PINNED_THREADS)


def load_program():
    """Import quadosc from this checkout's src/, and nowhere else."""
    if not (SRC / "quadosc" / "cli.py").is_file():
        raise ProgramMissing(f"no quadosc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quadosc.cli

    if Path(quadosc.cli.__file__).resolve().parent != SRC / "quadosc":
        raise ProgramMissing(f"quadosc imported from {quadosc.cli.__file__}, not {SRC}")
    return quadosc.cli


class Probe:
    """A fixed sparse LU factor and inverse iteration, timed between jobs.

    The speed of a shared VM drifts with its host's load, by up to 1.8x over
    minutes, and the process's CPU time drifts with it.  The probe uses scipy
    only, never the program, so its time follows the host's speed alone; a
    job's time times PROBE_REF_S over the probe's time near it is the job's
    time at one reference speed, whatever the program does.  On a 2-vCPU
    VM, interleaved with single jobs, this cut the drift of 6 s medians of
    job time by 1.5-5x, for pure-Python and for sparse-LU jobs alike.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        n = 60  # 3600 unknowns: about 20 ms, small beside a job
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.matrix = (sp.kron(lap, eye) + sp.kron(eye, lap) + sp.diags(np.linspace(0.0, 1.0, n * n))).tocsc()
        self.np, self.splu = np, splu

    def __call__(self) -> float:
        start = time.perf_counter()
        solver = self.splu(self.matrix)
        vec = self.np.ones(self.matrix.shape[0])
        for _ in range(20):
            vec = solver.solve(vec)
            vec /= self.np.linalg.norm(vec)
        return time.perf_counter() - start


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each time at the reference speed, by the median probe around it."""
    out = []
    for i, t in enumerate(times):
        near = probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1]
        out.append(t * PROBE_REF_S / statistics.median(near))
    return out


def measure_setup(probe: Probe) -> float:
    """Median time, at the reference speed, for a fresh interpreter to
    import quadosc.cli; each import is scaled by the probes either side."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-c", "import quadosc.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        before = probe()
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if i:  # the first import warms the file cache and writes bytecode
            times.append(elapsed * 2 * PROBE_REF_S / (before + probe()))
    return statistics.median(times)


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' if it is no git work tree.

    The ceiling keeps git from finding a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quadosc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A beta-weighted mean of all order statistics: it depends less than the
    two-nearest-samples interpolation on the few jobs that happen to sit at
    the quantile, which on a machine whose speed drifts makes runs steadier.
    """
    from scipy.special import betainc  # after pin_threads, like every numpy import

    x = sorted(values)
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * v for lo, hi, v in zip(edges, edges[1:], x)))


def jobs_per_s(seconds, passed) -> float:
    """Correct jobs per second of summed job time."""
    return sum(passed) / sum(seconds)


def invoke(cli, argv) -> tuple[int, str, str]:
    """Call the entry point with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class Bench:
    """Runs jobs through the entry point, times them and checks every output."""

    def __init__(self, cli, checker, probe: Probe):
        self.cli = cli
        self.checker = checker
        self.probe = probe
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None
        self.deadline = time.monotonic() + DEADLINE_S

    def call(self, job) -> tuple[float, bool]:
        """Run one job; return its wall time and whether its output passed."""
        if self.tracer is not None:  # traced around the job only, not its check
            self.tracer.job = self.attempted
            self.tracer.install()
        start = time.perf_counter()
        try:
            code, out, err = invoke(self.cli, job.argv)
        except Exception:
            code, out, err = None, "", "raised " + traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer.counts["cli.output_bytes"] += len(out.encode())
        self.attempted += 1
        if code is None:
            reason = err
        else:
            try:
                reason = self.checker.check(job, code, out)
            except Exception:
                reason = "unreadable output: " + traceback.format_exc(limit=1)
            if reason is not None and err:
                reason += "; stderr: " + err
        if reason is not None:
            self.failures.append(f"{job.key}: {reason}".strip())
        return elapsed, reason is None

    def run_rounds(self, rounds, seconds: float, min_jobs: int) -> list[tuple[int, str, float, bool, float]]:
        """Whole rounds until ``seconds`` of job time and ``min_jobs`` jobs.

        Returns (round, argv, seconds, passed, probe seconds) for every job
        run; the probe runs after the job's check.
        """
        samples: list[tuple[int, str, float, bool, float]] = []
        for round_no, jobs in enumerate(rounds):
            for job in jobs:
                if samples and time.monotonic() > self.deadline:
                    return samples
                samples.append((round_no, job.key, *self.call(job), self.probe()))
            if sum(s[2] for s in samples) >= seconds and len(samples) >= min_jobs:
                break
        return samples


def write_out(name: str, doc: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / name, "w") as fh:
        json.dump(doc, fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="quadosc benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    try:
        cli = load_program()
        checker = workloads.Checker()
        rounds = workloads.rounds(args.workload, args.seed)
    except (ProgramMissing, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    probe = Probe()
    setup_s = measure_setup(probe) if not args.trace else None
    bench = Bench(cli, checker, probe)
    # Warm-up pass: untimed, but checked and counted.
    bench.run_rounds([workloads.warmup_jobs(args.workload, args.seed)], 0, 0)
    warmup = bench.attempted

    if args.trace:
        # Each job of one round runs untraced, then at once traced: the
        # difference in jobs_per_s is the tracing overhead, paired job by job
        # so that drift in machine speed cancels, and the traced counts repeat
        # exactly for a seed.
        tracer = Tracer()
        untraced, traced = [], []
        trace_round = next(rounds)
        for job in trace_round:
            if traced and time.monotonic() > bench.deadline:
                break
            untraced.append(bench.call(job))
            bench.tracer = tracer
            traced.append(bench.call(job))
            bench.tracer = None
        layer = tracer.metrics()
        layer["oracle.energy_rel_err.max"] = max(checker.energy_errors, default=0.0)
        layer["trace.untraced_jobs_per_s"] = jobs_per_s(*zip(*untraced))
        layer["trace.traced_jobs_per_s"] = jobs_per_s(*zip(*traced))
        layer["trace.overhead_jobs_per_s"] = layer["trace.untraced_jobs_per_s"] - layer["trace.traced_jobs_per_s"]
        write_out(
            f"trace-{args.workload}-seed{args.seed}.json",
            {"spans": tracer.spans, "metrics": layer, "jobs": [j.key for j in trace_round]},
        )
        metrics = {name: layer.get(name, 0) for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        samples, n_rounds, probe_s = untraced + traced, 1, None
    else:
        samples = bench.run_rounds(rounds, args.seconds, MIN_JOBS)
        times = scaled([s[2] for s in samples], [s[4] for s in samples])
        metrics = {
            "setup_s": setup_s,
            "jobs_per_s": jobs_per_s(times, [s[3] for s in samples]),
            "job_s.p50": percentile(times, 0.5),
            "job_s.p90": percentile(times, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        n_rounds = samples[-1][0] + 1
        probe_s = statistics.median(s[4] for s in samples)
        write_out(f"jobs-{args.workload}-seed{args.seed}.json", {"samples": samples})

    failed = len(bench.failures)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_threads": PINNED_THREADS,
        "warmup_jobs": warmup,
        "rounds": n_rounds,
        "jobs": bench.attempted,
        "samples": len(samples),
        "probe_s.median": probe_s,
        "fail_ratio": failed / bench.attempted,
        "energy_rel_err.max": max(checker.energy_errors, default=None),
    }
    for reason in bench.failures[:20]:
        print("FAILED", reason)
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    print("provenance", json.dumps(provenance, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
