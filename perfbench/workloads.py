"""Seeded job lists for the three workloads, and the check each output must pass.

A job is one call of the program's entry point, ``quadosc.cli.main(argv)``.
Every round of a workload has the same mix of job sizes, in a seeded order,
and a run executes whole rounds, so percentiles do not depend on where a run
stops.  The seed only picks inputs: which ratios, couplings and grids, and
their order.

The checks read the frozen data in ``data/``, which ``make_data.py`` wrote
from the program at the commit that defined this benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

METHODS = ("hierarchy", "exp-eps", "exp-lambda", "poly-eps", "poly-lambda", "green", "rs")

# The ratios checked non-resonant, with all seven methods agreeing at orders
# 3-4, split into terciles of series-deep cost.  A seed draws one ratio from
# each tercile, so seeds change the inputs but hardly the amount of work.
SERIES_TERCILES = (
    ("2", "5/2", "4/3", "3"),
    ("3/2", "1", "1/3", "5/3"),
    ("3/4", "1/2", "2/3", "7/5"),
)
SERIES_DEFAULT = ("1/2", "1", "5/3")  # the ROADMAP item-1 matrix, seed 0
SERIES_ORDERS = (2, 4, 6, 8)

# The same twelve plus twelve more, for which make_data.py found every compare
# at orders 2-4 agreeing on both windows.
AGREE_POOL = tuple(r for t in SERIES_TERCILES for r in t) + (
    "1/4", "2/5", "3/5", "4/5", "5/6", "6/5", "5/4", "7/4", "9/5", "7/3", "9/4", "8/3",
)
AGREE_RATIOS_PER_SEED = 8
AGREE_ORDERS = (2, 3, 4)

NUMERIC_G = ("10", "20")
NUMERIC_MU = ("0.02", "0.03", "0.05")
NUMERIC_B = ("1/2", "1", "5/3", "2")
# (command, grid points per axis or None for the 161 default, levels, jobs per
# round).  Most jobs are small grids; the default grid is the tail.
NUMERIC_ROUND = (
    ("verify", 41, 1, 18),
    ("report", 41, 1, 8),
    ("verify", 61, 1, 4),
    ("report", 61, 1, 2),
    ("verify", 81, 1, 2),
    ("report", 81, 1, 1),
    ("verify", 41, 2, 2),
    ("verify", None, 1, 1),
)


@dataclass(frozen=True)
class Job:
    """One CLI call, with what its check needs to know about the inputs."""

    argv: tuple[str, ...]
    b: str
    order: int = 2
    combo: str = ""  # numeric jobs: reference-energy key
    grid: str = ""  # numeric jobs: tolerance key

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def run_argv(method: str, b: str, order: int) -> tuple[str, ...]:
    return ("run", "--method", method, "--b", b, "--order", str(order), "--format", "json")


def compare_argv(b: str, order: int, wide: bool) -> tuple[str, ...]:
    argv = ("compare", "--methods", ",".join(METHODS), "--b", b, "--order", str(order))
    return argv + ("--window", f"{order},{3 * order + 2}") if wide else argv


def numeric_argv(cmd: str, g: str, mu: str, b: str, grid_n: int | None, levels: int) -> tuple[str, ...]:
    head = ("verify",) if cmd == "verify" else ("report", "--numeric")
    argv = head + ("--b", b, "--order", "2", "--g", g, "--mu", mu, "--levels", str(levels))
    return argv + ("--grid-n", str(grid_n)) if grid_n else argv


def combo_key(g: str, mu: str, b: str) -> str:
    return f"g={g} mu={mu} b={b}"


def grid_key(grid_n: int | None, levels: int) -> str:
    return f"{grid_n or 161}/{levels}"


def series_ratios(seed: int) -> tuple[str, ...]:
    if seed == 0:
        return SERIES_DEFAULT
    rng = random.Random(f"series-deep/{seed}")
    return tuple(rng.choice(t) for t in SERIES_TERCILES)


def series_matrix(seed: int) -> list[Job]:
    """Each (method, order, ratio) once."""
    return [
        Job(run_argv(m, b, k), b, k) for b in series_ratios(seed) for k in SERIES_ORDERS for m in METHODS
    ]


def agree_matrix(seed: int) -> list[Job]:
    rng = random.Random(f"agree-sweep/{seed}")
    ratios = rng.sample(AGREE_POOL, AGREE_RATIOS_PER_SEED)
    return [
        Job(compare_argv(b, k, wide), b, k)
        for b in ratios
        for k in AGREE_ORDERS
        for wide in (False, True)
    ]


def numeric_matrix(seed: int, round_no: int) -> list[Job]:
    """One round of numeric jobs; each grid setting cycles through the ratios."""
    rng = random.Random(f"verify-numeric/{seed}/{round_no}")
    jobs = []
    for cmd, grid_n, levels, count in NUMERIC_ROUND:
        ratios = list(NUMERIC_B)
        rng.shuffle(ratios)
        for i in range(count):
            g, mu, b = rng.choice(NUMERIC_G), rng.choice(NUMERIC_MU), ratios[i % len(ratios)]
            jobs.append(
                Job(
                    numeric_argv(cmd, g, mu, b, grid_n, levels),
                    b,
                    combo=combo_key(g, mu, b),
                    grid=grid_key(grid_n, levels),
                )
            )
    return jobs


WORKLOADS = ("series-deep", "agree-sweep", "verify-numeric")


def rounds(workload: str, seed: int):
    """Endless rounds of a workload's jobs, each round in a fresh seeded order."""
    rng = random.Random(f"{workload}/order/{seed}")
    round_no = 0
    while True:
        if workload == "series-deep":
            jobs = series_matrix(seed)
        elif workload == "agree-sweep":
            jobs = agree_matrix(seed)
        else:
            jobs = numeric_matrix(seed, round_no)
        rng.shuffle(jobs)
        yield jobs
        round_no += 1


def warmup_jobs(workload: str, seed: int) -> list[Job]:
    """The cheapest job of each command and method the workload runs."""
    if workload == "series-deep":
        return [Job(run_argv(m, b, 2), b, 2) for b in series_ratios(seed) for m in METHODS]
    if workload == "agree-sweep":
        b = agree_matrix(seed)[0].b
        return [Job(compare_argv(b, 2, wide), b, 2) for wide in (False, True)]
    g, mu, b = NUMERIC_G[0], NUMERIC_MU[0], NUMERIC_B[0]
    return [
        Job(numeric_argv(cmd, g, mu, b, 41, 1), b, combo=combo_key(g, mu, b), grid=grid_key(41, 1))
        for cmd in ("verify", "report")
    ]


# -------------------------------------------------------------------- checks


def load_json(name: str) -> dict:
    with open(DATA / name) as fh:
        return json.load(fh)


class Checker:
    """Per-job correctness gate.  ``check`` returns None or a failure reason.

    run and compare stdout must match the committed sha256 for its argv (the
    byte-identical default output contract).  Every series-deep series must
    equal the rs oracle's series exactly on the window (order, 3*order+2).
    Numeric grid energies must fall within the stated relative tolerance of
    frozen references.
    """

    def __init__(self, digests: dict | None = None, energies: dict | None = None):
        self.digests = load_json("digests.json") if digests is None else digests
        doc = load_json("energies.json") if energies is None else energies
        self.references = doc["references"]
        self.tolerances = doc["tolerances"]
        self.energy_errors: list[float] = []
        self._rs_forms: dict[tuple[str, int], object] = {}
        # run argvs whose committed stdout already passed the rs check: a
        # later job that prints the same bytes passes it the same way.
        self._rs_passed: set[str] = set()

    def check(self, job: Job, code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if job.argv[0] in ("run", "compare"):
            want = self.digests.get(job.key)
            if want is None:
                return "no committed digest for this argv"
            if hashlib.sha256(out.encode()).hexdigest() != want:
                return "stdout differs from the committed digest"
            if job.argv[0] == "run" and job.key not in self._rs_passed:
                reason = self.check_rs_window(job, out)
                if reason is None:
                    self._rs_passed.add(job.key)
                return reason
            return None
        return self._check_energy(job, out)

    def _rs_form(self, b: str, order: int):
        from quadosc.oracle import rs_series
        from quadosc.perturbation import canonical_window

        key = (b, order)
        if key not in self._rs_forms:
            self._rs_forms[key] = canonical_window(rs_series(Fraction(b), order), (order, 3 * order + 2))
        return self._rs_forms[key]

    def check_rs_window(self, job: Job, out: str) -> str | None:
        from quadosc.cli import solution_from_doc
        from quadosc.perturbation import canonical_window

        sol = solution_from_doc(json.loads(out))
        form = canonical_window(sol, (job.order, 3 * job.order + 2))
        ref = self._rs_form(job.b, job.order)
        if form.chi.terms != ref.chi.terms or form.energies != ref.energies:
            return "series differs from the rs oracle on the window"
        return None

    def _check_energy(self, job: Job, out: str) -> str | None:
        doc = json.loads(out)
        block = doc["numeric"] if job.argv[0] == "report" else doc
        if block["pass"] is not True:
            return "series and grid energies disagree"
        ref = self.references[job.combo]
        err = abs(block["grid_energy"] - ref) / abs(ref)
        self.energy_errors.append(err)
        tol = self.tolerances[job.grid]
        if not err <= tol:
            return f"grid energy off by {err:.3e} relative (tolerance {tol:.1e})"
        return None
