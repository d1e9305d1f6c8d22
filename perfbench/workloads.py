"""The benchmark's workloads: CLI argv, unit of work, set-up and output checks.

Each workload is one ``python -m coeffforge ...`` command line. Its inputs
come from the benchmark seed only. ``prepare`` runs untimed before the
measured processes (reference runs, input files); ``check`` returns None
for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

SOUNDNESS_TOL = 1e-9
ATTAINMENT_TOL = 1e-3
SCAN_HEADER = ["functional", "lambda", "mu", "theoretical", "empirical_max", "gap",
               "samples", "seed"]


class SetupError(RuntimeError):
    """The workload's untimed set-up could not produce its reference."""


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    scale: str  # "full" or "tiny"
    state: dict = field(default_factory=dict)


@dataclass
class Outcome:
    rc: int
    stdout: bytes
    out_base: str | None = None


class Workload:
    name = ""
    threads = 1
    sizes = {}  # scale -> size parameter of the argv
    unit = ""
    tasks = 0  # (functional, mu) pairs evaluated on every search block
    counts_qcomplex = False  # whether the traced run counts QComplex operations

    def size(self, ctx):
        return self.sizes[ctx.scale]

    def argv(self, ctx, out_base):
        raise NotImplementedError

    def work(self, ctx):
        """Units of work done by one process (see ``unit``)."""
        raise NotImplementedError

    def prepare(self, ctx, run_reference):
        """Untimed set-up; ``run_reference(argv, threads, out_base)`` runs the
        CLI once and returns an Outcome."""

    def check(self, ctx, outcome):
        raise NotImplementedError


# -- verify ---------------------------------------------------------------------

class Verify(Workload):
    name = "verify-1m"
    threads = 2
    sizes = {"full": 1_000_000, "tiny": 20_000}
    unit = "jets"
    tasks = 4  # A2, A3, A4 and FS at mu = 0.5
    lambdas = 5  # the default config's lambda grid

    def argv(self, ctx, out_base):
        return ["verify", "--samples", str(self.size(ctx)), "--seed", str(ctx.seed),
                "--out", out_base]

    def work(self, ctx):
        return self.size(ctx) * self.lambdas

    def prepare(self, ctx, run_reference):
        base = str(ctx.work / "verify-reference")
        ref = run_reference(self.argv(ctx, base), 1, base)
        problem = _verify_status(ref)
        if problem:
            raise SetupError(f"single-thread reference run: {problem}")
        ctx.state["reference_csv"] = Path(base + ".csv").read_bytes()

    def check(self, ctx, outcome):
        problem = _verify_status(outcome)
        if problem:
            return problem
        csv_bytes = Path(outcome.out_base + ".csv").read_bytes()
        if csv_bytes != ctx.state["reference_csv"]:
            return "CSV differs from the COEFFFORGE_THREADS=1 reference"
        return None


def _verify_status(outcome):
    if outcome.rc != 0:
        return f"exit code {outcome.rc}"
    lines = outcome.stdout.decode().splitlines()
    if not lines or lines[-1] != "PASS":
        return "last line is not PASS"
    if not Path(outcome.out_base + ".csv").is_file():
        return "no CSV report written"
    return None


# -- scan -----------------------------------------------------------------------

class Scan(Workload):
    threads = 1
    unit = "jets"
    functional = ""
    lambda_text = ""
    lambda_grid = ()
    extra = ()

    def argv(self, ctx, out_base):
        return ["scan", "--functional", self.functional, "--lambda-grid",
                self.lambda_text, *self.extra,
                "--strategy", "uniform", "--samples", str(self.size(ctx)),
                "--seed", str(ctx.seed)]

    def work(self, ctx):
        return self.size(ctx) * len(self.lambda_grid)

    def expected(self):
        """(lambda, mu-or-None) of every expected row, in output order."""
        return [(lam, None) for lam in self.lambda_grid]

    def check(self, ctx, outcome):
        if outcome.rc != 0:
            return f"exit code {outcome.rc}"
        rows = list(csv.reader(io.StringIO(outcome.stdout.decode())))
        if not rows or rows[0] != SCAN_HEADER:
            return "missing or wrong CSV header"
        rows = rows[1:]
        expected = self.expected()
        if len(rows) != len(expected):
            return f"{len(rows)} rows, expected {len(expected)}"
        for row, (lam, mu) in zip(rows, expected):
            if len(row) != len(SCAN_HEADER):
                return f"malformed row {row}"
            functional, row_lam, row_mu, _, _, gap, samples, seed = row
            if functional != self.functional or float(row_lam) != lam:
                return f"unexpected row {row}"
            if int(samples) != self.size(ctx) or int(seed) != ctx.seed:
                return f"row reports samples={samples} seed={seed}"
            if mu is not None and not math.isclose(float(row_mu), mu, rel_tol=0,
                                                   abs_tol=1e-12):
                return f"row mu {row_mu}, expected {mu!r}"
            gap = float(gap)
            if not gap >= -SOUNDNESS_TOL:
                return f"gap {gap!r} below -{SOUNDNESS_TOL} (bound violated)"
            if self.sharp(mu) and not gap <= ATTAINMENT_TOL:
                return f"gap {gap!r} above {ATTAINMENT_TOL} where sharpness is claimed"
        return None

    def sharp(self, mu):
        return False


class ScanSmallLambda(Scan):
    name = "scan-small-lambda"
    sizes = {"full": 3 * 8192 + 1, "tiny": 2_000}
    functional = "A4"
    tasks = 1
    lambda_text = "0.02,0.05,0.1"
    lambda_grid = (0.02, 0.05, 0.1)


class ScanFeketeSzego(Scan):
    name = "scan-fs-mu"
    sizes = {"full": 400_000, "tiny": 5_000}
    functional = "FS"
    tasks = 201
    lambda_text = "1"
    lambda_grid = (1.0,)
    extra = ("--mu-grid=-1:2:201",)

    def expected(self):
        return [(1.0, float(mu)) for mu in np.linspace(-1.0, 2.0, 201)]

    def sharp(self, mu):
        # The theorem claims attainment for real mu in [0, 1] only.
        return mu is not None and 0.0 <= mu <= 1.0


# -- revert ---------------------------------------------------------------------

# sha256 of the stdout of `revert f_1/3 --order N --mode exact --format json`,
# recorded from the package's first release; exact mode must not change.
REVERT_DIGESTS = {
    24: "7fd7d7fed9347e9d00a3e8c1051cb5cb91a90315f9cf7b71bcfb9a18f7a17b7c",
    8: "644ce4818a0a5be5073d6ff6dd9ebb0be84f1cf41fd08e9c412142281c758381",
}
REVERT_LAMBDA = Fraction(1, 3)


class RevertExact(Workload):
    name = "revert-exact"
    sizes = {"full": 24, "tiny": 8}
    unit = "coefficients"
    counts_qcomplex = True

    def argv(self, ctx, out_base):
        return ["revert", "f_1/3", "--order", str(self.size(ctx)), "--mode", "exact",
                "--format", "json"]

    def work(self, ctx):
        return self.size(ctx) + 1

    def check(self, ctx, outcome):
        if outcome.rc != 0:
            return f"exit code {outcome.rc}"
        if hashlib.sha256(outcome.stdout).hexdigest() != REVERT_DIGESTS[self.size(ctx)]:
            return "output differs from the recorded exact digest"
        return check_revert_closed_forms(outcome.stdout)


def check_revert_closed_forms(stdout):
    """w^2..w^4 of the inverse of the extremal function equal
    -(1+L), 1+3L+L^2 and -(1+L)(1+5L+L^2)."""
    L = REVERT_LAMBDA
    closed = [-(1 + L), 1 + 3 * L + L * L, -(1 + L) * (1 + 5 * L + L * L)]
    try:
        coeffs = json.loads(stdout)
        got = [(Fraction(rn, rd), Fraction(jn, jd)) for rn, rd, jn, jd in coeffs[2:5]]
    except (ValueError, TypeError, ZeroDivisionError):
        return "output is not an exact series"
    if got != [(c, 0) for c in closed]:
        return "w^2..w^4 differ from the closed forms"
    return None


# -- membership -----------------------------------------------------------------

MEMBERSHIP_LAMBDA = Fraction(1, 2)
MEMBERSHIP_RADIUS = 0.9
MEMBERSHIP_ORDER = 24
JET_DENOMINATOR = 64


class MembershipSeries(Workload):
    name = "membership-series"
    sizes = {"full": 300_000, "tiny": 2_000}
    unit = "points"

    def argv(self, ctx, out_base):
        return ["membership", ctx.state["series_path"], "--lambda",
                str(MEMBERSHIP_LAMBDA), "--radius", repr(MEMBERSHIP_RADIUS),
                "--samples", str(self.size(ctx)), "--format", "json"]

    def work(self, ctx):
        return self.size(ctx)

    def prepare(self, ctx, run_reference):
        series, max_defect, argmax = member_series(ctx.seed, self.size(ctx))
        path = ctx.work / "series.json"
        path.write_text(json.dumps(series))
        ctx.state["series_path"] = str(path.relative_to(ctx.root))
        ctx.state["reference"] = (max_defect, argmax)

    def check(self, ctx, outcome):
        if outcome.rc != 0:
            return f"exit code {outcome.rc}"
        try:
            verdict = json.loads(outcome.stdout)
        except ValueError:
            return "output is not JSON"
        max_defect, argmax = ctx.state["reference"]
        if verdict.get("member_at_radius") is not True:
            return "verdict is not member-at-radius"
        if verdict.get("argmax_index") != argmax:
            return f"argmax_index {verdict.get('argmax_index')}, expected {argmax}"
        got = verdict.get("max_defect")
        if not isinstance(got, float) or abs(got - max_defect) > 1e-12 * max_defect:
            return f"max_defect {got!r}, expected {max_defect!r}"
        return None


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _abs2(a):
    return a[0] * a[0] + a[1] * a[1]


def _poly_mul(p, q):
    out = [(Fraction(0), Fraction(0))] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            re, im = _cmul(a, b)
            out[i + j] = (out[i + j][0] + re, out[i + j][1] + im)
    return out


def _admissible(c1, c2, c3, L):
    """The class constraints on a Schwarz jet, in exact arithmetic."""
    s = 1 - _abs2(c1)
    if s < 0 or _abs2(c2) > s * s:
        return False
    c1sq = _cmul(c1, c1)
    t_sq = _abs2(((1 + L) * c2[0] - L * c1sq[0], (1 + L) * c2[1] - L * c1sq[1]))
    slack = L - t_sq / L
    if slack < 0:
        return False
    c1c2 = _cmul(c1, c2)
    lhs = (2 * (1 + L) * c3[0] - 4 * L * c1c2[0], 2 * (1 + L) * c3[1] - 4 * L * c1c2[1])
    return _abs2(lhs) <= slack * slack


def _disk_point(rng, center, radius):
    r = radius * math.sqrt(rng.random())
    z = center + r * cmath.exp(2j * math.pi * rng.random())
    return (Fraction(round(z.real * JET_DENOMINATOR), JET_DENOMINATOR),
            Fraction(round(z.imag * JET_DENOMINATOR), JET_DENOMINATOR))


def _draw_jet(rng, L):
    """A jet on the 1/64 lattice that satisfies the class constraints."""
    lam = float(L)
    while True:
        c1 = _disk_point(rng, 0j, 1.0)
        z1 = complex(*map(float, c1))
        c2 = _disk_point(rng, lam * z1 * z1 / (1 + lam), lam / (1 + lam))
        z2 = complex(*map(float, c2))
        t = (1 + lam) * abs(z2 - lam * z1 * z1 / (1 + lam))
        slack = max(lam - t * t / lam, 0.0)
        c3 = _disk_point(rng, 2 * lam * z1 * z2 / (1 + lam), slack / (2 * (1 + lam)))
        if _admissible(c1, c2, c3, L):
            return c1, c2, c3


def member_series(seed, samples, attempts=1000):
    """Order-24 exact series of f for a seeded admissible jet whose defect
    scan says member-at-radius.

    With omega = c1 z + c2 z^2 + c3 z^3, z/f is the degree-6 polynomial
    g = (1 - omega)(1 - L omega), and f/z is its reciprocal truncated to
    order 23. A jet is kept when its scan is clearly below L and its
    largest defect is separated from the runner-up, so the verdict and the
    argmax index do not hinge on the last bit of a float.
    Returns (series in the CLI's exact JSON wire format, max |defect| of
    the numpy scan, index of its first occurrence).
    """
    L = MEMBERSHIP_LAMBDA
    rng = random.Random(seed)
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    for _ in range(attempts):
        c1, c2, c3 = _draw_jet(rng, L)
        omega = [zero, c1, c2, c3]
        first = [one] + [(-c[0], -c[1]) for c in omega[1:]]
        second = [one] + [(-L * c[0], -L * c[1]) for c in omega[1:]]
        g = _poly_mul(first, second)
        max_defect, argmax, runner_up = defect_scan(g, samples)
        if max_defect < 0.9 * float(L) and max_defect - runner_up > 1e-11 * max_defect:
            break
    else:
        raise SetupError("no admissible jet with a member-at-radius verdict")
    q = [one]
    for n in range(1, MEMBERSHIP_ORDER):
        acc_re, acc_im = Fraction(0), Fraction(0)
        for k in range(1, min(n, len(g) - 1) + 1):
            re, im = _cmul(g[k], q[n - k])
            acc_re += re
            acc_im += im
        q.append((-acc_re, -acc_im))
    series = [[0, 1, 0, 1]] + [[c[0].numerator, c[0].denominator, c[1].numerator,
                                c[1].denominator] for c in q]
    return series, max_defect, argmax


def defect_scan(g, samples):
    """Scan |g(z) - z g'(z) - 1| at z = r e^{2 pi i k / samples} with numpy:
    (max, index of its first occurrence, largest value at any other index)."""
    theta = 2.0 * math.pi * np.arange(samples) / samples
    z = MEMBERSHIP_RADIUS * np.exp(1j * theta)
    coeffs = [(1 - k) * complex(float(c[0]), float(c[1])) for k, c in enumerate(g)]
    coeffs[0] = 0j  # g(0) = 1 cancels the -1
    d = np.abs(np.polyval(coeffs[::-1], z))
    k = int(np.argmax(d))
    return float(d[k]), k, float(np.max(np.delete(d, k)))


WORKLOADS = {w.name: w for w in (Verify(), ScanSmallLambda(), ScanFeketeSzego(),
                                  RevertExact(), MembershipSeries())}
