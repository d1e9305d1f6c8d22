"""Independent verification of the sharp coefficient bounds.

Two routes: (1) seeded constrained search over admissible jets, with the
extremal corner (1, 0, 0) always forced into the sample so sharpness is
exact rather than probabilistic; (2) the two-variable reduction through
the concave quadratic h(t) whose vertex/case analysis yields the |A4|
bound analytically. Sample evaluation is block-parallel with a
deterministic first-max reduction, so reports are identical for any
worker count.

A block is evaluated for all tasks in one call. When it carries many
Fekete-Szego (FS) tasks, one ranking pass orders the block for every real
mu at once through y = |A3|^2 - 2 mu Re(A3 conj P) + mu^2 |P|^2 with
P = A2^2, a small matrix product. The reference |A3 - mu P| is then
computed only on the indices whose y lies within a rounding margin,
64 eps S^2 with S = max|A3| + |mu| max|P|, of the largest y. The margin
bounds the rounding of both routes (derived in _fs_maxima), so every
value and every first-maximum index is the one a whole-block pass gives,
bit for bit.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction

from . import schwarz
from .scalars import class_parameter, is_finite_real
from .schwarz import SchwarzJet
from .ulambda import (corner_jet, fekete_szego_bound, inverse_from_jet, inverse_weights,
                      theoretical_bounds)

FUNCTIONALS = ("A2", "A3", "A4", "FS")
SOUNDNESS_TOL = 1e-9
ATTAINMENT_TOL = 1e-3


# -- the h(t) analysis -------------------------------------------------------

def h_function(lam, c1_abs, t):
    """h(t) = L - t^2/L + 6(1+L)|c1| t + 2(1+L)^3 |c1|^3 on 0 <= t <= L.

    Twice the |A4| candidate after the triangle-inequality regrouping.
    Accepts floats or Fractions (exact in, exact out).
    """
    lam, _ = class_parameter(lam)
    if not 0 <= c1_abs <= 1:
        raise ValueError("|c1| must lie in [0, 1]")
    if not 0 <= t <= lam:
        raise ValueError("t must lie in [0, lam]")
    return lam - t * t / lam + 6 * (1 + lam) * c1_abs * t + 2 * (1 + lam) ** 3 * c1_abs ** 3


def h_vertex(lam, c1_abs):
    """Unconstrained maximizer 3 L (1+L) |c1| of the concave parabola."""
    return 3 * lam * (1 + lam) * c1_abs


def case_threshold(lam):
    """|c1| value where the vertex hits t = L: 1 / (3 (1+L))."""
    return 1 / (3 * (1 + lam))


@dataclass(frozen=True)
class A4CaseAnalysis:
    lam: object
    c1_abs: object
    t_vertex: object
    case: str  # "one" | "two"
    t_star: object
    h_max: object

    @property
    def a4_candidate(self):
        return self.h_max / 2


def a4_case_bound(lam, c1_abs):
    """Maximize h over t in [0, L] for fixed |c1|.

    Case one (vertex inside the interval, |c1| <= 1/(3(1+L))) peaks at the
    vertex; case two peaks at the endpoint t = L. h_function checks the
    arguments.
    """
    t0 = h_vertex(lam, c1_abs)
    if t0 <= lam:
        case, t_star = "one", t0
    else:
        case, t_star = "two", lam
    return A4CaseAnalysis(lam, c1_abs, t0, case, t_star,
                          h_function(lam, c1_abs, t_star))


def a4_global_bound(lam):
    """Exact max of the |A4| candidate h/2 over |c1| in [0, 1], t in [0, L].

    For t >= 0, h is nondecreasing in |c1|, and at |c1| = 1 the vertex
    3L(1+L) lies beyond L, so the max is h(1, L)/2 = (1+L)(1+5L+L^2).
    """
    lam = Fraction(lam)
    return h_function(lam, 1, lam) / 2


def case_one_cap(lam):
    """Exact max of the |A4| candidate on the case-one region.

    On case one h peaks at its vertex, and that peak increases with |c1|,
    so the cap is its value at the threshold 1/(3(1+L)): L + 1/27.
    """
    lam = Fraction(lam)
    return a4_case_bound(lam, case_threshold(lam)).a4_candidate


def gap_certificate():
    """Coefficients, lowest degree first, of B4 - 2L - 1/27 as a polynomial
    in L, computed exactly from the shared weight table."""
    from numpy.polynomial import Polynomial
    L = Polynomial([Fraction(0), Fraction(1)])  # Fraction entries: an object array
    return list((inverse_weights(L)[3] - 2 * L - Fraction(1, 27)).coef)


def verify_gap_inequality():
    """Certify (1+L)(1+5L+L^2) > 2L + 1/27 on (0, 1] exactly.

    The difference is 26/27 + 4L + 6L^2 + L^3; every coefficient is
    positive, so it is positive for every L > 0.
    """
    return all(c > 0 for c in gap_certificate())


# -- search -------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    samples: int = 20000
    seed: int = 20250810
    strategy: str = "boundary-biased"
    tolerance: float = SOUNDNESS_TOL

    def __post_init__(self):
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.strategy not in schwarz.STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not (is_finite_real(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be a finite positive number, got {self.tolerance!r}")

    @classmethod
    def from_json(cls, data):
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown search config fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self):
        return {"samples": self.samples, "seed": self.seed, "strategy": self.strategy,
                "tolerance": self.tolerance}


@dataclass(frozen=True)
class BoundReport:
    functional: str
    lam: float
    mu: object  # None for plain coefficient functionals
    theoretical: float
    empirical_max: float
    argmax_jet: SchwarzJet
    argmax_index: int  # global sample index; 0 is the corner
    gap: float
    samples: int
    seed: int

    def sound(self, tol=SOUNDNESS_TOL):
        return self.gap >= -tol

    def text_line(self):
        """The report as verify and scan print it, without a status."""
        mu = "" if self.mu is None else f" mu={self.mu}"
        return (f"{self.functional} lambda={self.lam!r}{mu} theoretical={self.theoretical!r} "
                f"empirical={self.empirical_max!r} gap={self.gap!r}")

    def csv_row(self):
        mu = "" if self.mu is None else repr(float(self.mu)) if isinstance(self.mu, (int, float)) \
            else repr(complex(self.mu))
        return (f"{self.functional},{self.lam!r},{mu},{self.theoretical!r},"
                f"{self.empirical_max!r},{self.gap!r},{self.samples},{self.seed}")

    def to_json(self):
        mu = None
        if self.mu is not None:
            muc = complex(self.mu)
            mu = [muc.real, muc.imag]
        return {
            "functional": self.functional,
            "lambda": self.lam,
            "mu": mu,
            "theoretical": self.theoretical,
            "empirical_max": self.empirical_max,
            "argmax_jet": self.argmax_jet.to_json(),
            "argmax_index": self.argmax_index,
            "gap": self.gap,
            "samples": self.samples,
            "seed": self.seed,
        }


CSV_HEADER = "functional,lambda,mu,theoretical,empirical_max,gap,samples,seed"


def reports_to_csv(reports):
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in reports]) + "\n"


def reports_to_json(reports, extra=None):
    payload = {"reports": [r.to_json() for r in reports]}
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def worker_count():
    """Worker cap from COEFFFORGE_THREADS (default 1: fully sequential)."""
    raw = os.environ.get("COEFFFORGE_THREADS", "")
    try:
        n = int(raw) if raw else 1
    except ValueError:
        raise ValueError(f"COEFFFORGE_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def _functional_values(tasks, coeffs):
    """(maximum, first index attaining it) of each task's functional on a
    block, from the block's (A2, A3, A4) arrays.

    Every value is a reference expression: abs(Ak) for a coefficient and
    abs(A3 - mu * P) with P = A2 * A2 for FS. With _RANK_MIN_TASKS or more FS
    tasks, _fs_maxima ranks the block for every real mu at once and
    evaluates the reference only where a maximum can lie; any other FS task
    evaluates it on the whole block.
    """
    A2, A3, _ = coeffs
    fs = [i for i, (name, _) in enumerate(tasks) if name == "FS"]
    P = A2 * A2 if fs else None
    found = {}
    if len(fs) >= _RANK_MIN_TASKS:
        found = dict(zip(fs, _fs_maxima(A3, P, [tasks[i][1] for i in fs])))
    out = []
    for i, (name, mu) in enumerate(tasks):
        hit = found.get(i)
        if hit is None:
            values = abs(A3 - mu * P) if name == "FS" else abs(coeffs[FUNCTIONALS.index(name)])
            k = int(values.argmax())
            hit = (float(values[k]), k)
        out.append(hit)
    return out


# On 8192-jet blocks the ranking pass costs about three whole-block
# evaluations of |A3 - mu P| plus a third of one per mu: it pays from five
# FS tasks on (measured; four is a tie).
_RANK_MIN_TASKS = 5
_RANK_CHUNK = 16  # mu values per (chunk x 3) @ (3 x n) product: 1 MB at n = 8192
_RANK_MARGIN = 64 * 2.0 ** -52  # times S^2; the derivation is in _fs_maxima
_RANK_RANGE = (2.0 ** -200, 2.0 ** 200)


def _fs_maxima(A3, P, mus):
    """For each mu, (maximum, first index attaining it) of
    abs(A3 - mu * P), or None where mu is not ranked.

    For real mu, |A3 - mu P|^2 = y = |A3|^2 - 2 mu Re(A3 conj P) + mu^2 |P|^2,
    and y for up to _RANK_CHUNK values of mu is one small matrix product.
    The candidates of mu are the indices with y >= max(y) - margin, where
    margin = _RANK_MARGIN * S^2 and S = max|A3| + |mu| max|P|. The reference
    abs(A3[c] - mu * P[c]) is evaluated on the candidates c alone, and its
    first maximum by index is the block's: numpy rounds each element the
    same wherever it sits, and a real mu times P rounds each part once
    whether mu is a scalar or an array entry.

    Why every index attaining the computed maximum of v = abs(A3 - mu * P)
    is a candidate. Let u = 2^-53, g_k = k u / (1 - k u), a = |A3_j|,
    p = |P_j|, m = |mu|, S_j = a + m p <= S, x = |A3_j - mu P_j| <= S_j, and
    take P as exact (both routes use the same array).
      - Reference: mu * P rounds each part once (error <= u m p); the
        subtraction rounds each part once (<= u |A3 - fl(mu P)|); numpy's
        complex abs is a scaled hypot with relative error below 4u (measured
        under 2.1u). So |v - x| <= 6.1 u S_j and |v^2 - x^2| <= 12.3 u S_j^2.
      - Ranking: |A3|^2 and |P|^2 carry relative error g_2, Re(A3 conj P)
        absolute error g_2 a p, mu^2 relative error u, and a three-term dot
        product in any order adds g_3 of the sum of its term moduli. So
        |y_computed - x^2| <= g_6 (a + m p)^2 <= 6.1 u S_j^2.
    Each computed y is thus within E = 18.4 u S^2 of v^2. If j attains the
    maximum of v, every y_k <= v_k^2 + E <= v_j^2 + E <= y_j + 2E, so j lies
    within 2E = 36.8 u S^2 of max(y). S from the computed squares is low by
    at most 5u relative, and forming max(y) - margin rounds by at most
    1.1 u S^2; the margin 128 u S^2 covers 38 u S^2 with room to spare.
    Over- and underflow would void these bounds, so mu is ranked only when
    |mu|, max|A3| and max|P| are at most 2^200 and S is at least 2^-200:
    then no step overflows and an underflow moves y by under 2^-670, far
    below u S^2 >= 2^-453. Any other mu, and any mu not an int or float,
    is not ranked.
    """
    import numpy as np
    rows = np.stack([A3.real * A3.real + A3.imag * A3.imag,
                     A3.real * P.real + A3.imag * P.imag,
                     P.real * P.real + P.imag * P.imag])
    a_top, p_top = (float(np.sqrt(rows[r].max())) for r in (0, 2))
    lo, hi = _RANK_RANGE
    out = [None] * len(mus)
    if max(a_top, p_top) > hi:
        return out
    ranked = [i for i, mu in enumerate(mus) if isinstance(mu, (int, float))
              and abs(mu) <= hi and a_top + abs(mu) * p_top >= lo]
    n = len(A3)
    y = np.empty((min(_RANK_CHUNK, len(ranked)), n))
    for start in range(0, len(ranked), _RANK_CHUNK):
        chunk = ranked[start:start + _RANK_CHUNK]
        mu = np.array([float(mus[i]) for i in chunk])
        yc = np.matmul(np.stack([np.ones_like(mu), -2.0 * mu, mu * mu], axis=1), rows,
                       out=y[:len(chunk)])
        S = a_top + np.abs(mu) * p_top
        floor = yc.max(axis=1) - _RANK_MARGIN * S * S
        row, c = np.divmod(np.flatnonzero(yc >= floor[:, None]), n)
        values = abs(A3[c] - mu[row] * P[c])
        ends = np.searchsorted(row, np.arange(len(chunk) + 1))
        for r, i in enumerate(chunk):
            k = ends[r] + int(values[ends[r]:ends[r + 1]].argmax())
            out[i] = (float(values[k]), int(c[k]))
    return out


def _theoretical(name, mu, lam):
    if name == "FS":
        return float(fekete_szego_bound(lam, mu))
    return theoretical_bounds(lam)[FUNCTIONALS.index(name)]


def _requested(functionals, mus):
    """Normalize to a list of (name, mu-or-None) tasks."""
    if not functionals:
        raise ValueError("empty functional list")
    tasks = []
    for name in functionals:
        if name not in FUNCTIONALS:
            raise ValueError(f"unknown functional {name!r}")
        if name == "FS":
            if not mus:
                raise ValueError("the Fekete-Szego functional needs mu")
            tasks.extend(("FS", mu) for mu in mus)
        else:
            tasks.append((name, None))
    return tasks


def _search_lambda(lam, tasks, bounds, search):
    """Shared-sample search for several functionals at one parameter value,
    reported against each task's theoretical bound.

    The corner jet is global index 0; random blocks follow. Reduction is a
    strict-max over index order, so ties resolve to the first attaining
    sample (the corner, whenever it is extremal).
    """
    import numpy as np
    lam = float(lam)
    corner = corner_jet(lam)
    coeffs = inverse_from_jet(lam, *(np.array([c]) for c in (corner.c1, corner.c2, corner.c3)))

    best = [(val, 0, corner) for val, _ in _functional_values(tasks, coeffs)]

    remaining = search.samples - 1
    if remaining > 0:
        nblocks = (remaining + schwarz.block_size() - 1) // schwarz.block_size()

        def eval_block(b):
            c1, c2, c3 = schwarz.sample_block_arrays(lam, search.seed, b,
                                                     search.strategy)
            take = min(schwarz.block_size(), remaining - b * schwarz.block_size())
            c1, c2, c3 = c1[:take], c2[:take], c3[:take]
            found = _functional_values(tasks, inverse_from_jet(lam, c1, c2, c3))
            jets = {k: SchwarzJet(complex(c1[k]), complex(c2[k]), complex(c3[k]))
                    for k in {k for _, k in found}}
            return [(val, k, jets[k]) for val, k in found]

        workers = worker_count()
        if workers > 1 and nblocks > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                block_results = list(pool.map(eval_block, range(nblocks)))
        else:
            block_results = [eval_block(b) for b in range(nblocks)]

        for b, result in enumerate(block_results):
            offset = 1 + b * schwarz.block_size()
            for t, (val, k, jet) in enumerate(result):
                if val > best[t][0]:
                    best[t] = (val, offset + k, jet)

    return [BoundReport(name, lam, mu, theo, val, jet, index, theo - val,
                        search.samples, search.seed)
            for (name, mu), theo, (val, index, jet) in zip(tasks, bounds, best)]


def scan_lambda(functionals, lambda_grid, mu_grid=None, search=None):
    """One BoundReport per (lambda, functional[, mu]) combination.

    The whole request is checked before the first block is sampled: every
    grid point lies in (0, 1], every functional is known, and every
    theoretical bound is finite in float arithmetic.
    """
    search = search or SearchConfig()
    grid = [float(lam) for lam in lambda_grid]
    if not grid:
        raise ValueError("empty lambda grid")
    tasks = _requested(functionals, mu_grid)
    if not all(0 < lam <= 1 for lam in grid):
        raise ValueError("grid points must lie in (0, 1]")
    bounds = [[_theoretical(name, mu, lam) for name, mu in tasks] for lam in grid]
    for lam, row in zip(grid, bounds):
        for (name, mu), bound in zip(tasks, row):
            if not is_finite_real(bound):
                raise ValueError(f"the {name} bound overflows float arithmetic "
                                 f"at lambda={lam!r}, mu={mu!r}")
    return [report for lam, row in zip(grid, bounds)
            for report in _search_lambda(lam, tasks, row, search)]


def sharpness_claimed(report):
    """Whether the theorem asserts the searched bound is attained: always
    for the coefficient functionals, for FS when mu is real and at most 1,
    where the corner's value L + (1-mu)(1+L)^2 is the bound."""
    if report.functional != "FS":
        return True
    mu = complex(report.mu)
    return mu.imag == 0.0 and mu.real <= 1.0
