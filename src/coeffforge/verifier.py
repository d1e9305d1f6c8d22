"""Independent verification of the sharp coefficient bounds.

Two routes: (1) seeded constrained search over admissible jets, with the
extremal corner (1, 0, 0) always forced into the sample so sharpness is
exact rather than probabilistic; (2) the two-variable reduction through
the concave quadratic h(t) whose vertex/case analysis yields the |A4|
bound analytically. Sample evaluation is block-parallel with a
deterministic first-max reduction, so reports are identical for any
worker count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from . import schwarz
from .scalars import FLOAT
from .schwarz import SchwarzJet
from .ulambda import (ULambdaParams, corner_jet, fekete_szego_bound, inverse_from_jet,
                      inverse_weights, theoretical_bounds)

FUNCTIONALS = ("A2", "A3", "A4", "FS")
SOUNDNESS_TOL = 1e-9
ATTAINMENT_TOL = 1e-3


# -- the h(t) analysis -------------------------------------------------------

def h_function(lam, c1_abs, t):
    """h(t) = L - t^2/L + 6(1+L)|c1| t + 2(1+L)^3 |c1|^3 on 0 <= t <= L.

    Twice the |A4| candidate after the triangle-inequality regrouping.
    Accepts floats or Fractions (exact in, exact out).
    """
    if not 0 < lam <= 1:
        raise ValueError("class parameter must lie in (0, 1]")
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
    vertex; case two peaks at the endpoint t = L.
    """
    if not 0 < lam <= 1:
        raise ValueError("class parameter must lie in (0, 1]")
    if not 0 <= c1_abs <= 1:
        raise ValueError("|c1| must lie in [0, 1]")
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
    L = Polynomial(np.array([Fraction(0), Fraction(1)], dtype=object))
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
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.strategy not in schwarz.STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")

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
    gap: float
    samples: int
    seed: int

    def sound(self, tol=SOUNDNESS_TOL):
        return self.gap >= -tol

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


def _functional_values(name, mu, coeffs):
    """Values of one functional on a block, from its (A2, A3, A4) arrays."""
    if name == "FS":
        A2, A3, _ = coeffs
        return np.abs(A3 - mu * (A2 * A2))
    return np.abs(coeffs[FUNCTIONALS.index(name)])


def _theoretical(name, mu, lam):
    params = ULambdaParams(lam, FLOAT)
    if name == "FS":
        return float(fekete_szego_bound(params, mu))
    return theoretical_bounds(params).as_tuple()[FUNCTIONALS.index(name)]


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


def _search_lambda(lam, tasks, search):
    """Shared-sample search for several functionals at one parameter value.

    The corner jet is global index 0; random blocks follow. Reduction is a
    strict-max over index order, so ties resolve to the first attaining
    sample (the corner, whenever it is extremal).
    """
    lam = float(lam)
    corner = corner_jet(FLOAT)
    coeffs = inverse_from_jet(lam, *(np.array([c]) for c in (corner.c1, corner.c2, corner.c3)))

    best = {}
    for name, mu in tasks:
        val = float(_functional_values(name, mu, coeffs)[0])
        best[(name, mu)] = (val, 0, corner)

    remaining = search.samples - 1
    if remaining > 0:
        nblocks = (remaining + schwarz.block_size() - 1) // schwarz.block_size()

        def eval_block(b):
            c1, c2, c3 = schwarz.sample_block_arrays(lam, search.seed, b,
                                                     search.strategy)
            take = min(schwarz.block_size(), remaining - b * schwarz.block_size())
            c1, c2, c3 = c1[:take], c2[:take], c3[:take]
            coeffs = inverse_from_jet(lam, c1, c2, c3)
            out = {}
            for name, mu in tasks:
                vals = _functional_values(name, mu, coeffs)
                k = int(np.argmax(vals))
                out[(name, mu)] = (float(vals[k]), k,
                                   SchwarzJet(complex(c1[k]), complex(c2[k]),
                                              complex(c3[k])))
            return out

        workers = worker_count()
        if workers > 1 and nblocks > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                block_results = list(pool.map(eval_block, range(nblocks)))
        else:
            block_results = [eval_block(b) for b in range(nblocks)]

        for b, result in enumerate(block_results):
            offset = 1 + b * schwarz.block_size()
            for key, (val, k, jet) in result.items():
                if val > best[key][0]:
                    best[key] = (val, offset + k, jet)

    reports = []
    for name, mu in tasks:
        val, _, jet = best[(name, mu)]
        theo = _theoretical(name, mu, lam)
        reports.append(BoundReport(name, lam, mu, theo, val, jet, theo - val,
                                   search.samples, search.seed))
    return reports


def verify_bound(params, functional, mu=None, search=None):
    """One empirical BoundReport; the search itself runs in float mode."""
    search = search or SearchConfig()
    tasks = _requested([functional], [mu] if mu is not None else None)
    return _search_lambda(params.lam_float if isinstance(params, ULambdaParams)
                          else float(params), tasks, search)[0]


def scan_lambda(functionals, lambda_grid, mu_grid=None, search=None):
    """One BoundReport per (lambda, functional[, mu]) combination."""
    search = search or SearchConfig()
    lambda_grid = list(lambda_grid)
    if not lambda_grid:
        raise ValueError("empty lambda grid")
    tasks = _requested(functionals, mu_grid)
    reports = []
    for lam in lambda_grid:
        lam = float(lam)
        if not 0 < lam <= 1:
            raise ValueError("grid points must lie in (0, 1]")
        reports.extend(_search_lambda(lam, tasks, search))
    return reports


def sharpness_claimed(report):
    """Whether the theorem asserts the searched bound is attained: always
    for the coefficient functionals, for FS only when mu is real in [0,1]."""
    if report.functional != "FS":
        return True
    mu = complex(report.mu)
    return mu.imag == 0.0 and 0.0 <= mu.real <= 1.0
