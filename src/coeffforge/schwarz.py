"""Admissible initial coefficients of analytic self-maps of the disk.

A jet is the triple (c1, c2, c3) of leading coefficients of a function
omega with omega(0) = 0 and |omega| < 1. Membership of the generated
function in the lambda-class imposes, beyond the classical constraints
|c1| <= 1 and |c2| <= 1 - |c1|^2, the pair

    t := |(1+L)c2 - L c1^2| <= L,
    |2(1+L)c3 - 4L c1 c2|   <= L - t^2/L,

with L the class parameter. The sampler emits only jets satisfying all of
these, in aligned blocks of 8192 (sample_block_arrays) under one of two
strategies, "uniform" or "boundary-biased". Extremal configurations sit
on the boundary, so float admissibility tests allow a 1e-12 band while
exact jets are compared exactly (via squared moduli, which stay rational).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import EXACT, FLOAT, QComplex, as_scalar, rational_sqrt, to_complex

BOUNDARY_TOL = 1e-12
STRATEGIES = ("uniform", "boundary-biased")
_BLOCK = 8192


@dataclass(frozen=True)
class SchwarzJet:
    c1: object
    c2: object
    c3: object

    @property
    def mode(self):
        return EXACT if isinstance(self.c1, QComplex) else FLOAT

    def as_float(self):
        return SchwarzJet(to_complex(self.c1), to_complex(self.c2), to_complex(self.c3))

    def as_exact(self):
        """Exact jet with the same value (floats convert by binary value)."""
        return SchwarzJet(as_scalar(self.c1, EXACT), as_scalar(self.c2, EXACT),
                          as_scalar(self.c3, EXACT))

    def rotated(self, theta):
        """Jet of z -> e^{-i theta} omega(e^{i theta} z)."""
        w = complex(math.cos(theta), math.sin(theta))
        c1, c2, c3 = to_complex(self.c1), to_complex(self.c2), to_complex(self.c3)
        return SchwarzJet(w * c1, w * w * c2, w * w * w * c3)

    def to_json(self):
        c1, c2, c3 = to_complex(self.c1), to_complex(self.c2), to_complex(self.c3)
        return {"c1": [c1.real, c1.imag], "c2": [c2.real, c2.imag], "c3": [c3.real, c3.imag]}

    @classmethod
    def from_json(cls, data):
        try:
            return cls(complex(*data["c1"]), complex(*data["c2"]), complex(*data["c3"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed jet record: {exc}") from exc


@dataclass(frozen=True)
class JetConstraintProfile:
    """Derived quantities of the class constraints for one jet.

    t is the modulus |(1+L)c2 - L c1^2| (exact whenever its square is a
    perfect rational square, e.g. for the extremal corner), c3_slack is
    L - t^2/L, and the two flags report the first and second constraint.
    """
    lam: object
    t: object
    t_sq: object
    c3_slack: object
    first_ok: bool
    second_ok: bool

    @property
    def satisfied(self):
        return self.first_ok and self.second_ok


def is_schur_admissible(c1, c2, tol=BOUNDARY_TOL):
    """|c1| <= 1 and |c2| <= 1 - |c1|^2, exact for exact scalars."""
    if isinstance(c1, QComplex) or isinstance(c2, QComplex):
        c1 = as_scalar(c1, EXACT)
        c2 = as_scalar(c2, EXACT)
        s = 1 - c1.abs2()
        return s >= 0 and c2.abs2() <= s * s
    a1 = abs(complex(c1))
    if a1 > 1.0 + tol:
        return False
    return abs(complex(c2)) <= max(1.0 - a1 * a1, 0.0) + tol


def jet_constraint_profile(lam, jet, tol=BOUNDARY_TOL):
    """Evaluate both class constraints; exact comparisons for exact jets."""
    exact = isinstance(lam, (int, Fraction)) and jet.mode == EXACT
    if exact:
        lam = Fraction(lam)
        if not 0 < lam <= 1:
            raise ValueError("class parameter must lie in (0, 1]")
        c1, c2, c3 = jet.c1, jet.c2, jet.c3
        expr = (1 + lam) * c2 - lam * c1 * c1
        t_sq = expr.abs2()
        slack = lam - t_sq / lam
        root = rational_sqrt(t_sq)
        t = root if root is not None else math.sqrt(float(t_sq))
        first = t_sq <= lam * lam
        lhs = 2 * (1 + lam) * c3 - 4 * lam * c1 * c2
        second = slack >= 0 and lhs.abs2() <= slack * slack
        return JetConstraintProfile(lam, t, t_sq, slack, first, second)
    lam = float(lam)
    if not 0 < lam <= 1:
        raise ValueError("class parameter must lie in (0, 1]")
    c1, c2, c3 = to_complex(jet.c1), to_complex(jet.c2), to_complex(jet.c3)
    t = abs((1 + lam) * c2 - lam * c1 * c1)
    slack = lam - t * t / lam
    first = t <= lam + tol
    lhs = abs(2 * (1 + lam) * c3 - 4 * lam * c1 * c2)
    second = lhs <= max(slack, 0.0) + tol
    return JetConstraintProfile(lam, t, t * t, slack, first, second)


def is_admissible(lam, jet, tol=BOUNDARY_TOL):
    """Full admissibility: Schur-Carlson plus the class pair."""
    return (is_schur_admissible(jet.c1, jet.c2, tol)
            and jet_constraint_profile(lam, jet, tol).satisfied)


def rationalize(jet, max_denominator=None):
    """Exact jet from a float jet; optionally cap denominators."""
    exact = jet.as_exact()
    if max_denominator is None:
        return exact

    def cap(q):
        return QComplex(q.re.limit_denominator(max_denominator),
                        q.im.limit_denominator(max_denominator))

    return SchwarzJet(cap(exact.c1), cap(exact.c2), cap(exact.c3))


# -- sampling ---------------------------------------------------------------

def sample_jets(lam, count, seed=0, strategy="uniform"):
    """Deterministic sequence of admissible jets.

    uniform          draws area-uniform in each feasible disk;
    boundary-biased  concentrates near |c1| = 1 and the saturated
                     constraints, where the extremal values live.
    """
    c1, c2, c3 = sample_jet_arrays(lam, count, seed, strategy)
    return [SchwarzJet(complex(c1[i]), complex(c2[i]), complex(c3[i]))
            for i in range(count)]


def sample_jet_arrays(lam, count, seed=0, strategy="uniform"):
    """The first count jets of the block sequence, as (c1, c2, c3) arrays."""
    import numpy as np
    if count < 1:
        raise ValueError("count must be >= 1")
    blocks = [sample_block_arrays(lam, seed, b, strategy)
              for b in range((count + _BLOCK - 1) // _BLOCK)]
    return tuple(np.concatenate(part)[:count] for part in zip(*blocks))


def block_size():
    return _BLOCK


def sample_block_arrays(lam, seed, block_index, strategy="uniform"):
    """One aligned block of 8192 jets as (c1, c2, c3) complex arrays.

    Block b is driven by default_rng([seed, b]) alone, so any partition of
    the block range across workers reproduces the sequential output.
    """
    import numpy as np
    lam = float(lam)
    if not 0 < lam <= 1:
        raise ValueError("class parameter must lie in (0, 1]")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = np.random.default_rng([seed, block_index])
    n = _BLOCK
    biased = strategy == "boundary-biased"

    r1 = rng.random(n) ** 0.125 if biased else np.sqrt(rng.random(n))
    c1 = r1 * np.exp(2j * np.pi * rng.random(n))
    schur = np.clip(1.0 - r1 * r1, 0.0, None)

    # Feasible c2 set: |c2| <= schur intersected with the disk
    # |c2 - m2| <= R2 equivalent to the first class constraint.
    m2 = lam * c1 * c1 / (1.0 + lam)
    R2 = lam / (1.0 + lam)
    if biased:
        # half the slots sit on the outer rim of the set, along a random ray
        ray = np.exp(2j * np.pi * rng.random(n))
        proj = m2 * np.conj(ray)
        reach = proj.real + np.sqrt(np.clip(R2 * R2 - proj.imag ** 2, 0.0, None))
        c2 = np.minimum(schur, reach) * ray
        inner = rng.random(n) < 0.5
        c2[inner] = _fill_c2(rng, schur[inner], m2[inner], R2)
    else:
        c2 = _fill_c2(rng, schur, m2, R2)

    t = (1.0 + lam) * np.abs(c2 - m2)
    slack = np.clip(lam - t * t / lam, 0.0, None)
    m3 = 2.0 * lam * c1 * c2 / (1.0 + lam)
    R3 = slack / (2.0 * (1.0 + lam))
    radial = np.sqrt(rng.random(n))
    if biased:
        radial[rng.random(n) < 0.5] = 1.0
    c3 = m3 + R3 * radial * np.exp(2j * np.pi * rng.random(n))
    return c1, c2, c3


def _fill_c2(rng, schur, m2, R2):
    """Area-uniform draw from the feasible c2 region by rejection.

    The region is the intersection of the Schur disk |c2| <= schur and the
    class disk |c2 - m2| <= R2. Each round proposes one point per unfilled
    slot, area-uniform in the smaller of the two disks, and keeps it if it
    lies in both; a kept point is area-uniform on the intersection. Both
    disks contain 0, and the lens area then keeps the acceptance of each
    proposal above 0.39 for every L in (0, 1] and |c1| < 1.
    """
    import numpy as np
    centre = np.where(schur <= R2, 0.0, m2)
    radius = np.minimum(schur, R2)
    out = np.empty(len(schur), complex)
    pending = np.arange(len(schur))
    while pending.size:
        k = pending.size
        cand = centre[pending] + radius[pending] * np.sqrt(rng.random(k)) \
            * np.exp(2j * np.pi * rng.random(k))
        ok = (np.abs(cand) <= schur[pending]) & (np.abs(cand - m2[pending]) <= R2)
        out[pending[ok]] = cand[ok]
        pending = pending[~ok]
    return out
