"""Admissible initial coefficients of analytic self-maps of the disk.

A jet is the triple (c1, c2, c3) of leading coefficients of a function
omega with omega(0) = 0 and |omega| < 1. The admissible region is written
once, as disks (centre, radius), in c2_disks and c3_disk:

    c1 in the unit disk (0, 1),
    c2 in the Schur disk (0, 1 - |c1|^2),
    c2 in the class disk (L c1^2/(1+L), L/(1+L)),
    c3 in the class disk (2L c1 c2/(1+L), (L - t^2/L)/(2(1+L))),

with L the class parameter and t = |(1+L)c2 - L c1^2|. The two class
disks say that the generated function lies in the lambda-class. Each
expression serves exact scalars, complex numbers and numpy arrays alike.

The set is not complete: it omits the Schur condition on c3 (Carlson
1940), |c3(1-|c1|^2) + conj(c1) c2^2| <= (1-|c1|^2)^2 - |c2|^2, so it
holds jets of no Schwarz function, e.g. (4/5, 9/25, 36/125) at L = 1,
where Carlson forces c3 = -36/125. The bounds searched over it stay sound,
since it is a superset of the true set.

The sampler emits only jets in every disk, in aligned blocks of 8192
(sample_block_arrays) under one of two strategies, "uniform" or
"boundary-biased". Extremal configurations sit on the boundary, so float
admissibility tests allow a 1e-12 band while exact jets are compared
exactly (via squared moduli, which stay rational).
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import EXACT, FLOAT, QComplex, as_scalar, class_parameter, is_finite_real

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

    def as_exact(self):
        """Exact jet with the same value (floats convert by binary value)."""
        return SchwarzJet(as_scalar(self.c1, EXACT), as_scalar(self.c2, EXACT),
                          as_scalar(self.c3, EXACT))

    def to_json(self):
        c1, c2, c3 = (as_scalar(c, FLOAT) for c in (self.c1, self.c2, self.c3))
        return {"c1": [c1.real, c1.imag], "c2": [c2.real, c2.imag], "c3": [c3.real, c3.imag]}

    @classmethod
    def from_json(cls, data):
        """Inverse of ``to_json``; each part is [re] or [re, im] with finite
        real entries, and anything else raises ValueError."""
        try:
            parts = [data[name] for name in ("c1", "c2", "c3")]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed jet record: {exc}") from exc
        for name, part in zip(("c1", "c2", "c3"), parts):
            if not (isinstance(part, list) and 1 <= len(part) <= 2
                    and all(map(is_finite_real, part))):
                raise ValueError(f"malformed jet record: {name} must be [re, im] "
                                 "with finite real parts")
        return cls(*(complex(*part) for part in parts))


# -- the disks ----------------------------------------------------------------

def c2_disks(lam, c1, c1_sq):
    """The Schur disk and the class disk that hold c2, given c1 and |c1|^2."""
    return (0, 1 - c1_sq), (lam * c1 * c1 / (1 + lam), lam / (1 + lam))


def c3_disk(lam, c1, c2, t_sq):
    """The class disk that holds c3, given t^2 = |(1+L)c2 - L c1^2|^2.

    Its radius is negative when t > L, where no c3 is admissible."""
    return 2 * lam * c1 * c2 / (1 + lam), (lam - t_sq / lam) / (2 * (1 + lam))


def is_admissible(lam, jet, tol=BOUNDARY_TOL):
    """Whether the jet lies in every disk: exact for an exact jet and a
    rational L, otherwise in floats with a band of tol."""
    lam, mode = class_parameter(lam)
    if mode == EXACT and jet.mode == EXACT:
        c1, c2, c3, abs2 = jet.c1, jet.c2, jet.c3, QComplex.abs2
    else:
        # a product, not ** 2: a float square beyond the range is inf, not OverflowError
        lam, abs2 = float(lam), lambda z: abs(z) * abs(z)
        c1, c2, c3 = (as_scalar(c, FLOAT) for c in (jet.c1, jet.c2, jet.c3))
    schur, cls = c2_disks(lam, c1, abs2(c1))
    if not (_in_disk(c1, (0, 1), tol) and _in_disk(c2, schur, tol)
            and _in_disk(c2, cls, tol)):
        return False
    return _in_disk(c3, c3_disk(lam, c1, c2, (1 + lam) ** 2 * abs2(c2 - cls[0])), tol)


def _in_disk(z, disk, tol):
    """|z - centre| <= radius: on squared moduli for an exact z, else on
    moduli within tol, where a negative radius counts as 0."""
    centre, radius = disk
    d = z - centre
    if isinstance(d, QComplex):
        return radius >= 0 and d.abs2() <= radius * radius
    return abs(d) <= max(radius, 0.0) + tol


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
    lam = float(class_parameter(lam)[0])
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = np.random.default_rng([seed, block_index])
    n = _BLOCK
    biased = strategy == "boundary-biased"

    r1 = rng.random(n) ** 0.125 if biased else np.sqrt(rng.random(n))
    c1 = r1 * np.exp(2j * np.pi * rng.random(n))
    (_, schur), (m2, R2) = c2_disks(lam, c1, r1 * r1)
    schur = np.clip(schur, 0.0, None)
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
    m3, R3 = c3_disk(lam, c1, c2, t * t)
    R3 = np.clip(R3, 0.0, None)
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
