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
since it is a superset of the true set. The Carlson disk cannot just join
the c3 row: at (9/10, 19/100), in both c2 disks at L = 1, it is the point
-171/1000, outside the class disk (171/1000, 8151/40000).

The sampler emits jets in every disk up to float rounding, in aligned
blocks of 8192 (sample_block_arrays) under one of two strategies, "uniform"
or "boundary-biased". Uniform jets pass the exact is_admissible; 39-48% of
biased jets, drawn on the disk rims, fail it by at most 1.7e-16. Block b
draws from default_rng([seed, b]) first what is free of L: c1 and the c3
offsets v (unit-disk points, by rejection from the square), and for the
biased strategy |c1|, the ray and depth of c2 and the two rim masks.
sample_grid_block shares these over a grid of L; only the uniform strategy
draws per L, restoring the generator state after them to draw c2 by
rejection. Then c3 = m3 + R3 v. Extremal jets sit on
the boundary, so is_admissible judges a jet exactly: a float L or part
enters by its binary value, and moduli are compared squared, as rationals.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .scalars import EXACT, FLOAT, as_scalar, class_parameter, is_finite_real

STRATEGIES = ("uniform", "boundary-biased")
_BLOCK = 8192


class SchwarzJet(namedtuple("SchwarzJet", "c1 c2 c3")):
    __slots__ = ()

    def to_json(self):
        c1, c2, c3 = (as_scalar(c, FLOAT) for c in self)
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


class SearchConfig(namedtuple("SearchConfig", "samples seed strategy",
                              defaults=(20000, 20250810, "boundary-biased"))):
    """The sampler's request: jets per lambda, the corner included, the
    seed of the stream and a strategy of STRATEGIES."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        return self

    def to_json(self):
        return self._asdict()


# -- the disks ----------------------------------------------------------------

def c2_disks(lam, c1, c1_sq):
    """The Schur disk and the class disk that hold c2, given c1 and |c1|^2.
    Centres multiply by 1/(1+L): numpy divides complex by real that way, so
    the bits are those of the quotient, at a fifth of the cost."""
    return (0, 1 - c1_sq), (lam * c1 * c1 * (1 / (1 + lam)), lam / (1 + lam))


def c3_disk(lam, c1, c2, t_sq):
    """The class disk that holds c3, given t^2 = |(1+L)c2 - L c1^2|^2.

    Its radius is negative when t > L, where no c3 is admissible."""
    return 2 * lam * c1 * c2 * (1 / (1 + lam)), (lam - t_sq / lam) / (2 * (1 + lam))


def is_admissible(lam, jet):
    """Whether the jet lies in every disk, judged exactly: a float L and
    float parts are taken by their binary values."""
    lam = Fraction(class_parameter(lam)[0])
    c1, c2, c3 = (as_scalar(c, EXACT) for c in jet)
    schur, cls = c2_disks(lam, c1, c1.abs2())
    if not (_in_disk(c1, (0, 1)) and _in_disk(c2, schur) and _in_disk(c2, cls)):
        return False
    return _in_disk(c3, c3_disk(lam, c1, c2, (1 + lam) ** 2 * (c2 - cls[0]).abs2()))


def _in_disk(z, disk):
    """|z - centre| <= radius, on squared moduli; a negative radius holds no point."""
    centre, radius = disk
    return radius >= 0 and (z - centre).abs2() <= radius * radius


# -- sampling ---------------------------------------------------------------

def block_size():
    return _BLOCK


def sample_block_arrays(lam, seed, block_index, strategy="uniform"):
    """One aligned block of 8192 jets as (c1, c2, c3) complex arrays.

    uniform          draws area-uniform in each feasible disk;
    boundary-biased  concentrates near |c1| = 1 and the saturated
                     constraints, where the extremal values live.

    A biased c2 walks from 0 along a unit ray u, to the rim of the c2 lens
    (convex, holding 0) on half the slots, else sqrt(U) of its reach R(u).
    An inner c2 then has density 1/(pi R(u)^2), at least 1/4 of the uniform
    one, as the disk with diameter 0P lies in the lens, P its point farthest
    from 0: min(1-|c1|^2, k(1+|c1|^2)) along c1^2, k = L/(1+L). The ratio is
    1/(1+|c1|^2)^2 when the class disk lies in the Schur disk.

    Block b is driven by default_rng([seed, b]) alone, so the blocks split
    over up to COEFFFORGE_THREADS worker processes give the sequential output.
    """
    return next(sample_grid_block([lam], seed, block_index, strategy))


def sample_grid_block(lams, seed, block_index, strategy="uniform"):
    """Yield sample_block_arrays(L, seed, block_index, strategy) for each L of
    lams; every draw free of L is made once and shared."""
    import numpy as np
    lams = [float(class_parameter(lam)[0]) for lam in lams]
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = np.random.default_rng([seed, block_index])
    n, walk = _BLOCK, None
    c1, v = _disk_points(rng, n), _disk_points(rng, n)  # c3 = m3 + R3 v
    if strategy == "boundary-biased":
        c1 *= rng.random(n) ** 0.125 / abs(c1)
        ray, edge = _disk_points(rng, n), rng.random(n) < 0.5
        v[edge] /= abs(v[edge])  # half the c3 on the rim of their disk
        ray /= abs(ray)
        # half the c2 on the rim of their set, the rest area-uniform along the ray
        depth = np.where(rng.random(n) < 0.5, np.sqrt(rng.random(n)), 1.0)
        w = c1 * c1 * np.conj(ray)
        walk = (w.real + np.sqrt(np.clip(1.0 - w.imag ** 2, 0.0, None)), ray * depth)
    c1_sq = c1.real * c1.real + c1.imag * c1.imag
    schur = np.clip(c2_disks(1.0, 0.0, c1_sq)[0][1], 0.0, None)  # reads |c1|^2 alone
    state = rng.bit_generator.state
    for lam in lams:
        m2, R2 = c2_disks(lam, c1, c1_sq)[1]
        if walk:  # (rho, ray times depth): the ray leaves the class disk at R2 rho
            c2 = np.minimum(schur, R2 * walk[0]) * walk[1]
        else:
            rng.bit_generator.state = state
            c2 = _fill_c2(rng, schur, m2, R2)
        t = (1.0 + lam) * np.abs(c2 - m2)
        m3, R3 = c3_disk(lam, c1, c2, t * t)
        c3 = m3 + np.clip(R3, 0.0, None) * v
        del m2, t, m3, R3  # not held while the caller evaluates the block
        yield c1, c2, c3


def _disk_points(rng, n):
    """n area-uniform points of the unit disk less 0: the first n of a batch
    from the square [-1, 1]^2 that land in it (pi/4 of them on average)."""
    import numpy as np
    u = 2.0 * rng.random(2 * (n + n // 3 + 64)).view(complex) - (1 + 1j)
    s = u.real * u.real + u.imag * u.imag
    u = u[(s <= 1.0) & (s > 0.0)]
    return u[:n] if u.size >= n else np.concatenate([u, _disk_points(rng, n - u.size)])


def _fill_c2(rng, schur, m2, R2):
    """Area-uniform c2 of the uniform strategy, by rejection.

    The region is the intersection of the Schur disk |c2| <= schur and the
    class disk |c2 - m2| <= R2. Each round proposes one point per unfilled
    slot, uniform in the bounding square of the smaller of the two disks,
    and keeps it if it lies in both; a kept point is area-uniform on the
    intersection. Both disks contain 0, and the lens area then keeps the
    acceptance of each proposal above 0.39 pi/4 for every L in (0, 1] and
    |c1| < 1.
    """
    import numpy as np
    centre = np.where(schur <= R2, 0.0, m2)
    radius = np.minimum(schur, R2)
    out = np.empty(len(schur), complex)
    slots = np.arange(len(schur))
    while slots.size:
        cand = centre + radius * (2.0 * rng.random(2 * slots.size).view(complex) - (1 + 1j))
        ok = (np.abs(cand) <= schur) & (np.abs(cand - m2) <= R2)
        out[slots[ok]] = cand[ok]
        miss = np.flatnonzero(~ok)
        slots, centre, radius, schur, m2 = (a[miss] for a in (slots, centre, radius, schur, m2))
    return out
