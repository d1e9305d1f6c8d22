"""Coefficient formulas, extremal functions, and membership testing for the
one-parameter class of normalized analytic functions

    |(z/f(z))^2 f'(z) - 1| < L  on the unit disk,  0 < L <= 1,

restricted to functions representable as f(z)/z = 1/((1-w(z))(1-L w(z)))
with a Schwarz function w. All coefficient maps are polynomial in the jet
of w, so exact mode gives literal equalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalars import (EXACT, FLOAT, MODES, QComplex, as_real, as_scalar,
                      maybe_exact_abs, scalar_is_zero)
from .series import NormalizedSeries, TruncatedSeries, require_normalized, revert
from .schwarz import SchwarzJet

_DEFECT_CHUNK = 8192  # circle points per numpy evaluation of the defect


@dataclass(frozen=True)
class ULambdaParams:
    lam: object
    mode: str = EXACT

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        lam = as_real(self.lam, self.mode)
        if not 0 < lam <= 1:
            raise ValueError("class parameter must lie in (0, 1]")
        object.__setattr__(self, "lam", lam)

    @property
    def lam_float(self):
        return float(self.lam)


@dataclass(frozen=True)
class DirectTriple:
    a2: object
    a3: object
    a4: object


@dataclass(frozen=True)
class InverseTriple:
    A2: object
    A3: object
    A4: object
    source: str = "closed-form"  # closed-form | reversion


@dataclass(frozen=True)
class CoefficientBounds:
    b2: object
    b3: object
    b4: object

    def as_tuple(self):
        return (self.b2, self.b3, self.b4)


def _jet_scalars(params, jet):
    return (as_scalar(jet.c1, params.mode), as_scalar(jet.c2, params.mode),
            as_scalar(jet.c3, params.mode))


def sigma(params, n):
    """Coefficient weight: (1 - L^(n+1)) / (1 - L), with value n+1 at L = 1."""
    lam = params.lam
    if lam == 1:
        return as_real(n + 1, params.mode)
    num = 1 - lam ** (n + 1)
    return num / (1 - lam)


def direct_coeffs(params, jet):
    """Taylor coefficients a2, a3, a4 generated by a Schwarz jet."""
    lam = params.lam
    c1, c2, c3 = _jet_scalars(params, jet)
    s1 = 1 + lam
    s2 = 1 + lam + lam * lam
    s3 = s2 + lam ** 3
    a2 = s1 * c1
    a3 = s1 * c2 + s2 * c1 * c1
    a4 = s1 * c3 + 2 * s2 * c1 * c2 + s3 * c1 * c1 * c1
    return DirectTriple(a2, a3, a4)


def inverse_weights(lam):
    """The weights (q1, q2, q3, q4) of the inverse coefficients in L.

    (q1, q2, q4) = (1+L, 1+3L+L^2, (1+L)(1+5L+L^2)) are the sharp bounds
    on |A2|, |A3|, |A4|. L may be a Fraction, a float or a polynomial.
    """
    q1 = 1 + lam
    q2 = 1 + 3 * lam + lam * lam
    q3 = 3 + 8 * lam + 3 * lam * lam
    q4 = (1 + lam) * (1 + 5 * lam + lam * lam)
    return q1, q2, q3, q4


def inverse_from_jet(lam, c1, c2, c3):
    """(A2, A3, A4) of the function generated by the jet (c1, c2, c3).

    The same expression serves QComplex, complex and numpy arrays.
    """
    q1, q2, q3, q4 = inverse_weights(lam)
    A2 = -q1 * c1
    A3 = -q1 * c2 + q2 * (c1 * c1)
    A4 = -q1 * c3 + q3 * (c1 * c2) - q4 * (c1 * c1 * c1)
    return A2, A3, A4


def inverse_coeffs(params, jet):
    """Inverse-function coefficients A2, A3, A4 straight from the jet."""
    return InverseTriple(*inverse_from_jet(params.lam, *_jet_scalars(params, jet)),
                         source="closed-form")


def inverse_coeffs_by_reversion(params, jet, order=4):
    """Same triple, but through series reversion (the independent route)."""
    if order < 4:
        raise ValueError("need order >= 4 to read off the first three inverse coefficients")
    omega = omega_series(params, jet, order - 1)
    f = series_from_schwarz(params, omega, order)
    inv = revert(f)
    return InverseTriple(inv[2], inv[3], inv[4], source="reversion")


def omega_series(params, jet, order=3):
    """The jet polynomial c1 z + c2 z^2 + c3 z^3 padded to the given order."""
    if order < 3:
        raise ValueError("omega jet needs order >= 3")
    zero = as_scalar(0, params.mode)
    c1, c2, c3 = _jet_scalars(params, jet)
    return TruncatedSeries([zero, c1, c2, c3] + [zero] * (order - 3), params.mode)


def series_from_schwarz(params, omega, N):
    """Jet of f given omega: f(z)/z equals the sigma-weighted power sum of
    omega, truncated at order N."""
    if N < 1:
        raise ValueError("need N >= 1")
    if omega.mode != params.mode:
        raise ValueError(f"mode mismatch: params {params.mode} vs omega {omega.mode}")
    if not scalar_is_zero(omega[0]):
        raise ValueError("omega must vanish at the origin")
    M = N - 1
    if omega.order < M:
        raise ValueError(f"omega jet of order {omega.order} cannot determine f to order {N}")
    w = omega.truncate(M) if omega.order > M else omega
    if M == 0:
        ratio = TruncatedSeries.constant(as_scalar(1, params.mode), 0, params.mode)
    else:
        acc = TruncatedSeries.constant(as_scalar(sigma(params, M), params.mode), M, params.mode)
        for n in range(M - 1, -1, -1):
            acc = acc * w
            acc = acc + TruncatedSeries.constant(as_scalar(sigma(params, n), params.mode),
                                                 M, params.mode)
        ratio = acc
    coeffs = [as_scalar(0, params.mode)] + list(ratio.coeffs)
    return NormalizedSeries(coeffs, params.mode)


def extremal_function(params, N):
    """Jet of z / ((1-z)(1-L z)); the coefficient of z^n is sigma(n-1)."""
    if N < 1:
        raise ValueError("need N >= 1")
    coeffs = [as_scalar(0, params.mode)]
    coeffs += [as_scalar(sigma(params, n - 1), params.mode) for n in range(1, N + 1)]
    return NormalizedSeries(coeffs, params.mode)


def extremal_inverse(params, N):
    """Inverse jet of the extremal function.

    Orders 1..4 come from the closed forms; any higher orders from
    reversion (identical in exact mode, better conditioned in float).
    """
    if N < 1:
        raise ValueError("need N >= 1")
    closed = [1, *inverse_from_jet(params.lam, 1, 0, 0)]
    coeffs = list(revert(extremal_function(params, N)).coeffs)
    for n in range(1, min(N, 4) + 1):
        coeffs[n] = as_scalar(closed[n - 1], params.mode)
    return NormalizedSeries(coeffs, params.mode)


def corner_jet(mode=EXACT):
    """The jet (1, 0, 0) that saturates every bound."""
    if mode == EXACT:
        return SchwarzJet(QComplex(1), QComplex(0), QComplex(0))
    return SchwarzJet(1.0 + 0.0j, 0.0j, 0.0j)


def fekete_szego(params, jet, mu):
    """|A3 - mu A2^2| computed from the inverse coefficients."""
    mu = as_scalar(mu, params.mode)
    triple = inverse_coeffs(params, jet)
    return maybe_exact_abs(triple.A3 - mu * triple.A2 * triple.A2)


def fekete_szego_regrouped(params, jet, mu):
    """The same functional via the regrouping used in its sharp estimate:
    |-((1+L)c2 - L c1^2) + (1-mu)(1+L)^2 c1^2|."""
    lam = params.lam
    mu = as_scalar(mu, params.mode)
    c1, c2, _ = _jet_scalars(params, jet)
    one = as_scalar(1, params.mode)
    inner = (1 + lam) * c2 - lam * c1 * c1
    value = -inner + (one - mu) * ((1 + lam) * (1 + lam)) * c1 * c1
    return maybe_exact_abs(value)


def theoretical_bounds(params):
    """Sharp bounds for |A2|, |A3|, |A4|: 1+L, 1+3L+L^2, (1+L)(1+5L+L^2)."""
    q1, q2, _, q4 = inverse_weights(params.lam)
    return CoefficientBounds(q1, q2, q4)


def fekete_szego_bound(params, mu):
    """Sharp bound L + |1-mu| (1+L)^2 (sharp at least for real mu in [0,1])."""
    q1 = inverse_weights(params.lam)[0]
    mu = as_scalar(mu, params.mode)
    one = as_scalar(1, params.mode)
    return params.lam + maybe_exact_abs(one - mu) * q1 * q1


# -- membership -------------------------------------------------------------

@dataclass(frozen=True)
class ClosedForm:
    """A built-in function whose z/f is a terminating polynomial, so its
    defect evaluates without truncation error: the identity (z/f = 1) and
    the extremal family (z/f = (1-z)(1-L z))."""
    kind: str  # identity | extremal
    lam: object = None
    mode: str = FLOAT

    @classmethod
    def identity(cls, mode=FLOAT):
        return cls("identity", None, mode)

    @classmethod
    def extremal(cls, lam, mode=FLOAT):
        lam = as_real(lam, mode)
        if not 0 < lam <= 1:
            raise ValueError("class parameter must lie in (0, 1]")
        return cls("extremal", lam, mode)

    @classmethod
    def koebe(cls, mode=FLOAT):
        return cls.extremal(1, mode)

    @property
    def label(self):
        if self.kind == "identity":
            return "identity"
        if self.lam == 1:
            return "koebe"
        return f"extremal({self.lam})"

    def zf_poly(self):
        """Exact jet of z/f."""
        one = as_scalar(1, self.mode)
        if self.kind == "identity":
            return TruncatedSeries([one], self.mode)
        lam = self.lam
        return TruncatedSeries([one, as_scalar(-(1 + lam), self.mode),
                                as_scalar(lam, self.mode)], self.mode)

    def f_series(self, N):
        if self.kind == "identity":
            return NormalizedSeries(TruncatedSeries.identity(N, self.mode).coeffs, self.mode)
        return extremal_function(ULambdaParams(self.lam, self.mode), N)


def _zf_jet(f):
    """Jet of z/f for a normalized series f (reciprocal of f/z)."""
    ratio = TruncatedSeries(f.coeffs[1:], f.mode)
    return ratio.reciprocal()


def defect(f, z):
    """The membership defect g(z) - z g'(z) - 1 with g = z/f, equal to
    (z/f)^2 f' - 1. Exact for closed forms and exact rational points."""
    if isinstance(f, ClosedForm):
        g = f.zf_poly()
    else:
        g = _zf_jet(f)
    z = as_scalar(z, g.mode)
    one = as_scalar(1, g.mode)
    return g.evaluate(z) - z * g.derivative().evaluate(z) - one


@dataclass(frozen=True)
class MembershipVerdict:
    label: str
    lam: float
    radius: float
    samples: int
    max_defect: float
    argmax_theta: float
    argmax_index: int
    member_at_radius: bool
    approximate: bool  # True when judged from a truncated jet

    def to_json(self):
        return {
            "function": self.label,
            "lambda": self.lam,
            "radius": self.radius,
            "samples": self.samples,
            "max_defect": self.max_defect,
            "argmax_theta": self.argmax_theta,
            "argmax_index": self.argmax_index,
            "member_at_radius": self.member_at_radius,
            "approximate": self.approximate,
        }


def _defect_chunks(f, radius, samples):
    """|defect| at z = radius e^{2 pi i k / samples}, k = 0..samples-1, as
    (first k, theta, values) with arrays of at most 8192 points each.

    With g = z/f the defect g - z g' - 1 is the polynomial
    sum (1-k) g_k z^k - 1, evaluated by Horner in float. Raises ValueError
    when a value is not finite, since no verdict can be read from it.
    """
    g = f.zf_poly() if isinstance(f, ClosedForm) else _zf_jet(f)
    coeffs = [(1 - k) * c for k, c in enumerate(g.to_float().coeffs)]
    coeffs[0] -= 1
    coeffs.reverse()
    for start in range(0, samples, _DEFECT_CHUNK):
        theta = 2.0 * np.pi * np.arange(start, min(start + _DEFECT_CHUNK, samples)) / samples
        values = np.abs(np.polyval(coeffs, radius * np.exp(1j * theta)))
        if not np.isfinite(values).all():
            raise ValueError("the defect is not finite on the circle; "
                             "the series overflows float arithmetic")
        yield start, theta, values


def membership_scan(f, lam, radius, samples, label=None):
    """Max |defect| over equispaced points on |z| = radius.

    The class condition is an open-disk supremum; a scan of a truncated
    jet only samples it, so series verdicts are flagged approximate. Ties
    resolve to the smallest sample index.
    """
    lam = float(lam)
    if not 0 < lam <= 1:
        raise ValueError("class parameter must lie in (0, 1]")
    if not 0 < radius < 1:
        raise ValueError("radius must lie in (0, 1)")
    if samples < 8:
        raise ValueError("need at least 8 samples")
    approximate = not isinstance(f, ClosedForm)
    label = label or ("series" if approximate else f.label)
    best, best_idx, best_theta = -1.0, 0, 0.0
    for start, theta, values in _defect_chunks(f, radius, samples):
        k = int(np.argmax(values))
        if values[k] > best:
            best, best_idx, best_theta = float(values[k]), start + k, float(theta[k])
    return MembershipVerdict(label, lam, radius, samples, best, best_theta,
                             best_idx, best < lam, approximate)


def membership_profile(f, lam, radius, samples):
    """(theta, |defect|) rows for external plotting."""
    return [row for _, theta, values in _defect_chunks(f, radius, samples)
            for row in zip(theta.tolist(), values.tolist())]


def subordination_witness(params, f):
    """Recover the Schwarz jet: solve (1 - w)(1 - L w) = z/f order by order.

    At order n the unknown coefficient appears linearly with factor
    -(1+L), nonzero throughout (0, 1], so the triangular solve never
    branches. Returns the jet of w to order N-1.
    """
    if f.mode != params.mode:
        raise ValueError(f"mode mismatch: params {params.mode} vs series {f.mode}")
    require_normalized(f)
    lam = params.lam
    q = _zf_jet(f)  # order N-1, q = 1 - (1+L) w + L w^2
    M = q.order
    zero = as_scalar(0, params.mode)
    w = [zero] * (M + 1)
    s1 = as_scalar(1 + lam, params.mode)
    lam_s = as_scalar(lam, params.mode)
    for n in range(1, M + 1):
        sq = zero
        for j in range(1, n):
            sq = sq + w[j] * w[n - j]
        # q_n = -(1+L) w_n + L [w^2]_n
        w[n] = (lam_s * sq - q[n]) / s1
    return TruncatedSeries(w, params.mode)
