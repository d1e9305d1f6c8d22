"""Coefficient formulas, extremal functions, and membership testing for the
one-parameter class of normalized analytic functions

    |(z/f(z))^2 f'(z) - 1| < L  on the unit disk,  0 < L <= 1,

restricted to functions representable as f(z)/z = 1/((1-w(z))(1-L w(z)))
with a Schwarz function w. All coefficient maps are polynomial in the jet
of w, so exact mode gives literal equalities.

Conventions. Every function takes L itself, and the type of L is the
mode: an int or a Fraction computes exactly (jets and mu are converted to
QComplex), a float computes in complex doubles (scalars.class_parameter).
Coefficients and bounds come back as plain tuples. Membership reads the
jet g of z/f, so a terminating polynomial g (a closed form) is judged
without truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import as_scalar, class_parameter, maybe_exact_abs
from .series import TruncatedSeries, revert, zf_jet
from .schwarz import SchwarzJet

_DEFECT_CHUNK = 8192  # circle points per numpy evaluation of the defect


def _operands(lam, jet, *extra):
    """L, then the jet's parts and any extra scalars in the mode L names."""
    lam, mode = class_parameter(lam)
    return (lam, *(as_scalar(c, mode) for c in (jet.c1, jet.c2, jet.c3, *extra)))


def sigma(lam, n):
    """Coefficient weight: (1 - L^(n+1)) / (1 - L), with value n+1 at L = 1."""
    lam, _ = class_parameter(lam)
    if lam == 1:
        return (n + 1) * lam  # n+1 as a Fraction or a float, like L
    num = 1 - lam ** (n + 1)
    return num / (1 - lam)


def direct_coeffs(lam, jet):
    """Taylor coefficients (a2, a3, a4) generated by a Schwarz jet."""
    lam, c1, c2, c3 = _operands(lam, jet)
    s1 = 1 + lam
    s2 = 1 + lam + lam * lam
    s3 = s2 + lam ** 3
    a2 = s1 * c1
    a3 = s1 * c2 + s2 * c1 * c1
    a4 = s1 * c3 + 2 * s2 * c1 * c2 + s3 * c1 * c1 * c1
    return a2, a3, a4


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


def inverse_coeffs(lam, jet):
    """Inverse-function coefficients (A2, A3, A4) straight from the jet."""
    return inverse_from_jet(*_operands(lam, jet))


def inverse_coeffs_by_reversion(lam, jet):
    """Same triple, but through series reversion (the independent route)."""
    inv = revert(series_from_schwarz(lam, omega_series(lam, jet), 4))
    return inv[2], inv[3], inv[4]


def omega_series(lam, jet, order=3):
    """The jet polynomial c1 z + c2 z^2 + c3 z^3 padded to the given order,
    in the mode L names."""
    if order < 3:
        raise ValueError("omega jet needs order >= 3")
    _, c1, c2, c3 = _operands(lam, jet)
    return TruncatedSeries([0, c1, c2, c3] + [0] * (order - 3))


def series_from_schwarz(lam, omega, N):
    """Jet of f given omega, to order N: f(z)/z = sum_n sigma(n) omega^n,
    that is the polynomial with coefficients sigma(0..N-1) composed with
    omega."""
    lam, mode = class_parameter(lam)
    if N < 1:
        raise ValueError("need N >= 1")
    M = N - 1
    if omega.order < M:
        raise ValueError(f"omega jet of order {omega.order} cannot determine f to order {N}")
    weights = TruncatedSeries([sigma(lam, n) for n in range(M + 1)], mode)
    ratio = weights.compose(omega)
    return TruncatedSeries([0, *ratio.coeffs], mode)


def extremal_function(lam, N):
    """Jet of z / ((1-z)(1-L z)); the coefficient of z^n is sigma(n-1)."""
    lam, mode = class_parameter(lam)
    if N < 1:
        raise ValueError("need N >= 1")
    return TruncatedSeries([0] + [sigma(lam, n - 1) for n in range(1, N + 1)], mode)


def extremal_inverse(lam, N):
    """Inverse jet of the extremal function, by reversion. Its orders 2..4
    equal the closed forms -(1+L), 1+3L+L^2, -(1+L)(1+5L+L^2)."""
    return revert(extremal_function(lam, N))


def corner_jet(lam):
    """The jet (1, 0, 0) that saturates every bound, in the mode L names."""
    return SchwarzJet(*_operands(lam, SchwarzJet(1, 0, 0))[1:])


def fekete_szego(lam, jet, mu):
    """|A3 - mu A2^2| computed from the inverse coefficients."""
    lam, c1, c2, c3, mu = _operands(lam, jet, mu)
    A2, A3, _ = inverse_from_jet(lam, c1, c2, c3)
    return maybe_exact_abs(A3 - mu * A2 * A2)


def fekete_szego_regrouped(lam, jet, mu):
    """The same functional via the regrouping used in its sharp estimate:
    |-((1+L)c2 - L c1^2) + (1-mu)(1+L)^2 c1^2|."""
    lam, c1, c2, _, mu = _operands(lam, jet, mu)
    inner = (1 + lam) * c2 - lam * c1 * c1
    value = -inner + (1 - mu) * ((1 + lam) * (1 + lam)) * c1 * c1
    return maybe_exact_abs(value)


def theoretical_bounds(lam):
    """Sharp bounds (B2, B3, B4) for |A2|, |A3|, |A4|:
    1+L, 1+3L+L^2, (1+L)(1+5L+L^2)."""
    q1, q2, _, q4 = inverse_weights(class_parameter(lam)[0])
    return q1, q2, q4


def fekete_szego_bound(lam, mu):
    """Sharp bound L + |1-mu| (1+L)^2 (sharp for real mu <= 1)."""
    lam, mode = class_parameter(lam)
    q1 = inverse_weights(lam)[0]
    return lam + maybe_exact_abs(1 - as_scalar(mu, mode)) * q1 * q1


# -- membership -------------------------------------------------------------

def defect(g, z):
    """The membership defect g(z) - z g'(z) - 1 of the f with z/f = g, equal
    to (z/f)^2 f' - 1. Exact for an exact jet g at an exact point."""
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


def _defect_chunks(g, radius, samples):
    """|defect| at z = radius e^{2 pi i k / samples}, k = 0..samples-1, as
    (first k, theta, values) with arrays of at most 8192 points each.

    The defect g - z g' - 1 is the polynomial sum (1-k) g_k z^k - 1,
    evaluated by Horner in float. Raises ValueError when a value is not
    finite, since no verdict can be read from it.
    """
    import numpy as np
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


def membership_scan(g, lam, radius, samples, label="series", approximate=True):
    """Max |defect| over equispaced points on |z| = radius, for the f whose
    z/f has the jet g.

    The class condition is an open-disk supremum; a scan of a truncated
    jet only samples it, so verdicts are flagged approximate unless g is
    all of z/f (approximate=False). Ties resolve to the smallest sample
    index.
    """
    lam = float(class_parameter(lam)[0])
    if not 0 < radius < 1:
        raise ValueError("radius must lie in (0, 1)")
    if samples < 8:
        raise ValueError("need at least 8 samples")
    best, best_idx, best_theta = -1.0, 0, 0.0
    for start, theta, values in _defect_chunks(g, radius, samples):
        k = int(values.argmax())
        if values[k] > best:
            best, best_idx, best_theta = float(values[k]), start + k, float(theta[k])
    return MembershipVerdict(label, lam, radius, samples, best, best_theta,
                             best_idx, best < lam, approximate)


def membership_profile(g, radius, samples):
    """(theta, |defect|) rows for external plotting."""
    return [row for _, theta, values in _defect_chunks(g, radius, samples)
            for row in zip(theta.tolist(), values.tolist())]


def subordination_witness(lam, f):
    """Recover the Schwarz jet w from z/f = (1 - w)(1 - L w).

    With h(w) = w - L/(1+L) w^2 this reads h(w) = (1 - z/f)/(1+L), and
    h'(0) = 1, so w = revert(h) o ((1 - z/f)/(1+L)). Returns the jet of w
    to order N-1.
    """
    lam, mode = class_parameter(lam)
    if f.mode != mode:
        raise ValueError(f"mode mismatch: lambda {mode} vs series {f.mode}")
    q = zf_jet(f)
    inner = (TruncatedSeries.constant(1, q.order, mode) - q) * (1 / (1 + lam))
    if q.order == 0:
        return inner
    h = [0, 1, -lam / (1 + lam)][:q.order + 1] + [0] * (q.order - 2)
    return revert(TruncatedSeries(h, mode)).compose(inner)
