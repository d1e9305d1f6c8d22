"""Coefficient formulas, the table of functionals with their sharp bounds,
extremal functions, and membership testing for the one-parameter class of
normalized analytic functions

    |(z/f(z))^2 f'(z) - 1| < L  on the unit disk,  0 < L <= 1,

restricted to functions with z/f = (1-w(z))(1-L w(z)) for a Schwarz
function w. A class function is carried by that z/f jet g, a polynomial
in w (zf_from_schwarz): the reversion route reads g by Lagrange
inversion, and membership reads the defect g - z g' - 1. All coefficient
maps are polynomial in the jet of w, so exact mode gives literal
equalities.

Conventions. Every function takes L itself, and the type of L is the
mode: an int or a Fraction computes exactly (jets and mu are converted to
QComplex), a float computes in complex doubles (scalars.class_parameter).
Coefficients come back as plain tuples. As membership reads
g, a terminating polynomial g (a closed form) is judged without
truncation error.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .scalars import EXACT, as_scalar, class_parameter, maybe_exact_abs
from .series import TruncatedSeries, inverse_from_zf
from .schwarz import SchwarzJet

_DEFECT_CHUNK = 8192  # circle points per numpy evaluation of the defect


def _operands(lam, jet):
    """L, then the jet's parts in the mode L names."""
    lam, mode = class_parameter(lam)
    return (lam, *(as_scalar(c, mode) for c in jet))


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
    lam, c1, c2, c3 = _operands(lam, jet)
    inv = inverse_from_zf(zf_from_schwarz(lam, TruncatedSeries([0, c1, c2, c3])))
    return inv[2], inv[3], inv[4]


def zf_from_schwarz(lam, omega):
    """The z/f jet (1 - w)(1 - L w) of the function a Schwarz jet w
    generates, to the order of w; L and w must share a mode."""
    lam, mode = class_parameter(lam)
    if omega.mode != mode:
        raise ValueError(f"mode mismatch: lambda {mode} vs series {omega.mode}")
    if omega[0] != 0:
        raise ValueError("a Schwarz jet must vanish at the origin")
    tail = omega.coeffs[1:]
    return (TruncatedSeries([1, *(-c for c in tail)], mode)
            * TruncatedSeries([1, *(-lam * c for c in tail)], mode))


def extremal_function(lam, N):
    """Jet of z / ((1-z)(1-L z)); the coefficient of z^n is
    1 + L + ... + L^(n-1)."""
    lam, mode = class_parameter(lam)
    if N < 1:
        raise ValueError("need N >= 1")
    coeffs, total, power = [0], 0, 1
    for _ in range(N):
        total, power = total + power, power * lam
        coeffs.append(total)
    return TruncatedSeries(coeffs, mode)


def extremal_inverse(lam, N, mode=None):
    """Inverse jet of the extremal function in closed form: the coefficient
    of w^n is (-1)^(n-1) N_n(L), with the Narayana polynomials N_1 = 1,
    N_2 = 1+L and (n+1) N_n = (2n-1)(1+L) N_(n-1) - (n-2)(1-L)^2 N_(n-2).
    O(N) operations, against the O(N^3) of a reversion. For L = p/q, a float
    L at its binary value, they run on the integers q^(n-1) N_n(L); mode
    float gives the nearest doubles."""
    lam, lam_mode = class_parameter(lam)
    if N < 1:
        raise ValueError("need N >= 1")
    p, q = lam.as_integer_ratio()
    scaled = [0, 1, q + p]
    for n in range(3, N + 1):
        scaled.append(((2 * n - 1) * (q + p) * scaled[n - 1]
                       - (n - 2) * (q - p) ** 2 * scaled[n - 2]) // (n + 1))
    scale = Fraction(q) if (mode or lam_mode) == EXACT else q  # int / int rounds once
    return TruncatedSeries([0] + [(-1) ** (n - 1) * scaled[n] / scale ** (n - 1)
                                  for n in range(1, N + 1)])


def corner_jet(lam):
    """The jet (1, 0, 0) that saturates every bound, in the mode L names."""
    return SchwarzJet(*_operands(lam, SchwarzJet(1, 0, 0))[1:])


def functional_bound(name, lam, mu=None):
    """The sharp bound of the named functional at L, and at mu if it takes one."""
    lam, mode = class_parameter(lam)
    f = FUNCTIONALS[name]
    return f.bound(lam, maybe_exact_abs(1 - as_scalar(mu, mode)) if f.takes_mu else None)


# -- the functionals ----------------------------------------------------------

class Functional(namedtuple("Functional", "text value bound takes_mu sharp_at",
                            defaults=(False, lambda mu: True))):
    """A functional of the inverse coefficients and its sharp bound, written
    once for the search, the exact proofs and the CLI.

    text: the functional as bounds and coeffs name it.
    value(A2, A3, A4, mu): the functional, for QComplex, complex, numpy
        arrays and polynomials alike. The search ranks a whole mu grid at
        once for an entry that takes_mu and whose value is A3 - mu A2^2.
    bound(L, nu): its sharp bound, with nu = |1 - mu|. The exact proof
        derives the regrouping and the majorant from value (the verifier's
        docstring states it).
    sharp_at(mu): whether the corner jet (1, 0, 0) attains the bound. The
        exact proof's corner identity, value = +-bound(L, 1 - mu), proves
        it wherever nu = |1 - mu| is 1 - mu, which takes in every mu that
        sharp_at accepts (real mu <= 1 for FS).
    """
    __slots__ = ()


FUNCTIONALS = {
    "A2": Functional("|A2|", lambda A2, A3, A4, mu: A2, lambda L, nu: inverse_weights(L)[0]),
    "A3": Functional("|A3|", lambda A2, A3, A4, mu: A3, lambda L, nu: inverse_weights(L)[1]),
    "A4": Functional("|A4|", lambda A2, A3, A4, mu: A4, lambda L, nu: inverse_weights(L)[3]),
    "FS": Functional("|A3 - mu A2^2|", lambda A2, A3, A4, mu: A3 - mu * (A2 * A2),
                     lambda L, nu: L + nu * (1 + L) * (1 + L), takes_mu=True,
                     sharp_at=lambda mu: complex(mu).imag == 0.0 and complex(mu).real <= 1.0),
}


# -- membership -------------------------------------------------------------

class MembershipVerdict(namedtuple("MembershipVerdict", "label lam radius samples max_defect "
                                   "argmax_theta argmax_index member_at_radius approximate")):
    """A membership_scan verdict; approximate is True when it was judged from
    a truncated jet."""
    __slots__ = ()

    def to_json(self):
        """The fields by name, with label as "function" and lam as "lambda"."""
        out = self._asdict()
        out["function"] = out.pop("label")
        out["lambda"] = out.pop("lam")
        return out


def _defect_chunks(g, radius, samples):
    """|defect| at z = radius e^{2 pi i k / samples}, k = 0..samples-1, as
    (first k, theta, values) with arrays of at most 8192 points each.

    The defect g - z g' - 1 is the polynomial sum (1-k) g_k z^k - 1,
    evaluated by Horner in float. Raises ValueError when a value is not
    finite, since no verdict can be read from it.
    """
    import numpy as np
    coeffs = [(1 - k) * c for k, c in enumerate(map(complex, g.coeffs))]
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
