"""Truncated formal power-series arithmetic over complex coefficients.

A series is an immutable jet c0 + c1 z + ... + cN z^N. The product of two
jets stops at the smaller order, so it is well defined at jet level;
nothing here knows about convergence. Exact mode keeps coefficients as
rational complex pairs, float mode as complex doubles; the constructor
lifts each to exact by as_scalar or converts it to float by complex(), so
TruncatedSeries(s.coeffs, FLOAT) is s in float.

Products convolve the coefficients as they are, in either ring. Exact
reciprocals and reversion run on integer jets instead: the jet is written
once as (re, im) over one common denominator D, the lcm of all its real
and imaginary denominators. The powers of a reversion convolve plain
ints, one real convolution per pair of parts that are not all zero (one
to four); the reciprocal sums its recurrence on them and reduces each
term once. Float reversion convolves the complex coefficients; the float
reciprocal sums its recurrence with the exact _dot.

The paper's functions are normalized, f(0) = 0 and f'(0) = 1, and a class
function is carried by its z/f jet g: membership reads g, and Lagrange
inversion reads g directly (inverse_from_zf), with no composition and no
reciprocal. A jet of f itself is a plain TruncatedSeries; zf_jet turns it
into g, after require_normalized checks the normalization, so every
reader of f (revert, the membership scan) goes through that check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from operator import mul

from .scalars import EXACT, FLOAT, QComplex, as_scalar, is_finite_real


class TruncatedSeries:
    __slots__ = ("_coeffs", "_mode")

    def __init__(self, coeffs, mode=None):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        if mode is None:
            mode = FLOAT if any(isinstance(c, (float, complex)) for c in coeffs) else EXACT
        self._coeffs = tuple(as_scalar(c, mode) for c in coeffs)
        self._mode = mode

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def mode(self):
        return self._mode

    @property
    def order(self):
        return len(self._coeffs) - 1

    def __getitem__(self, n):
        return self._coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._mode == other._mode and self._coeffs == other._coeffs

    def __repr__(self):
        return f"TruncatedSeries({list(self._coeffs)!r}, mode={self._mode!r})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, order, mode):
        """The series z, as a jet of the requested order (order >= 1)."""
        if order < 1:
            raise ValueError("identity jet needs order >= 1")
        return cls([0, 1] + [0] * (order - 1), mode)

    # -- ring operations ---------------------------------------------------

    def _check_mode(self, other):
        if self._mode != other._mode:
            raise ValueError(f"mode mismatch: {self._mode} vs {other._mode}")

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_mode(other)
        zero = 0j if self._mode == FLOAT else QComplex()
        n = min(self.order, other.order)
        return TruncatedSeries(_convolve(self._coeffs, other._coeffs, n, zero), self._mode)

    def reciprocal(self):
        """Multiplicative inverse jet; requires a nonzero constant term."""
        c0 = self._coeffs[0]
        if c0 == 0:
            raise ValueError("reciprocal of a series with zero constant term")
        if self._mode == EXACT:
            return TruncatedSeries(_exact_reciprocal(self._coeffs), EXACT)
        inv0, tail = 1 / c0, self._coeffs[1:]
        out = [inv0]
        for _ in tail:
            out.append(-_dot(tail, out) * inv0)
        return TruncatedSeries(out, FLOAT)

    # -- conversions -------------------------------------------------------

    def to_json(self):
        """Wire format: [re_num, re_den, im_num, im_den] per coefficient in
        exact mode, [re, im] doubles in float mode, lowest order first."""
        if self._mode == EXACT:
            return [[c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]
                    for c in self._coeffs]
        return [[c.real, c.imag] for c in self._coeffs]

    @classmethod
    def from_json(cls, data):
        """Inverse of ``to_json``; raises ValueError on any malformed payload."""
        if not (isinstance(data, list) and data and all(isinstance(item, list) for item in data)):
            raise ValueError("series payload must be a nonempty list of coefficient lists")
        width = len(data[0])
        if any(len(item) != width for item in data):
            raise ValueError("mixed coefficient encodings in series payload")
        if width == 4:
            parts = [x for item in data for x in item]
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in parts):
                raise ValueError("exact coefficients must be integer quadruples")
            if any(rd == 0 or jd == 0 for _, rd, _, jd in data):
                raise ValueError("exact coefficient with zero denominator")
            return cls([QComplex(Fraction(rn, rd), Fraction(jn, jd))
                        for rn, rd, jn, jd in data], EXACT)
        if width == 2:
            if not all(is_finite_real(x) for item in data for x in item):
                raise ValueError("float coefficients must be finite real pairs")
            return cls([complex(re, im) for re, im in data], FLOAT)
        raise ValueError("coefficients must be [re,im] or [re_num,re_den,im_num,im_den]")

    def pretty(self):
        """Human-readable polynomial in w, e.g. ``w - (3/2)w^2 + 5w^3`` in
        exact mode and ``w - 1.5w^2 + 5w^3`` in float mode."""
        pieces = []
        for n, c in enumerate(self._coeffs):
            if c == 0:
                continue
            text = _format_coeff(c)
            sign, mag = ("-", text[1:]) if text.startswith("-") else ("+", text)
            mono = "" if n == 0 else ("w" if n == 1 else f"w^{n}")
            body = ("" if mono and mag == "1" else mag) + mono
            if not pieces:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f"{sign} {body}")
        return " ".join(pieces) if pieces else "0"


def _convolve(a, b, n, zero):
    """Truncated product of two coefficient lists, each 0 past its end:
    entry k of the n + 1 is the sum of a[j] * b[k-j] over j = 0..k, added
    left to right onto ``zero``."""
    out = []
    for k in range(n + 1):
        acc = zero
        for j in range(max(0, k + 1 - len(b)), min(k + 1, len(a))):
            acc = acc + a[j] * b[k - j]
        out.append(acc)
    return out


def _integer_parts(coeffs):
    """(re, im, D): the coefficients times their common denominator D, as
    int lists without the zero coefficients at the end; im is None when
    every imaginary part is zero."""
    d = math.lcm(*(c.re.denominator for c in coeffs), *(c.im.denominator for c in coeffs))
    end = 1 + max((k for k, c in enumerate(coeffs) if c != 0), default=0)
    re = [c.re.numerator * (d // c.re.denominator) for c in coeffs[:end]]
    im = [c.im.numerator * (d // c.im.denominator) for c in coeffs[:end]]
    return re, (im if any(im) else None), d


def _gaussian_product(a, b, n):
    """Coefficients 0..n of the product of two Gaussian-integer jets, each a
    pair (re, im) of int lists with im None when it is all zero: one real
    convolution per pair of parts that are not None."""
    (ar, ai), (br, bi) = a, b
    re, im = _convolve(ar, br, n, 0), None
    if ai is not None:
        im = _convolve(ai, br, n, 0)
        if bi is not None:
            re = [x - y for x, y in zip(re, _convolve(ai, bi, n, 0))]
    if bi is not None:
        cross = _convolve(ar, bi, n, 0)
        im = cross if im is None else [x + y for x, y in zip(im, cross)]
    return re, im


def _exact_reciprocal(coeffs):
    """D r for an exact jet A/D with A Gaussian (_integer_parts) and r = 1/A:
    r_n = conj(A_0) P_n / (|A_0|^2 m), P_0 = 1, P_n = -m sum_(k>=1) A_k r_(n-k), each
    r_n as (x_n + i y_n)/m. Step n reduces by gcd(x, y, |A_0|^2 m); m and the earlier
    x_j, y_j take any factor of the reduced denominator that m does not have."""
    re, im, d = _integer_parts(coeffs)
    (a, *wr), (b, *wi) = re, (im or [0])
    norm, xs, ys, m, p, q = a * a + b * b, [], [], 1, 1, 0  # P_n = p + iq
    for _ in coeffs:
        x, y = a * p + b * q, a * q - b * p
        e = norm * m // (g := math.gcd(x, y, norm * m))
        grow = e // math.gcd(e, m)
        if grow > 1:
            m *= grow
            xs, ys = [v * grow for v in xs], [v * grow for v in ys]
        xs.append(x // g * (m // e))
        ys.append(y // g * (m // e))
        p, q = _dot(wi, ys) - _dot(wr, xs), -_dot(wr, ys) - _dot(wi, xs)
    return [QComplex(Fraction(d * x, m), Fraction(d * y, m)) for x, y in zip(xs, ys)]


def _dot(w, p):
    """The sum of w[k-1] p[m-k] over k = 1..m, with m = len(p)."""
    return sum(map(mul, w, reversed(p)))


def _rational_text(x):
    """An exact integer bare, a fraction in parentheses: ``-(4/3)``."""
    text = str(abs(x)) if x.denominator == 1 else f"({abs(x)})"
    return f"{'-' if x < 0 else ''}{text}"


def imag_text(im):
    """A nonzero exact imaginary part's text after a real part, its sign
    first: ``+2i``, ``-(1/3)i``, never ``1/3i``, which reads as 1/(3i)."""
    return f"{'+' if im > 0 else ''}{_rational_text(im)}i"


def _format_coeff(c):
    """A coefficient's text: an exact real or imaginary value by _rational_text,
    a complex value in parentheses (``(1/2-(1/3)i)``)."""
    if isinstance(c, QComplex):
        if not c.im:
            return _rational_text(c.re)
        if not c.re:
            return _rational_text(c.im) + "i"
        return f"({c.re}{imag_text(c.im)})"
    if c.imag == 0.0:
        return _trim_float(c.real)
    return f"({_trim_float(c.real)}{'+' if c.imag >= 0 else ''}{_trim_float(c.imag)}i)"


def _trim_float(x):
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def require_normalized(series):
    """Raise ValueError unless the jet has order >= 1, c0 = 0 and c1 = 1
    exactly, in either mode."""
    if series.order < 1:
        raise ValueError("series must have order >= 1")
    if series[0] != 0 or series[1] != 1:
        raise ValueError("series is not normalized (needs c0 = 0, c1 = 1)")


def zf_jet(f):
    """Jet of z/f, order one less than f: the reciprocal of f/z. Raises
    ValueError unless f is normalized."""
    require_normalized(f)
    return TruncatedSeries(f.coeffs[1:], f.mode).reciprocal()


def revert(f):
    """Compositional inverse jet of a normalized series: its z/f jet, then
    inverse_from_zf. Exact in exact mode."""
    return inverse_from_zf(zf_jet(f))


def inverse_from_zf(g):
    """Compositional inverse jet, to order g.order + 1, of the f with
    z/f = g, by Lagrange inversion: [w^n] F = [z^(n-1)] g^n / n.

    N-1 truncated products of a running power, so O(N^3) ring operations.
    An exact g runs as the Gaussian integers G = D g of _integer_parts, so
    g^n = G^n / D^n, and only [z^(n-1)] of each power becomes a QComplex.
    """
    if g.mode == EXACT:
        re, im, d = _integer_parts(g.coeffs)
        base, product = (re, im), partial(_gaussian_product, n=g.order)

        def coefficient(power, n):
            im = power[1][n - 1] if power[1] else 0
            return QComplex(Fraction(power[0][n - 1], d ** n), Fraction(im, d ** n))
    else:
        base, product = g.coeffs, partial(_convolve, n=g.order, zero=0j)

        def coefficient(power, n):
            return power[n - 1]
    power = base
    coeffs = [0, g[0]]
    for n in range(2, g.order + 2):
        power = product(power, base)
        coeffs.append(coefficient(power, n) / n)
    return TruncatedSeries(coeffs, g.mode)
