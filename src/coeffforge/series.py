"""Truncated formal power-series arithmetic over complex coefficients.

A series is an immutable jet c0 + c1 z + ... + cN z^N. Arithmetic between
two jets first truncates both to the smaller order, so every operation is
well defined at jet level; nothing here knows about convergence. Exact
mode keeps coefficients as rational complex pairs, float mode as complex
doubles.

A product of two exact jets does not multiply rational pairs term by term.
Each operand is written once as integer jets (re, im) over one common
denominator D, the lcm of all its real and imaginary denominators. The
truncated convolution then runs on plain ints, one real convolution per
pair of parts that are not all zero (one to four), and each output
coefficient is divided by Da*Db once, where Fraction reduces it. Float
products run the same convolution on the complex coefficients as they are.

The paper's functions are normalized, f(0) = 0 and f'(0) = 1. Such a jet
is a plain TruncatedSeries; require_normalized checks the normalization on
the way into zf_jet, which every reader of f (revert, the membership
scan, the subordination witness) goes through.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import EXACT, FLOAT, MODES, QComplex, as_scalar, is_finite_real


class TruncatedSeries:
    __slots__ = ("_coeffs", "_mode")

    def __init__(self, coeffs, mode=None):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        if mode is None:
            mode = FLOAT if any(isinstance(c, (float, complex)) for c in coeffs) else EXACT
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
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

    def __hash__(self):
        return hash((self._mode, self._coeffs))

    def __repr__(self):
        return f"TruncatedSeries({list(self._coeffs)!r}, mode={self._mode!r})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, order, mode):
        return cls([value] + [0] * order, mode)

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

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_mode(other)
        n = min(self.order, other.order)
        return TruncatedSeries([self._coeffs[k] + other._coeffs[k] for k in range(n + 1)],
                               self._mode)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_mode(other)
        n = min(self.order, other.order)
        return TruncatedSeries([self._coeffs[k] - other._coeffs[k] for k in range(n + 1)],
                               self._mode)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_mode(other)
            n = min(self.order, other.order)
            if self._mode == FLOAT:
                return TruncatedSeries(_convolve(self._coeffs, other._coeffs, n, 0j), FLOAT)
            return TruncatedSeries(_exact_product(self._coeffs, other._coeffs, n), EXACT)
        scale = as_scalar(other, self._mode)
        return TruncatedSeries([c * scale for c in self._coeffs], self._mode)

    def __rmul__(self, other):
        return self.__mul__(other)

    def truncate(self, order):
        if order > self.order:
            raise ValueError(f"cannot truncate order-{self.order} jet to order {order}")
        return TruncatedSeries(self._coeffs[:order + 1], self._mode)

    def reciprocal(self):
        """Multiplicative inverse jet; requires a nonzero constant term."""
        c0 = self._coeffs[0]
        if c0 == 0:
            raise ValueError("reciprocal of a series with zero constant term")
        inv0 = as_scalar(1, self._mode) / c0
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = as_scalar(0, self._mode)
            for k in range(1, n + 1):
                acc = acc + self._coeffs[k] * out[n - k]
            out.append(-acc * inv0)
        return TruncatedSeries(out, self._mode)

    def compose(self, inner):
        """Jet of self(inner(z)); inner must have zero constant term."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries")
        self._check_mode(inner)
        if inner._coeffs[0] != 0:
            raise ValueError("inner series must vanish at the origin")
        n = min(self.order, inner.order)
        g = inner.truncate(n)
        acc = TruncatedSeries.constant(self._coeffs[n], n, self._mode)
        for k in range(n - 1, -1, -1):
            acc = acc * g
            acc = acc + TruncatedSeries.constant(self._coeffs[k], n, self._mode)
        return acc

    def derivative(self):
        """Termwise derivative; the jet of a constant differentiates to 0."""
        if self.order == 0:
            return TruncatedSeries([0], self._mode)
        out = [self._coeffs[k] * k for k in range(1, self.order + 1)]
        return TruncatedSeries(out, self._mode)

    def evaluate(self, z):
        """Horner evaluation of the jet polynomial at a point."""
        z = as_scalar(z, self._mode)
        acc = self._coeffs[-1]
        for k in range(self.order - 1, -1, -1):
            acc = acc * z + self._coeffs[k]
        return acc

    # -- conversions -------------------------------------------------------

    def to_float(self):
        if self._mode == FLOAT:
            return self
        return TruncatedSeries(self._coeffs, FLOAT)

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

    def pretty(self, var="z", decimals=False):
        """Human-readable polynomial string, e.g. ``w - 2w^2 + 5w^3``."""
        pieces = []
        for n, c in enumerate(self._coeffs):
            if c == 0:
                continue
            text = _format_coeff(c, decimals)
            sign, mag = ("-", text[1:]) if text.startswith("-") else ("+", text)
            mono = "" if n == 0 else (var if n == 1 else f"{var}^{n}")
            if mono:
                if mag == "1":
                    mag = ""
                elif "/" in mag:
                    mag = f"({mag})"
            body = f"{mag}{mono}" if mono else mag
            if not pieces:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f"{sign} {body}")
        return " ".join(pieces) if pieces else "0"


def _convolve(a, b, n, zero):
    """Truncated product of two coefficient lists: entry k is the sum of
    a[j] * b[k-j] over j = 0..k, added left to right onto ``zero``."""
    out = []
    for k in range(n + 1):
        acc = zero
        for j in range(k + 1):
            acc = acc + a[j] * b[k - j]
        out.append(acc)
    return out


def _integer_parts(coeffs):
    """(re, im, D): the coefficients times their common denominator D, as
    int lists; im is None when every imaginary part is zero."""
    d = math.lcm(*(c.re.denominator for c in coeffs), *(c.im.denominator for c in coeffs))
    re = [c.re.numerator * (d // c.re.denominator) for c in coeffs]
    im = [c.im.numerator * (d // c.im.denominator) for c in coeffs]
    return re, (im if any(im) else None), d


def _exact_product(a, b, n):
    """Coefficients 0..n of the product of two exact jets, through integer
    convolutions (see the module docstring)."""
    ar, ai, da = _integer_parts(a[:n + 1])
    br, bi, db = _integer_parts(b[:n + 1])
    re = _convolve(ar, br, n, 0)
    im = [0] * (n + 1)
    if ai is not None:
        im = _convolve(ai, br, n, 0)
        if bi is not None:
            re = [x - y for x, y in zip(re, _convolve(ai, bi, n, 0))]
    if bi is not None:
        im = [x + y for x, y in zip(im, _convolve(ar, bi, n, 0))]
    d = da * db
    return [QComplex(Fraction(x, d), Fraction(y, d)) for x, y in zip(re, im)]


def _format_coeff(c, decimals):
    if isinstance(c, QComplex):
        if c.im == 0:
            return _format_real(c.re, decimals)
        if c.re == 0:
            return f"{_format_real(c.im, decimals)}i"
        return f"({_format_real(c.re, decimals)}{'+' if c.im > 0 else ''}{_format_real(c.im, decimals)}i)"
    if c.imag == 0.0:
        return _trim_float(c.real)
    return f"({_trim_float(c.real)}{'+' if c.imag >= 0 else ''}{_trim_float(c.imag)}i)"


def _format_real(q, decimals):
    if q.denominator == 1:
        return str(q.numerator)
    if decimals:
        return _trim_float(float(q))
    return f"{q.numerator}/{q.denominator}"


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
    """Compositional inverse jet of a normalized series, by Lagrange
    inversion: [w^n] F = [z^(n-1)] (z/f)^n / n.

    One reciprocal (the z/f jet) and N-1 truncated products of a running
    power, so O(N^3) ring operations. Exact in exact mode.
    """
    g = zf_jet(f)
    power = g
    coeffs = [0, g[0]]
    for n in range(2, f.order + 1):
        power = power * g
        coeffs.append(power[n - 1] / n)
    return TruncatedSeries(coeffs, f.mode)


def inverse_coeffs_closed(a2, a3, a4):
    """First three inverse-function coefficients from the direct ones.

    Works on any scalar type closed under + and * (exact complex, complex,
    numpy arrays).
    """
    A2 = -a2
    A3 = -a3 + 2 * a2 * a2
    A4 = -a4 + 5 * a2 * a3 - 5 * a2 * a2 * a2
    return A2, A3, A4
