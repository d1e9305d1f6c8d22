"""Truncated formal power-series arithmetic over complex coefficients.

A series is an immutable jet c0 + c1 z + ... + cN z^N. Arithmetic between
two jets first truncates both to the smaller order, so every operation is
well defined at jet level; nothing here knows about convergence. Exact
mode keeps coefficients as rational complex pairs, float mode as complex
doubles.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (EXACT, FLOAT, MODES, QComplex, as_scalar, scalar_is_zero,
                      scalar_one, scalar_zero, to_complex)

DEFAULT_ORDER = 10


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

    def __len__(self):
        return len(self._coeffs)

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
        coeffs = [value] + [scalar_zero(mode)] * order
        return cls(coeffs, mode)

    @classmethod
    def zero(cls, order, mode):
        return cls.constant(scalar_zero(mode), order, mode)

    @classmethod
    def identity(cls, order, mode):
        """The series z, as a jet of the requested order (order >= 1)."""
        if order < 1:
            raise ValueError("identity jet needs order >= 1")
        coeffs = [scalar_zero(mode), scalar_one(mode)] + [scalar_zero(mode)] * (order - 1)
        return cls(coeffs, mode)

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

    def __neg__(self):
        return TruncatedSeries([-c for c in self._coeffs], self._mode)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_mode(other)
            n = min(self.order, other.order)
            out = []
            for k in range(n + 1):
                acc = scalar_zero(self._mode)
                for j in range(k + 1):
                    acc = acc + self._coeffs[j] * other._coeffs[k - j]
                out.append(acc)
            return TruncatedSeries(out, self._mode)
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
        if scalar_is_zero(c0):
            raise ValueError("reciprocal of a series with zero constant term")
        one = scalar_one(self._mode)
        inv0 = one / c0
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = scalar_zero(self._mode)
            for k in range(1, n + 1):
                acc = acc + self._coeffs[k] * out[n - k]
            out.append(-acc * inv0)
        return TruncatedSeries(out, self._mode)

    def compose(self, inner):
        """Jet of self(inner(z)); inner must have zero constant term."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries")
        self._check_mode(inner)
        if not scalar_is_zero(inner._coeffs[0]):
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
            return TruncatedSeries([scalar_zero(self._mode)], self._mode)
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
        return TruncatedSeries([c.to_complex() for c in self._coeffs], FLOAT)

    def to_json(self):
        """Wire format: [re_num, re_den, im_num, im_den] per coefficient in
        exact mode, [re, im] doubles in float mode, lowest order first."""
        if self._mode == EXACT:
            return [[c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]
                    for c in self._coeffs]
        return [[c.real, c.imag] for c in self._coeffs]

    @classmethod
    def from_json(cls, data):
        if not data:
            raise ValueError("empty series payload")
        width = len(data[0])
        if any(len(item) != width for item in data):
            raise ValueError("mixed coefficient encodings in series payload")
        if width == 4:
            coeffs = [QComplex(Fraction(int(rn), int(rd)), Fraction(int(jn), int(jd)))
                      for rn, rd, jn, jd in data]
            return cls(coeffs, EXACT)
        if width == 2:
            return cls([complex(re, im) for re, im in data], FLOAT)
        raise ValueError("coefficients must be [re,im] or [re_num,re_den,im_num,im_den]")

    def pretty(self, var="z", decimals=False):
        """Human-readable polynomial string, e.g. ``w - 2w^2 + 5w^3``."""
        pieces = []
        for n, c in enumerate(self._coeffs):
            if scalar_is_zero(c):
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


class NormalizedSeries(TruncatedSeries):
    """A jet with c0 = 0 and c1 = 1 exactly, in either mode."""

    def __init__(self, coeffs, mode=None):
        super().__init__(coeffs, mode)
        if self.order < 1:
            raise ValueError("a normalized series needs order >= 1")
        if not scalar_is_zero(self._coeffs[0]):
            raise ValueError("normalized series must have zero constant term")
        if self._coeffs[1] != scalar_one(self.mode):
            raise ValueError("normalized series must have unit linear term")


def require_normalized(series):
    """Validate normalization without forcing the NormalizedSeries type."""
    if series.order < 1:
        raise ValueError("series must have order >= 1")
    if not scalar_is_zero(series[0]) or series[1] != scalar_one(series.mode):
        raise ValueError("series is not normalized (needs c0 = 0, c1 = 1)")


def revert(f):
    """Compositional inverse jet of a normalized series.

    Solved triangularly: with F(1..n-1) fixed, the coefficient of w^n in
    f(F(w)) is F_n plus terms in lower coefficients, so each order is a
    single linear correction. Exact in exact mode.
    """
    require_normalized(f)
    N = f.order
    coeffs = list(TruncatedSeries.identity(N, f.mode).coeffs)
    for n in range(2, N + 1):
        resid = f.compose(TruncatedSeries(coeffs, f.mode))
        coeffs[n] = coeffs[n] - resid[n]
    return NormalizedSeries(coeffs, f.mode)


def inverse_coeffs_closed(a2, a3, a4):
    """First three inverse-function coefficients from the direct ones.

    Works on any scalar type closed under + and * (exact complex, complex,
    numpy arrays).
    """
    A2 = -a2
    A3 = -a3 + 2 * a2 * a2
    A4 = -a4 + 5 * a2 * a3 - 5 * a2 * a2 * a2
    return A2, A3, A4
