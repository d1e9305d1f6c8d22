"""Complex scalars in two modes: exact rational pairs and machine floats.

Every coefficient formula in this package is polynomial in the inputs, so
exact mode (Fraction real part, Fraction imaginary part) is closed under
all the arithmetic we ever perform and lets identity checks use literal
equality instead of tolerances. Float mode is plain ``complex``.

A value's type is its mode: a QComplex is exact, a complex is float.
``as_scalar`` is the one coercion between them; plain 0 and 1 compare
equal to the zero and the one of either mode.
"""

from __future__ import annotations

import math
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)


class QComplex:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __repr__(self):
        return f"QComplex({self.re!s}, {self.im!s})"

    def __eq__(self, other):
        if isinstance(other, QComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
            return self.re == Fraction(other.real) and self.im == Fraction(other.imag)
        if isinstance(other, float):
            return self.im == 0 and self.re == Fraction(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QComplex(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QComplex(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact complex zero")
        return QComplex((self.re * other.re + self.im * other.im) / d,
                        (self.im * other.re - self.re * other.im) / d)

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def abs2(self):
        """Squared modulus as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    def to_complex(self):
        return complex(self.re, self.im)


def _coerce(value):
    if isinstance(value, QComplex):
        return value
    if isinstance(value, (int, Fraction)):
        return QComplex(value)
    if isinstance(value, float):
        return QComplex(Fraction(value))
    if isinstance(value, complex):
        return QComplex(Fraction(value.real), Fraction(value.imag))
    return None


def as_scalar(value, mode):
    """Coerce ``value`` into the coefficient type of the given mode.

    Float inputs entering exact mode convert by their exact binary value.
    """
    if mode == FLOAT:
        if isinstance(value, QComplex):
            return value.to_complex()
        return complex(value)
    if mode == EXACT:
        coerced = _coerce(value)
        if coerced is None:
            raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")
        return coerced
    raise ValueError(f"unknown mode {mode!r}")


def class_parameter(lam):
    """The class parameter L and the mode its type names: an int or a
    Fraction is exact (returned as a Fraction), a float is float."""
    if isinstance(lam, float):
        lam, mode = float(lam), FLOAT
    elif isinstance(lam, (int, Fraction)) and not isinstance(lam, bool):
        lam, mode = Fraction(lam), EXACT
    else:
        raise TypeError(f"cannot use {type(lam).__name__} as the class parameter")
    if not 0 < lam <= 1:
        raise ValueError("class parameter must lie in (0, 1]")
    return lam, mode


def is_finite_real(value):
    """A finite int or float; bool is excluded although it subclasses int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def rational_sqrt(q):
    """Exact square root of a Fraction, or None when it is irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def maybe_exact_abs(value):
    """Modulus of a scalar; exact Fraction when it happens to be rational."""
    if isinstance(value, QComplex):
        s = value.abs2()
        root = rational_sqrt(s)
        return root if root is not None else math.sqrt(float(s))
    return abs(value)
