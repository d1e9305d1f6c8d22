"""Independent brute-force oracles and small test utilities.

The oracles work on plain coefficient lists (Fractions or complex) with
untruncated polynomial arithmetic followed by a single truncation, so they
share no code path with the library's truncate-at-every-step jets. A caller
that compares only up to some degree may pass it, and the products then
skip the terms above it, which cannot reach the compared coefficients.
"""

from fractions import Fraction

from coeffforge import EXACT, QComplex, SchwarzJet, TruncatedSeries, class_parameter
from coeffforge.schwarz import sample_block_arrays
from coeffforge.verifier import _h


def poly_add(a, b):
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        x = a[k] if k < len(a) else 0
        y = b[k] if k < len(b) else 0
        out.append(x + y)
    return out


def poly_mul_full(a, b, degree=None):
    """The product a*b; with a degree, terms above it are never formed."""
    top = len(a) + len(b) - 2 if degree is None else min(degree, len(a) + len(b) - 2)
    out = [0] * (top + 1)
    terms = [(j, y) for j, y in enumerate(b) if y != 0]
    for i, x in enumerate(a[:top + 1]):
        if x != 0:
            for j, y in terms:
                if i + j <= top:
                    out[i + j] += x * y
    return out


def poly_compose_full(f, g, degree=None):
    """f(g(x)) by explicit power accumulation; with a degree, the powers
    drop their terms above it, so the result is exact up to that degree."""
    out = [f[0]]
    power = [1]
    for coeff in f[1:]:
        power = poly_mul_full(power, g, degree)
        out = poly_add(out, [coeff * c for c in power])
    return out


def truncated(coeffs, order):
    coeffs = list(coeffs) + [0] * max(0, order + 1 - len(coeffs))
    return coeffs[:order + 1]


def revert_oracle(f):
    """Compositional inverse of a normalized coefficient list by the
    triangular solve: with F_1..F_(n-1) fixed, [w^n] f(F(w)) is F_n plus
    terms in lower coefficients, so each order is one linear correction.
    Only f and F up to order n reach [w^n], so each step composes those."""
    F = [0, 1] + [0] * (len(f) - 2)
    for n in range(2, len(f)):
        F[n] -= poly_compose_full(f[:n + 1], F[:n + 1], n)[n]
    return F


def floats(series):
    """Coefficients of a series as complex numbers."""
    return [complex(c.to_complex()) if isinstance(c, QComplex) else complex(c)
            for c in series.coeffs]


def assert_series_close(series, expected, tol=1e-12):
    got = floats(series)
    assert len(got) == len(expected), f"order mismatch: {got} vs {expected}"
    for k, (g, e) in enumerate(zip(got, expected)):
        assert abs(g - complex(e)) <= tol, f"coefficient {k}: {g} vs {e}"


def assert_series_exact(series, expected):
    assert series.mode == EXACT
    assert len(series.coeffs) == len(expected)
    for k, e in enumerate(expected):
        assert series[k] == e, f"coefficient {k}: {series[k]} vs {e}"


def q(re, im=0):
    return QComplex(Fraction(re), Fraction(im))


def random_exact_coeff(rng, max_num=6, max_den=5):
    return QComplex(Fraction(int(rng.integers(-max_num, max_num + 1)),
                             int(rng.integers(1, max_den + 1))),
                    Fraction(int(rng.integers(-max_num, max_num + 1)),
                             int(rng.integers(1, max_den + 1))))


def random_exact_normalized(rng, order):
    coeffs = [q(0), q(1)] + [random_exact_coeff(rng) for _ in range(order - 1)]
    return TruncatedSeries(coeffs, EXACT)


def random_float_normalized(rng, order, bound=1.0):
    coeffs = [0.0j, 1.0 + 0.0j]
    for _ in range(order - 1):
        r = bound * rng.random() ** 0.5
        coeffs.append(r * complex(*_unit(rng)))
    return TruncatedSeries(coeffs, "float")


def _unit(rng):
    import math
    t = 2.0 * math.pi * rng.random()
    return math.cos(t), math.sin(t)


def functional_maxima_oracle(tasks, coeffs):
    """(maximum, first index attaining it) of each (name, mu) task on a block
    of (A2, A3, A4) arrays, one whole-block pass per task: the loop the
    verifier's block evaluator replaced."""
    A2, A3, A4 = coeffs
    out = []
    for name, mu in tasks:
        if name == "FS":
            values = abs(A3 - mu * (A2 * A2))
        else:
            values = abs({"A2": A2, "A3": A3, "A4": A4}[name])
        k = int(values.argmax())
        out.append((float(values[k]), k))
    return out


def block_jets(lam, seed, count, strategy="uniform", block=0):
    """The first count jets of one sampler block, as float SchwarzJets."""
    arrays = sample_block_arrays(lam, seed, block, strategy)
    return [SchwarzJet(*(complex(c[k]) for c in arrays)) for k in range(count)]


def exact_jet(c1, c2, c3):
    return SchwarzJet(_as_q(c1), _as_q(c2), _as_q(c3))


def _as_q(x):
    if isinstance(x, QComplex):
        return x
    if isinstance(x, tuple):
        return QComplex(Fraction(x[0]), Fraction(x[1]))
    return QComplex(Fraction(x))


def h_function(lam, c1_abs, t):
    """h(t) = L - t^2/L + 6(1+L)|c1| t + 2(1+L)^3 |c1|^3 on 0 <= t <= L.

    Twice the |A4| candidate after the triangle-inequality regrouping, as
    the A4 proof row writes it (verifier._h), with its arguments checked.
    Accepts floats or Fractions (exact in, exact out).
    """
    lam, _ = class_parameter(lam)
    if not 0 <= c1_abs <= 1:
        raise ValueError("|c1| must lie in [0, 1]")
    if not 0 <= t <= lam:
        raise ValueError("t must lie in [0, lam]")
    return _h(lam, c1_abs, t / lam)
