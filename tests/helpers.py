"""Independent brute-force oracles and small test utilities.

The oracles work on plain coefficient lists (Fractions or complex) with
untruncated polynomial arithmetic followed by a single truncation, so they
share no code path with the library's truncate-at-every-step jets. A caller
that compares only up to some degree may pass it, and the products then
skip the terms above it, which cannot reach the compared coefficients.
"""

from fractions import Fraction
from unittest import mock

from coeffforge import (EXACT, QComplex, SchwarzJet, TruncatedSeries, class_parameter,
                        inverse_coeffs, zf_jet)
from coeffforge.scalars import as_scalar, maybe_exact_abs
from coeffforge.schwarz import sample_block_arrays
from coeffforge.ulambda import FUNCTIONALS


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


def derivative(series):
    """Termwise derivative jet; the jet of a constant differentiates to 0."""
    if series.order == 0:
        return TruncatedSeries([0], series.mode)
    return TruncatedSeries([series[k] * k for k in range(1, series.order + 1)], series.mode)


def evaluate(series, z):
    """Horner evaluation of the jet polynomial at a point."""
    z = as_scalar(z, series.mode)
    acc = series[series.order]
    for k in range(series.order - 1, -1, -1):
        acc = acc * z + series[k]
    return acc


def defect(g, z):
    """The membership defect g(z) - z g'(z) - 1 of the f with z/f = g, equal
    to (z/f)^2 f' - 1, pointwise: the library scans it as one polynomial.
    Exact for an exact jet g at an exact point."""
    z = as_scalar(z, g.mode)
    return evaluate(g, z) - z * evaluate(derivative(g), z) - as_scalar(1, g.mode)


def subordination_witness(lam, f):
    """Recover the Schwarz jet w from z/f = (1 - w)(1 - L w).

    This is the fixed point w = (1 - z/f)/(1+L) + L/(1+L) w^2. As w^2
    starts at z^2, each substitution fixes one more coefficient, so
    N-2 of them give the jet of w to order N-1.
    """
    lam, mode = class_parameter(lam)
    if f.mode != mode:
        raise ValueError(f"mode mismatch: lambda {mode} vs series {f.mode}")
    g = zf_jet(f)  # g(0) = 1
    linear = TruncatedSeries([0, *g.coeffs[1:]], mode) * (-1 / (1 + lam))
    omega = linear
    for _ in range(g.order - 1):
        omega = linear + omega * omega * (lam / (1 + lam))
    return omega


def inverse_coeffs_closed(a2, a3, a4):
    """First three inverse-function coefficients from the direct ones, by the
    classical formulas. Works on any scalar type closed under + and *."""
    A2 = -a2
    A3 = -a3 + 2 * a2 * a2
    A4 = -a4 + 5 * a2 * a3 - 5 * a2 * a2 * a2
    return A2, A3, A4


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
    """An exact part from a QComplex, a rational, a (re, im) pair or a float
    (by its binary value)."""
    if isinstance(x, tuple):
        return QComplex(Fraction(x[0]), Fraction(x[1]))
    return as_scalar(x, EXACT)


def patched_bound(name, bound):
    """A patch of the table that gives the named functional bound(L, nu),
    read alike by the search and the exact proofs."""
    return mock.patch.dict(FUNCTIONALS, {name: FUNCTIONALS[name]._replace(bound=bound)})


def fs_value(lam, jet, mu):
    """|A3 - mu A2^2| at the jet, by the table's FS entry."""
    return maybe_exact_abs(FUNCTIONALS["FS"].value(*inverse_coeffs(lam, jet), mu))


# The paper's majorants, written out by hand: the triangle inequality on its
# regroupings A2 = -C, A3 = -s + C^2, A4 = -r + 3 C s - C^3 and
# A3 - mu A2^2 = -s + (1 - mu) C^2, with |C| = (1+L)x, |s| = L u and
# |r| <= L(1 - u^2)/2. The verifier derives its majorants from the values.
PAPER_MAJORANTS = {
    "A2": lambda L, x, u, nu: (1 + L) * x,
    "A3": lambda L, x, u, nu: L * u + (1 + L) ** 2 * x ** 2,
    "A4": lambda L, x, u, nu: L * (1 - u * u) / 2 + 3 * (1 + L) * x * L * u + (1 + L) ** 3 * x ** 3,
    "FS": lambda L, x, u, nu: L * u + nu * (1 + L) ** 2 * x ** 2,
}


def h_poly(lam, x, u):
    """h at |c1| = x and t = L u, for numbers or polynomials: twice the
    paper's A4 majorant."""
    return 2 * PAPER_MAJORANTS["A4"](lam, x, u, 0)


def h_function(lam, c1_abs, t):
    """h(t) = L - t^2/L + 6(1+L)|c1| t + 2(1+L)^3 |c1|^3 on 0 <= t <= L.

    Twice the |A4| candidate after the triangle-inequality regrouping, as
    the A4 proof row reads it (h_poly), with its arguments checked.
    Accepts floats or Fractions (exact in, exact out).
    """
    lam, _ = class_parameter(lam)
    if not 0 <= c1_abs <= 1:
        raise ValueError("|c1| must lie in [0, 1]")
    if not 0 <= t <= lam:
        raise ValueError("t must lie in [0, lam]")
    return h_poly(lam, c1_abs, t / lam)
