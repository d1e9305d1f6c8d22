"""Series arithmetic: frozen examples against independent oracles, then the
algebraic laws on seeded random inputs."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeffforge import (EXACT, FLOAT, QComplex, TruncatedSeries, inverse_from_zf,
                        require_normalized, revert, zf_jet)
from helpers import (assert_series_close, assert_series_exact, derivative, floats,
                     inverse_coeffs_closed, poly_compose_full, poly_mul_full, q,
                     random_exact_normalized, random_float_normalized, revert_oracle,
                     truncated)

F = Fraction


# -- mul ---------------------------------------------------------------------

def test_mul_difference_of_squares():
    a = TruncatedSeries([1, 1, 0], EXACT)
    b = TruncatedSeries([1, -1, 0], EXACT)
    assert_series_exact(a * b, [1, 0, -1])


def test_mul_geometric_factors():
    # 1/(1-z) times 1/(1-z/2): coefficients (1 - (1/2)^(n+1)) / (1 - 1/2)
    a = TruncatedSeries([1, 1, 1, 1], EXACT)
    b = TruncatedSeries([1, F(1, 2), F(1, 4), F(1, 8)], EXACT)
    assert_series_exact(a * b, [1, F(3, 2), F(7, 4), F(15, 8)])


def test_mul_annihilator():
    s = TruncatedSeries([2, 3, 4], EXACT)
    zero = TruncatedSeries([0, 0, 0], EXACT)
    assert s * zero == zero


def test_mul_truncates_to_min_order():
    a = TruncatedSeries([1, 1, 1, 1, 1, 1], EXACT)
    b = TruncatedSeries([1, 2, 3], EXACT)
    assert (a * b).order == 2


def test_mul_mode_mismatch():
    a = TruncatedSeries([1, 1], EXACT)
    b = TruncatedSeries([1.0, 1.0], FLOAT)
    with pytest.raises(ValueError, match="mode mismatch"):
        a * b


def test_mul_oracle_full_product_then_truncate():
    rng = np.random.default_rng(11)
    for _ in range(25):
        na, nb = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = [F(int(rng.integers(-5, 6)), int(rng.integers(1, 5))) for _ in range(na + 1)]
        b = [F(int(rng.integers(-5, 6)), int(rng.integers(1, 5))) for _ in range(nb + 1)]
        got = TruncatedSeries(a, EXACT) * TruncatedSeries(b, EXACT)
        want = truncated(poly_mul_full(a, b), min(na, nb))
        assert_series_exact(got, want)


# Denominators include coprime ones, so the common denominator of an
# operand is a product rather than one of its entries.
_PART = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 5, 7, 9, 11, 16]))


def _exact_operand(real):
    coeff = st.builds(QComplex, _PART, st.just(F(0)) if real else _PART)
    return st.lists(coeff, min_size=1, max_size=13)  # orders 0..12


@pytest.mark.parametrize("real_a, real_b", [(True, True), (True, False),
                                            (False, True), (False, False)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_exact_mul_matches_full_product(real_a, real_b, data):
    # each pair of real-only flags drives a different set of integer convolutions
    a = data.draw(_exact_operand(real_a))
    b = data.draw(_exact_operand(real_b))
    got = TruncatedSeries(a, EXACT) * TruncatedSeries(b, EXACT)
    assert_series_exact(got, truncated(poly_mul_full(a, b), min(len(a), len(b)) - 1))


def test_float_mul_sums_left_to_right_from_complex_zero():
    # signed zeros and cancellation pin the order of the float additions
    a = [complex(-0.0, -0.0), complex(1e16, -0.0), complex(1.0, 3.0), complex(-1e16, 0.5)]
    b = [complex(0.0, -0.0), complex(1.0, 1e-17), complex(-0.0, 1e16), complex(3.0, -1.0)]
    want = []
    for k in range(4):
        acc = 0j
        for j in range(k + 1):
            acc = acc + a[j] * b[k - j]
        want.append(acc)
    got = (TruncatedSeries(a, FLOAT) * TruncatedSeries(b, FLOAT)).coeffs
    assert [repr(c) for c in got] == [repr(c) for c in want]  # repr shows -0.0


def test_scalar_mul():
    s = TruncatedSeries([1, F(1, 2)], EXACT)
    assert_series_exact(2 * s, [2, 1])


def test_qcomplex_is_not_hashable():
    # it equals the int 3, so a hash of its own would put both in one set twice
    assert QComplex(3, 0) == 3
    with pytest.raises(TypeError):
        hash(QComplex(3, 0))


# -- reciprocal ----------------------------------------------------------------

def test_reciprocal_geometric():
    s = TruncatedSeries([1, -1, 0, 0], EXACT)
    assert_series_exact(s.reciprocal(), [1, 1, 1, 1])


def test_reciprocal_two_linear_factors():
    # (1-z)(1-z/2) = 1 - 3z/2 + z^2/2, matching the mul example
    s = TruncatedSeries([1, -F(3, 2), F(1, 2)], EXACT)
    assert_series_exact(s.reciprocal(), [1, F(3, 2), F(7, 4)])


def test_reciprocal_constant():
    s = TruncatedSeries([2], EXACT)
    assert_series_exact(s.reciprocal(), [F(1, 2)])


def test_reciprocal_zero_constant_term():
    with pytest.raises(ValueError, match="constant term"):
        TruncatedSeries([0, 1], EXACT).reciprocal()


def test_reciprocal_is_two_sided_inverse():
    rng = np.random.default_rng(5)
    one = TruncatedSeries([1, 0, 0, 0, 0], EXACT)
    for _ in range(20):
        coeffs = [q(int(rng.integers(1, 5)))] + \
                 [QComplex(F(int(rng.integers(-4, 5)), 3)) for _ in range(4)]
        s = TruncatedSeries(coeffs, EXACT)
        r = s.reciprocal()
        assert s * r == one
        assert r * s == one


def test_float_reciprocal_sums_left_to_right_from_complex_zero():
    # signed zeros and mixed magnitudes pin the order of the float additions
    rng = np.random.default_rng(29)
    parts = [0.0, -0.0, 1.0, -1.0, 1e-12, -3e8]
    for _ in range(600):
        coeffs = [complex(*(float(rng.standard_normal()) if rng.random() < 0.6
                            else parts[int(rng.integers(len(parts)))] for _ in "ri"))
                  for _ in range(int(rng.integers(1, 32)))]
        if coeffs[0] == 0:
            coeffs[0] = complex(-0.0, 2.0)
        want = [1 / coeffs[0]]
        for n in range(1, len(coeffs)):
            acc = 0j
            for k in range(1, n + 1):
                acc = acc + coeffs[k] * want[n - k]
            want.append(-acc * want[0])
        got = TruncatedSeries(coeffs, FLOAT).reciprocal().coeffs
        assert [repr(c) for c in got] == [repr(c) for c in want]  # repr shows -0.0


# Parts with denominators up to 10^6, so that a jet's common denominator is
# large, a constant term off the real line, and 0 to 30 more terms (an order
# drawn first, so that long jets are common), of which the last 0 to all are
# zero.
_WIDE_PART = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
_WIDE_COEFF = st.builds(QComplex, _WIDE_PART, _WIDE_PART)
_NOT_REAL = st.builds(QComplex, _WIDE_PART, _WIDE_PART.filter(bool))
_WIDE_TAIL = st.integers(0, 30).flatmap(lambda n: st.lists(_WIDE_COEFF, min_size=n, max_size=n))


@settings(max_examples=40, deadline=None, derandomize=True)  # the same jets on every run
@given(_NOT_REAL, _WIDE_TAIL, st.integers(0, 30))
def test_exact_reciprocal_of_a_non_real_constant_multiplies_back_to_one(c0, tail, zeros):
    kept = tail[:max(len(tail) - zeros, 0)]
    coeffs = [c0, *kept, *[QComplex(0)] * (len(tail) - len(kept))]
    series = TruncatedSeries(coeffs, EXACT)
    inverse = series.reciprocal()
    assert truncated(poly_mul_full(coeffs, inverse.coeffs), len(tail)) == [1] + [0] * len(tail)
    assert inverse.reciprocal() == series


# -- compose -------------------------------------------------------------------
# The library has no composition: the round trips f(F(w)) = w below compose
# through the oracle poly_compose_full, pinned here on frozen examples.

def test_compose_with_identity():
    assert poly_compose_full([1, 2, 3, 4], [0, 1]) == [1, 2, 3, 4]


def test_compose_square():
    # z^2 composed with 2z + 3z^2
    assert poly_compose_full([0, 0, 1], [0, 2, 3]) == [0, 0, 4, 12, 9]


def test_compose_geometric_into_geometric():
    # 1/(1-z) composed with z/(1-z), jets at order 3
    assert truncated(poly_compose_full([1, 1, 1, 1], [0, 1, 1, 1]), 3) == [1, 1, 2, 4]


def test_compose_oracle_random():
    # a degree cut drops only terms above it, as the round trips assume
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        f = [F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(n + 1)]
        g = [F(0)] + [F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(n)]
        assert truncated(poly_compose_full(f, g, n), n) == truncated(poly_compose_full(f, g), n)


# -- derivative ------------------------------------------------------------------

def test_derivative_power_rule():
    s = TruncatedSeries([0, 1, 2, 3], EXACT)
    assert_series_exact(derivative(s), [1, 4, 9])


def test_derivative_constant():
    assert_series_exact(derivative(TruncatedSeries([7], EXACT)), [0])


def test_derivative_koebe_jet():
    s = TruncatedSeries([0, 1, 2, 3, 4], EXACT)
    assert_series_exact(derivative(s), [1, 4, 9, 16])


def test_derivative_is_linear_and_leibniz():
    rng = np.random.default_rng(31)
    for _ in range(15):
        a = TruncatedSeries([QComplex(F(int(rng.integers(-3, 4)), 2)) for _ in range(6)], EXACT)
        b = TruncatedSeries([QComplex(F(int(rng.integers(-3, 4)), 2)) for _ in range(6)], EXACT)
        lin = derivative(a + b)
        assert lin == derivative(a) + derivative(b)
        prod_rule = derivative(a * b)
        rhs = derivative(a) * b + a * derivative(b)  # products truncate to order 4
        assert prod_rule == rhs


def test_mul_commutative_and_associative():
    rng = np.random.default_rng(43)
    for _ in range(15):
        series = [TruncatedSeries([QComplex(F(int(rng.integers(-3, 4)), 2),
                                            F(int(rng.integers(-3, 4)), 2))
                                   for _ in range(5)], EXACT) for _ in range(3)]
        a, b, c = series
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


# -- reversion --------------------------------------------------------------------

def test_revert_identity():
    f = TruncatedSeries.identity(5, EXACT)
    assert revert(f) == f


def test_revert_koebe_jet():
    f = TruncatedSeries([0, 1, 2, 3, 4], EXACT)
    assert_series_exact(revert(f), [0, 1, -2, 5, -14])


def test_revert_half_parameter_jet():
    f = TruncatedSeries([0, 1, F(3, 2), F(7, 4), F(15, 8)], EXACT)
    F_inv = revert(f)
    assert_series_exact(F_inv, [0, 1, -F(3, 2), F(11, 4), -F(45, 8)])
    # composition-residual oracle: f(F(w)) = w exactly
    assert truncated(poly_compose_full(f.coeffs, F_inv.coeffs, 4), 4) == [0, 1, 0, 0, 0]


def test_revert_requires_normalized():
    with pytest.raises(ValueError, match="normalized"):
        revert(TruncatedSeries([0, 2, 1], EXACT))


def test_revert_roundtrip_exact():
    rng = np.random.default_rng(57)
    for _ in range(20):
        order = int(rng.integers(2, 9))
        f = random_exact_normalized(rng, order)
        composed = poly_compose_full(f.coeffs, revert(f).coeffs, order)
        assert truncated(composed, order) == [0, 1] + [0] * (order - 1)


def test_revert_roundtrip_float_scaled_residual():
    # Composition residual measured relative to the inverse-jet magnitude:
    # the reversion result is correct to rounding even when the inverse
    # coefficients grow large (see notes on the absolute-tolerance reading).
    rng = np.random.default_rng(91)
    worst = 0.0
    for _ in range(60):
        f = random_float_normalized(rng, 10, bound=10.0)
        F_inv = revert(f)
        composed = truncated(poly_compose_full(f.coeffs, F_inv.coeffs, 10), 10)
        resid = [c - e for c, e in zip(composed, [0, 1] + [0] * 9)]
        scale = max(1.0, max(abs(c) for c in floats(F_inv)))
        worst = max(worst, max(abs(c) for c in resid) / scale)
    assert worst < 1e-12, f"scaled reversion residual {worst:.3e}"


def test_revert_exact_and_float_agree():
    rng = np.random.default_rng(77)
    for _ in range(10):
        f = random_exact_normalized(rng, 6)
        exact_inverse = revert(f).to_float()
        float_inverse = revert(TruncatedSeries(floats(f), FLOAT))
        scale = max(1.0, max(abs(c) for c in floats(exact_inverse)))
        for a, b in zip(floats(exact_inverse), floats(float_inverse)):
            assert abs(a - b) / scale < 1e-12


_EXACT_COEFF = st.builds(QComplex, st.fractions(-3, 3, max_denominator=4),
                        st.fractions(-3, 3, max_denominator=4))
# coefficient lists [0, 1, c2, ..., cN] of exact normalized series, N = 1..9
_NORMALIZED = st.integers(1, 9).flatmap(
    lambda order: st.lists(_EXACT_COEFF, min_size=order - 1, max_size=order - 1)
    .map(lambda tail: [q(0), q(1), *tail]))


@settings(max_examples=30, deadline=None)
@given(_NORMALIZED)
def test_revert_matches_triangular_oracle(coeffs):
    assert_series_exact(revert(TruncatedSeries(coeffs, EXACT)), revert_oracle(coeffs))


@settings(max_examples=30, deadline=None)
@given(st.lists(_WIDE_COEFF, max_size=7))
def test_revert_matches_triangular_oracle_on_large_denominators(tail):
    coeffs = [q(0), q(1), *tail]
    assert_series_exact(revert(TruncatedSeries(coeffs, EXACT)), revert_oracle(coeffs))


@settings(max_examples=30, deadline=None)
@given(_NORMALIZED)
def test_revert_full_composition_is_identity(coeffs):
    order = len(coeffs) - 1
    inverse = list(revert(TruncatedSeries(coeffs, EXACT)).coeffs)
    assert truncated(poly_compose_full(coeffs, inverse, order), order) == [0, 1] + [0] * (order - 1)


@settings(max_examples=30, deadline=None)
@given(_NORMALIZED)
def test_inverse_from_zf_matches_triangular_oracle(coeffs):
    # a random exact z/f jet g = 1 + ..., and f = z/g checked by the full product
    g = TruncatedSeries([q(1), *coeffs[2:]], EXACT)
    f_over_z = list(g.reciprocal().coeffs)
    assert truncated(poly_mul_full(g.coeffs, f_over_z), g.order) == [1] + [0] * g.order
    assert_series_exact(inverse_from_zf(g), revert_oracle([0, *f_over_z]))


def test_zf_jet_of_koebe():
    # z / (z/(1-z)^2) = (1-z)^2
    f = TruncatedSeries([0, 1, 2, 3, 4], EXACT)
    assert_series_exact(zf_jet(f), [1, -2, 1, 0])


@pytest.mark.parametrize("coeffs", [[1, 1, 2], [0, 2, 1], [0.5, 1.0, 0.0]])
def test_zf_jet_requires_normalized(coeffs):
    with pytest.raises(ValueError, match="normalized"):
        zf_jet(TruncatedSeries(coeffs))


# -- closed-form inverse coefficients ----------------------------------------------

def test_inverse_coeffs_closed_identity_function():
    assert inverse_coeffs_closed(0, 0, 0) == (0, 0, 0)


def test_inverse_coeffs_closed_koebe():
    A2, A3, A4 = inverse_coeffs_closed(F(2), F(3), F(4))
    assert (A2, A3, A4) == (-2, 5, -14)


def test_inverse_coeffs_closed_matches_reversion():
    a2, a3, a4 = F(3, 2), F(7, 4), F(15, 8)
    A2, A3, A4 = inverse_coeffs_closed(a2, a3, a4)
    assert (A2, A3, A4) == (-F(3, 2), F(11, 4), -F(45, 8))
    f = TruncatedSeries([0, 1, a2, a3, a4], EXACT)
    inv = revert(f)
    assert inv[2] == A2 and inv[3] == A3 and inv[4] == A4


def test_closed_form_agreement_random():
    rng = np.random.default_rng(101)
    for _ in range(25):
        f = random_exact_normalized(rng, 4)
        A2, A3, A4 = inverse_coeffs_closed(f[2], f[3], f[4])
        inv = revert(f)
        assert inv[2] == A2 and inv[3] == A3 and inv[4] == A4


# -- modes, construction, serialization ---------------------------------------------

@pytest.mark.parametrize("q", [QComplex(F(7, 3), F(-5, 11)), QComplex(F(-2, 9)), QComplex(0, 3)])
@pytest.mark.parametrize("n", [1, -6, 24, F(5, 7), F(-3, 2), True])
def test_division_by_a_real_rational_is_the_complex_quotient(q, n):
    assert q / n == q / QComplex(n)
    with pytest.raises(ZeroDivisionError, match="exact complex zero"):
        q / 0
    with pytest.raises(ZeroDivisionError, match="exact complex zero"):
        q / F(0)


def test_mode_agreement_on_pipeline():
    rng = np.random.default_rng(113)
    for _ in range(10):
        f = random_exact_normalized(rng, 5)
        ff = f.to_float()
        for op_exact, op_float in [
            (f * f, ff * ff),
            (revert(f), revert(ff)),
            (derivative(f), derivative(ff)),
        ]:
            for a, b in zip(floats(op_exact), floats(op_float)):
                assert abs(a - b) < 1e-12


def test_constructor_infers_mode():
    assert TruncatedSeries([1, 2]).mode == EXACT
    assert TruncatedSeries([1.0, 2.0]).mode == FLOAT
    assert TruncatedSeries([F(1, 2)]).mode == EXACT


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries([])


def test_truncate():
    # a sum or difference of two jets stops at the smaller order
    s = TruncatedSeries([1, 2, 3], EXACT)
    t = TruncatedSeries([F(1, 2), 1], EXACT)
    assert_series_exact(s + t, [F(3, 2), 3])
    assert_series_exact(t - s, [-F(1, 2), -1])


def test_normalized_series_validation():
    with pytest.raises(ValueError):
        require_normalized(TruncatedSeries([1, 1], EXACT))
    with pytest.raises(ValueError):
        require_normalized(TruncatedSeries([0, 2], EXACT))
    with pytest.raises(ValueError):  # float mode still needs exact 1
        require_normalized(TruncatedSeries([0.0, 1.0 + 1e-15], FLOAT))
    with pytest.raises(ValueError):
        require_normalized(TruncatedSeries([0], EXACT))


def test_json_roundtrip_exact():
    s = TruncatedSeries([q(1), q(F(-3, 2), F(1, 7))], EXACT)
    data = s.to_json()
    assert data == [[1, 1, 0, 1], [-3, 2, 1, 7]]
    assert TruncatedSeries.from_json(data) == s


def test_json_roundtrip_float():
    s = TruncatedSeries([0.5 + 0.25j, -1.0], FLOAT)
    data = s.to_json()
    assert data == [[0.5, 0.25], [-1.0, 0.0]]
    assert TruncatedSeries.from_json(data) == s


def test_json_malformed():
    for payload in ([], [[1, 2, 3]], [[1.0, 2.0], [1, 1, 0, 1]], {"a": 1}, [1, 2],
                    [["a", "b"]], [[1, 0, 0, 0]], [[0, 1, 0, 0]],
                    [[0, 1, 0, 1], [1, 1, 0, 1], [1.5, 1, 0, 1]], [[True, 1, 0, 1]],
                    [[0.0, 0.0], [1.0, 0.0], [float("nan"), 0.0]], [[float("inf"), 0.0]],
                    [[True, 0.0]], [[10 ** 400, 0]], [[]], "0"):
        with pytest.raises(ValueError):
            TruncatedSeries.from_json(payload)


def test_pretty():
    s = TruncatedSeries([0, 1, -2, 5, -14], EXACT)
    assert s.pretty() == "w - 2w^2 + 5w^3 - 14w^4"
    t = TruncatedSeries([0, 1, -F(3, 2)], EXACT)
    assert t.pretty() == "w - (3/2)w^2"


def test_pretty_prints_imaginary_and_complex_exact_parts_exactly():
    s = TruncatedSeries([0, 1, QComplex(0, F(-1, 2)), QComplex(F(-1, 2), 3), QComplex(0, 2),
                         QComplex(F(15, 2), F(-11, 8))], EXACT)
    assert s.pretty() == "w - (1/2)iw^2 + (-1/2+3i)w^3 + 2iw^4 + (15/2-(11/8)i)w^5"
