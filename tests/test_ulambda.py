"""Coefficient formulas, extremal series, functional bounds, membership."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeffforge import (EXACT, FLOAT, FUNCTIONALS, MembershipVerdict, QComplex, SchwarzJet,
                        TruncatedSeries, class_parameter, corner_jet,
                        direct_coeffs, extremal_function, extremal_inverse,
                        functional_bound,
                        inverse_coeffs, inverse_coeffs_by_reversion,
                        inverse_from_jet, inverse_weights, membership_scan,
                        revert, zf_from_schwarz, zf_jet)
from coeffforge.scalars import maybe_exact_abs
from coeffforge.verifier import _Poly, _proof_table
from helpers import (assert_series_exact, block_jets, defect, exact_jet, floats, fs_value,
                     inverse_coeffs_closed, poly_add, poly_mul_full, q, random_exact_coeff,
                     subordination_witness, truncated)

F = Fraction


def zf_extremal(lam):
    """The terminating z/f jet (1-z)(1-Lz) of the extremal function."""
    return TruncatedSeries([1, -(1 + lam), lam])


def f_from_schwarz(lam, omega):
    """The jet of f = z / zf_from_schwarz(L, omega), one order above omega."""
    return TruncatedSeries([0, *zf_from_schwarz(lam, omega).reciprocal().coeffs])


# -- parameters -----------------------------------------------------------------

def test_params_range():
    for bad in (0, -1, F(3, 2), 1.0001, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"class parameter must lie in \(0, 1\]"):
            class_parameter(bad)
        with pytest.raises(ValueError, match="class parameter"):
            extremal_function(bad, 2)
    assert class_parameter(1) == (1, EXACT)
    assert class_parameter(0.25) == (0.25, FLOAT)


def test_params_mode_validation():
    # the type of L is the mode: int and Fraction are exact, float is float
    for lam, mode in ((1, EXACT), (F(1, 2), EXACT), (0.5, FLOAT), (np.float64(0.5), FLOAT)):
        value, got = class_parameter(lam)
        assert got == mode and value == lam
        assert type(value) is (Fraction if mode == EXACT else float)
    for bad in ("1/2", True, 0.5 + 0j, QComplex(F(1, 2))):
        with pytest.raises(TypeError):
            class_parameter(bad)


# -- direct and inverse coefficients ----------------------------------------------

def test_direct_coeffs_zero_jet():
    assert direct_coeffs(F(2, 3), exact_jet(0, 0, 0)) == (0, 0, 0)


def test_direct_coeffs_corner_half():
    assert direct_coeffs(F(1, 2), exact_jet(1, 0, 0)) == (F(3, 2), F(7, 4), F(15, 8))


def test_direct_coeffs_corner_koebe():
    assert direct_coeffs(1, exact_jet(1, 0, 0)) == (2, 3, 4)


def test_inverse_coeffs_zero_jet():
    assert inverse_coeffs(F(1, 3), exact_jet(0, 0, 0)) == (0, 0, 0)


@pytest.mark.parametrize("lam", [F(1, 4), F(1, 2), F(3, 4), F(1)])
def test_inverse_coeffs_corner_general(lam):
    A2, A3, A4 = inverse_coeffs(lam, exact_jet(1, 0, 0))
    assert A2 == -(1 + lam)
    assert A3 == 1 + 3 * lam + lam * lam
    assert A4 == -(1 + lam) * (1 + 5 * lam + lam * lam)


def test_three_path_agreement_random_jets():
    lam = F(1, 3)
    for i, jet in enumerate(block_jets(float(lam), 2024, 40)):
        exact = exact_jet(jet.c1, jet.c2, jet.c3)  # by binary value
        via_formula = inverse_coeffs(lam, exact)
        via_closed = inverse_coeffs_closed(*direct_coeffs(lam, exact))
        via_revert = inverse_coeffs_by_reversion(lam, exact)
        assert via_formula == via_closed, i
        assert via_formula == via_revert, i
        assert all(isinstance(c, QComplex) for c in via_formula + via_revert), i


def test_float_lambda_computes_in_floats():
    jet = exact_jet(F(1, 2), (F(1, 5), F(-1, 7)), F(1, 9))
    exact = inverse_coeffs(F(2, 5), jet)
    for values in (inverse_coeffs(0.4, jet), direct_coeffs(0.4, jet),
                   inverse_coeffs_by_reversion(0.4, jet)):
        assert all(type(c) is complex for c in values)
    for x, e in zip(inverse_coeffs(0.4, jet), exact):
        assert abs(x - e.to_complex()) <= 1e-15


_rationals = st.fractions(min_value=-1, max_value=1, max_denominator=60)
_exact_scalars = st.builds(QComplex, _rationals, _rationals)


@settings(max_examples=60, deadline=None)
@given(lam=st.fractions(min_value=0, max_value=1, max_denominator=60).filter(bool),
       jet=st.tuples(_exact_scalars, _exact_scalars, _exact_scalars))
def test_inverse_table_on_every_scalar_type(lam, jet):
    exact = inverse_from_jet(lam, *jet)
    assert exact == inverse_coeffs_by_reversion(lam, SchwarzJet(*jet))
    floats = inverse_from_jet(float(lam), *(c.to_complex() for c in jet))
    arrays = inverse_from_jet(float(lam), *(np.array([c.to_complex()]) for c in jet))
    for e, x, a in zip(exact, floats, arrays):
        assert abs(x - e.to_complex()) <= 1e-12
        assert abs(a[0] - e.to_complex()) <= 1e-12


# -- the z/f jet of a Schwarz function, and the series of f --------------------------

def test_series_from_schwarz_omega_z_half():
    omega = TruncatedSeries.identity(3, EXACT)
    assert_series_exact(zf_from_schwarz(F(1, 2), omega), [1, -F(3, 2), F(1, 2), 0])
    f = f_from_schwarz(F(1, 2), omega)
    assert_series_exact(f, [0, 1, F(3, 2), F(7, 4), F(15, 8)])


def test_series_from_schwarz_omega_z_koebe():
    f = f_from_schwarz(1, TruncatedSeries.identity(3, EXACT))
    assert_series_exact(f, [0, 1, 2, 3, 4])


def test_series_from_schwarz_omega_z_squared():
    omega = TruncatedSeries([0, 0, 1], EXACT)
    assert_series_exact(zf_from_schwarz(F(1, 2), omega), [1, 0, -F(3, 2)])
    assert_series_exact(f_from_schwarz(F(1, 2), omega), [0, 1, 0, F(3, 2)])


def test_series_from_schwarz_matches_direct_coeffs():
    # a2..a4 through the reciprocal of z/f, apart from the direct_coeffs table
    lam = F(2, 5)
    for jet in [exact_jet(F(1, 2), F(1, 4), 0), exact_jet((F(1, 3), F(1, 5)), 0, F(1, 7))]:
        f = f_from_schwarz(lam, TruncatedSeries([0, jet.c1, jet.c2, jet.c3]))
        assert (f[2], f[3], f[4]) == direct_coeffs(lam, jet)


def test_series_from_schwarz_order_one():
    omega = TruncatedSeries([0, F(1, 3)], EXACT)
    assert_series_exact(zf_from_schwarz(F(1, 2), omega), [1, -F(1, 2)])
    assert_series_exact(f_from_schwarz(F(1, 2), omega), [0, 1, F(1, 2)])


def test_series_from_schwarz_rejects_nonzero_constant():
    with pytest.raises(ValueError, match="origin"):
        zf_from_schwarz(F(1, 2), TruncatedSeries([1, 1, 0, 0], EXACT))


def test_zf_from_schwarz_random_exact_jets():
    # expanded: 1 - (1+L) w + L w^2, with w^2 a full product of coefficient lists
    rng = np.random.default_rng(29)
    for _ in range(20):
        lam = F(int(rng.integers(1, 10)), 10)
        omega = [q(0)] + [random_exact_coeff(rng) for _ in range(int(rng.integers(1, 9)))]
        want = poly_add([1, *(-(1 + lam) * c for c in omega[1:])],
                        [lam * c for c in poly_mul_full(omega, omega)])
        got = zf_from_schwarz(lam, TruncatedSeries(omega, EXACT))
        assert_series_exact(got, truncated(want, len(omega) - 1))


def test_zf_from_schwarz_mode_mismatch():
    with pytest.raises(ValueError, match="mode"):
        zf_from_schwarz(F(1, 2), TruncatedSeries.identity(3, FLOAT))


# -- extremal function and inverse ---------------------------------------------------

def test_extremal_function_koebe():
    assert_series_exact(extremal_function(1, 4), [0, 1, 2, 3, 4])


def test_extremal_function_half():
    assert_series_exact(extremal_function(F(1, 2), 4),
                        [0, 1, F(3, 2), F(7, 4), F(15, 8)])


def test_extremal_function_order_one():
    assert_series_exact(extremal_function(F(1, 3), 1), [0, 1])


def test_extremal_function_of_a_float_lambda_computes_in_floats():
    for lam, want in ((0.5, [0, 1, 1.5, 1.75, 1.875]), (1.0, [0, 1, 2, 3, 4])):
        f = extremal_function(lam, 4)
        assert f.mode == FLOAT and f.coeffs == tuple(complex(c) for c in want)


def test_extremal_inverse_koebe():
    assert_series_exact(extremal_inverse(1, 4), [0, 1, -2, 5, -14])


def test_extremal_inverse_half():
    assert_series_exact(extremal_inverse(F(1, 2), 4),
                        [0, 1, -F(3, 2), F(11, 4), -F(45, 8)])


def test_extremal_inverse_order_one():
    assert_series_exact(extremal_inverse(F(2, 3), 1), [0, 1])


def narayana(n, lam):
    """N_n(L) = sum over k = 1..n of C(n,k) C(n,k-1) L^(k-1) / n, from its
    definition, for L a Fraction or a polynomial."""
    return sum(F(math.comb(n, k) * math.comb(n, k - 1), n) * lam ** (k - 1)
               for k in range(1, n + 1))


def test_the_sharp_weights_are_narayana_polynomials():
    L, = _Poly.variables(1)
    q1, q2, _, q4 = inverse_weights(L)
    assert (q1, q2, q4) == (narayana(2, L), narayana(3, L), narayana(4, L))


@pytest.mark.parametrize("lam", [F(1, 3), F(2, 7), 1])
def test_extremal_inverse_is_the_signed_narayana_polynomials(lam):
    inverse = extremal_inverse(lam, 10)
    for n in range(1, 11):
        assert inverse[n] == (-1) ** (n - 1) * narayana(n, F(lam))


@pytest.mark.parametrize("lam", [F(1, 3), F(2, 7), F(7, 8), F(1), F(1, 10 ** 300),
                                 F("0.123456789")])
def test_extremal_inverse_closed_form_equals_reversion(lam):
    # at order 48 the jet of f_1e-300 has common denominator 10^(300*47); the
    # exact reciprocal reduces each coefficient, so that power never builds up
    for N in (2, 3, 4, 5, 13, 48):
        assert extremal_inverse(lam, N) == revert(extremal_function(lam, N))


@pytest.mark.parametrize("lam", [F(1), F(1, 3), F(2, 7), F(1, 10 ** 300), F(7, 10 ** 6),
                                 F(2 ** -1074), F(10 ** 40 - 1, 10 ** 40),
                                 1e-5, 0.1, 0.3, 0.999])  # a float L at its binary value
def test_float_extremal_inverse_of_an_exact_lambda_is_the_nearest_doubles(lam):
    exact = extremal_inverse(F(lam), 90)
    rounded = extremal_inverse(lam, 90, FLOAT)
    assert rounded.mode == FLOAT
    # the nearest double of each exact coefficient, bit for bit
    assert [(c.real.hex(), c.imag.hex()) for c in rounded.coeffs] == \
        [(float(c.re).hex(), float(c.im).hex()) for c in exact.coeffs]


@pytest.mark.parametrize("lam", [1e-5, 0.3, 0.999])
def test_extremal_inverse_of_a_float_lambda_computes_in_floats(lam):
    exact = extremal_inverse(F(lam), 60)  # at the binary value of L
    approx = extremal_inverse(lam, 60)
    assert approx.mode == FLOAT
    for a, e in zip(approx.coeffs[1:], exact.coeffs[1:]):
        assert abs(a - e.to_complex()) <= 1e-13 * abs(e.to_complex())


def test_modulus_whose_square_is_beyond_the_float_range():
    # |z|^2 = 3.2e615 is no double, |z| = 5.66e307 is
    z = QComplex(1 - F("4e307"), F("4e307"))
    assert maybe_exact_abs(z) == math.sqrt(float(z.abs2() / 2 ** 1024)) * 2.0 ** 512
    assert maybe_exact_abs(z) == pytest.approx(4e307 * math.sqrt(2), rel=1e-15)
    with pytest.raises(OverflowError):  # |z| = 1.4e308 * 1e10 is no double either
        maybe_exact_abs(QComplex(F("1e318"), F("1e318")))


# the paper's sharp bounds (for FS at real mu <= 1), written apart from the table
PAPER_BOUNDS = {"A2": lambda L, mu: 1 + L,
                "A3": lambda L, mu: 1 + 3 * L + L * L,
                "A4": lambda L, mu: (1 + L) * (1 + 5 * L + L * L),
                "FS": lambda L, mu: L + (1 - mu) * (1 + L) ** 2}


@pytest.mark.parametrize("name", list(FUNCTIONALS))
def test_extremal_saturation(name):
    # the corner jet attains each bound where the table claims sharpness
    f = FUNCTIONALS[name]
    mus = [F(-3), F(-1), F(-1, 2), F(0), F(1, 2), F(1)] if f.takes_mu else [None]
    for lam in (F(1, 4), F(7, 10), F(1), F(1, 3), F(2, 7)):
        for mu in mus:
            assert f.sharp_at(mu)
            value = maybe_exact_abs(f.value(*inverse_coeffs(lam, corner_jet(lam)), mu))
            assert value == functional_bound(name, lam, mu) == PAPER_BOUNDS[name](lam, mu)


def test_corner_jet_mode():
    assert corner_jet(F(1, 3)) == SchwarzJet(QComplex(1), QComplex(0), QComplex(0))
    corner = corner_jet(0.5)
    assert corner == SchwarzJet(1 + 0j, 0j, 0j)
    assert all(type(c) is complex for c in (corner.c1, corner.c2, corner.c3))


# -- functionals ------------------------------------------------------------------

def test_fekete_szego_mu_one_corner():
    for lam in (F(1, 4), F(1, 2), F(1)):
        assert fs_value(lam, exact_jet(1, 0, 0), 1) == lam


def test_fekete_szego_mu_zero_corner():
    lam = F(1, 2)
    assert fs_value(lam, exact_jet(1, 0, 0), 0) == 1 + 3 * lam + lam * lam


def test_fekete_szego_zero_jet():
    assert fs_value(F(1, 2), exact_jet(0, 0, 0), 2 + 1j) == 0


def test_fekete_szego_regrouping_identity():
    # A3 - mu A2^2 = -s + (1-mu)(1+L)^2 c1^2 with s = (1+L)c2 - L c1^2, as
    # polynomials in (L, c1, c2, c3, mu)
    L, c1, c2, c3, mu = _Poly.variables(5)
    A2, A3, _ = inverse_from_jet(L, c1, c2, c3)
    s = (1 + L) * c2 - L * c1 * c1
    assert A3 - mu * A2 * A2 == -s + (1 - mu) * (1 + L) ** 2 * c1 * c1
    assert _proof_table()[0]["FS"]


def test_fekete_szego_regrouping_exact():
    lam = F(2, 7)
    jet = exact_jet(F(1, 3), (F(1, 8), F(1, 9)), F(1, 11))
    mu = QComplex(F(1, 2), F(1, 5))
    A2, A3, _ = inverse_coeffs(lam, jet)
    s = (1 + lam) * jet.c2 - lam * jet.c1 * jet.c1
    regrouped = -s + (1 - mu) * ((1 + lam) * (1 + lam)) * jet.c1 * jet.c1
    assert A3 - mu * A2 * A2 == regrouped
    assert fs_value(lam, jet, mu) == maybe_exact_abs(regrouped)


def test_theoretical_bounds_koebe():
    assert [functional_bound(name, 1) for name in ("A2", "A3", "A4")] == [2, 5, 14]


def test_theoretical_bounds_half():
    assert [functional_bound(name, F(1, 2)) for name in ("A2", "A3", "A4")] \
        == [F(3, 2), F(11, 4), F(45, 8)]


def test_theoretical_bounds_small_lambda_limit():
    assert [functional_bound(name, 1e-9) for name in ("A2", "A3", "A4")] \
        == pytest.approx([1.0, 1.0, 1.0], abs=1e-8)


def test_fekete_szego_bound_values():
    assert functional_bound("FS", F(1, 2), 1) == F(1, 2)
    assert functional_bound("FS", F(1, 2), 0) == 1 + 3 * F(1, 2) + F(1, 4)  # equals B3
    assert functional_bound("FS", 1, 2) == 5


def test_fekete_szego_bound_complex_mu():
    mu = 1 + 1j
    assert functional_bound("FS", 1.0, mu) == pytest.approx(1.0 + abs(1 - mu) * 4.0)


# -- defect and membership -----------------------------------------------------------

def test_defect_extremal_closed_form_exact():
    lam = F(1, 2)
    for z in (F(1, 3), F(-2, 5), (F(1, 7), F(1, 4))):
        zq = q(*z) if isinstance(z, tuple) else q(z)
        assert defect(zf_extremal(lam), zq) + lam * zq * zq == 0


def test_defect_extremal_series_path_exact():
    lam = F(1, 2)
    g = zf_jet(extremal_function(lam, 8))
    z = q(F(3, 10), F(1, 10))
    assert defect(g, z) + lam * z * z == 0


def test_defect_identity():
    assert defect(TruncatedSeries([1]), q(F(1, 2))) == 0


def test_defect_koebe_at_half():
    d = defect(zf_extremal(1), q(F(1, 2)))
    assert d == -F(1, 4)


def test_membership_scan_extremal():
    verdict = membership_scan(zf_extremal(0.5), 0.5, 0.9, 64, "extremal(0.5)",
                              approximate=False)
    assert verdict.max_defect == pytest.approx(0.405, abs=1e-12)
    assert verdict.member_at_radius
    assert not verdict.approximate
    assert verdict.label == "extremal(0.5)"


def test_membership_scan_identity():
    verdict = membership_scan(TruncatedSeries([1.0]), 0.3, 0.9, 32)
    assert verdict.max_defect == 0.0
    assert verdict.member_at_radius


def test_membership_scan_koebe_fails_half():
    verdict = membership_scan(zf_extremal(1), 0.5, 0.9, 64)
    assert verdict.max_defect == pytest.approx(0.81, abs=1e-12)
    assert not verdict.member_at_radius


def test_membership_scan_series_flagged_approximate():
    g = zf_jet(extremal_function(0.5, 8))
    verdict = membership_scan(g, 0.5, 0.9, 32)
    assert verdict.approximate
    assert verdict.label == "series"
    assert verdict.member_at_radius


def test_membership_scan_matches_pointwise_defect_across_chunks():
    # the maximum lies in the third 8192-point chunk
    tail = [0.3, -0.2 + 0.1j, 0.15j, 0.05]
    f = TruncatedSeries([0j, 1 + 0j] + [c * cmath.exp(3j * (n + 1))
                                         for n, c in enumerate(tail)], FLOAT)
    samples = 3 * 8192 + 5
    verdict = membership_scan(zf_jet(f), 0.5, 0.9, samples)
    values = [abs(defect(zf_jet(f), 0.9 * cmath.exp(2j * math.pi * k / samples)))
              for k in range(samples)]
    k = max(range(samples), key=values.__getitem__)
    assert verdict.argmax_index == k > 2 * 8192
    assert verdict.max_defect == pytest.approx(values[k], rel=0, abs=1e-12)
    assert verdict.argmax_theta == 2.0 * math.pi * k / samples


def test_membership_scan_validation():
    g = TruncatedSeries([1.0])
    with pytest.raises(ValueError):
        membership_scan(g, 0.5, 1.0, 32)
    with pytest.raises(ValueError):
        membership_scan(g, 0.5, 0.9, 4)
    with pytest.raises(ValueError):
        membership_scan(g, 1.5, 0.9, 32)


def test_verdict_json_shape_is_pinned():
    verdict = MembershipVerdict("extremal(0.7)", 0.7, 0.9, 360, 0.63, 3.141592653589793, 180,
                                True, False)
    assert verdict.to_json() == {
        "function": "extremal(0.7)", "lambda": 0.7, "radius": 0.9, "samples": 360,
        "max_defect": 0.63, "argmax_theta": 3.141592653589793, "argmax_index": 180,
        "member_at_radius": True, "approximate": False}


# -- subordination witness ------------------------------------------------------------

def test_witness_extremal_is_z():
    omega = subordination_witness(F(1, 2), extremal_function(F(1, 2), 8))
    assert_series_exact(omega, [0, 1, 0, 0, 0, 0, 0, 0])


def test_witness_low_orders():
    lam = F(1, 2)
    assert_series_exact(subordination_witness(lam, extremal_function(lam, 1)), [0])
    assert_series_exact(subordination_witness(lam, extremal_function(lam, 2)), [0, 1])


def test_witness_identity_function():
    f = TruncatedSeries.identity(6, EXACT)
    omega = subordination_witness(F(1, 2), f)
    assert all(c == 0 for c in omega.coeffs)


def test_witness_recovers_jet():
    lam = F(1, 2)
    jet = exact_jet(F(1, 2), F(1, 4), 0)
    f = f_from_schwarz(lam, TruncatedSeries([0, jet.c1, jet.c2, jet.c3, 0, 0]))
    omega = subordination_witness(lam, f)
    assert omega[1] == jet.c1 and omega[2] == jet.c2 and omega[3] == jet.c3


def test_witness_roundtrip_random():
    lam = F(2, 3)
    for jet in block_jets(float(lam), 77, 15):
        exact = exact_jet(jet.c1, jet.c2, jet.c3)  # by binary value
        f = f_from_schwarz(lam, TruncatedSeries([0, exact.c1, exact.c2, exact.c3, 0, 0]))
        omega = subordination_witness(lam, f)
        assert omega[1] == exact.c1
        assert omega[2] == exact.c2
        assert omega[3] == exact.c3


@pytest.mark.parametrize("lam", [F(1, 3), F(1)])
def test_witness_roundtrip_at_order_nine(lam):
    # every coefficient of an order-9 Schwarz jet comes back, not only c1..c3
    rng = np.random.default_rng(41)
    omega = TruncatedSeries([q(0)] + [random_exact_coeff(rng) for _ in range(9)], EXACT)
    assert subordination_witness(lam, f_from_schwarz(lam, omega)) == omega


@pytest.mark.parametrize("coeffs", [[1, 1, 0], [0, 2, 0], [0, q(1, 1), 0],
                                    [0.0, 1.0 + 1e-15j, 0.0]])
@pytest.mark.parametrize("reader", ["revert", "subordination_witness"])
def test_readers_of_f_reject_an_unnormalized_series(reader, coeffs):
    f = TruncatedSeries(coeffs)
    lam = F(1, 2) if f.mode == EXACT else 0.5
    read = {"revert": lambda: revert(f),
            "subordination_witness": lambda: subordination_witness(lam, f)}[reader]
    with pytest.raises(ValueError) as raised:
        read()
    assert str(raised.value) == "series is not normalized (needs c0 = 0, c1 = 1)"


def test_witness_mode_mismatch():
    with pytest.raises(ValueError, match="mode"):
        subordination_witness(F(1, 2), extremal_function(0.5, 4))


def test_series_lambda_one_limit_coefficientwise():
    # the coefficients 1 + L + ... + L^(n-1) are continuous at L = 1
    eps = 1e-8
    near = extremal_function(1.0 - eps, 8)
    limit = extremal_function(1.0, 8)
    assert floats(limit) == list(range(9))
    for a, b in zip(floats(near), floats(limit)):
        assert abs(a - b) < 1e-6
