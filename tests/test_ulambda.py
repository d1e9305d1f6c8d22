"""Coefficient formulas, extremal series, functional bounds, membership."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeffforge import (EXACT, FLOAT, QComplex, SchwarzJet,
                        TruncatedSeries, class_parameter, corner_jet, defect,
                        direct_coeffs, extremal_function, extremal_inverse,
                        fekete_szego, fekete_szego_bound, fekete_szego_regrouped,
                        inverse_coeffs, inverse_coeffs_by_reversion,
                        inverse_coeffs_closed, inverse_from_jet, membership_scan,
                        omega_series, revert, sample_jets, series_from_schwarz, sigma,
                        subordination_witness, theoretical_bounds, zf_jet)
from coeffforge.scalars import maybe_exact_abs
from helpers import assert_series_exact, exact_jet, floats, q

F = Fraction


def zf_extremal(lam):
    """The terminating z/f jet (1-z)(1-Lz) of the extremal function."""
    return TruncatedSeries([1, -(1 + lam), lam])


# -- parameters -----------------------------------------------------------------

def test_params_range():
    for bad in (0, -1, F(3, 2), 1.0001, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"class parameter must lie in \(0, 1\]"):
            class_parameter(bad)
        with pytest.raises(ValueError, match="class parameter"):
            sigma(bad, 2)
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


def test_sigma_values():
    assert [sigma(F(1, 2), n) for n in range(4)] == [1, F(3, 2), F(7, 4), F(15, 8)]
    assert [sigma(1, n) for n in range(4)] == [1, 2, 3, 4]
    assert all(type(sigma(lam, 3)) is Fraction for lam in (1, F(1, 2)))
    assert all(type(sigma(lam, 3)) is float for lam in (1.0, 0.5))


def test_sigma_continuity_near_one():
    # the generic formula converges coefficientwise to the limit branch
    eps = 1e-8
    for n in range(8):
        assert abs(sigma(1.0 - eps, n) - sigma(1.0, n)) < 1e-6


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
    for i, jet in enumerate(sample_jets(float(lam), 40, seed=2024)):
        exact = jet.as_exact()
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


# -- series from a Schwarz function -------------------------------------------------

def test_series_from_schwarz_omega_z_half():
    omega = TruncatedSeries.identity(3, EXACT)
    f = series_from_schwarz(F(1, 2), omega, 4)
    assert_series_exact(f, [0, 1, F(3, 2), F(7, 4), F(15, 8)])


def test_series_from_schwarz_omega_z_koebe():
    f = series_from_schwarz(1, TruncatedSeries.identity(3, EXACT), 4)
    assert_series_exact(f, [0, 1, 2, 3, 4])


def test_series_from_schwarz_omega_z_squared():
    omega = TruncatedSeries([0, 0, 1], EXACT)
    f = series_from_schwarz(F(1, 2), omega, 3)
    assert_series_exact(f, [0, 1, 0, F(3, 2)])


def test_series_from_schwarz_matches_direct_coeffs():
    lam = F(2, 5)
    for jet in [exact_jet(F(1, 2), F(1, 4), 0), exact_jet((F(1, 3), F(1, 5)), 0, F(1, 7))]:
        f = series_from_schwarz(lam, omega_series(lam, jet), 4)
        assert (f[2], f[3], f[4]) == direct_coeffs(lam, jet)


def test_series_from_schwarz_order_one():
    f = series_from_schwarz(F(1, 2), TruncatedSeries([0, F(1, 3)], EXACT), 1)
    assert_series_exact(f, [0, 1])


def test_series_from_schwarz_rejects_nonzero_constant():
    with pytest.raises(ValueError, match="origin"):
        series_from_schwarz(F(1, 2), TruncatedSeries([1, 1, 0, 0], EXACT), 4)


def test_series_from_schwarz_needs_enough_omega():
    with pytest.raises(ValueError, match="order"):
        series_from_schwarz(F(1, 2), TruncatedSeries([0, 1], EXACT), 4)


# -- extremal function and inverse ---------------------------------------------------

def test_extremal_function_koebe():
    assert_series_exact(extremal_function(1, 4), [0, 1, 2, 3, 4])


def test_extremal_function_half():
    assert_series_exact(extremal_function(F(1, 2), 4),
                        [0, 1, F(3, 2), F(7, 4), F(15, 8)])


def test_extremal_function_order_one():
    assert_series_exact(extremal_function(F(1, 3), 1), [0, 1])


def test_extremal_inverse_koebe():
    assert_series_exact(extremal_inverse(1, 4), [0, 1, -2, 5, -14])


def test_extremal_inverse_half():
    assert_series_exact(extremal_inverse(F(1, 2), 4),
                        [0, 1, -F(3, 2), F(11, 4), -F(45, 8)])


def test_extremal_inverse_order_one():
    assert_series_exact(extremal_inverse(F(2, 3), 1), [0, 1])


def test_extremal_saturation():
    for lam in (F(1, 4), F(7, 10), F(1)):
        moduli = tuple(map(maybe_exact_abs, inverse_coeffs(lam, corner_jet(lam))))
        assert moduli == theoretical_bounds(lam)


def test_corner_jet_mode():
    assert corner_jet(F(1, 3)) == SchwarzJet(QComplex(1), QComplex(0), QComplex(0))
    corner = corner_jet(0.5)
    assert corner == SchwarzJet(1 + 0j, 0j, 0j)
    assert all(type(c) is complex for c in (corner.c1, corner.c2, corner.c3))


# -- functionals ------------------------------------------------------------------

def test_fekete_szego_mu_one_corner():
    for lam in (F(1, 4), F(1, 2), F(1)):
        assert fekete_szego(lam, exact_jet(1, 0, 0), 1) == lam


def test_fekete_szego_mu_zero_corner():
    lam = F(1, 2)
    assert fekete_szego(lam, exact_jet(1, 0, 0), 0) == 1 + 3 * lam + lam * lam


def test_fekete_szego_zero_jet():
    assert fekete_szego(F(1, 2), exact_jet(0, 0, 0), 2 + 1j) == 0


def test_fekete_szego_regrouping_identity():
    rng = np.random.default_rng(8)
    for jet in sample_jets(0.6, 50, seed=14):
        mu = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        assert abs(fekete_szego(0.6, jet, mu) - fekete_szego_regrouped(0.6, jet, mu)) < 1e-12


def test_fekete_szego_regrouping_exact():
    jet = exact_jet(F(1, 3), (F(1, 8), F(1, 9)), F(1, 11))
    mu = QComplex(F(1, 2), F(1, 5))
    a = fekete_szego(F(2, 7), jet, mu)
    b = fekete_szego_regrouped(F(2, 7), jet, mu)
    assert abs(a - b) < 1e-15  # moduli may fall back to float sqrt


def test_theoretical_bounds_koebe():
    assert theoretical_bounds(1) == (2, 5, 14)


def test_theoretical_bounds_half():
    assert theoretical_bounds(F(1, 2)) == (F(3, 2), F(11, 4), F(45, 8))


def test_theoretical_bounds_small_lambda_limit():
    assert theoretical_bounds(1e-9) == pytest.approx((1.0, 1.0, 1.0), abs=1e-8)


def test_fekete_szego_bound_values():
    assert fekete_szego_bound(F(1, 2), 1) == F(1, 2)
    assert fekete_szego_bound(F(1, 2), 0) == 1 + 3 * F(1, 2) + F(1, 4)  # equals B3
    assert fekete_szego_bound(1, 2) == 5


def test_fekete_szego_bound_complex_mu():
    mu = 1 + 1j
    assert fekete_szego_bound(1.0, mu) == pytest.approx(1.0 + abs(1 - mu) * 4.0)


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
    f = series_from_schwarz(lam, omega_series(lam, jet, 5), 6)
    omega = subordination_witness(lam, f)
    assert omega[1] == jet.c1 and omega[2] == jet.c2 and omega[3] == jet.c3


def test_witness_roundtrip_random():
    lam = F(2, 3)
    for jet in sample_jets(float(lam), 15, seed=77):
        exact = jet.as_exact()
        f = series_from_schwarz(lam, omega_series(lam, exact, 5), 6)
        omega = subordination_witness(lam, f)
        assert omega[1] == exact.c1
        assert omega[2] == exact.c2
        assert omega[3] == exact.c3


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
    eps = 1e-8
    omega = TruncatedSeries.identity(5, FLOAT)
    near = series_from_schwarz(1.0 - eps, omega, 6)
    limit = series_from_schwarz(1.0, omega, 6)
    for a, b in zip(floats(near), floats(limit)):
        assert abs(a - b) < 1e-6
