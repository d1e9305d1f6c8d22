"""Coefficient formulas, extremal series, functional bounds, membership."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeffforge import (EXACT, FLOAT, ClosedForm, NormalizedSeries, QComplex,
                        SchwarzJet, TruncatedSeries, ULambdaParams, corner_jet,
                        defect, direct_coeffs, extremal_function, extremal_inverse,
                        fekete_szego, fekete_szego_bound, fekete_szego_regrouped,
                        inverse_coeffs, inverse_coeffs_by_reversion,
                        inverse_coeffs_closed, inverse_from_jet, membership_scan,
                        omega_series, rationalize, revert, sample_jets,
                        series_from_schwarz, sigma, subordination_witness,
                        theoretical_bounds)
from helpers import assert_series_close, assert_series_exact, exact_jet, floats, q

F = Fraction


def params(lam, mode=EXACT):
    return ULambdaParams(lam, mode)


# -- parameters -----------------------------------------------------------------

def test_params_range():
    for bad in (0, -1, F(3, 2), 1.0001):
        with pytest.raises(ValueError):
            ULambdaParams(bad)
    assert ULambdaParams(1).lam == 1
    assert ULambdaParams(0.25, FLOAT).lam == 0.25


def test_params_mode_validation():
    with pytest.raises(ValueError):
        ULambdaParams(F(1, 2), "symbolic")


def test_sigma_values():
    p = params(F(1, 2))
    assert [sigma(p, n) for n in range(4)] == [1, F(3, 2), F(7, 4), F(15, 8)]
    koebe = params(1)
    assert [sigma(koebe, n) for n in range(4)] == [1, 2, 3, 4]


def test_sigma_continuity_near_one():
    # the generic formula converges coefficientwise to the limit branch
    eps = 1e-8
    near = params(1.0 - eps, FLOAT)
    limit = params(1.0, FLOAT)
    for n in range(8):
        assert abs(sigma(near, n) - sigma(limit, n)) < 1e-6


# -- direct and inverse coefficients ----------------------------------------------

def test_direct_coeffs_zero_jet():
    t = direct_coeffs(params(F(2, 3)), exact_jet(0, 0, 0))
    assert t.a2 == 0 and t.a3 == 0 and t.a4 == 0


def test_direct_coeffs_corner_half():
    t = direct_coeffs(params(F(1, 2)), exact_jet(1, 0, 0))
    assert (t.a2, t.a3, t.a4) == (F(3, 2), F(7, 4), F(15, 8))


def test_direct_coeffs_corner_koebe():
    t = direct_coeffs(params(1), exact_jet(1, 0, 0))
    assert (t.a2, t.a3, t.a4) == (2, 3, 4)


def test_inverse_coeffs_zero_jet():
    t = inverse_coeffs(params(F(1, 3)), exact_jet(0, 0, 0))
    assert t.A2 == 0 and t.A3 == 0 and t.A4 == 0
    assert t.source == "closed-form"


@pytest.mark.parametrize("lam", [F(1, 4), F(1, 2), F(3, 4), F(1)])
def test_inverse_coeffs_corner_general(lam):
    t = inverse_coeffs(params(lam), exact_jet(1, 0, 0))
    assert t.A2 == -(1 + lam)
    assert t.A3 == 1 + 3 * lam + lam * lam
    assert t.A4 == -(1 + lam) * (1 + 5 * lam + lam * lam)


def test_three_path_agreement_random_jets():
    lam = F(1, 3)
    p = params(lam)
    for i, jet in enumerate(sample_jets(float(lam), 40, seed=2024)):
        exact = rationalize(jet)
        via_formula = inverse_coeffs(p, exact)
        d = direct_coeffs(p, exact)
        via_closed = inverse_coeffs_closed(d.a2, d.a3, d.a4)
        via_revert = inverse_coeffs_by_reversion(p, exact)
        assert (via_formula.A2, via_formula.A3, via_formula.A4) == via_closed, i
        assert via_formula.A2 == via_revert.A2, i
        assert via_formula.A3 == via_revert.A3, i
        assert via_formula.A4 == via_revert.A4, i
        assert via_revert.source == "reversion"


_rationals = st.fractions(min_value=-1, max_value=1, max_denominator=60)
_exact_scalars = st.builds(QComplex, _rationals, _rationals)


@settings(max_examples=60, deadline=None)
@given(lam=st.fractions(min_value=0, max_value=1, max_denominator=60).filter(bool),
       jet=st.tuples(_exact_scalars, _exact_scalars, _exact_scalars))
def test_inverse_table_on_every_scalar_type(lam, jet):
    exact = inverse_from_jet(lam, *jet)
    reverted = inverse_coeffs_by_reversion(params(lam), SchwarzJet(*jet))
    assert exact == (reverted.A2, reverted.A3, reverted.A4)
    floats = inverse_from_jet(float(lam), *(c.to_complex() for c in jet))
    arrays = inverse_from_jet(float(lam), *(np.array([c.to_complex()]) for c in jet))
    for e, x, a in zip(exact, floats, arrays):
        assert abs(x - e.to_complex()) <= 1e-12
        assert abs(a[0] - e.to_complex()) <= 1e-12


# -- series from a Schwarz function -------------------------------------------------

def test_series_from_schwarz_omega_z_half():
    p = params(F(1, 2))
    omega = TruncatedSeries.identity(3, EXACT)
    f = series_from_schwarz(p, omega, 4)
    assert_series_exact(f, [0, 1, F(3, 2), F(7, 4), F(15, 8)])


def test_series_from_schwarz_omega_z_koebe():
    f = series_from_schwarz(params(1), TruncatedSeries.identity(3, EXACT), 4)
    assert_series_exact(f, [0, 1, 2, 3, 4])


def test_series_from_schwarz_omega_z_squared():
    omega = TruncatedSeries([0, 0, 1], EXACT)
    f = series_from_schwarz(params(F(1, 2)), omega, 3)
    assert_series_exact(f, [0, 1, 0, F(3, 2)])


def test_series_from_schwarz_matches_direct_coeffs():
    lam = F(2, 5)
    p = params(lam)
    for jet in [exact_jet(F(1, 2), F(1, 4), 0), exact_jet((F(1, 3), F(1, 5)), 0, F(1, 7))]:
        f = series_from_schwarz(p, omega_series(p, jet), 4)
        d = direct_coeffs(p, jet)
        assert f[2] == d.a2 and f[3] == d.a3 and f[4] == d.a4


def test_series_from_schwarz_rejects_nonzero_constant():
    with pytest.raises(ValueError, match="origin"):
        series_from_schwarz(params(F(1, 2)), TruncatedSeries([1, 1, 0, 0], EXACT), 4)


def test_series_from_schwarz_needs_enough_omega():
    with pytest.raises(ValueError, match="order"):
        series_from_schwarz(params(F(1, 2)), TruncatedSeries([0, 1], EXACT), 4)


# -- extremal function and inverse ---------------------------------------------------

def test_extremal_function_koebe():
    assert_series_exact(extremal_function(params(1), 4), [0, 1, 2, 3, 4])


def test_extremal_function_half():
    assert_series_exact(extremal_function(params(F(1, 2)), 4),
                        [0, 1, F(3, 2), F(7, 4), F(15, 8)])


def test_extremal_function_order_one():
    assert_series_exact(extremal_function(params(F(1, 3)), 1), [0, 1])


def test_extremal_inverse_koebe():
    assert_series_exact(extremal_inverse(params(1), 4), [0, 1, -2, 5, -14])


def test_extremal_inverse_half():
    assert_series_exact(extremal_inverse(params(F(1, 2)), 4),
                        [0, 1, -F(3, 2), F(11, 4), -F(45, 8)])


def test_extremal_inverse_order_one():
    assert_series_exact(extremal_inverse(params(F(2, 3)), 1), [0, 1])


def test_extremal_inverse_matches_full_reversion():
    p = params(F(1, 3))
    assert extremal_inverse(p, 7) == revert(extremal_function(p, 7))


def test_extremal_saturation():
    for lam in (F(1, 4), F(7, 10), F(1)):
        p = params(lam)
        t = inverse_coeffs(p, corner_jet())
        bounds = theoretical_bounds(p)
        from coeffforge.scalars import maybe_exact_abs
        assert maybe_exact_abs(t.A2) == bounds.b2
        assert maybe_exact_abs(t.A3) == bounds.b3
        assert maybe_exact_abs(t.A4) == bounds.b4


# -- functionals ------------------------------------------------------------------

def test_fekete_szego_mu_one_corner():
    for lam in (F(1, 4), F(1, 2), F(1)):
        assert fekete_szego(params(lam), exact_jet(1, 0, 0), 1) == lam


def test_fekete_szego_mu_zero_corner():
    lam = F(1, 2)
    assert fekete_szego(params(lam), exact_jet(1, 0, 0), 0) == 1 + 3 * lam + lam * lam


def test_fekete_szego_zero_jet():
    assert fekete_szego(params(F(1, 2)), exact_jet(0, 0, 0), 2 + 1j) == 0


def test_fekete_szego_regrouping_identity():
    rng = np.random.default_rng(8)
    p = params(0.6, FLOAT)
    for jet in sample_jets(0.6, 50, seed=14):
        mu = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        assert abs(fekete_szego(p, jet, mu) - fekete_szego_regrouped(p, jet, mu)) < 1e-12


def test_fekete_szego_regrouping_exact():
    p = params(F(2, 7))
    jet = exact_jet(F(1, 3), (F(1, 8), F(1, 9)), F(1, 11))
    mu = QComplex(F(1, 2), F(1, 5))
    a = fekete_szego(p, jet, mu)
    b = fekete_szego_regrouped(p, jet, mu)
    assert abs(a - b) < 1e-15  # moduli may fall back to float sqrt


def test_theoretical_bounds_koebe():
    assert theoretical_bounds(params(1)).as_tuple() == (2, 5, 14)


def test_theoretical_bounds_half():
    assert theoretical_bounds(params(F(1, 2))).as_tuple() == (F(3, 2), F(11, 4), F(45, 8))


def test_theoretical_bounds_small_lambda_limit():
    b = theoretical_bounds(params(1e-9, FLOAT))
    assert b.b2 == pytest.approx(1.0, abs=1e-8)
    assert b.b3 == pytest.approx(1.0, abs=1e-8)
    assert b.b4 == pytest.approx(1.0, abs=1e-8)


def test_fekete_szego_bound_values():
    p = params(F(1, 2))
    assert fekete_szego_bound(p, 1) == F(1, 2)
    assert fekete_szego_bound(p, 0) == 1 + 3 * F(1, 2) + F(1, 4)  # equals B3
    assert fekete_szego_bound(params(1), 2) == 5


def test_fekete_szego_bound_complex_mu():
    p = params(1.0, FLOAT)
    mu = 1 + 1j
    assert fekete_szego_bound(p, mu) == pytest.approx(1.0 + abs(1 - mu) * 4.0)


# -- defect and membership -----------------------------------------------------------

def test_defect_extremal_closed_form_exact():
    lam = F(1, 2)
    f = ClosedForm.extremal(lam, EXACT)
    for z in (F(1, 3), F(-2, 5), (F(1, 7), F(1, 4))):
        zq = q(*z) if isinstance(z, tuple) else q(z)
        assert defect(f, zq) + lam * zq * zq == 0


def test_defect_extremal_series_path_exact():
    lam = F(1, 2)
    f = extremal_function(params(lam), 8)
    z = q(F(3, 10), F(1, 10))
    assert defect(f, z) + lam * z * z == 0


def test_defect_identity():
    assert defect(ClosedForm.identity(EXACT), q(F(1, 2))) == 0


def test_defect_koebe_at_half():
    d = defect(ClosedForm.koebe(EXACT), q(F(1, 2)))
    assert d == -F(1, 4)


def test_membership_scan_extremal():
    verdict = membership_scan(ClosedForm.extremal(0.5), 0.5, 0.9, 64)
    assert verdict.max_defect == pytest.approx(0.405, abs=1e-12)
    assert verdict.member_at_radius
    assert not verdict.approximate


def test_membership_scan_identity():
    verdict = membership_scan(ClosedForm.identity(), 0.3, 0.9, 32)
    assert verdict.max_defect == 0.0
    assert verdict.member_at_radius


def test_membership_scan_koebe_fails_half():
    verdict = membership_scan(ClosedForm.koebe(), 0.5, 0.9, 64)
    assert verdict.max_defect == pytest.approx(0.81, abs=1e-12)
    assert not verdict.member_at_radius


def test_membership_scan_series_flagged_approximate():
    f = extremal_function(ULambdaParams(0.5, FLOAT), 8)
    verdict = membership_scan(f, 0.5, 0.9, 32)
    assert verdict.approximate
    assert verdict.member_at_radius


def test_membership_scan_matches_pointwise_defect_across_chunks():
    # the maximum lies in the third 8192-point chunk
    tail = [0.3, -0.2 + 0.1j, 0.15j, 0.05]
    f = NormalizedSeries([0j, 1 + 0j] + [c * cmath.exp(3j * (n + 1))
                                         for n, c in enumerate(tail)], FLOAT)
    samples = 3 * 8192 + 5
    verdict = membership_scan(f, 0.5, 0.9, samples)
    values = [abs(defect(f, 0.9 * cmath.exp(2j * math.pi * k / samples)))
              for k in range(samples)]
    k = max(range(samples), key=values.__getitem__)
    assert verdict.argmax_index == k > 2 * 8192
    assert verdict.max_defect == pytest.approx(values[k], rel=0, abs=1e-12)
    assert verdict.argmax_theta == 2.0 * math.pi * k / samples


def test_membership_scan_validation():
    f = ClosedForm.identity()
    with pytest.raises(ValueError):
        membership_scan(f, 0.5, 1.0, 32)
    with pytest.raises(ValueError):
        membership_scan(f, 0.5, 0.9, 4)
    with pytest.raises(ValueError):
        membership_scan(f, 1.5, 0.9, 32)


# -- subordination witness ------------------------------------------------------------

def test_witness_extremal_is_z():
    p = params(F(1, 2))
    omega = subordination_witness(p, extremal_function(p, 8))
    assert_series_exact(omega, [0, 1, 0, 0, 0, 0, 0, 0])


def test_witness_identity_function():
    p = params(F(1, 2))
    f = NormalizedSeries(TruncatedSeries.identity(6, EXACT).coeffs, EXACT)
    omega = subordination_witness(p, f)
    assert all(c == 0 for c in omega.coeffs)


def test_witness_recovers_jet():
    p = params(F(1, 2))
    jet = exact_jet(F(1, 2), F(1, 4), 0)
    f = series_from_schwarz(p, omega_series(p, jet, 5), 6)
    omega = subordination_witness(p, f)
    assert omega[1] == jet.c1 and omega[2] == jet.c2 and omega[3] == jet.c3


def test_witness_roundtrip_random():
    lam = F(2, 3)
    p = params(lam)
    for jet in sample_jets(float(lam), 15, seed=77):
        exact = rationalize(jet)
        f = series_from_schwarz(p, omega_series(p, exact, 5), 6)
        omega = subordination_witness(p, f)
        assert omega[1] == exact.c1
        assert omega[2] == exact.c2
        assert omega[3] == exact.c3


def test_witness_mode_mismatch():
    p = params(F(1, 2))
    with pytest.raises(ValueError, match="mode"):
        subordination_witness(p, extremal_function(ULambdaParams(0.5, FLOAT), 4))


def test_series_lambda_one_limit_coefficientwise():
    eps = 1e-8
    omega = TruncatedSeries.identity(5, FLOAT)
    near = series_from_schwarz(ULambdaParams(1.0 - eps, FLOAT), omega, 6)
    limit = series_from_schwarz(ULambdaParams(1.0, FLOAT), omega, 6)
    for a, b in zip(floats(near), floats(limit)):
        assert abs(a - b) < 1e-6
