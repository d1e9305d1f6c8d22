"""The exact proofs, the h(t) majorant and the empirical bound search."""

import json
import os
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeffforge import (FUNCTIONALS, BoundReport, QComplex, SchwarzJet, SearchConfig, c2_disks,
                        c3_disk, corner_jet, exact_proofs, functional_bound,
                        inverse_coeffs, inverse_from_jet, inverse_weights, reports_to_csv,
                        reports_to_json, scan_lambda)
from coeffforge import ulambda, verifier
from coeffforge.schwarz import STRATEGIES, block_size, sample_block_arrays
from coeffforge.verifier import (_RANK_MIN_TASKS, CSV_HEADER, SOUNDNESS_TOL, _bernstein,
                                 _corner_identities, _fs_maxima, _functional_values,
                                 _nonnegative_on_box, _Poly, _proof_table, worker_count)
from helpers import (PAPER_MAJORANTS, functional_maxima_oracle, fs_value, h_function, h_poly,
                     patched_bound)

F = Fraction


def threshold(lam):
    """|c1| where the vertex t0 = 3L(1+L)|c1| of h reaches t = L."""
    return 1 / (3 * (1 + lam))


def at_corner(p, corner):
    """p at a corner of the unit box, summed term by term."""
    return sum(c * int(all(x or not e for x, e in zip(corner, J))) for J, c in p.terms.items())


# -- the exact proofs ----------------------------------------------------------------

def test_every_bound_is_proved():
    assert exact_proofs() == {"A2": True, "A3": True, "A4": True, "FS": True}
    assert all(_proof_table()[0].values())
    assert all(_corner_identities().values())


def test_the_derived_rows_are_the_papers():
    # bound - the paper's hand-written majorant, split by the power of nu
    L, x, u, nu = _Poly.variables(4)
    derived = _proof_table()[1]
    for name, f in FUNCTIONALS.items():
        gap = f.bound(L, nu) - PAPER_MAJORANTS[name](L, x, u, nu)
        assert derived[name] == [_Poly([(e[:3], c) for e, c in gap.terms.items() if e[3] == k], 3)
                                 for k in range(max(e[3] for e in gap.terms) + 1)], name


@pytest.mark.parametrize("value, bound, proved", [
    (lambda A2, A3, A4, mu: A2 * A3 - A4, lambda L, nu: 2 * L * (1 + L), True),
    (lambda A2, A3, A4, mu: A3 - A2 * A2 / 2, lambda L, nu: (1 + 4 * L + L * L) / 2, True),
    (lambda A2, A3, A4, mu: A4 - A2 * A3 + A2 * A2 * A2 / 3,
     lambda L, nu: (1 + L) * (1 + 8 * L + L * L) / 3, True),
    (lambda A2, A3, A4, mu: A2 * A4 - A3 * A3, lambda L, nu: L * (1 + L + L * L), False),
], ids=["Z", "2Gamma2", "2Gamma3", "H2"])
def test_an_entry_of_value_and_bound_alone_is_proved_or_refused(value, bound, proved):
    # Z = A2 A3 - A4 and the logarithmic inverse coefficients 2 Gamma_2, 2 Gamma_3
    # prove from the disk table; H2 = A2 A4 - A3^2 needs the Schur disk
    # |c2| <= 1 - |c1|^2, which the table leaves out, so its row fails
    with mock.patch.dict(FUNCTIONALS, {"new": ulambda.Functional("new", value, bound)}):
        identities, rows = _proof_table()
        assert identities["new"] and _corner_identities()["new"]
        assert all(map(_nonnegative_on_box, rows["new"])) is proved
        assert exact_proofs() == {"A2": True, "A3": True, "A4": True, "FS": True, "new": proved}


@pytest.mark.parametrize("name, bound", [
    ("A4", lambda L, nu: inverse_weights(L)[3] + F(1, 300)),
    ("FS", lambda L, nu: L + nu * (1 + L) ** 2 + F(1, 1000)),
    ("FS", lambda L, nu: L + nu * ((1 + L) ** 2 + F(1, 1000))),
], ids=["A4", "FS", "FS-nu"])
def test_a_bound_above_the_corner_is_refused_by_the_corner_identity(name, bound):
    # the raised bound still holds, so only the corner identity refuses it
    with patched_bound(name, bound):
        identities, rows = _proof_table()
        assert identities[name] and all(map(_nonnegative_on_box, rows[name]))
        assert _corner_identities() == {**dict.fromkeys(FUNCTIONALS, True), name: False}
        assert exact_proofs() == {**dict.fromkeys(FUNCTIONALS, True), name: False}


def test_every_box_row_is_sharp_at_the_corner_jet():
    # the corner jet (1, 0, 0) has x = |c1| = 1 and u = |s|/L = 1
    for name, rows in _proof_table()[1].items():
        for p in rows:
            corner = tuple(max(e[k] for e in p.terms) for k in range(3))
            assert _bernstein(p)[corner] == at_corner(p, (1, 1, 1)) == 0, name


def test_the_rows_read_the_disk_table():
    # t = (1+L)|c2 - m2| <= (1+L) R2 = L, and (1+L) R3 = L(1 - u^2)/2 at t = L u
    for lam in (F(1), F(1, 3), F(2, 7), F(1, 50)):
        for u in (F(0), F(1, 4), F(5, 7), F(1)):
            (_, _), (_, r2) = c2_disks(lam, F(1, 2), F(1, 4))
            _, r3 = c3_disk(lam, F(1, 2), F(1, 3), (lam * u) ** 2)
            assert (1 + lam) * r2 == lam
            assert (1 + lam) * r3 == lam * (1 - u * u) / 2


def test_a_bound_one_hundredth_too_small_is_refuted_at_a_corner():
    with patched_bound("A4", lambda L, nu: inverse_weights(L)[3] - F(1, 100)):
        (row,) = _proof_table()[1]["A4"]
        assert exact_proofs() == {"A2": True, "A3": True, "A4": False, "FS": True}
    assert not _nonnegative_on_box(row)
    # the row is (q4 - 1/100) - h/2, so it reads -1/100 at L = x = u = 1
    corner = tuple(max(e[k] for e in row.terms) for k in range(3))
    assert _bernstein(row)[corner] == at_corner(row, (1, 1, 1)) == -F(1, 100)
    assert functional_bound("A4", F(1)) - F(1, 100) - h_function(F(1), 1, 1) / 2 == -F(1, 100)


def test_an_fs_bound_one_hundredth_too_small_is_refuted_at_a_corner():
    # nu (1+L)^2 lowered to nu ((1+L)^2 - 1/100): the nu^1 row fails, the nu^0 row holds
    with patched_bound("FS", lambda L, nu: L + nu * ((1 + L) ** 2 - F(1, 100))):
        rows = _proof_table()[1]["FS"]
        assert exact_proofs() == {"A2": True, "A3": True, "A4": True, "FS": False}
    assert len(rows) == 2 and _nonnegative_on_box(rows[0]) and not _nonnegative_on_box(rows[1])
    corner = tuple(max(e[k] for e in rows[1].terms) for k in range(3))
    assert _bernstein(rows[1])[corner] == at_corner(rows[1], (1, 1, 1)) == -F(1, 100)


def test_a_wrong_weight_fails_the_identity():
    def weights(lam):
        q1, q2, q3, q4 = inverse_weights(lam)
        return q1, q2, q3 + lam, q4

    with mock.patch.object(ulambda, "inverse_weights", weights):
        assert exact_proofs() == {"A2": True, "A3": True, "A4": False, "FS": True}
        identities, rows = _proof_table()
        assert identities == {"A2": True, "A3": True, "A4": False, "FS": True}
        assert all(map(_nonnegative_on_box, rows["A4"]))


def test_bernstein_coefficients_bound_the_polynomial():
    L, x, u = _Poly.variables(3)
    p = 3 * L * x - 2 * u * u * x + L ** 2 - F(1, 5)
    b = _bernstein(p)
    assert set(b) == {(i, j, k) for i in range(3) for j in range(2) for k in range(3)}
    for corner in [(0, 0, 0), (1, 0, 1), (1, 1, 1), (0, 1, 0)]:
        index = tuple(c * d for c, d in zip(corner, (2, 1, 2)))
        assert b[index] == at_corner(p, corner)
    rng = np.random.default_rng(3)
    for _ in range(50):
        Lv, xv, uv = (F(int(k), 64) for k in rng.integers(0, 65, size=3))
        value = 3 * Lv * xv - 2 * uv * uv * xv + Lv ** 2 - F(1, 5)
        assert min(b.values()) <= value <= max(b.values())
    assert not _nonnegative_on_box(p) and _nonnegative_on_box(p + F(1, 5) + 2 * x)


def test_polynomial_arithmetic():
    a, b = _Poly.variables(2)
    assert (a + b) ** 2 == a * a + 2 * a * b + b * b
    assert a ** 0 == 1 and a ** 1 == a
    assert (1 - a) * (1 + a) == 1 - a ** 2
    assert 2 - (a - b) * F(1, 2) == (4 - a + b) * F(1, 2)
    assert a - a == 0 and (a - a).terms == {}
    assert not a == b


# -- h(t) ------------------------------------------------------------------------

def test_h_at_origin():
    for lam in (F(1, 4), F(1)):
        assert h_function(lam, 0, 0) == lam


def test_h_case_two_corner_value():
    for lam in (F(1, 4), F(1, 2), F(1)):
        assert h_function(lam, 1, lam) == 2 * (1 + lam) * (1 + 5 * lam + lam * lam)
    L, x, u = _Poly.variables(3)
    assert h_poly(L, 1, 1) == 2 * inverse_weights(L)[3]


def test_h_at_case_boundary():
    # parameter 1, |c1| = 1/6 sits exactly on the case threshold
    assert h_function(F(1), F(1, 6), F(1)) == 2 + F(2, 27)


def test_h_range_validation():
    with pytest.raises(ValueError):
        h_function(0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        h_function(0.5, 1.5, 0.1)
    with pytest.raises(ValueError):
        h_function(0.5, 0.5, 0.6)  # t beyond the parameter
    with pytest.raises(ValueError):
        h_function(0.5, 0.5, -0.1)


def test_case_bound_validation():
    with pytest.raises(ValueError, match=r"class parameter must lie in \(0, 1\]"):
        h_function(0, F(1, 2), 0)
    for bad in (F(3, 2), F(-1, 10)):
        with pytest.raises(ValueError, match=r"\|c1\| must lie in \[0, 1\]"):
            h_function(F(1, 2), bad, 0)


def test_vertex_formula():
    # h(t0) - h(t) = (t - t0)^2/L with t0 = 3L(1+L)|c1|; the threshold
    # 1/(3(1+L)) puts t0 at L
    assert threshold(F(1)) == F(1, 6)
    assert threshold(F(1, 2)) == F(2, 9)
    for lam in (F(1), F(1, 2), F(3, 10)):
        c = threshold(lam)
        assert 3 * lam * (1 + lam) * c == lam
        for t in (0, lam / 3, lam / 2, lam):
            assert h_function(lam, c, lam) - h_function(lam, c, t) == (t - lam) ** 2 / lam


def test_case_bound_c1_zero():
    # |c1| = 0: the vertex is t = 0, where h/2 is L/2
    lam = F(1, 2)
    assert h_function(lam, 0, 0) == F(1, 2)
    assert h_function(lam, 0, 0) / 2 == F(1, 4)
    for t in (lam / 4, lam / 2, lam):
        assert h_function(lam, 0, 0) - h_function(lam, 0, t) == t * t / lam


def test_case_bound_c1_one():
    # |c1| = 1: the vertex 3L(1+L) lies beyond L, so h peaks at t = L
    lam = F(1, 2)
    t0 = 3 * lam * (1 + lam)
    assert t0 > lam
    assert h_function(lam, 1, lam) / 2 == (1 + lam) * (1 + 5 * lam + lam * lam)
    for t in (0, lam / 4, lam / 2):
        gain = h_function(lam, 1, lam) - h_function(lam, 1, t)
        assert gain == ((t - t0) ** 2 - (lam - t0) ** 2) / lam > 0


def test_case_bound_continuous_at_threshold():
    lam = F(1)
    c = threshold(lam)  # 1/6
    # at the threshold the vertex sits exactly at t = lam, so both case
    # formulas give the same value
    assert 3 * lam * (1 + lam) * c == lam
    assert h_function(lam, c, lam) == lam + 9 * lam * (1 + lam) ** 2 * c * c \
        + 2 * (1 + lam) ** 3 * c ** 3


def test_vertex_is_argmax():
    # h(t0) - h(t) = (t - t0)^2/L, as a polynomial identity in u = t/L:
    # h(u0) - h(u) = L (u - u0)^2 with u0 = 3(1+L)|c1|
    L, x, u = _Poly.variables(3)
    u0 = 3 * (1 + L) * x
    assert h_poly(L, x, u0) - h_poly(L, x, u) == L * (u - u0) ** 2
    rng = np.random.default_rng(4)
    for _ in range(30):
        lam = F(int(rng.integers(1, 41)), 40)
        c = threshold(lam) * F(int(rng.integers(0, 33)), 32)
        t0 = 3 * lam * (1 + lam) * c
        for t in (F(int(k), 64) * lam for k in rng.integers(0, 65, size=5)):
            assert h_function(lam, c, t0) - h_function(lam, c, t) == (t - t0) ** 2 / lam


def test_exact_vertex_identity():
    # completed square: h(t0) = L + 9 L (1+L)^2 c^2 + 2 (1+L)^3 c^3
    rng = np.random.default_rng(6)
    for _ in range(25):
        lam = F(int(rng.integers(1, 40)), 40)
        c = threshold(lam) * F(int(rng.integers(0, 33)), 32)
        t0 = 3 * lam * (1 + lam) * c
        assert t0 <= lam  # case one
        expected = lam + 9 * lam * (1 + lam) ** 2 * c * c + 2 * (1 + lam) ** 3 * c ** 3
        assert h_function(lam, c, t0) == expected
        # the looser stated chain with coefficient 27 dominates it
        looser = lam + 27 * lam * (1 + lam) ** 2 * c * c + 2 * (1 + lam) ** 3 * c ** 3
        assert h_function(lam, c, t0) <= looser


def test_global_bound_koebe():
    assert h_function(F(1), 1, F(1)) / 2 == 14
    assert exact_proofs()["A4"]  # h/2 <= q4 on the whole box


def test_global_bound_half():
    assert h_function(F(1, 2), 1, F(1, 2)) / 2 == F(45, 8)


def test_global_bound_equals_b4_at_random_rationals():
    rng = np.random.default_rng(12)
    for _ in range(20):
        den = int(rng.integers(1, 1000))
        lam = F(int(rng.integers(1, den + 1)), den)
        assert h_function(lam, 1, lam) / 2 == functional_bound("A4", lam)


def test_global_bound_lambda_validation():
    for bad in (0, F(-1, 2), F(3, 2)):
        with pytest.raises(ValueError):
            h_function(bad, 1, 0)


def test_case_one_cap():
    # on case one, x = y/(3(1+L)) with y in [0, 1], h is at most 2L + 2/27:
    # (1+L) cancels, leaving L(1 - u^2) + 2L y u + 2y^3/27
    L, y, u = _Poly.variables(3)
    cap = 2 * L + F(2, 27) - (L * (1 - u * u) + 2 * L * y * u + y ** 3 * F(2, 27))
    assert _nonnegative_on_box(cap)
    rng = np.random.default_rng(13)
    for lam in [F(1), F(1, 2)] + [F(int(rng.integers(1, 101)), 100) for _ in range(18)]:
        assert h_function(lam, threshold(lam), lam) / 2 == lam + F(1, 27)
        yv, uv = F(int(rng.integers(0, 9)), 8), F(int(rng.integers(0, 9)), 8)
        assert h_poly(lam, yv * threshold(lam), uv) \
            == lam * (1 - uv * uv) + 2 * lam * yv * uv + 2 * yv ** 3 / 27


def test_gap_inequality():
    L, = _Poly.variables(1)
    gap = inverse_weights(L)[3] - 2 * L - F(1, 27)
    assert gap.terms == {(0,): F(26, 27), (1,): 4, (2,): 6, (3,): 1}
    assert _nonnegative_on_box(gap)


# -- search ---------------------------------------------------------------------

def test_verify_bound_a2_attains_corner():
    (report,) = scan_lambda(["A2"], [1.0], search=SearchConfig(samples=5000, seed=3))
    assert report.empirical_max == 2.0
    assert report.gap == 0.0
    assert report.argmax_jet == SchwarzJet(1.0 + 0.0j, 0.0j, 0.0j)
    assert report.argmax_index == 0
    assert report.sound()


def test_verify_bound_a4_half():
    (report,) = scan_lambda(["A4"], [0.5], search=SearchConfig(samples=20000, seed=5))
    assert report.empirical_max <= 45.0 / 8.0 + 1e-9
    assert report.gap <= 1e-9  # corner forces attainment
    assert report.sound()


def test_verify_bound_fs_outside_sharp_range():
    (report,) = scan_lambda(["FS"], [0.5], [2.0], SearchConfig(samples=20000, seed=5))
    assert report.theoretical == pytest.approx(0.5 + (1.5) ** 2, abs=1e-15)
    assert report.sound()
    assert not FUNCTIONALS["FS"].sharp_at(report.mu)
    # corner value |A3 - 2 A2^2| = |2.75 - 2*2.25| = 1.75 stays below the bound
    assert report.gap > 0.1


def test_argmax_index_selects_the_argmax_jet():
    # At L = 1, |A3 - 2 A2^2| = |3 c1^2 + 2 c2| <= 3|c1|^2 + 2(1 - |c1|^2) <= 3,
    # its value at the corner (index 0); |A3 - 1.25 A2^2| = 2|c2| is 0 there.
    search = SearchConfig(samples=2 * block_size() + 500, seed=8, strategy="boundary-biased")
    at_two, past_one = scan_lambda(["FS"], [1.0], [2.0, 1.25], search)
    assert at_two.argmax_index == 0 and at_two.argmax_jet == corner_jet(1.0)
    assert past_one.argmax_index > 0
    block, k = divmod(past_one.argmax_index - 1, block_size())  # the corner is index 0
    c1, c2, c3 = sample_block_arrays(1.0, search.seed, block, search.strategy)
    assert past_one.argmax_jet == SchwarzJet(complex(c1[k]), complex(c2[k]), complex(c3[k]))


@pytest.mark.parametrize("lam", [F(1), F(1, 3), F(2, 7)])
def test_fs_corner_attains_the_bound_for_every_real_mu_at_most_one(lam):
    for mu in (F(-3), F(-1), F(-1, 2), F(0), F(1, 2), F(1)):
        value = fs_value(lam, corner_jet(lam), mu)
        assert value == functional_bound("FS", lam, mu) == lam + (1 - mu) * (1 + lam) ** 2


def test_sharpness_claimed_for_real_mu_at_most_one():
    claimed = FUNCTIONALS["FS"].sharp_at
    assert all(map(claimed, (-1e3, -3.0, -0.5, 0.0, 1.0)))
    assert not any(map(claimed, (1.0 + 1e-12, 2.0, 0.5 + 0.5j)))


@pytest.mark.parametrize("lam", [F(1), F(1, 3), F(2, 7)])
def test_the_fs_corner_is_below_the_bound_where_sharpness_is_not_claimed(lam):
    # for mu > 1 the corner's A3 - mu A2^2 is L - (mu - 1)(1 + L)^2 against the
    # bound L + (mu - 1)(1 + L)^2; for complex mu, the triangle inequality
    # |L + (1 - mu)(1 + L)^2| <= L + |1 - mu|(1 + L)^2 is strict; |1 - mu| is 1
    # or 5 for the complex mu here, so the bound is rational
    for mu in (QComplex(F(1) + F(1, 10**9)), QComplex(F(2)), QComplex(F(7, 2)),
               QComplex(F(2, 5), F(-4, 5)), QComplex(F(8, 5), F(4, 5)), QComplex(F(-2), F(-4))):
        assert not FUNCTIONALS["FS"].sharp_at(mu.to_complex())
        value = FUNCTIONALS["FS"].value(*inverse_coeffs(lam, corner_jet(lam)), mu)
        bound = functional_bound("FS", lam, mu)
        assert isinstance(bound, F) and value.abs2() < bound ** 2
        if mu.im == 0:
            assert bound - abs(value.re) == 2 * min(lam, (mu.re - 1) * (1 + lam) ** 2)


def test_scan_lambda_a3_gaps():
    reports = scan_lambda(["A3"], [k / 10 for k in range(1, 11)],
                          search=SearchConfig(samples=4000, seed=11))
    assert len(reports) == 10
    for r in reports:
        assert 0.0 <= r.gap <= 1e-3


def test_scan_lambda_fs_mu_grid():
    reports = scan_lambda(["FS"], [1.0], mu_grid=[0.0, 0.5, 1.0],
                          search=SearchConfig(samples=3000, seed=2))
    assert [r.theoretical for r in reports] == [5.0, 3.0, 1.0]
    for r in reports:
        assert FUNCTIONALS["FS"].sharp_at(r.mu)
        assert abs(r.gap) <= 1e-9


def test_scan_lambda_validation():
    cfg = SearchConfig(samples=10, seed=0)
    with pytest.raises(ValueError, match="empty functional"):
        scan_lambda([], [0.5], search=cfg)
    with pytest.raises(ValueError, match="lambda grid"):
        scan_lambda(["A2"], [], search=cfg)
    with pytest.raises(ValueError, match="unknown functional"):
        scan_lambda(["A9"], [0.5], search=cfg)
    with pytest.raises(ValueError, match="needs mu"):
        scan_lambda(["FS"], [0.5], search=cfg)
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        scan_lambda(["A2"], [1.5], search=cfg)
    with pytest.raises(ValueError, match="overflows float arithmetic"):
        scan_lambda(["FS"], [1.0], [1e308], search=cfg)


def test_search_config_json_roundtrip():
    cfg = SearchConfig(samples=123, seed=9, strategy="uniform")
    assert SearchConfig(**cfg.to_json()) == cfg


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(samples=0)
    with pytest.raises(ValueError):
        SearchConfig(strategy="annealing")
    for bad in ({"samples": 1.5}, {"seed": 1.5}, {"samples": True}, {"seed": False}):
        with pytest.raises(ValueError):
            SearchConfig(**bad)


def test_report_serialization():
    reports = scan_lambda(["A2", "FS"], [0.5], mu_grid=[0.25],
                          search=SearchConfig(samples=100, seed=1))
    csv_text = reports_to_csv(reports)
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("A2,0.5,,")
    assert lines[2].startswith("FS,0.5,0.25,")
    payload = json.loads(reports_to_json(reports, extra={"passed": True}))
    assert payload["passed"] is True
    assert len(payload["reports"]) == 2
    assert payload["reports"][0]["argmax_jet"]["c1"] == [1.0, 0.0]


@pytest.mark.parametrize("functional, mu, mu_json", [("A4", None, None), ("FS", 0.5, [0.5, 0.0]),
                                                     ("FS", 2 - 1.5j, [2.0, -1.5])])
def test_report_json_shape_is_pinned(functional, mu, mu_json):
    jet = SchwarzJet(0.5 + 0.25j, -0.125, -0.75j)
    report = BoundReport(functional, 0.3, mu, 2.5, 2.25, jet, 8193, 0.25, 20000, 7)
    assert report.to_json() == {
        "functional": functional, "lambda": 0.3, "mu": mu_json, "theoretical": 2.5,
        "empirical_max": 2.25, "argmax_jet": {"c1": [0.5, 0.25], "c2": [-0.125, 0.0],
                                              "c3": [0.0, -0.75]},
        "argmax_index": 8193, "gap": 0.25, "samples": 20000, "seed": 7}


def test_search_config_json_shape_is_pinned():
    assert SearchConfig(samples=123, seed=9, strategy="uniform").to_json() == {
        "samples": 123, "seed": 9, "strategy": "uniform"}
    assert SearchConfig().to_json() == {"samples": 20000, "seed": 20250810,
                                        "strategy": "boundary-biased"}


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.0, 1.0, exclude_min=True),
       mu=st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))
def test_a_corner_only_search_is_ok_at_every_scale(lam, mu):
    # samples 1 is the corner alone, which attains every bound where sharp_at
    # claims it; only float rounding at the scale of the bound separates its
    # value from the bound there
    for report in scan_lambda(["A2", "A3", "A4", "FS"], [lam], [mu], SearchConfig(samples=1)):
        scale = SOUNDNESS_TOL * max(1.0, report.theoretical)
        assert report.gap >= -scale, report
        assert report.gap <= scale or not FUNCTIONALS[report.functional].sharp_at(mu), report


def test_gaps_are_read_in_units_of_a_bound_above_one():
    jet = SchwarzJet(1.0, 0.0, 0.0)

    def report(theoretical, gap):
        return BoundReport("A2", 0.5, None, theoretical, theoretical - gap, jet, 0, gap, 1, 0)

    assert not report(1.0, -2e-9).sound()
    assert not report(0.25, -2e-9).sound()
    assert report(1e6, -1e-4).sound() and not report(1e6, -2e-3).sound()


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("COEFFFORGE_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("COEFFFORGE_THREADS", "8")
    assert worker_count() == 8
    monkeypatch.setenv("COEFFFORGE_THREADS", "abc")
    with pytest.raises(ValueError):
        worker_count()


def test_workers_never_outnumber_the_usable_cpus(monkeypatch):
    # _forked is replaced by an in-process map, so the huge cap forks no process
    recorded = []
    monkeypatch.setattr(verifier, "_forked", lambda evaluate, blocks, workers:
                        recorded.append(workers) or map(evaluate, blocks))
    monkeypatch.setenv("COEFFFORGE_THREADS", str(10 ** 6))
    cfg = SearchConfig(samples=1 + 5 * block_size(), seed=3)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    scan_lambda(["A2"], [0.5], search=cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    scan_lambda(["A2"], [0.5], search=cfg)
    assert recorded == ([min(cpus, 5)] if cpus > 1 else []) + [3]


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child the parent forks."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:  # in the parent
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.mark.parametrize("workers, blocks", [(2, range(7)), (3, range(7)), (3, range(3))])
def test_each_worker_takes_one_task_and_blocks_come_back_in_order(forks, workers, blocks):
    assert list(verifier._forked(abs, blocks, workers)) == list(blocks)
    assert len(forks) == workers
    for pid in forks:  # each child is reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _slow_block_zero(b):
    if b == 0:
        time.sleep(0.2)
    return b, os.getpid()


def test_workers_claim_blocks_so_a_slow_block_holds_up_one_worker(forks):
    results = list(verifier._forked(_slow_block_zero, range(8), 2))
    assert [b for b, _ in results] == list(range(8))
    slow = results[0][1]
    assert slow in forks  # no block runs in the parent
    assert sum(pid == slow for _, pid in results) <= 2  # the other claims the rest meanwhile


def test_thousands_of_blocks_come_back_once_each_in_order(forks):
    # more blocks than PIPE_BUF holds 4-byte tokens for, so tokens name runs
    assert list(verifier._forked(abs, range(5000), 3)) == list(range(5000))
    assert len(forks) == 3


def test_a_search_on_three_workers_forks_three_children(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    cfg = SearchConfig(samples=1 + 7 * block_size() + 5, seed=11)
    args = (["A2", "A4", "FS"], [0.3, 1.0], [0.5, 1.5], cfg)
    monkeypatch.setenv("COEFFFORGE_THREADS", "1")
    sequential = reports_to_csv(scan_lambda(*args))
    assert forks == []
    monkeypatch.setenv("COEFFFORGE_THREADS", "3")
    assert reports_to_csv(scan_lambda(*args)) == sequential
    assert len(forks) == 3


def test_the_search_keeps_its_heap_on_glibc(monkeypatch):
    import ctypes
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1
    monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
    scan_lambda(["A2"], [0.5], search=SearchConfig(samples=10))
    assert calls == [(-2, 16 << 20)]  # M_TOP_PAD


@pytest.mark.parametrize("libc", ["unknown name", "rejected name", "no confstr"])
def test_off_glibc_the_heap_is_left_alone_and_the_scan_is_unchanged(monkeypatch, libc):
    import ctypes
    args = (["A4", "FS"], [0.3, 1.0], [0.5, 1.5], SearchConfig(samples=2 * block_size() + 3))
    expected = reports_to_csv(scan_lambda(*args))

    def confstr(name):
        if libc == "unknown name":  # a libc whose headers lack the name
            raise ValueError("unrecognized configuration name")
        raise OSError(22, "Invalid argument")  # a libc that rejects it, as musl does
    if libc == "no confstr":  # as on Windows
        monkeypatch.delattr(os, "confstr", raising=False)
    else:
        monkeypatch.setattr(os, "confstr", confstr, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", mock.Mock(side_effect=AssertionError("CDLL loaded")))
    assert reports_to_csv(scan_lambda(*args)) == expected


def test_results_independent_of_workers(monkeypatch):
    cfg = SearchConfig(samples=3 * 8192 + 5, seed=13)
    grid = [0.3, 0.9]
    monkeypatch.setenv("COEFFFORGE_THREADS", "1")
    sequential = reports_to_csv(scan_lambda(["A2", "A3", "A4"], grid, search=cfg))
    monkeypatch.setenv("COEFFFORGE_THREADS", "8")
    threaded = reports_to_csv(scan_lambda(["A2", "A3", "A4"], grid, search=cfg))
    assert sequential == threaded


def test_floors_leave_a_grid_scan_unchanged(monkeypatch):
    # ranked FS tasks on a two-L grid, skipped where the corner's value bounds
    # a block (an infinite margin skips nothing), with one and two workers
    search = SearchConfig(samples=2 * block_size() + 7, seed=17)
    args = (["A4", "FS"], [1.0, 0.3], [-1.0, 0.0, 0.5, 1.0, 1.2, 1.5, 3.0], search)
    for threads in ("1", "2"):
        monkeypatch.setenv("COEFFFORGE_THREADS", threads)
        skipped = reports_to_csv(scan_lambda(*args))
        with mock.patch.object(verifier, "_PRUNE_MARGIN", float("inf")):
            assert reports_to_csv(scan_lambda(*args)) == skipped


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), grid=st.lists(st.floats(0.01, 1.0), min_size=1,
                                                      max_size=3),
       blocks=st.integers(1, 3), offset=st.integers(-2, 1),
       strategy=st.sampled_from(STRATEGIES))
def test_csv_identical_for_every_block_partition(seed, grid, blocks, offset, strategy):
    # index 0 is the corner, so 1 + k*8192 samples fill exactly k blocks; for
    # mu > 1 the Fekete-Szego maxima come from the random blocks, not the corner
    search = SearchConfig(samples=1 + blocks * block_size() + offset, seed=seed,
                          strategy=strategy)
    functionals, mus = ["A2", "A3", "A4", "FS"], [1.5, 2.0, 3.0]
    csvs = set()
    for threads in ("1", "2", "3"):
        with mock.patch.dict(os.environ, {"COEFFFORGE_THREADS": threads}):
            csvs.add(reports_to_csv(scan_lambda(functionals, grid, mus, search)))
    # each L of the grid reports what a search at that L alone reports
    csvs.add(reports_to_csv([r for lam in grid
                             for r in scan_lambda(functionals, [lam], mus, search)]))
    assert len(csvs) == 1


def test_soundness_sweep_small():
    reports = scan_lambda(["A2", "A3", "A4"], [k / 10 for k in range(1, 11)],
                          search=SearchConfig(samples=20000, seed=20250810))
    for r in reports:
        assert r.sound(), f"{r.functional} at {r.lam}: gap {r.gap}"


# -- the block evaluator --------------------------------------------------------

def _hexed(found):
    return [(float(v).hex(), k) for v, k in found]


def _block(lam, seed, strategy, take=None):
    c1, c2, c3 = (c[:take] for c in sample_block_arrays(lam, seed, 0, strategy))
    return inverse_from_jet(lam, c1, c2, c3)


_MU = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e3, -1e3]),
                st.floats(-1e3, 1e3), st.integers(-5, 5))


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       strategy=st.sampled_from(STRATEGIES), take=st.integers(1, block_size()),
       mus=st.lists(_MU, min_size=1, max_size=40),
       extra=st.sets(st.sampled_from(["A2", "A3", "A4"])))
def test_block_evaluator_matches_the_per_task_loop(lam, seed, strategy, take, mus, extra):
    # unsorted and repeated mu, zeros of both signs, ints, with or without coefficients
    tasks = [(name, None) for name in sorted(extra)] + [("FS", mu) for mu in mus]
    coeffs = _block(lam, seed, strategy, take)
    assert _hexed(_functional_values(tasks, coeffs)) == \
        _hexed(functional_maxima_oracle(tasks, coeffs))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("lam", [1.0, 0.05, 1e-3])
def test_ranking_covers_every_mu_of_a_sampled_block(strategy, lam):
    # the ranked route, not the whole-block fallback, produces these maxima
    A2, A3, A4 = _block(lam, 3, strategy)
    mus = [float(m) for m in np.linspace(-1e3, 1e3, 41)] + [float(m) for m in
                                                            np.linspace(-1, 2, 201)]
    found = _fs_maxima(A3, A2 * A2, mus)
    assert None not in found
    tasks = [("FS", mu) for mu in mus]
    assert _hexed(found) == _hexed(functional_maxima_oracle(tasks, (A2, A3, A4)))


def _duplicated(coeffs, period):
    """Each of the first `period` jets repeated through the block: exact ties."""
    return tuple(np.resize(a[:period], block_size()) for a in coeffs)


def _near_ties(seed):
    """One jet's (A2, A3, A4), each part nudged by up to 8 units of 2^-53
    across the block: the maxima differ by rounding alone."""
    rng = np.random.default_rng(seed)

    def nudge(z):
        scale = 1 + rng.integers(-8, 9, (2, block_size())) * 2.0 ** -53
        return z.real * scale[0] + 1j * z.imag * scale[1]
    return tuple(nudge(a[7]) for a in _block(1.0, seed, "uniform"))


def _aligned(seed):
    """One jet repeated, with A3 = 1.5 P: then A3 - mu P = (1.5 - mu) P, and
    the block bound's triangle inequality is an equality for real mu < 1.5,
    so only its rounding margin keeps the bound above the computed values."""
    A2, _, A4 = (np.resize(a[7:8], block_size()) for a in _block(1.0, seed, "uniform"))
    return A2, 1.5 * (A2 * A2), A4


def _corner_floors(lam, tasks):
    """The floors a search at L gives every block: the corner's values."""
    corner = corner_jet(lam)
    return [v for v, _ in _functional_values(tasks, inverse_from_jet(
        lam, *(np.array([c]) for c in (corner.c1, corner.c2, corner.c3))))]


def _floored(tasks, coeffs, floors, expected):
    """The evaluator's results with floors: a task it drops has an oracle
    maximum at most its floor, and every other task the oracle's maximum."""
    found = _functional_values(tasks, coeffs, floors)
    for hit, want, floor in zip(found, expected, floors):
        if hit is None:
            assert want[0] <= floor
        else:
            assert _hexed([hit]) == _hexed([want])
    return found


def _floored_like_the_oracle(tasks, coeffs, lam):
    """Floors one ulp below the oracle's maxima drop no task; floors at the
    maxima and the corner's floors at L drop only tasks they bound."""
    expected = functional_maxima_oracle(tasks, coeffs)
    below = [float(np.nextafter(v, -np.inf)) for v, _ in expected]
    assert None not in _floored(tasks, coeffs, below, expected)
    _floored(tasks, coeffs, [v for v, _ in expected], expected)
    _floored(tasks, coeffs, _corner_floors(lam, tasks), expected)


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       strategy=st.sampled_from(STRATEGIES), take=st.integers(1, block_size()),
       mus=st.lists(_MU, min_size=1, max_size=40),
       extra=st.sets(st.sampled_from(["A2", "A3", "A4"])))
def test_floors_drop_only_tasks_the_block_cannot_lift(lam, seed, strategy, take, mus, extra):
    tasks = [(name, None) for name in sorted(extra)] + [("FS", mu) for mu in mus]
    _floored_like_the_oracle(tasks, _block(lam, seed, strategy, take), lam)


def test_corner_floors_skip_exactly_the_mu_at_most_one():
    # the scan-fs-mu grid at L = 1: the corner attains L + (1 - mu)(1 + L)^2
    # for mu <= 1, which no sampled block approaches, so only mu > 1 is ranked
    mus = [float(m) for m in np.linspace(-1, 2, 201)]
    tasks = [("FS", mu) for mu in mus]
    coeffs = _block(1.0, 3, "uniform")
    found = _floored(tasks, coeffs, _corner_floors(1.0, tasks),
                     functional_maxima_oracle(tasks, coeffs))
    skipped = [mu for mu, hit in zip(mus, found) if hit is None]
    assert skipped == [mu for mu in mus if mu <= 1] and len(skipped) == 134


_ADVERSARIAL_BLOCKS = pytest.mark.parametrize("coeffs", [
    _duplicated(_block(1.0, 5, "boundary-biased"), 1),
    _duplicated(_block(1.0, 5, "boundary-biased"), 7),
    _duplicated(_block(0.3, 6, "uniform"), 100),
    _near_ties(1),
    _near_ties(2),
    tuple(a * 2.0 ** -520 for a in _near_ties(3)),  # squares are subnormal
    tuple(a * 2.0 ** 252 for a in _near_ties(4)),  # mu^2 |P|^2 overflows
    tuple(np.zeros(block_size(), complex) for _ in range(3)),
    tuple(np.concatenate([np.zeros(50, complex), a[50:]]) for a in _block(0.5, 2, "uniform")),
    _aligned(5),
], ids=["one-jet", "period-7", "period-100", "near-ties-1", "near-ties-2", "near-ties-tiny",
        "near-ties-huge", "all-zero", "zero-prefix", "aligned"])
_ADVERSARIAL_MUS = [0.0, 1e3, -1e3, 2.0, 2.0, -0.5, 1.0, 0.999, 1e-300, 3, 0.5 + 0.5j, 1e250,
                    float("inf"), float("nan")] + [float(m) for m in np.linspace(-1, 2, 201)]


@_ADVERSARIAL_BLOCKS
def test_block_evaluator_on_adversarial_blocks(coeffs):
    mus = _ADVERSARIAL_MUS
    tasks = [("A3", None)] + [("FS", mu) for mu in mus]
    assert len(mus) >= _RANK_MIN_TASKS  # the ranked route for every real mu in range
    with np.errstate(over="ignore", invalid="ignore"):  # in the reference itself
        assert _hexed(_functional_values(tasks, coeffs)) == \
            _hexed(functional_maxima_oracle(tasks, coeffs))


@_ADVERSARIAL_BLOCKS
def test_floors_on_adversarial_blocks(coeffs):
    tasks = [("A3", None)] + [("FS", mu) for mu in _ADVERSARIAL_MUS]
    with np.errstate(over="ignore", invalid="ignore"):
        _floored_like_the_oracle(tasks, coeffs, 1.0)
