"""The h(t) case analysis and the empirical bound search."""

import json
from fractions import Fraction

import numpy as np
import pytest

from coeffforge import (BoundReport, SchwarzJet, SearchConfig, ULambdaParams,
                        a4_case_bound, a4_global_bound, case_one_cap,
                        case_threshold, gap_certificate, h_function, h_vertex,
                        reports_to_csv, reports_to_json, scan_lambda,
                        sharpness_claimed, theoretical_bounds, verify_bound,
                        verify_gap_inequality)
from coeffforge.verifier import CSV_HEADER, worker_count

F = Fraction


# -- h(t) --------------------------------------------------------------------

def test_h_at_origin():
    for lam in (F(1, 4), F(1)):
        assert h_function(lam, 0, 0) == lam


def test_h_case_two_corner_value():
    for lam in (F(1, 4), F(1, 2), F(1)):
        assert h_function(lam, 1, lam) == 2 * (1 + lam) * (1 + 5 * lam + lam * lam)


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


def test_vertex_formula():
    assert h_vertex(F(1, 2), F(1, 3)) == F(3, 4)
    assert h_vertex(F(1), F(1, 6)) == 1
    assert case_threshold(F(1)) == F(1, 6)
    assert case_threshold(F(1, 2)) == F(2, 9)


def test_case_bound_c1_zero():
    analysis = a4_case_bound(F(1, 2), 0)
    assert analysis.case == "one"
    assert analysis.t_star == 0
    assert analysis.h_max == F(1, 2)
    assert analysis.a4_candidate == F(1, 4)


def test_case_bound_c1_one():
    lam = F(1, 2)
    analysis = a4_case_bound(lam, 1)
    assert analysis.case == "two"
    assert analysis.t_star == lam
    assert analysis.a4_candidate == (1 + lam) * (1 + 5 * lam + lam * lam)


def test_case_bound_continuous_at_threshold():
    lam = F(1)
    c = case_threshold(lam)  # 1/6
    analysis = a4_case_bound(lam, c)
    # at the threshold the vertex sits exactly at t = lam, so both case
    # formulas give the same value
    assert analysis.t_vertex == lam
    assert analysis.h_max == h_function(lam, c, lam)


def test_vertex_is_argmax():
    rng = np.random.default_rng(4)
    for _ in range(30):
        lam = float(rng.uniform(0.05, 1.0))
        c = float(rng.random())
        analysis = a4_case_bound(lam, c)
        ts = rng.uniform(0.0, lam, size=1000)
        h_star = analysis.h_max
        assert all(h_function(lam, c, t) <= h_star + 1e-12 for t in ts)


def test_exact_vertex_identity():
    # completed square: h(t0) = L + 9 L (1+L)^2 c^2 + 2 (1+L)^3 c^3
    rng = np.random.default_rng(6)
    for _ in range(25):
        lam = F(int(rng.integers(1, 40)), 40)
        c = case_threshold(lam) * F(int(rng.integers(0, 33)), 32)
        analysis = a4_case_bound(lam, c)
        assert analysis.case == "one"
        expected = lam + 9 * lam * (1 + lam) ** 2 * c * c + 2 * (1 + lam) ** 3 * c ** 3
        assert analysis.h_max == expected
        # the looser stated chain with coefficient 27 dominates it
        looser = lam + 27 * lam * (1 + lam) ** 2 * c * c + 2 * (1 + lam) ** 3 * c ** 3
        assert analysis.h_max <= looser


def test_global_bound_koebe():
    assert a4_global_bound(F(1)) == 14


def test_global_bound_half():
    assert a4_global_bound(F(1, 2)) == F(45, 8)


def test_global_bound_equals_b4_at_random_rationals():
    rng = np.random.default_rng(12)
    for _ in range(20):
        den = int(rng.integers(1, 1000))
        lam = F(int(rng.integers(1, den + 1)), den)
        assert a4_global_bound(lam) == theoretical_bounds(ULambdaParams(lam)).b4


def test_global_bound_lambda_validation():
    for bad in (0, F(-1, 2), F(3, 2)):
        with pytest.raises(ValueError):
            a4_global_bound(bad)


def test_case_one_cap():
    rng = np.random.default_rng(13)
    for lam in [F(1), F(1, 2)] + [F(int(rng.integers(1, 101)), 100) for _ in range(18)]:
        assert case_one_cap(lam) == lam + F(1, 27)


def test_gap_inequality():
    assert gap_certificate() == [F(26, 27), 4, 6, 1]
    assert verify_gap_inequality()


# -- search ---------------------------------------------------------------------

def test_verify_bound_a2_attains_corner():
    report = verify_bound(ULambdaParams(1.0, "float"), "A2",
                          search=SearchConfig(samples=5000, seed=3))
    assert report.empirical_max == 2.0
    assert report.gap == 0.0
    assert report.argmax_jet == SchwarzJet(1.0 + 0.0j, 0.0j, 0.0j)
    assert report.sound()


def test_verify_bound_a4_half():
    report = verify_bound(ULambdaParams(0.5, "float"), "A4",
                          search=SearchConfig(samples=20000, seed=5))
    assert report.empirical_max <= 45.0 / 8.0 + 1e-9
    assert report.gap <= 1e-9  # corner forces attainment
    assert report.sound()


def test_verify_bound_fs_outside_sharp_range():
    report = verify_bound(ULambdaParams(0.5, "float"), "FS", mu=2.0,
                          search=SearchConfig(samples=20000, seed=5))
    assert report.theoretical == pytest.approx(0.5 + (1.5) ** 2, abs=1e-15)
    assert report.sound()
    assert not sharpness_claimed(report)
    # corner value |A3 - 2 A2^2| = |2.75 - 2*2.25| = 1.75 stays below the bound
    assert report.gap > 0.1


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
        assert sharpness_claimed(r)
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


def test_search_config_json_roundtrip():
    cfg = SearchConfig(samples=123, seed=9, strategy="grid", tolerance=1e-8)
    assert SearchConfig.from_json(cfg.to_json()) == cfg


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(samples=0)
    with pytest.raises(ValueError):
        SearchConfig(strategy="annealing")
    with pytest.raises(ValueError):
        SearchConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SearchConfig.from_json({"samples": 10, "threads": 4})
    with pytest.raises(ValueError):
        SearchConfig.from_json({"samples": 10, "grid": 201})


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


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("COEFFFORGE_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("COEFFFORGE_THREADS", "8")
    assert worker_count() == 8
    monkeypatch.setenv("COEFFFORGE_THREADS", "abc")
    with pytest.raises(ValueError):
        worker_count()


def test_results_independent_of_workers(monkeypatch):
    cfg = SearchConfig(samples=3 * 8192 + 5, seed=13)
    grid = [0.3, 0.9]
    monkeypatch.setenv("COEFFFORGE_THREADS", "1")
    sequential = reports_to_csv(scan_lambda(["A2", "A3", "A4"], grid, search=cfg))
    monkeypatch.setenv("COEFFFORGE_THREADS", "8")
    threaded = reports_to_csv(scan_lambda(["A2", "A3", "A4"], grid, search=cfg))
    assert sequential == threaded


def test_soundness_sweep_small():
    reports = scan_lambda(["A2", "A3", "A4"], [k / 10 for k in range(1, 11)],
                          search=SearchConfig(samples=20000, seed=20250810))
    for r in reports:
        assert r.sound(1e-9), f"{r.functional} at {r.lam}: gap {r.gap}"
