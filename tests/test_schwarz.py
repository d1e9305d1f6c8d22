"""Admissibility predicates and the jet samplers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeffforge import (BOUNDARY_TOL, SchwarzJet, is_admissible, is_schur_admissible,
                        jet_constraint_profile, rationalize, sample_jet_arrays,
                        sample_jets)
from coeffforge.schwarz import STRATEGIES, _fill_c2, block_size, sample_block_arrays
from helpers import exact_jet

F = Fraction


# -- Schur-Carlson ------------------------------------------------------------

def test_schur_boundary_c1_zero():
    assert is_schur_admissible(0.0, 1.0)


def test_schur_full_c1_forces_c2_zero():
    assert not is_schur_admissible(1.0, 0.1)
    assert is_schur_admissible(1.0, 0.0)


def test_schur_derived_boundary():
    assert is_schur_admissible(0.6, 0.64)
    assert not is_schur_admissible(0.6, 0.65)


def test_schur_exact_comparisons():
    assert is_schur_admissible(exact_jet(F(3, 5), 0, 0).c1, exact_jet(F(16, 25), 0, 0).c1)
    over = exact_jet(F(3, 5), F(16, 25) + F(1, 10 ** 9), 0)
    assert not is_schur_admissible(over.c1, over.c2)


def test_schur_tolerance_band():
    assert is_schur_admissible(1.0 + 5e-13, 0.0)
    assert not is_schur_admissible(1.0 + 1e-9, 0.0)


# -- constraint profile ---------------------------------------------------------

def test_profile_corner_saturates_exactly():
    jet = exact_jet(1, 0, 0)
    for lam in (F(1, 4), F(1, 2), F(9, 10), F(1)):
        prof = jet_constraint_profile(lam, jet)
        assert prof.t == lam          # exact equality, rational square root
        assert prof.c3_slack == 0
        assert prof.satisfied


def test_profile_corner_forces_c3_zero():
    jet = exact_jet(1, 0, F(1, 10 ** 6))
    prof = jet_constraint_profile(F(1, 2), jet)
    assert prof.c3_slack == 0
    assert not prof.second_ok


def test_profile_zero_jet():
    prof = jet_constraint_profile(F(1, 2), exact_jet(0, 0, 0))
    assert prof.t == 0
    assert prof.c3_slack == F(1, 2)
    assert prof.satisfied


def test_profile_saturating_c2():
    # c1 = 0, c2 = 1/2 at the parameter 1: t = 1, slack 0, so |4 c3| <= 0
    assert jet_constraint_profile(F(1), exact_jet(0, F(1, 2), 0)).satisfied
    prof = jet_constraint_profile(F(1), exact_jet(0, F(1, 2), F(1, 100)))
    assert prof.t == 1 and prof.c3_slack == 0
    assert not prof.second_ok


def test_profile_float_mode():
    prof = jet_constraint_profile(0.5, SchwarzJet(1.0 + 0j, 0j, 0j))
    assert prof.t == pytest.approx(0.5, abs=1e-15)
    assert prof.satisfied


def test_profile_lambda_range():
    for lam in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            jet_constraint_profile(lam, SchwarzJet(0j, 0j, 0j))


def test_slack_nonnegative_when_first_holds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        lam = float(rng.uniform(0.05, 1.0))
        jet = sample_jets(lam, 1, seed=int(rng.integers(1 << 30)))[0]
        prof = jet_constraint_profile(lam, jet)
        assert prof.first_ok
        assert prof.c3_slack >= -1e-12


# -- samplers --------------------------------------------------------------------

def test_sampler_single_jet_contract():
    jet = sample_jets(0.7, 1, seed=42)[0]
    assert is_schur_admissible(jet.c1, jet.c2)
    assert jet_constraint_profile(0.7, jet).satisfied


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sampler_deterministic(strategy):
    a = sample_jets(0.4, 300, seed=9, strategy=strategy)
    b = sample_jets(0.4, 300, seed=9, strategy=strategy)
    assert a == b


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("lam", [0.001, 0.02, 0.05, 0.3, 1.0])
def test_sampler_emits_only_admissible(strategy, lam):
    for jet in sample_jets(lam, 400, seed=1, strategy=strategy):
        assert is_schur_admissible(jet.c1, jet.c2)
        assert jet_constraint_profile(lam, jet).satisfied


def _admissible_arrays(lam, c1, c2, c3, tol=BOUNDARY_TOL):
    """Both class constraints and Schur-Carlson, elementwise, as defined in
    the schwarz module docstring."""
    a1 = np.abs(c1)
    t = np.abs((1 + lam) * c2 - lam * c1 * c1)
    slack = np.clip(lam - t * t / lam, 0.0, None)
    return ((a1 <= 1 + tol) & (np.abs(c2) <= np.clip(1 - a1 * a1, 0.0, None) + tol)
            & (t <= lam + tol)
            & (np.abs(2 * (1 + lam) * c3 - 4 * lam * c1 * c2) <= slack + tol))


def test_admissible_arrays_matches_is_admissible():
    c1, c2, c3 = sample_block_arrays(0.4, 7, 0, "boundary-biased")
    rng = np.random.default_rng(0)
    c2 = c2 * rng.uniform(0.9, 1.1, c2.shape)  # push some jets out of the class
    c3 = c3 * rng.uniform(0.9, 1.1, c3.shape)
    flags = _admissible_arrays(0.4, c1, c2, c3)
    assert 0 < flags.sum() < flags.size
    for k in range(0, c1.size, 16):
        assert flags[k] == is_admissible(0.4, SchwarzJet(*(complex(c[k]) for c in (c1, c2, c3))))


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       block=st.integers(0, 1000), strategy=st.sampled_from(STRATEGIES))
def test_sampled_block_admissible_for_every_lambda(lam, seed, block, strategy):
    assert _admissible_arrays(lam, *sample_block_arrays(lam, seed, block, strategy)).all()


@pytest.mark.parametrize("r1, lam, schur_smaller", [
    (0.95, 0.5, True),   # Schur disk radius 0.0975 < class radius 1/3
    (0.99, 0.02, False),  # class radius 0.0196 < Schur radius 0.0199
])
def test_fill_c2_uniform_on_intersection(r1, lam, schur_smaller):
    n = 200_000
    c1 = r1 * np.exp(0.7j)
    schur, m2, R2 = 1 - r1 * r1, lam * c1 * c1 / (1 + lam), lam / (1 + lam)
    assert (schur <= R2) == schur_smaller
    assert abs(m2) + R2 > schur and abs(m2) + schur > R2  # neither disk inside the other
    draws = _fill_c2(np.random.default_rng(5), np.full(n, schur), np.full(n, m2), R2)
    assert np.all(np.abs(draws) <= schur) and np.all(np.abs(draws - m2) <= R2)
    # lattice count of the intersection over the bounding box of the smaller disk
    centre, radius = (0, schur) if schur_smaller else (m2, R2)
    side = (np.arange(2000) + 0.5) / 2000 * 2 * radius - radius
    z = centre + side[:, None] + 1j * side[None, :]
    lens = (np.abs(z) <= schur) & (np.abs(z - m2) <= R2)
    for cut in (lambda w: w.real > np.real(centre), lambda w: w.imag > np.imag(centre)):
        p = cut(z)[lens].mean()
        assert abs(cut(draws).mean() - p) <= 4 * math.sqrt(p * (1 - p) / n)


def test_sampler_count_validation():
    with pytest.raises(ValueError):
        sample_jets(0.5, 0)


def test_sampler_lambda_validation():
    with pytest.raises(ValueError):
        sample_jets(1.2, 10)


@pytest.mark.parametrize("lam", [0.0, -0.5, 1.2, float("nan")])
def test_block_lambda_validation(lam):
    with pytest.raises(ValueError, match="class parameter"):
        sample_block_arrays(lam, 0, 0)


def test_sampler_unknown_strategy():
    with pytest.raises(ValueError):
        sample_jets(0.5, 10, strategy="latin-hypercube")


@pytest.mark.parametrize("strategy", ["grid", "bogus"])
def test_block_unknown_strategy(strategy):
    with pytest.raises(ValueError, match="unknown strategy"):
        sample_block_arrays(0.5, 0, 0, strategy)


def test_rotation_closure():
    rng = np.random.default_rng(17)
    jets = sample_jets(0.6, 50, seed=5, strategy="uniform")
    for jet in jets:
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        rotated = jet.rotated(theta)
        assert is_schur_admissible(rotated.c1, rotated.c2, tol=1e-10)
        assert jet_constraint_profile(0.6, rotated, tol=1e-10).satisfied


def test_block_partition_matches_sequential():
    lam, seed, count = 0.35, 123, 2 * block_size() + 700
    c1, c2, c3 = sample_jet_arrays(lam, count, seed=seed, strategy="boundary-biased")
    parts = [sample_block_arrays(lam, seed, b, strategy="boundary-biased")
             for b in range(3)]
    c1b = np.concatenate([p[0] for p in parts])[:count]
    assert np.array_equal(c1, c1b)


def test_jet_json_roundtrip():
    jet = SchwarzJet(0.5 + 0.25j, -0.1j, 0.01 + 0j)
    assert SchwarzJet.from_json(jet.to_json()) == jet
    with pytest.raises(ValueError):
        SchwarzJet.from_json({"c1": [0, 0]})


def test_rationalize_exact_binary():
    jet = SchwarzJet(0.5 + 0.25j, 0.125j, 0j)
    exact = rationalize(jet)
    assert exact.c1.re == F(1, 2) and exact.c1.im == F(1, 4)
    assert exact.c2.im == F(1, 8)
    capped = rationalize(SchwarzJet(1 / 3 + 0j, 0j, 0j), max_denominator=100)
    assert capped.c1.re == F(1, 3)


def test_is_admissible_wrapper():
    assert is_admissible(0.5, SchwarzJet(1.0 + 0j, 0j, 0j))
    assert not is_admissible(0.5, SchwarzJet(1.0 + 0j, 0.5 + 0j, 0j))
    assert not is_admissible(0.5, SchwarzJet(0.0j, 0.9 + 0j, 0j))
