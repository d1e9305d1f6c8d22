"""The disk table, the admissibility predicate and the jet samplers."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeffforge import (BOUNDARY_TOL, SchwarzJet, c2_disks, c3_disk, is_admissible,
                        sample_jet_arrays, sample_jets)
from coeffforge.scalars import FLOAT, QComplex, as_scalar
from coeffforge.schwarz import STRATEGIES, _fill_c2, block_size, sample_block_arrays
from helpers import exact_jet

F = Fraction


def _c3_disk_of(lam, jet):
    """The c3 disk of an exact jet, with t^2 taken from the class c2 disk."""
    _, (m2, _) = c2_disks(lam, jet.c1, jet.c1.abs2())
    return c3_disk(lam, jet.c1, jet.c2, (1 + lam) ** 2 * (jet.c2 - m2).abs2())


# -- Schur-Carlson ------------------------------------------------------------

def test_schur_boundary_c1_zero():
    assert c2_disks(F(1, 2), 0, 0)[0] == (0, 1)


def test_schur_full_c1_forces_c2_zero():
    # c2 = 0.1 lies in the class disk (1/2, 1/2) but not in the Schur disk (0, 0)
    assert not is_admissible(1.0, SchwarzJet(1.0 + 0j, 0.1 + 0j, 0j))
    assert is_admissible(1.0, SchwarzJet(1.0 + 0j, 0j, 0j))


def test_schur_derived_boundary():
    # at c1 = 0.6 the Schur radius 0.64 binds before the class disk (0.18, 0.5)
    assert is_admissible(1.0, SchwarzJet(0.6 + 0j, 0.64 + 0j, 0.384 + 0j))
    assert not is_admissible(1.0, SchwarzJet(0.6 + 0j, 0.65 + 0j, 0.39 + 0j))


def test_schur_exact_comparisons():
    rim = exact_jet(F(3, 5), F(16, 25), F(48, 125))
    assert is_admissible(1, rim)
    over = exact_jet(F(3, 5), F(16, 25) + F(1, 10 ** 9), F(48, 125))
    assert not is_admissible(1, over)


def test_schur_tolerance_band():
    assert is_admissible(0.5, SchwarzJet(1.0 + 5e-13 + 0j, 0j, 0j))
    assert not is_admissible(0.5, SchwarzJet(1.0 + 1e-9 + 0j, 0j, 0j))


@pytest.mark.parametrize("jet", [(1e300, 0, 0), (1e300j, 0, 0), (0.5, 1e300, 0),
                                 (0.5, 0.1, 1e300), (2e154, 3e154j, 0)])
def test_float_jet_beyond_the_square_range_is_rejected(jet):
    # |c|^2 overflows the float range; the verdict is False, not OverflowError
    assert not is_admissible(0.5, SchwarzJet(*map(complex, jet)))


# -- the c3 disk ----------------------------------------------------------------

def test_profile_corner_saturates_exactly():
    jet = exact_jet(1, 0, 0)
    for lam in (F(1, 4), F(1, 2), F(9, 10), F(1)):
        centre, radius = _c3_disk_of(lam, jet)
        assert centre == 0 and radius == 0  # t = L exactly
        assert is_admissible(lam, jet)


def test_profile_corner_forces_c3_zero():
    jet = exact_jet(1, 0, F(1, 10 ** 6))
    assert _c3_disk_of(F(1, 2), jet)[1] == 0
    assert not is_admissible(F(1, 2), jet)


def test_profile_zero_jet():
    jet = exact_jet(0, 0, 0)
    assert c2_disks(F(1, 2), jet.c1, 0) == ((0, 1), (0, F(1, 3)))
    assert _c3_disk_of(F(1, 2), jet) == (0, F(1, 6))
    assert is_admissible(F(1, 2), jet)


def test_profile_saturating_c2():
    # c1 = 0, c2 = 1/2 at the parameter 1: t = 1, so the c3 disk is the point 0
    assert is_admissible(F(1), exact_jet(0, F(1, 2), 0))
    jet = exact_jet(0, F(1, 2), F(1, 100))
    assert _c3_disk_of(F(1), jet) == (0, 0)
    assert not is_admissible(F(1), jet)


def test_profile_float_mode():
    _, (m2, _) = c2_disks(0.5, 1.0 + 0j, 1.0)
    t = 1.5 * abs(0j - m2)
    assert t == pytest.approx(0.5, abs=1e-15)
    assert c3_disk(0.5, 1.0 + 0j, 0j, t * t)[1] == pytest.approx(0.0, abs=1e-15)
    assert is_admissible(0.5, SchwarzJet(1.0 + 0j, 0j, 0j))


def test_profile_lambda_range():
    for lam in (0.0, -0.5, 1.5, F(0), F(3, 2)):
        with pytest.raises(ValueError, match="class parameter"):
            is_admissible(lam, exact_jet(0, 0, 0))


def test_slack_nonnegative_when_first_holds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        lam = float(rng.uniform(0.05, 1.0))
        jet = sample_jets(lam, 1, seed=int(rng.integers(1 << 30)))[0]
        assert is_admissible(lam, jet)
        _, (m2, _) = c2_disks(lam, jet.c1, abs(jet.c1) ** 2)
        t = (1 + lam) * abs(jet.c2 - m2)
        assert c3_disk(lam, jet.c1, jet.c2, t * t)[1] >= -1e-12


def _table(lam, c1, c2, c1_sq, t_sq):
    (_, schur), (m2, R2) = c2_disks(lam, c1, c1_sq)
    return (schur, m2, R2) + c3_disk(lam, c1, c2, t_sq)


def test_disk_table_on_every_scalar_type():
    c1, c2 = QComplex(F(1, 2), F(1, 3)), QComplex(F(-1, 5), F(1, 7))
    exact = _table(F(2, 5), c1, c2, c1.abs2(), F(1, 9))
    z1, z2 = c1.to_complex(), c2.to_complex()
    floats = _table(0.4, z1, z2, abs(z1) ** 2, 1 / 9)
    arrays = _table(0.4, np.array([z1, 0]), np.array([z2, 0]),
                    np.array([abs(z1) ** 2, 0]), np.array([1 / 9, 0]))
    for e, f, a in zip(exact, floats, arrays):
        assert as_scalar(e, FLOAT) == pytest.approx(f, abs=1e-15)
        assert np.ravel(a)[0] == pytest.approx(f, abs=1e-15)


@pytest.mark.xfail(strict=True, reason="the Carlson (1940) condition on c3 is not checked")
def test_carlson_rejects_c3_off_its_point():
    # |c2| = 1 - |c1|^2 forces c3 = -conj(c1) c2^2 / (1 - |c1|^2) = -36/125
    assert not is_admissible(1, exact_jet(F(4, 5), F(9, 25), F(36, 125)))


# -- samplers --------------------------------------------------------------------

def test_sampler_single_jet_contract():
    assert is_admissible(0.7, sample_jets(0.7, 1, seed=42)[0])


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sampler_deterministic(strategy):
    a = sample_jets(0.4, 300, seed=9, strategy=strategy)
    b = sample_jets(0.4, 300, seed=9, strategy=strategy)
    assert a == b


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("lam", [0.001, 0.02, 0.05, 0.3, 1.0])
def test_sampler_emits_only_admissible(strategy, lam):
    for jet in sample_jets(lam, 400, seed=1, strategy=strategy):
        assert is_admissible(lam, jet)


def _admissible_arrays(lam, c1, c2, c3, tol=BOUNDARY_TOL):
    """Schur-Carlson and both class constraints, elementwise, written apart
    from the disk table in the pair form t <= L, |2(1+L)c3 - 4L c1 c2| <=
    L - t^2/L, with t = |(1+L)c2 - L c1^2|."""
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
        w = complex(math.cos(theta), math.sin(theta))  # the jet of omega(w z)
        rotated = SchwarzJet(w * jet.c1, w * w * jet.c2, w * w * w * jet.c3)
        assert is_admissible(0.6, rotated, tol=1e-10)


# sha256 of the three arrays of sample_block_arrays(0.5, 1, 0, strategy), as
# little-endian complex128 bytes: the sample stream must not move by one bit.
STREAM_DIGESTS = {
    "uniform": "91d5a2c0fad6141a45f75f96f7da4879645eda96184e33f27eb68fdec68df07e",
    "boundary-biased": "7095d28303f3e18b438cedabc5f6ce24a105e8cc8875bb46e5528114a7729936",
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sample_stream_is_pinned(strategy):
    arrays = sample_block_arrays(0.5, 1, 0, strategy)
    data = b"".join(np.asarray(a, "<c16").tobytes() for a in arrays)
    assert hashlib.sha256(data).hexdigest() == STREAM_DIGESTS[strategy]


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


@pytest.mark.parametrize("part", [[float("inf"), 0], [0, float("nan")], [float("-inf")],
                                  [10 ** 400, 0], [True, False], [0.5, "0"], [], [1, 2, 3],
                                  0.5, "0.5", None])
def test_jet_json_rejects_non_finite_and_non_numeric_parts(part):
    record = {"c1": [0.5, 0.0], "c2": [0.0, 0.0], "c3": [0.0, 0.0]}
    for name in ("c1", "c3"):
        with pytest.raises(ValueError, match=f"malformed jet record: {name}"):
            SchwarzJet.from_json({**record, name: part})


def test_jet_json_accepts_ints_and_a_real_part_alone():
    jet = SchwarzJet.from_json({"c1": [1, 0], "c2": [0.25], "c3": [0, -1]})
    assert jet == SchwarzJet(1 + 0j, 0.25 + 0j, -1j)


def test_as_exact_binary():
    exact = SchwarzJet(0.5 + 0.25j, 0.125j, 1 / 3 + 0j).as_exact()
    assert exact.c1.re == F(1, 2) and exact.c1.im == F(1, 4)
    assert exact.c2.im == F(1, 8)
    assert exact.c3.re == F(1 / 3) != F(1, 3)  # the binary value, not the nearest rational


def test_is_admissible_wrapper():
    assert is_admissible(0.5, SchwarzJet(1.0 + 0j, 0j, 0j))
    assert not is_admissible(0.5, SchwarzJet(1.0 + 0j, 0.5 + 0j, 0j))
    assert not is_admissible(0.5, SchwarzJet(0.0j, 0.9 + 0j, 0j))
