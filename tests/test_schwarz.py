"""The disk table, the admissibility predicate and the jet samplers."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeffforge import SchwarzJet, c2_disks, c3_disk, is_admissible
from coeffforge.scalars import EXACT, FLOAT, QComplex, as_scalar
from coeffforge.schwarz import (STRATEGIES, _disk_points, _fill_c2, block_size,
                                sample_block_arrays, sample_grid_block)
from helpers import block_jets, exact_jet

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


def test_a_float_jet_is_judged_by_its_binary_value():
    # no band round the rim: |c1| = 1 + 5e-13 lies outside the unit disk
    assert not is_admissible(0.5, SchwarzJet(1.0 + 5e-13 + 0j, 0j, 0j))
    assert not is_admissible(0.5, SchwarzJet(1.0 + 1e-9 + 0j, 0j, 0j))
    # the double 0.1 exceeds 1/10 by 5.6e-18, which widens the class c2 disk
    # (0, L/(1+L)) by 4.6e-18; c2 = 1/11 + 1e-18 lies in it only at the double
    jet = exact_jet(0, F(1, 11) + F(1, 10 ** 18), 0)
    assert is_admissible(0.1, jet) and not is_admissible(F(1, 10), jet)


@pytest.mark.parametrize("jet", [(1e300, 0, 0), (1e300j, 0, 0), (0.5, 1e300, 0),
                                 (0.5, 0.1, 1e300), (2e154, 3e154j, 0)])
def test_float_jet_beyond_the_square_range_is_rejected(jet):
    # |c|^2 lies beyond the float range, but is judged as a rational
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
    # 200 jets: 20 from each of 10 blocks, each block at its own L and seed
    rng = np.random.default_rng(3)
    for _ in range(10):
        lam = float(rng.uniform(0.05, 1.0))
        arrays = sample_block_arrays(lam, int(rng.integers(1 << 30)), 0)
        for k in rng.choice(block_size(), 20, replace=False):
            c1, c2, c3 = (complex(c[k]) for c in arrays)
            assert _admissible_arrays(lam, c1, c2, c3)
            _, (m2, _) = c2_disks(lam, c1, abs(c1) ** 2)
            t = (1 + lam) * abs(c2 - m2)
            assert c3_disk(lam, c1, c2, t * t)[1] >= -1e-12


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


@settings(max_examples=40, deadline=None)
@given(lam=st.fractions(F(1, 50), 1, max_denominator=50),
       parts=st.lists(st.fractions(-1, 1, max_denominator=30), min_size=5, max_size=5))
def test_exact_disk_centres_are_the_quotients_by_one_plus_lambda(lam, parts):
    # the centres multiply by 1/(1+L); in exact arithmetic that is the quotient
    c1, c2 = QComplex(*parts[:2]), QComplex(*parts[2:4])
    (schur, (m2, R2)), (m3, R3) = (c2_disks(lam, c1, c1.abs2()),
                                   c3_disk(lam, c1, c2, parts[4] ** 2))
    assert schur == (0, 1 - c1.abs2())
    assert isinstance(m2, QComplex) and m2 == lam * c1 * c1 / (1 + lam)
    assert isinstance(m3, QComplex) and m3 == 2 * lam * c1 * c2 / (1 + lam)
    assert isinstance(R2, F) and R2 == lam / (1 + lam)
    assert isinstance(R3, F) and R3 == (lam - parts[4] ** 2 / lam) / (2 * (1 + lam))
    (_, (m2, _)), (m3, _) = c2_disks(lam, parts[0], parts[0] ** 2), c3_disk(lam, 1, 1, 0)
    assert isinstance(m2, F) and m2 == lam * parts[0] ** 2 / (1 + lam)
    assert isinstance(m3, F) and m3 == 2 * lam / (1 + lam)


@pytest.mark.parametrize("lam", [0.02, 0.3, 1 / 3, 0.999, 1.0])
def test_array_disk_centres_have_the_bits_of_the_quotients(lam):
    # numpy divides complex by real as a product with the reciprocal of the
    # real, so multiplying by 1/(1+L) leaves the sample stream's bits as they are
    c1, c2 = (_disk_points(np.random.default_rng([7, k]), block_size()) for k in (1, 2))
    m2 = c2_disks(lam, c1, abs(c1) ** 2)[1][0]
    m3 = c3_disk(lam, c1, c2, 0.0)[0]
    assert np.array_equal((lam * c1 * c1 / (1 + lam)).view(np.int64), m2.view(np.int64))
    assert np.array_equal((2 * lam * c1 * c2 / (1 + lam)).view(np.int64), m3.view(np.int64))


def test_carlson_and_class_c3_disks_can_be_disjoint():
    # (9/10, 19/100) at L = 1 lies in both c2 disks, on the Schur rim, yet no
    # c3 lies in both the Carlson disk and the class disk
    lam, c1, c2 = F(1), QComplex(F(9, 10)), QComplex(F(19, 100))
    (_, schur), (m2, R2) = c2_disks(lam, c1, c1.abs2())
    assert c2.abs2() == schur * schur and (c2 - m2).abs2() <= R2 * R2
    s = 1 - c1.abs2()
    carlson = (-QComplex(c1.re, -c1.im) * c2 * c2 / s, (s * s - c2.abs2()) / s)
    assert carlson == (QComplex(F(-171, 1000)), 0)  # c3 is forced
    m3, R3 = c3_disk(lam, c1, c2, (1 + lam) ** 2 * (c2 - m2).abs2())
    assert (m3, R3) == (QComplex(F(171, 1000)), F(8151, 40000))
    assert (m3 - carlson[0]).abs2() > (R3 + carlson[1]) ** 2
    assert is_admissible(lam, SchwarzJet(c1, c2, m3))  # the class disk alone admits it


@pytest.mark.xfail(strict=True, reason="the Carlson (1940) condition on c3 is not checked")
def test_carlson_rejects_c3_off_its_point():
    # |c2| = 1 - |c1|^2 forces c3 = -conj(c1) c2^2 / (1 - |c1|^2) = -36/125
    assert not is_admissible(1, exact_jet(F(4, 5), F(9, 25), F(36, 125)))


# -- samplers --------------------------------------------------------------------

def test_sampler_single_jet_contract():
    jet = block_jets(0.7, 42, 1)[0]
    assert _admissible_arrays(0.7, jet.c1, jet.c2, jet.c3)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sampler_deterministic(strategy):
    a = sample_block_arrays(0.4, 9, 3, strategy)
    b = sample_block_arrays(0.4, 9, 3, strategy)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("lam", [0.001, 0.02, 0.05, 0.3, 1.0])
def test_sampler_emits_only_admissible(strategy, lam):
    # the first 400 jets of a block, within the oracle's float band: by its
    # binary value, a biased jet on the rim of its disks may lie outside them
    c1, c2, c3 = (c[:400] for c in sample_block_arrays(lam, 1, 0, strategy))
    assert _admissible_arrays(lam, c1, c2, c3).all()


def _admissible_arrays(lam, c1, c2, c3, tol=1e-12):
    """Schur-Carlson and both class constraints, elementwise, written apart
    from the disk table in the pair form t <= L, |2(1+L)c3 - 4L c1 c2| <=
    L - t^2/L, with t = |(1+L)c2 - L c1^2|, each within a float band tol."""
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


def _within_4_sigma(hits, p):
    return abs(hits.mean() - p) <= 4 * math.sqrt(p * (1 - p) / hits.size)


def test_disk_points_are_area_uniform():
    n = 200_000
    p = _disk_points(np.random.default_rng(8), n)
    assert p.shape == (n,) and np.all(np.abs(p) <= 1) and np.all(p != 0)
    for angle in (0.0, 0.5, 2.0):  # half-planes through the centre
        assert _within_4_sigma((p * np.exp(-1j * angle)).real > 0, 0.5)
    for r in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):  # the radial quantiles: P(|p| <= r) = r^2
        assert _within_4_sigma(np.abs(p) <= r, r * r)


def test_directions_are_uniform_in_angle():
    n = 200_000
    p = _disk_points(np.random.default_rng(9), n)
    d = p / abs(p)
    assert np.allclose(np.abs(d), 1, rtol=0, atol=1e-15)
    turns = np.angle(d) / (2 * np.pi) % 1.0
    for q in (0.05, 0.25, 0.4, 0.5, 0.75, 0.95):
        assert _within_4_sigma(turns < q, q)


def _reach(ray, disk):
    """Where the unit ray from 0 leaves a disk (centre, radius) that holds 0:
    the larger root t of |t ray - centre| = radius."""
    centre, radius = disk
    b = (centre * np.conj(ray)).real
    return b + np.sqrt(b * b - np.abs(centre) ** 2 + radius * radius)


def test_biased_c2_keeps_its_ray_for_every_lambda():
    # no draw depends on L: each slot's c2 only slides along one ray from 0
    c2s = [c2 for _, c2, _ in sample_grid_block([1e-3, 0.02, 0.3, 1.0], 7, 2, "boundary-biased")]
    assert np.all(c2s[0] != 0)
    for c2 in c2s[1:]:
        turn = c2 * np.conj(c2s[0])
        assert np.all(turn.real > 0) and np.all(np.abs(turn.imag) <= 1e-12 * np.abs(turn))


@pytest.mark.parametrize("lam", [0.02, 0.3, 1.0])
def test_biased_c2_depth_is_rim_or_area_uniform_along_its_ray(lam):
    blocks = [sample_block_arrays(lam, 5, b, "boundary-biased") for b in range(24)]
    c1, c2 = (np.concatenate([block[k] for block in blocks]) for k in (0, 1))
    ray = c2 / np.abs(c2)
    schur, cls = c2_disks(lam, c1, np.abs(c1) ** 2)
    depth = np.abs(c2) / np.minimum(_reach(ray, schur), _reach(ray, cls))
    rim = np.abs(depth - 1) <= 1e-12  # a few rims near |c1| = 1 round further off
    assert _within_4_sigma(rim, 0.5)
    inner = depth[~rim] ** 2
    turns = np.angle(ray * np.conj(c1 * c1))[~rim] / (2 * np.pi) % 1.0
    for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):  # P(d^2 <= q) = q, the ray uniform
        assert _within_4_sigma(inner <= q, q) and _within_4_sigma(turns < q, q)


def test_biased_c2_density_is_at_least_a_quarter_of_uniform():
    # an inner c2 has density 1/(pi R^2) along a ray of reach R, so its
    # ratio to the uniform density 1/area is at least area / (pi max R^2);
    # by rotation c1 = |c1| >= 0, and the farthest point lies along angle 0
    ray = np.exp(2j * np.pi * np.arange(4000) / 4000)
    r1 = np.linspace(0.0, 0.999, 400)[:, None]
    for lam in np.geomspace(1e-3, 1.0, 10):
        schur, cls = c2_disks(lam, r1, r1 * r1)
        reach = np.minimum(_reach(ray, schur), _reach(ray, cls))
        ratio = np.mean(reach ** 2, axis=1) / np.max(reach ** 2, axis=1)  # area = pi E R^2
        assert np.all(ratio >= 0.25), (lam, ratio.min())
        inside = (cls[1] * (1 + r1 * r1) <= schur[1]).ravel()  # the class disk in the Schur disk
        assert np.allclose(ratio[inside], 1 / (1 + r1[inside, 0] ** 2) ** 2, rtol=1e-9)


def test_sampler_lambda_validation():
    # an exact L is checked like a float one, then sampled at its double
    for lam in (F(0), F(3, 2)):
        with pytest.raises(ValueError, match="class parameter"):
            sample_block_arrays(lam, 0, 0)
    exact, rounded = sample_block_arrays(F(1, 2), 4, 0), sample_block_arrays(0.5, 4, 0)
    assert all(np.array_equal(x, y) for x, y in zip(exact, rounded))


@pytest.mark.parametrize("lam", [0.0, -0.5, 1.2, float("nan")])
def test_block_lambda_validation(lam):
    with pytest.raises(ValueError, match="class parameter"):
        sample_block_arrays(lam, 0, 0)


def test_sampler_unknown_strategy():
    # the names are matched exactly
    for strategy in ("Uniform", "boundary_biased", "latin-hypercube"):
        with pytest.raises(ValueError, match="unknown strategy"):
            sample_block_arrays(0.5, 0, 0, strategy)


@pytest.mark.parametrize("strategy", ["grid", "bogus"])
def test_block_unknown_strategy(strategy):
    with pytest.raises(ValueError, match="unknown strategy"):
        sample_block_arrays(0.5, 0, 0, strategy)


def test_rotation_closure():
    rng = np.random.default_rng(17)
    jets = block_jets(0.6, 5, 50)
    for jet in jets:
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        w = complex(math.cos(theta), math.sin(theta))  # the jet of omega(w z)
        # judged in floats: a rotated rim jet may lie outside by rounding
        assert _admissible_arrays(0.6, w * jet.c1, w * w * jet.c2, w * w * w * jet.c3, tol=1e-10)


# sha256 of the three arrays of sample_block_arrays(0.5, 1, 0, strategy), as
# little-endian complex128 bytes: the sample stream must not move by one bit.
# Recorded when unit-disk points and directions came to be drawn by
# rejection from the square, and the c3 offsets once for the lambda grid.
# The boundary-biased digest was re-recorded when its c2 moved to a walk
# from 0 along each slot's ray, drawn once for the lambda grid.
STREAM_DIGESTS = {
    "uniform": "9f830b2748dcff6565d629beb31c87cd281cfd5219e365047a0888ff66d2ec4d",
    "boundary-biased": "2deded26ceac26d4eebda506c5577e52a0c33f054ac6006195f85610903c6f7a",
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sample_stream_is_pinned(strategy):
    arrays = sample_block_arrays(0.5, 1, 0, strategy)
    data = b"".join(np.asarray(a, "<c16").tobytes() for a in arrays)
    assert hashlib.sha256(data).hexdigest() == STREAM_DIGESTS[strategy]


def test_block_partition_matches_sequential():
    # a block depends on its index alone, not on the blocks drawn before it
    lam, seed = 0.35, 123
    forward = [sample_block_arrays(lam, seed, b, "boundary-biased") for b in range(3)]
    backward = [sample_block_arrays(lam, seed, b, "boundary-biased") for b in (2, 1, 0)]
    for a, b in zip(forward, backward[::-1]):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("block", [0, 5])
def test_grid_block_is_each_lambdas_block_bit_for_bit(strategy, block):
    # unsorted, with a repeated L and both ends of (0, 1]
    grid = [0.5, 1e-3, 1.0, 0.5, 0.27]
    yielded = list(sample_grid_block(grid, 31, block, strategy))
    assert len(yielded) == len(grid)
    for lam, arrays in zip(grid, yielded):
        alone = sample_block_arrays(lam, 31, block, strategy)
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in alone], lam


def test_grid_block_checks_every_lambda_before_the_first_yield():
    for grid in ([0.5, 0.0], [0.5, 1.5], [2.0, 0.5]):
        with pytest.raises(ValueError):
            next(sample_grid_block(grid, 0, 0))
    with pytest.raises(ValueError, match="unknown strategy"):
        next(sample_grid_block([0.5], 0, 0, "grid"))


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


def test_as_scalar_takes_a_float_by_its_binary_value():
    c1, c2, c3 = (as_scalar(c, EXACT) for c in (0.5 + 0.25j, 0.125j, 1 / 3 + 0j))
    assert c1.re == F(1, 2) and c1.im == F(1, 4)
    assert c2.im == F(1, 8)
    assert c3.re == F(1 / 3) != F(1, 3)  # the binary value, not the nearest rational


def test_is_admissible_wrapper():
    assert is_admissible(0.5, SchwarzJet(1.0 + 0j, 0j, 0j))
    assert not is_admissible(0.5, SchwarzJet(1.0 + 0j, 0.5 + 0j, 0j))
    assert not is_admissible(0.5, SchwarzJet(0.0j, 0.9 + 0j, 0j))
