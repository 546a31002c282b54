import math

import numpy as np
import pytest

from configeo import energy
from configeo.energy import discrete_energy, energy_profile, is_adaptable
from configeo.errors import CoincidentPointsError
from configeo.pointgen import PointSet, gen_lattice, gen_random


def naive_energy(pts, s):
    """Hand oracle: literal double loop over ordered pairs."""
    n = len(pts)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += float(np.linalg.norm(pts[i] - pts[j])) ** (-s)
    return total / (n * n)


def test_two_point_value():
    ps = PointSet(dim=2, points=[[0.0, 0.0], [1.0, 0.0]])
    assert discrete_energy(ps, 1.0) == 0.5


def test_single_point_zero():
    ps = PointSet(dim=3, points=[[0.2, 0.4, 0.6]])
    assert discrete_energy(ps, 1.7) == 0.0


@pytest.mark.parametrize("n,seed", [(2, 0), (17, 1), (64, 2), (200, 3)])
def test_matches_double_loop_oracle(n, seed):
    ps = gen_random(2, n, seed=seed)
    for s in (0.7, 1.5):
        got = discrete_energy(ps, s)
        want = naive_energy(ps.points, s)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("entries", [1, 7 * 300, 10**6])  # 1, 7 and all 300 rows per block
def test_block_size_leaves_values_bit_identical(monkeypatch, entries):
    ps = gen_random(3, 300, seed=5)
    want = [discrete_energy(ps, s) for s in (1.0, 1.9, 2.0)]
    monkeypatch.setattr(energy, "_BLOCK_ENTRIES", entries)
    assert [discrete_energy(ps, s) for s in (1.0, 1.9, 2.0)] == want


def test_lattice_1_3_hand_value():
    # six ordered pairs: distances 0.5, 0.5, 1 each twice
    ps = gen_lattice(1, 3)
    assert discrete_energy(ps, 1.0) == pytest.approx(10.0 / 9.0, rel=1e-15)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.9])
def test_scaling_law(s):
    ps = gen_random(2, 30, seed=4)
    lam = 0.5
    scaled = PointSet(dim=2, points=lam * ps.points)
    assert discrete_energy(scaled, s) == pytest.approx(
        lam ** (-s) * discrete_energy(ps, s), rel=1e-12
    )


def test_rigid_motion_invariance():
    rng = np.random.Generator(np.random.PCG64(5))
    pts = 0.5 + 0.2 * (rng.random((40, 2)) - 0.5)  # stays in bounds under rotation
    ps = PointSet(dim=2, points=pts)
    base = discrete_energy(ps, 1.3)
    for angle in (0.3, 1.1, 2.7):
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        moved = (pts - 0.5) @ rot.T + 0.5
        assert discrete_energy(PointSet(dim=2, points=moved), 1.3) == pytest.approx(
            base, rel=1e-12
        )


def test_permutation_invariance():
    ps = gen_random(3, 50, seed=6)
    rng = np.random.Generator(np.random.PCG64(7))
    perm = rng.permutation(50)
    shuffled = PointSet(dim=3, points=ps.points[perm])
    assert discrete_energy(shuffled, 1.2) == pytest.approx(
        discrete_energy(ps, 1.2), rel=1e-12
    )


def test_profile_unit_distance_s_independent():
    ps = PointSet(dim=2, points=[[0.0, 0.0], [1.0, 0.0]])
    assert energy_profile(ps, [1.0, 2.0]) == [(1.0, 0.5), (2.0, 0.5)]


def test_profile_empty_grid():
    ps = gen_lattice(1, 3)
    assert energy_profile(ps, []) == []


def test_profile_order_preserved():
    ps = gen_lattice(2, 4)
    grid = [2.0, 0.5, 1.0]
    assert [s for s, _ in energy_profile(ps, grid)] == grid


def test_adaptable_lattice_below_dimension():
    # energies for s < d plateau as the lattice refines
    values = [discrete_energy(gen_lattice(2, m), 1.5) for m in (10, 20, 40)]
    assert max(values) / min(values) <= 1.5
    report = is_adaptable(gen_lattice(2, 20), 1.5, C=10.0)
    assert report.verdict and report.n == 400 and report.adaptable_at == 10.0


def test_near_coincident_pair_not_adaptable():
    ps = PointSet(dim=2, points=[[0.0, 0.0], [1e-9, 0.0]])
    report = is_adaptable(ps, 1.9, C=10.0)
    assert not report.verdict
    assert report.value > 1e15  # single pair contributes about 1e16.2 / 4


def test_single_point_adaptable():
    report = is_adaptable(PointSet(dim=2, points=[[0.3, 0.3]]), 1.0, C=10.0)
    assert report.verdict and report.value == 0.0


def test_coincident_points_error():
    ps = PointSet(dim=2, points=[[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(CoincidentPointsError):
        discrete_energy(ps, 1.0)


def test_parameter_validation():
    ps = gen_lattice(1, 2)
    with pytest.raises(ValueError):
        discrete_energy(ps, 0.0)
    with pytest.raises(ValueError):
        is_adaptable(ps, 1.0, C=0.0)


def test_value_positive_for_multiple_points():
    ps = gen_random(2, 12, seed=8)
    assert discrete_energy(ps, 1.0) > 0.0
