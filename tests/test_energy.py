import math

import numpy as np
import pytest

from configeo import configcount, energy
from configeo.configcount import _pair_distance_matrix
from configeo.energy import discrete_energy, energy_profile, is_adaptable
from configeo.errors import CapacityError, CoincidentPointsError
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
    monkeypatch.setattr(configcount, "BLOCK_ENTRIES", entries)
    assert [discrete_energy(ps, s) for s in (1.0, 1.9, 2.0)] == want


@pytest.mark.parametrize("n", [1000, 2000])  # 65 and 32 rows per block; neither divides n or n - 1
def test_each_pair_is_valued_once(monkeypatch, n):
    distances = []
    distance_blocks = energy._distance_blocks

    def spy(pts, upper=False):
        for start, dist, scratch in distance_blocks(pts, upper):
            distances.append(dist.size)
            yield start, dist, scratch

    monkeypatch.setattr(energy, "_distance_blocks", spy)
    rows = configcount.BLOCK_ENTRIES // n
    for d in (2, 3):
        distances.clear()
        discrete_energy(gen_random(d, n, seed=n), 1.0)
        assert 0 < sum(distances) <= n * (n - 1) // 2 + n * rows


def upper_row_energy(dist, s):
    """The module's summation over a whole distance matrix: each upper row
    dist[i, i+1:] powered and summed whole, the row sums summed, doubled."""
    n = len(dist)
    powered = dist**-s
    return 2.0 * float(np.sum([np.sum(powered[i, i + 1:]) for i in range(n - 1)])) / n**2


def broadcast_energy(pts, s):
    """The whole distance matrix from one einsum of the squared differences,
    reduced with the module's summation."""
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, np.inf)
    return upper_row_energy(dist, s)


def oracle_energy(pts, s):
    """The simplex oracle's distance matrix, reduced with the module's
    summation."""
    dist = _pair_distance_matrix(pts)
    np.fill_diagonal(dist, np.inf)
    return upper_row_energy(dist, s)


@pytest.mark.parametrize("d", range(1, 10))  # one rule at every d: the squares added in coordinate order
def test_blocked_distances_equal_the_broadcast_bit_for_bit(d):
    ps = gen_random(d, 400, seed=d)
    grid = [0.5, 1.0, 1.9, 2.0]
    want = [oracle_energy(ps.points, s) for s in grid]
    assert [v for _, v in energy_profile(ps, grid)] == want


@pytest.mark.parametrize("d,n,seed,s", [(3, 300, 6, 1.0), (4, 400, 1, 1.0)])
def test_three_or_more_coordinates_add_the_squares_in_coordinate_order(d, n, seed, s):
    # sets where summing the squares in coordinate order rounds differently
    # from the einsum
    ps = gen_random(d, n, seed=seed)
    diff = ps.points[:, None, :] - ps.points[None, :, :]
    in_order = diff[..., 0] * diff[..., 0]
    for k in range(1, d):
        in_order = in_order + diff[..., k] * diff[..., k]
    dist = np.sqrt(in_order)
    np.fill_diagonal(dist, np.inf)
    assert discrete_energy(ps, s) == upper_row_energy(dist, s)
    assert discrete_energy(ps, s) != broadcast_energy(ps.points, s)


@pytest.mark.parametrize("n,grid", [
    (300, [1.0, 1.9, 2.0]),
    (301, [1.9, 0.5, 1.9, 1.0, 0.5]),  # repeated s; 301 rows is not a multiple of 217
    (1000, [1.0, 1.9]),  # 65 rows per block, the last block holds 25
    (1, [1.0, 1.0, 2.5]),
])
def test_profile_equals_pointwise_energies_bit_for_bit(n, grid):
    ps = gen_random(2, n, seed=n)
    assert [v for _, v in energy_profile(ps, grid)] == [discrete_energy(ps, s) for s in grid]
    assert [s for s, _ in energy_profile(ps, grid)] == grid


def test_profile_coincident_points_raise_before_any_sum(monkeypatch):
    # the coincident pair sits in the first block, so no s may be summed
    ps = PointSet(dim=2, points=[[0.5, 0.5], [0.1, 0.2], [0.5, 0.5], [0.9, 0.3]])
    apart = PointSet(dim=2, points=[[0.5, 0.5], [0.1, 0.2], [0.4, 0.5], [0.9, 0.3]])
    summed = []
    real_add = np.add

    class SpyAdd:
        """np.add whose reductions, row sums and np.sum alike, are recorded."""

        def __getattr__(self, name):
            return getattr(real_add, name)

        def reduce(self, *args, **kwargs):
            summed.append(1)
            return real_add.reduce(*args, **kwargs)

    monkeypatch.setattr(np, "add", SpyAdd())
    with pytest.raises(CoincidentPointsError):
        energy_profile(ps, [1.0, 1.9])
    assert summed == []
    energy_profile(apart, [1.0])
    assert summed  # the spy sees the sums of a set without coincident points


def test_pair_budget_refuses_before_the_first_block(monkeypatch):
    ps = gen_random(2, 50, seed=3)
    monkeypatch.setattr(energy, "ENERGY_PAIR_BUDGET", 50 * 49 - 1)
    monkeypatch.setattr(np, "subtract", lambda *a, **k: pytest.fail("distance pass ran"))
    with pytest.raises(CapacityError):
        discrete_energy(ps, 1.0)
    with pytest.raises(CapacityError):
        energy_profile(ps, [1.0, 1.9])
    monkeypatch.undo()
    monkeypatch.setattr(energy, "ENERGY_PAIR_BUDGET", 50 * 49)  # exactly at the budget
    assert discrete_energy(ps, 1.0) > 0.0


def test_pair_budget_leaves_room_for_the_largest_benchmark_set():
    assert 8000 * 7999 * 10 <= energy.ENERGY_PAIR_BUDGET


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


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_non_finite_exponents_are_refused(s):
    ps = gen_lattice(1, 3)
    message = f"s must be positive and finite, got s={s:g}$"
    with pytest.raises(ValueError, match=message):
        discrete_energy(ps, s)
    with pytest.raises(ValueError, match=message):
        energy_profile(ps, [1.0, s])
    with pytest.raises(ValueError, match=message):
        is_adaptable(ps, s)


@pytest.mark.parametrize("C", [0.0, -5.0, math.nan, math.inf])
def test_bad_adaptability_levels_are_refused(C):
    with pytest.raises(ValueError, match=f"C must be positive and finite, got C={C:g}$"):
        is_adaptable(gen_lattice(1, 3), 1.0, C=C)


def test_value_positive_for_multiple_points():
    ps = gen_random(2, 12, seed=8)
    assert discrete_energy(ps, 1.0) > 0.0
