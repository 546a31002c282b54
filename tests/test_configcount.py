import gc
import inspect
import itertools
import math
import operator
import time
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from configeo import configcount
from configeo.configcount import (
    ConfigQuery,
    PhiFunction,
    box_dim,
    count_angle,
    count_area2,
    count_phi,
    count_simplex,
    count_simplex_brute,
    count_volume,
    distinct_classes,
    family_row,
    pair_order,
    run_query,
    _distance_blocks,
    _pair_distance_matrix,
    _simplex_values,
)
from configeo.errors import CapacityError
from configeo.pointgen import PointSet, gen_coplanar, gen_homogeneous, gen_lattice, gen_random

SQUARE = PointSet(dim=2, points=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
EQUILATERAL = PointSet(dim=2, points=[[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


def micro_simplex_count(pts, k, t, delta):
    """Literal nested-loop oracle pinning the exhaustive counter."""
    tmat = {}
    for val, (i, j) in zip(np.atleast_1d(t), pair_order(k)):
        tmat[(i, j)] = val
    n = len(pts)
    count = 0
    for tup in itertools.permutations(range(n), k + 1):
        ok = True
        for (i, j), val in tmat.items():
            dist = float(np.sqrt(((pts[tup[i]] - pts[tup[j]]) ** 2).sum()))
            if not (val - delta <= dist <= val + delta):
                ok = False
                break
        if ok:
            count += 1
    return count


def brute(family, ps, t, delta):
    """The oracle count of a scalar family at the k its row fixes in ps.dim."""
    row = family_row(family)
    return row.brute(ps.points, row.fixed_k(ps.dim), (t,), delta)


def realized_target(ps, k, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(ps.n, size=k + 1, replace=False)
    return tuple(
        float(np.sqrt(((ps.points[idx[i]] - ps.points[idx[j]]) ** 2).sum()))
        for i, j in pair_order(k)
    )


# ---------------------------------------------------------------------------
# simplex family


def test_square_unit_edges():
    for count in (count_simplex, count_simplex_brute):
        assert count(SQUARE, 1, [1.0], 0.01).count == 8


def test_equilateral_triples():
    for count in (count_simplex, count_simplex_brute):
        assert count(EQUILATERAL, 2, [1.0, 1.0, 1.0], 1e-6).count == 6


def test_target_beyond_diameter_is_zero():
    ps = gen_random(2, 30, seed=0)
    assert count_simplex(ps, 1, [2.0], 0.49).count == 0


def test_small_point_sets_count_zero():
    two = PointSet(dim=2, points=[[0.0, 0.0], [1.0, 0.0]])
    assert count_simplex(two, 2, [1.0, 1.0, 1.0], 0.1).count == 0
    assert count_simplex_brute(two, 2, [1.0, 1.0, 1.0], 0.1).count == 0
    # n < k+1 coincident points, with a band that reaches distance 0 (delta >= t)
    for k in (1, 2, 3):
        for n in range(1, k + 1):
            ps = PointSet(dim=3, points=np.full((n, 3), 0.5))
            t = [1.0] * len(pair_order(k))
            assert count_simplex(ps, k, t, 2.0).count == 0
            assert count_simplex_brute(ps, k, t, 2.0).count == 0


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_micro_oracle_vs_brute_vs_pruned(d, k):
    for seed in (1, 2):
        ps = gen_random(d, 11, seed=seed)
        t = realized_target(ps, k, seed=seed + 10)
        for delta in (0.01, 0.05):
            want = micro_simplex_count(ps.points, k, t, delta)
            assert count_simplex_brute(ps, k, t, delta).count == want
            assert count_simplex(ps, k, t, delta).count == want


@pytest.mark.parametrize("d,k,n,seed", [(2, 1, 60, 3), (2, 2, 45, 4), (3, 2, 40, 5), (3, 3, 30, 6)])
def test_oracle_equivalence_medium(d, k, n, seed):
    ps = gen_random(d, n, seed=seed)
    t = realized_target(ps, k, seed=seed + 100)
    for delta in (0.01, 0.05):
        assert (
            count_simplex(ps, k, t, delta).count
            == count_simplex_brute(ps, k, t, delta).count
        )


def test_delta_monotonicity():
    ps = gen_random(2, 40, seed=7)
    t = realized_target(ps, 2, seed=8)
    counts = [count_simplex(ps, 2, t, d).count for d in (0.005, 0.01, 0.02, 0.05, 0.1)]
    assert counts == sorted(counts)


def test_rigid_motion_invariance():
    rng = np.random.Generator(np.random.PCG64(9))
    pts = 0.5 + 0.2 * (rng.random((35, 2)) - 0.5)
    ps = PointSet(dim=2, points=pts)
    t = realized_target(ps, 2, seed=10)
    delta = 0.037
    _assert_tie_free(ps.points, t, delta)
    base = count_simplex(ps, 2, t, delta).count
    for angle, shift in ((0.4, (0.05, -0.03)), (2.2, (-0.02, 0.04))):
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        moved = (pts - 0.5) @ rot.T + 0.5 + np.asarray(shift)
        assert count_simplex(PointSet(dim=2, points=moved), 2, t, delta).count == base


def _assert_tie_free(pts, t, delta, margin=1e-9):
    dists = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)).ravel()
    for val in np.atleast_1d(t):
        for edge in (val - delta, val + delta):
            assert np.abs(dists - edge).min() > margin


def test_scaling_covariance():
    ps = gen_random(2, 30, seed=11)
    t = realized_target(ps, 1, seed=12)
    delta = 0.031
    lam = 0.5
    scaled = PointSet(dim=2, points=lam * ps.points)
    got = count_simplex(scaled, 1, tuple(lam * x for x in t), lam * delta).count
    assert got == count_simplex(ps, 1, t, delta).count


def test_relabeling_covariance():
    ps = gen_random(2, 25, seed=13)
    t = realized_target(ps, 2, seed=14)
    delta = 0.05
    base = count_simplex(ps, 2, t, delta).count
    # vertex relabeling sigma acts on the pair slots; the count is invariant
    pairs = pair_order(2)
    idx = {p: a for a, p in enumerate(pairs)}
    for sigma in itertools.permutations(range(3)):
        t_perm = tuple(t[idx[tuple(sorted((sigma[i], sigma[j])))]] for i, j in pairs)
        assert count_simplex(ps, 2, t_perm, delta).count == base


def test_upper_bound_and_baseline():
    ps = gen_random(2, 20, seed=15)
    t = realized_target(ps, 2, seed=16)
    report = count_simplex(ps, 2, t, 0.02)
    assert report.count <= 20 * 19 * 18
    # a realized pair distance is counted at least twice (both orientations)
    pair_t = realized_target(ps, 1, seed=17)
    assert count_simplex(ps, 1, pair_t, 1e-12).count >= 2


# differential checks of the band-graph counter against the oracles


def _assert_simplex_matches_brute(ps, k, t, delta):
    assert count_simplex(ps, k, t, delta).count == count_simplex_brute(ps, k, t, delta).count


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_simplex_lattice_ties_match_brute(data):
    d = data.draw(st.sampled_from([2, 3]))
    ps = gen_lattice(d, data.draw(st.integers(2, 4 if d == 2 else 3)))
    k = data.draw(st.integers(1, d))
    dists = np.unique(_pair_distance_matrix(ps.points))[1:]
    lo, hi = sorted(data.draw(st.lists(st.sampled_from(dists), min_size=2, max_size=2, unique=True)))
    # |hi - lo| == delta exactly: every pair at distance hi sits on the band edge of target lo
    t = [lo] + [data.draw(st.sampled_from(dists)) for _ in range(len(pair_order(k)) - 1)]
    _assert_simplex_matches_brute(ps, k, t, hi - lo)


COARSE = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_simplex_coincident_points_and_wide_bands_match_brute(data):
    d = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, d))
    distinct = data.draw(st.lists(st.lists(COARSE, min_size=d, max_size=d), min_size=1, max_size=6))
    picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=10))
    ps = PointSet(dim=d, points=[distinct[i] for i in picks])  # repeats are coincident points
    t = [data.draw(st.sampled_from([0.25, 0.5, 0.75])) for _ in pair_order(k)]
    # delta >= t puts coincident pairs (distance 0) inside the band
    delta = data.draw(st.sampled_from([0.01, 0.25, 0.5, 1.0]))
    _assert_simplex_matches_brute(ps, k, t, delta)


def test_simplex_k4_in_4d_matches_micro_oracle():
    ps = gen_random(4, 8, seed=31)
    t = realized_target(ps, 4, seed=32)
    for delta in (0.1, 0.3):
        want = micro_simplex_count(ps.points, 4, t, delta)
        assert want > 0
        assert count_simplex(ps, 4, t, delta).count == want


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (3, 3)])
def test_simplex_small_row_blocks_match_brute(monkeypatch, d, k):
    monkeypatch.setattr(configcount, "BLOCK_ENTRIES", 64)
    ps = gen_random(d, 40, seed=33)
    _assert_simplex_matches_brute(ps, k, realized_target(ps, k, seed=34), 0.05)


PACKED_T = (0.2, 0.5, 0.6, 0.4, 0.7, 0.45)  # t_01 < delta: coincidence is in the (0, 1) band


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2, 3) for n in (k, k + 1, 63, 64, 65, 129)])
def test_simplex_packed_rows_at_word_edges_match_brute(monkeypatch, k, n):
    # 64-bit blocks: one unpacked row per block and one tuple per chunk; n
    # around 64 puts padding bits past n in the last word or none
    monkeypatch.setattr(configcount, "BLOCK_ENTRIES", 64)
    ps = gen_random(3, n, seed=40 + n)
    _assert_simplex_matches_brute(ps, k, PACKED_T[:len(pair_order(k))], 0.3)


@pytest.mark.parametrize("d", [*range(1, 10), 16])
def test_distance_rows_bit_identical_to_oracle(monkeypatch, d):
    monkeypatch.setattr(configcount, "BLOCK_ENTRIES", 7 * 50)  # blocks of 7 rows
    pts = gen_random(d, 50, seed=35 + d).points
    oracle = _pair_distance_matrix(pts)
    # each block is a view of a reused buffer, so it is copied before the next
    full = [(start, dist.copy()) for start, dist, _ in _distance_blocks(pts)]
    assert [start for start, _ in full] == list(range(0, 50, 7))
    assert np.vstack([dist for _, dist in full]).tobytes() == oracle.tobytes()
    starts = []
    for start, dist, scratch in _distance_blocks(pts, upper=True):  # columns start+1.. only
        starts.append(start)
        assert dist.flags.c_contiguous and scratch.shape == dist.shape
        assert dist.tobytes() == oracle[start:start + 7, start + 1:].tobytes()
    assert starts == list(range(0, 49, 7))


@pytest.mark.parametrize("upper", [False, True])
def test_distance_blocks_leave_the_callers_ufunc_buffer(upper):
    # the blocks run under a small buffer of their own, but numpy keeps the
    # buffer size in the errstate context that a generator shares with its
    # consumer: each block is yielded, and the stream closed, at the caller's
    pts = gen_random(2, 1000, seed=38).points  # 65 rows per block, 16 blocks
    default = np.getbufsize()

    def seen(blocks):
        return [np.getbufsize() for _ in blocks]

    assert set(seen(_distance_blocks(pts, upper=upper))) == {default}
    with np.errstate():
        np.setbufsize(4096)
        sizes = seen(_distance_blocks(pts, upper=upper))
        assert len(sizes) > 10 and set(sizes) == {4096}
        blocks = _distance_blocks(pts, upper=upper)
        assert [np.getbufsize() for _ in zip(range(3), blocks)] == [4096] * 3
        blocks.close()
        assert np.getbufsize() == 4096
    assert np.getbufsize() == default


def _coordinate_order_distances(diff: np.ndarray) -> np.ndarray:
    """sqrt of the squared differences added one coordinate after the other."""
    total = diff[..., 0] * diff[..., 0]
    for c in range(1, diff.shape[-1]):
        total = total + diff[..., c] * diff[..., c]
    return np.sqrt(total)


@pytest.mark.parametrize("d", [8, 9])
def test_oracle_and_map_add_the_squares_in_coordinate_order(d):
    # from 8 coordinates on a numpy row sum adds in another order, so this pins the rule
    pts = gen_random(d, 60, seed=d).points
    want = _coordinate_order_distances(pts[None, :, :] - pts[:, None, :])
    assert _pair_distance_matrix(pts).tobytes() == want.tobytes()
    tuples = pts.reshape(20, 3, d)
    i, j = np.array(pair_order(2)).T
    assert _simplex_values(tuples).tobytes() == _coordinate_order_distances(
        tuples[:, j] - tuples[:, i]).tobytes()


def test_simplex_band_budget_refusal(monkeypatch):
    monkeypatch.setattr(configcount, "SIMPLEX_BAND_NNZ_BUDGET", 100)
    monkeypatch.setattr(configcount, "BLOCK_ENTRIES", 1000)
    with pytest.raises(CapacityError):
        count_simplex(gen_random(2, 300, seed=36), 2, [0.5, 0.5, 0.5], 0.05)


def _spy_distance_blocks(monkeypatch) -> list:
    """Record the start of every block that `_distance_blocks` yields."""
    calls = []
    distance_blocks = configcount._distance_blocks

    def spy(*args, **kwargs):
        for block in distance_blocks(*args, **kwargs):
            calls.append(block[0])
            yield block

    monkeypatch.setattr(configcount, "_distance_blocks", spy)
    return calls


@pytest.mark.parametrize("budget,refused", [(128, False), (127, True)])
def test_simplex_packed_rows_refused_before_any_distance(monkeypatch, budget, refused):
    # one target over 64 points: 64 rows of one 8-byte word, 512 bytes; the
    # band holds 44 nonzeros, under either budget
    monkeypatch.setattr(configcount, "SIMPLEX_BAND_NNZ_BUDGET", budget)
    calls = _spy_distance_blocks(monkeypatch)
    ps = gen_random(2, 64, seed=37)
    if refused:
        with pytest.raises(CapacityError, match="512 bytes"):
            count_simplex(ps, 1, [0.1], 0.01)
        assert calls == []
    else:
        assert count_simplex(ps, 1, [0.1], 0.01).count == 44
        assert count_simplex_brute(ps, 1, [0.1], 0.01).count == 44


def test_simplex_band_nonzeros_refused_during_the_build(monkeypatch):
    # the rows fit (300 x 5 words, 12,000 bytes) but the band holds 12,558
    # nonzeros, so the build stops after a few of its 100 blocks
    monkeypatch.setattr(configcount, "SIMPLEX_BAND_NNZ_BUDGET", 3000)
    monkeypatch.setattr(configcount, "BLOCK_ENTRIES", 1000)
    calls = _spy_distance_blocks(monkeypatch)
    with pytest.raises(CapacityError, match="nonzeros"):
        count_simplex(gen_random(2, 300, seed=36), 1, [0.5], 0.05)
    assert 0 < len(calls) < 100


def test_simplex_band_rows_freed_when_the_count_returns(monkeypatch):
    # no reference cycle holds the packed rows until a garbage collection
    built = []
    band_rows = configcount._band_rows

    def recorded(*args):
        rows = band_rows(*args)
        built.append(weakref.ref(rows))
        return rows

    monkeypatch.setattr(configcount, "_band_rows", recorded)
    gc.disable()
    try:
        assert count_simplex(gen_random(2, 100, seed=38), 2, [0.3, 0.4, 0.5], 0.05).count > 0
        assert len(built) == 1 and built[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("n,t,delta,want", [(2000, 0.5, 0.01, 111_144), (300, 0.01, 0.02, 264)])
def test_simplex_pair_oracle_keeps_one_distance_row(n, t, delta, want):
    # k = 1 counts row by row, with no n x n matrix (96 MB of distances and
    # masks at n = 2000); at t <= delta the n diagonal entries |0 - t| = t are
    # in the band and are taken back out
    ps = gen_random(2, n, seed=0)
    tracemalloc.start()
    try:
        got = count_simplex_brute(ps, 1, [t], delta).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == count_simplex(ps, 1, [t], delta).count == want
    assert peak < 10**6


def test_brute_budget_refusal():
    ps = gen_random(2, 1001, seed=18)
    with pytest.raises(CapacityError):
        count_simplex_brute(ps, 2, [0.5, 0.5, 0.5], 0.01)


def test_simplex_validation():
    with pytest.raises(ValueError):
        count_simplex(SQUARE, 2, [1.0], 0.01)  # wrong t length
    with pytest.raises(ValueError):
        count_simplex(SQUARE, 1, [0.0], 0.01)  # nonpositive target
    with pytest.raises(ValueError):
        count_simplex(SQUARE, 1, [1.0], 0.0)  # delta <= 0
    for count in (count_simplex, count_simplex_brute):
        with pytest.raises(ValueError, match="k <= d"):
            count(SQUARE, 3, [1.0] * 6, 0.1)  # k > d


# ---------------------------------------------------------------------------
# volume family


def test_volume_right_triangle():
    tri = PointSet(dim=2, points=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert count_volume(tri, 1.0, 0.01).count == brute("volume", tri, 1.0, 0.01) == 6


def test_volume_collinear_zero_target():
    line = PointSet(dim=2, points=[[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    assert count_volume(line, 0.0, 0.0).count == 6


def test_volume_coplanar_zero():
    ps = gen_coplanar(3, 30, seed=19)
    assert count_volume(ps, 0.2, 0.05).count == 0


def test_volume_unit_tetrahedron():
    tet = PointSet(dim=3, points=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert count_volume(tet, 1.0, 1e-9).count == brute("volume", tet, 1.0, 1e-9) == 24


@pytest.mark.parametrize("d,n", [(2, 12), (3, 9), (4, 8), (5, 8)])
def test_volume_fast_equals_brute(d, n):
    for seed in (21, 22):
        ps = gen_random(d, n, seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        idx = rng.choice(n, size=d + 1, replace=False)
        rows = ps.points[idx[:-1]] - ps.points[idx[-1]]
        t = abs(float(np.linalg.det(rows)))
        for delta in (0.0005, 0.01):
            assert count_volume(ps, t, delta).count == brute("volume", ps, t, delta)


def test_volume_negative_target_error():
    with pytest.raises(ValueError):
        count_volume(SQUARE, -0.1, 0.01)


def test_volume_d4_generic_path():
    rng = np.random.Generator(np.random.PCG64(23))
    ps = PointSet(dim=4, points=rng.random((7, 4)))
    idx = rng.choice(7, size=5, replace=False)
    rows = ps.points[idx[:-1]] - ps.points[idx[-1]]
    t = abs(float(np.linalg.det(rows)))
    assert count_volume(ps, t, 1e-4).count == brute("volume", ps, t, 1e-4)
    assert count_volume(ps, t, 1e-4).count >= 24  # the realizing tuple's relabelings


def test_volume_d1_counts_segment_lengths():
    # at d = 1 a row has no legs, its normal is the empty minor 1 and its value |x_l - x_b|
    ps = gen_random(1, 6, seed=0)
    assert count_volume(ps, 0.3, 0.1).count == brute("volume", ps, 0.3, 0.1) == 8


@pytest.mark.parametrize("t,want", [(0.0, 8160), (0.125, 6480), (0.25, 13440)])
def test_volume_d4_lattice_ties_are_exact(t, want):
    # dyadic points: every Laplace product and sum is exact, so at delta = 0 the fast
    # counter and the oracle both count the exact ties, each set in all 120 orderings
    pts = gen_lattice(4, 3).points[[2, 10, 19, 24, 33, 36, 55, 63, 70, 73, 80]]
    exact = [[Fraction(float(x)) for x in p] for p in pts]
    exact_count = 120 * sum(abs(_laplace([[a - b for a, b in zip(exact[i], exact[s[-1]])] for i in s[:-1]],
                                         tuple(range(4)))) == t for s in itertools.combinations(range(len(pts)), 5))
    ps = PointSet(dim=4, points=pts)
    assert exact_count == want
    assert count_volume(ps, t, 0.0).count == brute("volume", ps, t, 0.0) == want


# ---------------------------------------------------------------------------
# area2 family


def test_area2_matches_volume_in_plane():
    ps = gen_random(2, 14, seed=24)
    t, delta = 0.11, 0.03
    assert count_area2(ps, t, delta).count == count_volume(ps, t, delta).count


def test_area2_unit_triangle_in_3d():
    tri = PointSet(dim=3, points=[[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert count_area2(tri, 1.0, 1e-9).count == 6


@pytest.mark.parametrize("d", [2, 3])
def test_area2_fast_equals_brute(d):
    ps = gen_random(d, 11, seed=25)
    for t, delta in ((0.1, 0.02), (0.25, 0.06)):
        assert count_area2(ps, t, delta).count == brute("area2", ps, t, delta)


# ---------------------------------------------------------------------------
# angle family


def test_square_right_angles():
    assert count_angle(SQUARE, math.pi / 2.0, 0.01).count == brute("angle", SQUARE, math.pi / 2.0, 0.01) == 8


def test_collinear_straight_angles():
    line = PointSet(dim=2, points=[[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
    assert count_angle(line, math.pi, 1e-9).count == 2


def test_angle_domain_error():
    with pytest.raises(ValueError):
        count_angle(SQUARE, 1.7 * math.pi, 0.01)
    with pytest.raises(ValueError):
        count_angle(SQUARE, -0.1, 0.01)


def test_angle_degenerate_apex_skipped():
    ps = PointSet(dim=2, points=[[0.5, 0.5], [0.5, 0.5], [0.9, 0.5], [0.5, 0.9]])
    # apex legs to the duplicate point are skipped, never an error
    report = count_angle(ps, math.pi / 2.0, 0.01)
    assert report.count == brute("angle", ps, math.pi / 2.0, 0.01)
    # so is a leg shorter than DEGENERATE_APEX_TOL that is not zero
    near = PointSet(dim=2, points=[[0.5, 0.5], [0.5 + 1e-13, 0.5], [0.9, 0.5], [0.5, 0.9]])
    for theta0 in (0.0, math.pi / 4.0, math.pi / 2.0):
        assert count_angle(near, theta0, 0.01).count == brute("angle", near, theta0, 0.01)


@pytest.mark.parametrize("d", [2, 3])
def test_angle_fast_equals_brute(d):
    for seed in (26, 27):
        ps = gen_random(d, 14, seed=seed)
        for theta0 in (0.3, math.pi / 2.0, 2.9):
            for delta in (0.01, 0.1):
                assert count_angle(ps, theta0, delta).count == brute("angle", ps, theta0, delta)


def test_angle_fewer_than_three_points_count_zero():
    for points in ([[0, 0]], [[0, 0], [1, 1]]):
        ps = PointSet(dim=2, points=points)
        assert count_angle(ps, 1.0, 0.01).count == brute("angle", ps, 1.0, 0.01) == 0


# differential checks of the triple counters (volume d=2, area2, angle) and
# of the d = 3 volume counter against their oracles

TRIPLE_FAMILIES = ["angle", "area2", "volume"]
# (shift, scale) of a lattice: a moved lattice's legs x - y round, unlike the grid's
LATTICE_MOVES = [(0.0, 1.0), (1e3, 1.0), (0.0, 1e-3)]


def _laplace(rows, cols):
    """The minor of rows at cols, expanded along its first row, left to right;
    exact for Fraction rows."""
    if not rows:
        return 1
    terms = [rows[0][c] * _laplace(rows[1:], cols[:p] + cols[p + 1:]) for p, c in enumerate(cols)]
    acc = terms[0]
    for p, term in enumerate(terms[1:], 1):
        acc = acc - term if p % 2 else acc + term
    return acc


def _oracle_values(family, pts):
    """Every value the family's oracle evaluates on pts, with the number of
    ordered tuples that take it, by one-tuple formulas written here, so bands
    built from them have exact ties |value - t| = delta."""
    values = Counter()
    d = pts.shape[1]
    if family == "volume" and d != 2:
        for *legs, b in itertools.permutations(range(len(pts)), d + 1):
            u = [pts[a] - pts[b] for a in legs]
            if d == 3:
                c0 = u[1][1] * u[2][2] - u[1][2] * u[2][1]
                c1 = u[1][2] * u[2][0] - u[1][0] * u[2][2]
                c2 = u[1][0] * u[2][1] - u[1][1] * u[2][0]
                values[abs(u[0][0] * c0 + u[0][1] * c1 + u[0][2] * c2)] += 1
            else:
                values[abs(float(_laplace(u, tuple(range(d)))))] += 1
        return values
    for i, j, b in itertools.permutations(range(len(pts)), 3):
        u, v = pts[i] - pts[b], pts[j] - pts[b]
        if family == "volume":
            values[abs(u[0] * v[1] - u[1] * v[0])] += 1
        elif family == "area2":
            g = float(np.einsum("d,d->", u, v))
            values[float(np.sqrt(np.maximum(float((u * u).sum()) * float((v * v).sum()) - g * g, 0.0)))] += 1
        else:
            nu, nv = np.sqrt((u * u).sum()), np.sqrt((v * v).sum())
            if nu >= configcount.DEGENERATE_APEX_TOL and nv >= configcount.DEGENERATE_APEX_TOL:
                values[float(np.arccos(np.clip(np.einsum("d,d->", u, v) / (nu * nv), -1.0, 1.0)))] += 1
    return values


def _k(family, pts):
    """The k of a family's kernels on pts: d for volume, else 2."""
    return pts.shape[1] if family == "volume" else 2


def _assert_matches_brute(data, family, pts):
    """Draw t and t + delta among the realized values (delta = 0 when both
    draws coincide) and compare the family's fast kernel with its oracle.
    The kernels take raw arrays, so a moved lattice may leave [0, 1]^d."""
    lo, hi = sorted(data.draw(st.lists(st.sampled_from(sorted(_oracle_values(family, pts)) or [0.0, 0.5]),
                                       min_size=2, max_size=2)))
    delta = hi - lo
    if delta == 0.0 and family == "angle":  # angle queries need delta > 0
        delta = 0.25
    row = configcount.FAMILIES[family]
    k = _k(family, pts)
    assert row.fast(pts, k, (lo,), delta) == row.brute(pts, k, (lo,), delta)


def _triple_dim(data, family):
    return 2 if family == "volume" else data.draw(st.sampled_from([2, 3]))


def _moved(data, points):
    shift, scale = data.draw(st.sampled_from(LATTICE_MOVES))
    return points * scale + shift


@pytest.mark.parametrize("family", TRIPLE_FAMILIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_triple_lattice_ties_match_brute(family, data):
    d = _triple_dim(data, family)
    m = data.draw(st.integers(3, 4)) if d == 2 else 2  # 16 or 27 points cost seconds at d = 3
    _assert_matches_brute(data, family, _moved(data, gen_lattice(d, m).points))


@pytest.mark.parametrize("family", TRIPLE_FAMILIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_triple_degenerate_sets_match_brute(family, data):
    d = _triple_dim(data, family)
    shape = data.draw(st.sampled_from(["coincident", "diagonal", "coplanar"]))
    n = data.draw(st.integers(1, 9))  # n < 3 leaves no triple
    if shape == "coplanar":  # on the hyperplane x_d = 1/2: collinear for d = 2
        ps = gen_coplanar(d, n, seed=data.draw(st.integers(0, 99)))
    else:
        distinct = data.draw(st.lists(st.lists(COARSE, min_size=d, max_size=d), min_size=1, max_size=4))
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
        points = [distinct[i] for i in picks]  # repeats are coincident points
        if shape == "diagonal":  # collinear, with coincident points
            points = [[p[0]] * d for p in points]
        ps = PointSet(dim=d, points=points)
    _assert_matches_brute(data, family, ps.points)


def _assert_volume3_matches_brute(ps, t, delta):
    assert count_volume(ps, t, delta).count == brute("volume", ps, t, delta)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_volume_d3_lattice_ties_match_brute(data):
    # determinants on the grid {0, 1/3, 2/3, 1}^3 are multiples of 1/27 and t, t + delta
    # are values the oracle rounds to, so many tuples sit on a band edge
    lattice = gen_lattice(3, 4).points
    idx = data.draw(st.lists(st.integers(0, len(lattice) - 1), min_size=4, max_size=8, unique=True))
    _assert_matches_brute(data, "volume", _moved(data, lattice[idx]))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_volume_d3_degenerate_sets_match_brute(data):
    n = data.draw(st.integers(1, 8))  # n < 4 leaves no tuple
    if data.draw(st.booleans()):  # coplanar: every determinant is 0
        ps = gen_coplanar(3, n, seed=data.draw(st.integers(0, 99)))
    else:
        distinct = data.draw(st.lists(st.lists(COARSE, min_size=3, max_size=3), min_size=1, max_size=5))
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
        ps = PointSet(dim=3, points=[distinct[i] for i in picks])  # repeats are coincident points
    t = data.draw(st.sampled_from([0.0, 0.0625, 0.125, 0.25]))
    delta = data.draw(st.sampled_from([0.0, 0.0625, 0.125]))
    _assert_volume3_matches_brute(ps, t, delta)


@pytest.mark.parametrize("points,t,want", [
    # one point set whose orderings round to two values; delta = 0 splits them
    (gen_lattice(3, 4).points[[17, 32, 51, 39]], 4 / 27, 22),
    (gen_lattice(3, 4).points[[17, 32, 51, 39]], 0.14814814814814817, 2),
    (gen_lattice(2, 4).points[[0, 1, 7]], 1 / 9, 4),
    (gen_lattice(2, 4).points[[0, 1, 7]], 0.11111111111111108, 2),
])
def test_volume_counts_each_ordering_of_a_split_set(points, t, want):
    ps = PointSet(dim=points.shape[1], points=points)
    for count in (count_volume(ps, t, 0.0).count, brute("volume", ps, t, 0.0)):
        assert count == want and type(count) is int  # reports serialize Python ints


def _spy_rechecks(monkeypatch, family="volume"):
    """Record the number of rows (point sets, or apex and leg pair) of each
    call of the recheck that values by the family's map."""
    rechecked = []
    recheck = configcount._recheck

    def spy(pts, config_map, sets, orders, t, delta):
        if config_map is configcount.FAMILIES[family].config_map:
            rechecked.append(len(sets))
        return recheck(pts, config_map, sets, orders, t, delta)

    monkeypatch.setattr(configcount, "_recheck", spy)
    return rechecked


def _spy_orders(monkeypatch) -> list:
    """Record the (arity, fixed) of each call of the ordering table."""
    calls = []
    orders = configcount._orders

    def spy(arity, fixed=0):
        calls.append((arity, fixed))
        return orders(arity, fixed)

    monkeypatch.setattr(configcount, "_orders", spy)
    return calls


@pytest.mark.parametrize("family,d,t,delta", [("volume", 3, 0.01, 0.005), ("area2", 3, 0.05, 0.02),
                                               ("angle", 3, 1.0, 0.1)])
def test_no_ordering_table_without_a_recheck(monkeypatch, family, d, t, delta):
    # no set of a generic random set lies within the rounding margin of a band edge
    pts, row = gen_random(d, 12, seed=5).points, configcount.FAMILIES[family]
    calls, rechecked = _spy_orders(monkeypatch), _spy_rechecks(monkeypatch, family)
    count = row.fast(pts, _k(family, pts), (t,), delta)
    assert calls == rechecked == [] and count > 0
    assert row.brute(pts, _k(family, pts), (t,), delta) == count
    assert calls == [(_k(family, pts) + 1, 0)]  # the oracle's


@pytest.mark.parametrize("family,pts,t,delta,fixed", [
    ("volume", gen_coplanar(2, 9, seed=3).points, 0.0, 0.0, 0),
    ("volume", gen_coplanar(3, 7, seed=3).points, 0.0, 0.0, 0),
    ("angle", gen_lattice(2, 4).points, math.pi / 2, 1e-15, 1),
])
def test_the_ordering_table_is_built_once_per_call(monkeypatch, family, pts, t, delta, fixed):
    calls, rechecked = _spy_orders(monkeypatch), _spy_rechecks(monkeypatch, family)
    kernel, k = configcount.FAMILIES[family].fast, _k(family, pts)
    counts = [kernel(pts, k, (t,), delta) for _ in range(2)]
    assert counts[0] == counts[1] > 0 and len(rechecked) > 2
    assert calls == [(k + 1, fixed)] * 2


def test_volume_count_at_d8_off_every_band_edge_stays_small():
    # the (d+1)! = 362,880 orderings of a set are a table of 26 MB at d = 8
    pts = gen_random(8, 10, seed=1).points
    tracemalloc.start()
    try:
        count = configcount.FAMILIES["volume"].fast(pts, 8, (1e-3,), 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == math.factorial(9) and peak < 1e6


@pytest.mark.parametrize("d,n", [(2, 9), (3, 7), (4, 7)])
def test_volume_zero_band_on_a_hyperplane_rechecks_every_set(monkeypatch, d, n):
    # every |det| is exactly 0 and t = delta = 0, so every set is within the margin
    rechecked = _spy_rechecks(monkeypatch)
    assert count_volume(gen_coplanar(d, n, seed=3), 0.0, 0.0).count == math.perm(n, d + 1)
    assert sum(rechecked) == math.comb(n, d + 1)


@pytest.mark.parametrize("points,t,want", [
    # one triple whose orderings round to two (three) values; delta = 0 splits them
    (gen_lattice(2, 4).points[[0, 1, 12]], 1 / 3, 4),
    (gen_lattice(2, 4).points[[0, 1, 12]], 0.3333333333333334, 2),
    (gen_lattice(3, 4).points[[0, 1, 7]], 1 / 9, 2),
])
def test_area2_counts_each_ordering_of_a_split_set(points, t, want):
    ps = PointSet(dim=points.shape[1], points=points)
    for count in (count_area2(ps, t, 0.0).count, brute("area2", ps, t, 0.0)):
        assert count == want and type(count) is int


@pytest.mark.parametrize("d,n", [(2, 9), (3, 8)])
def test_area2_zero_band_on_a_line_rechecks_every_set(monkeypatch, d, n):
    # dyadic collinear points: every Gram determinant is exactly 0 and t = delta = 0
    rechecked = _spy_rechecks(monkeypatch, "area2")
    line = np.arange(n)[:, None] / 16 * [1.0, 0.5, 0.25][:d] + 0.125
    assert count_area2(PointSet(dim=d, points=line), 0.0, 0.0).count == math.perm(n, 3)
    assert sum(rechecked) == math.comb(n, 3)


@pytest.mark.parametrize("d,m", [(2, 4), (3, 3)])
@pytest.mark.parametrize("delta", [1e-15, math.pi / 4])
def test_angle_right_angles_on_a_lattice_are_rechecked(monkeypatch, d, m, delta):
    # at delta = 1e-15 the cosine margin spans the band, and the right angles lie in
    # it; at pi/4 the lattice's 45 and 135 degree angles sit on the band's edges
    pts = gen_lattice(d, m).points
    rechecked = _spy_rechecks(monkeypatch, "angle")
    count = configcount.FAMILIES["angle"].fast(pts, 2, (math.pi / 2,), delta)
    assert sum(rechecked) > 0
    assert count == configcount.FAMILIES["angle"].brute(pts, 2, (math.pi / 2,), delta)


@pytest.mark.parametrize("family,d", [("volume", 2), ("volume", 3), ("volume", 4), ("area2", 2),
                                      ("area2", 3), ("area2", 4), ("angle", 2), ("angle", 3), ("angle", 4)])
def test_rechecks_value_every_ordering_like_the_oracle(family, d):
    # the rechecks and the oracle value tuples by the row's map; the oracle must round as
    # the one-tuple formulas of _oracle_values: with delta = 0 and t each of their values,
    # one rounding apart changes a count (einsum's order at d = 3 differs from a
    # coordinate-order sum in many random values)
    pts = gen_random(d, 8, seed=d).points
    values = _oracle_values(family, pts)
    for t in sorted(values)[::max(1, len(values) // 20)]:
        assert configcount.FAMILIES[family].brute(pts, _k(family, pts), (t,), 0.0) == values[t]


@pytest.mark.parametrize("entries", [1, 37])
def test_block_size_leaves_counts_unchanged(monkeypatch, entries):
    # moved lattices put rechecked sets in many blocks; entries = 1 is one row per block
    cases = {
        "volume": [(gen_lattice(2, 5).points + 1e3, 0.125, 0.0625),
                   (gen_lattice(3, 3).points * 1e-3, 1.25e-10, 0.0),
                   (gen_random(3, 20, seed=4).points, 0.02, 0.01)],
        "area2": [(gen_lattice(2, 5).points + 1e3, 0.125, 0.0625),
                  (gen_lattice(3, 3).points * 1e-3, 0.5e-6, 0.0),
                  (gen_random(3, 20, seed=4).points, 0.1, 0.02)],
        "angle": [(gen_lattice(2, 5).points + 1e3, math.pi / 4, math.pi / 4),
                  (gen_lattice(3, 3).points * 1e-3, math.pi / 2, 0.25),
                  (gen_random(3, 20, seed=4).points, 1.0, 0.1)],
    }
    for family, family_cases in cases.items():
        kernel = configcount.FAMILIES[family].fast
        with monkeypatch.context() as patch:
            rechecked = _spy_rechecks(patch, family)
            want = [kernel(pts, _k(family, pts), (t,), delta) for pts, t, delta in family_cases]
            want_rechecked, rechecked[:] = sum(rechecked), []
            patch.setattr(configcount, "BLOCK_ENTRIES", entries)
            assert [kernel(pts, _k(family, pts), (t,), delta) for pts, t, delta in family_cases] == want
            assert sum(rechecked) == want_rechecked > 0


@pytest.mark.parametrize("family,d,t,delta", [("volume", 2, 0.05, 0.03), ("volume", 3, 0.01, 0.005),
                                               ("area2", 2, 0.05, 0.03), ("angle", 2, 1.0, 0.3)])
def test_eager_views_value_their_own_apex(family, d, t, delta):
    # a view's values are bound when it is yielded, so listing every view first values
    # each against its own apex, not the last one
    views = {"volume": configcount._volume_views, "area2": configcount._area2_views,
             "angle": configcount._angle_views}[family]
    pts = gen_random(d, 12, seed=9).points
    lazy = [values(0, len(rows), 0) for _, _, rows, _, values in views(pts)]
    eager = [values(0, len(rows), 0) for _, _, rows, _, values in list(views(pts))]
    assert len(eager) == len(lazy) > 1
    assert [block.tobytes() for block in eager] == [block.tobytes() for block in lazy]
    row = configcount.FAMILIES[family]
    k = _k(family, pts)
    assert row.fast(pts, k, (t,), delta) == row.brute(pts, k, (t,), delta) > 0


def _band_split_by_cell(vals, last, col, inner, outer):
    """_band_split's result, one cell at a time: the count inside inner and the
    (row, leg) cells in outer but not inside inner, in row-major order."""
    (lo, hi), (lo_out, hi_out) = inner, outer
    inside, near = 0, []
    for r, j in itertools.product(range(vals.shape[0]), range(vals.shape[1])):
        v = vals[r, j]
        if col + j > last[r] and lo_out <= v <= hi_out:
            if lo < v < hi:
                inside += 1
            else:
                near.append((r, col + j))
    return inside, near


EDGES = [-np.inf, 0.0, 0.25, 0.5, 0.75, 1.0, np.inf]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_band_split_sorts_every_cell_like_a_cell_by_cell_split(data):
    # values on the band edges and NaN; row r pairs with the legs past last[r], at least the last one
    n_rows, width, col = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    last = np.sort(data.draw(st.lists(st.integers(col - 1, col + width - 2), min_size=n_rows, max_size=n_rows)))
    cells = st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.75, 1.0, np.nan])
    vals = np.array(data.draw(st.lists(cells, min_size=n_rows * width, max_size=n_rows * width)))
    vals = vals.reshape(n_rows, width)
    lo_out, lo, hi, hi_out = sorted(data.draw(st.lists(st.sampled_from(EDGES), min_size=4, max_size=4)))
    inner = data.draw(st.sampled_from([(lo, hi), (hi, lo)]))  # (hi, lo) is an empty inner band
    want_inside, want_near = _band_split_by_cell(vals, last, col, inner, (lo_out, hi_out))
    inside, near = configcount._band_split(vals, last, col, inner, (lo_out, hi_out))
    assert inside == want_inside and type(inside) is int
    if near is None:
        assert want_near == []
    else:
        rows, legs = near
        assert list(zip(rows.tolist(), legs.tolist())) == want_near != []


# ---------------------------------------------------------------------------
# generic Phi


DISTANCE_PHI = PhiFunction(arity=2, output_dim=1, evaluator=configcount.FAMILIES["simplex"].config_map)


def test_phi_matches_simplex_on_square():
    phi = DISTANCE_PHI
    assert count_phi(SQUARE, phi, [1.0], 0.01).count == 8


def test_phi_accepts_a_tie_like_the_simplex_row():
    # the unit square's sides lie exactly delta from t: the closed band of every row takes them
    ps = gen_lattice(2, 2)
    want = count_simplex_brute(ps, 1, 0.5, 0.5).count
    assert count_phi(ps, DISTANCE_PHI, [0.5], 0.5).count == want == 8


def test_phi_constant_counts_all_tuples():
    phi = PhiFunction(arity=2, output_dim=1, evaluator=lambda tuples: np.full((len(tuples), 1), 0.7))
    assert count_phi(SQUARE, phi, [0.7], 1e-9).count == 12


def test_phi_always_false():
    phi = PhiFunction(arity=2, output_dim=1, evaluator=lambda tuples: np.ones((len(tuples), 1)))
    assert count_phi(SQUARE, phi, [1.0 + 10 * 0.01], 0.01).count == 0


def test_phi_validation():
    phi = DISTANCE_PHI
    with pytest.raises(ValueError):
        count_phi(SQUARE, phi, [1.0, 2.0], 0.01)  # t length mismatch
    bad = PhiFunction(arity=2, output_dim=2, evaluator=lambda tuples: np.ones((len(tuples), 1)))
    with pytest.raises(ValueError):
        count_phi(SQUARE, bad, [1.0, 1.0], 0.01)  # evaluator output mismatch
    per_tuple = PhiFunction(arity=2, output_dim=1, evaluator=lambda tuples: np.array([1.0]))
    with pytest.raises(ValueError):
        count_phi(SQUARE, per_tuple, [1.0], 0.01)  # one tuple's output, not the batch's


def test_phi_budget_refuses_before_the_first_evaluation(monkeypatch):
    calls = []

    def spy(tuples):
        calls.append(len(tuples))
        return np.zeros((len(tuples), 1))

    phi = PhiFunction(arity=3, output_dim=1, evaluator=spy)
    monkeypatch.setattr(configcount, "BRUTE_EVAL_BUDGET", 4**3 - 1)
    with pytest.raises(CapacityError):
        count_phi(SQUARE, phi, [0.0], 0.5)
    assert calls == []
    monkeypatch.setattr(configcount, "BRUTE_EVAL_BUDGET", 4**3)  # exactly at the budget
    assert count_phi(SQUARE, phi, [0.0], 0.5).count == 24 == sum(calls)


# ---------------------------------------------------------------------------
# exact invariances: relabeling and halving


def _relabeled(pts: np.ndarray) -> list[np.ndarray]:
    """pts under two seeded permutations of its points."""
    return [pts[np.random.default_rng(seed).permutation(len(pts))] for seed in (1, 2)]


def _halving_scale(family: str, d: int) -> float:
    """2^(-j): the factor by which halving the coordinates scales every value of the family's map."""
    return 2.0 ** -{"simplex": 1, "volume": d, "area2": 2, "angle": 0}[family]


@pytest.mark.parametrize("family,ps,t,delta,want", [
    ("volume", gen_homogeneous(2, 20, seed=0), (0.1,), 0.005, 2_160_384),
    ("volume", gen_homogeneous(3, 5, seed=0), (0.02,), 0.002, 8_700_072),
    ("area2", gen_homogeneous(3, 7, seed=0), (0.1,), 0.005, 828_054),
    ("angle", gen_homogeneous(2, 20, seed=0), (1.0,), 0.01, 549_074),
    ("simplex", gen_random(2, 2000, seed=0), (0.844, 0.281, 0.603), 2000 ** -0.5, 2_103_645),
    ("volume", gen_lattice(2, 9), (1 / 64,), 0.0, 22_752),  # lattice ties at delta = 0
    ("area2", gen_lattice(3, 5), (1 / 8,), 0.0, 38_160),
], ids=["volume-d2", "volume-d3", "area2", "angle", "simplex", "volume-lattice", "area2-lattice"])
def test_fast_counts_are_invariant_under_relabeling_and_halving(family, ps, t, delta, want):
    # past the oracle's budget: the oracle counts ordered tuples, so a permutation of the
    # points leaves every count alone, though it moves the kernels' apexes, row tables,
    # band splits and rechecks; halving the coordinates scales every value by 2^(-j) exactly
    row, k, scale = configcount.FAMILIES[family], _k(family, ps.points), _halving_scale(family, ps.dim)
    counts = [row.fast(pts, k, t, delta) for pts in (ps.points, *_relabeled(ps.points))]
    counts.append(row.fast(ps.points * 0.5, k, tuple(x * scale for x in t), delta * scale))
    assert counts == [want] * 4


@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_fast_counts_are_invariant_under_drawn_relabelings_and_halvings(data):
    # n > 129, past every oracle comparison above; the target is a drawn tuple's own value, so it counts
    family = data.draw(st.sampled_from(sorted(configcount.FAMILIES)))
    d = 2 if family == "volume" else data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(130, 200))
    pts, row = gen_random(d, n, seed=data.draw(st.integers(0, 2**16))).points, configcount.FAMILIES[family]
    k = data.draw(st.sampled_from(range(d, 0, -1))) if family == "simplex" else _k(family, pts)
    tup = data.draw(st.lists(st.integers(0, n - 1), min_size=k + 1, max_size=k + 1, unique=True))
    t = tuple(row.config_map(pts[tup][None])[0].tolist())
    delta = data.draw(st.sampled_from([0.002, 0.01, 0.05]))
    perm = np.array(data.draw(st.permutations(range(n))))
    scale = _halving_scale(family, d)
    want = row.fast(pts, k, t, delta)
    assert want > 0
    assert row.fast(pts[perm], k, t, delta) == want
    assert row.fast(pts * 0.5, k, tuple(x * scale for x in t), delta * scale) == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_classes_are_invariant_under_relabeling_and_halving(k):
    # at delta = 1/3 the lattice distances 1/6, 1/2 and 5/6 are 0.5, 1.5 and 2.5 times delta,
    # up to rounding
    pts, delta = gen_lattice(2, 7).points, 1 / 3
    counts = [distinct_classes(PointSet(dim=2, points=p), k, delta) for p in (pts, *_relabeled(pts))]
    counts.append(distinct_classes(PointSet(dim=2, points=pts * 0.5), k, delta * 0.5))
    assert counts == [counts[0]] * 4 and counts[0] > 1


# ---------------------------------------------------------------------------
# congruence classes


def classes_reference(ps, k, delta):
    """Literal class count: each subset's distances, by `_pair_distance_matrix`,
    divided by delta and rounded by round (half to even), minimized over every
    relabeling of its vertices in a Python loop."""
    pairs = pair_order(k)
    pair_idx = {p: a for a, p in enumerate(pairs)}
    relabelings = [operator.itemgetter(*(pair_idx[tuple(sorted((sigma[i], sigma[j])))] for i, j in pairs))
                   for sigma in itertools.permutations(range(k + 1))]
    dist = _pair_distance_matrix(ps.points).tolist()
    classes = set()
    for comb in itertools.combinations(range(ps.n), k + 1):
        key = [round(dist[comb[i]][comb[j]] / delta) for i, j in pairs]
        classes.add(min(relabel(key) for relabel in relabelings))
    return len(classes)


@pytest.mark.parametrize("ps,k,delta", [
    *[(gen_random(2, 40, seed=seed), k, 0.05) for seed in range(3) for k in (1, 2, 3)],
    # spacing 1/8: the distances 1/8, 3/8 and 5/8 are 0.5, 1.5 and 2.5 times delta
    *[(gen_lattice(2, 9), k, 0.25) for k in (1, 2)],
    (gen_random(3, 16, seed=4), 4, 0.05),
    *[(gen_random(2, 20, seed=0), k, 1e-300) for k in (2, 3)],  # keys near 1e300, past any int64
])
def test_classes_match_the_reference(ps, k, delta):
    assert distinct_classes(ps, k, delta) == classes_reference(ps, k, delta)


@pytest.mark.parametrize("delta", [math.inf, math.nan, -0.1])
def test_classes_refuse_a_non_finite_or_non_positive_delta(delta):
    with pytest.raises(ValueError, match="finite and positive"):
        distinct_classes(SQUARE, 1, delta)


def test_classes_check_the_enumeration_budget_before_any_value(monkeypatch):
    calls = []
    simplex_values = configcount._simplex_values
    monkeypatch.setattr(configcount, "_simplex_values",
                        lambda tuples: calls.append(len(tuples)) or simplex_values(tuples))
    monkeypatch.setattr(configcount, "BRUTE_EVAL_BUDGET", 10**3)
    with pytest.raises(CapacityError):
        distinct_classes(gen_random(2, 11, seed=0), 2, 0.05)
    assert calls == []
    ps = gen_random(2, 10, seed=0)  # 10^3 tuples: exactly at the budget
    assert distinct_classes(ps, 2, 0.05) == classes_reference(ps, 2, 0.05) and sum(calls) == math.comb(10, 3)


def test_classes_refuse_more_classes_than_the_budget_before_the_first_chunk(monkeypatch):
    # 1000 points at delta = 1e-9 pass the enumeration budget (10^9 tuples), but their
    # C(1000, 3) classes would take about 35 GB
    calls = []
    simplex_values = configcount._simplex_values
    monkeypatch.setattr(configcount, "_simplex_values",
                        lambda tuples: calls.append(len(tuples)) or simplex_values(tuples))
    ps = gen_random(2, 1000, seed=0)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="up to 1.662e[+]08 congruence classes, over the class budget"):
        distinct_classes(ps, 2, 1e-9)
    assert time.perf_counter() - start < 0.5 and calls == []


@pytest.mark.parametrize("ps,delta,bound", [
    (gen_random(2, 10, seed=0), 1e-9, math.comb(10, 3)),  # every subset may be its own class
    (gen_random(2, 40, seed=0), 0.5, 4**3),  # keys in {0, ..., 3}: R < sqrt(2) rounds to 3 deltas
])
def test_classes_budget_bounds_the_subsets_and_the_keys(monkeypatch, ps, delta, bound):
    monkeypatch.setattr(configcount, "CLASS_BUDGET", bound - 1)
    with pytest.raises(CapacityError, match=f"up to {bound} congruence classes"):
        distinct_classes(ps, 2, delta)
    monkeypatch.setattr(configcount, "CLASS_BUDGET", bound)
    assert distinct_classes(ps, 2, delta) == classes_reference(ps, 2, delta) <= bound


def test_classes_equilateral():
    assert distinct_classes(EQUILATERAL, 2, 0.1) == 1


def test_classes_square_pairs_and_triangles():
    assert distinct_classes(SQUARE, 1, 0.01) == 2  # edge and diagonal
    assert distinct_classes(SQUARE, 2, 0.01) == 1  # all right isosceles


def test_classes_three_point_line():
    assert distinct_classes(gen_lattice(1, 3), 1, 0.01) == 2  # lengths 1/2 and 1


def test_classes_mirror_images_identified():
    # reflected scalene triangles share the distance vector
    tri = np.array([[0.1, 0.1], [0.6, 0.15], [0.3, 0.5]])
    mirror = tri * np.array([1.0, -1.0]) + np.array([0.0, 0.7])
    ps = PointSet(dim=2, points=np.vstack([tri, mirror]))
    rng_classes = distinct_classes(ps, 2, 1e-6)
    # 20 triangles overall, but the two disjoint copies give one shared class
    assert rng_classes >= 1
    only = PointSet(dim=2, points=tri)
    only_m = PointSet(dim=2, points=mirror)
    assert distinct_classes(only, 2, 1e-6) == distinct_classes(only_m, 2, 1e-6) == 1


def test_classes_bounds_and_errors():
    ps = gen_random(2, 10, seed=28)
    got = distinct_classes(ps, 2, 0.05)
    assert 1 <= got <= math.comb(10, 3)
    assert distinct_classes(EQUILATERAL, 3, 0.1) == 0  # n < k+1
    with pytest.raises(ValueError):
        distinct_classes(ps, 5, 0.05)
    with pytest.raises(ValueError):
        distinct_classes(ps, 2, 0.0)


def test_classes_monotone_in_delta():
    ps = gen_random(2, 12, seed=29)
    coarse = distinct_classes(ps, 1, 0.25)
    fine = distinct_classes(ps, 1, 0.01)
    assert coarse <= fine


# ---------------------------------------------------------------------------
# box dimension


def test_box_dim_single_point():
    report = box_dim(np.array([[0.4, 0.4]]), [0.125, 0.0625, 0.03125])
    assert report.degenerate and report.slope == 0.0


def test_box_dim_diagonal_line():
    x = np.linspace(0.0, 1.0, 10**4)
    pts = np.stack([x, x], axis=1)
    report = box_dim(pts, [2.0**-j for j in range(3, 8)])
    assert abs(report.slope - 1.0) <= 0.1
    assert not report.degenerate


def test_box_dim_full_grid():
    report = box_dim(gen_lattice(2, 100), [2.0**-j for j in range(2, 6)])
    assert abs(report.slope - 2.0) <= 0.15


def test_box_dim_counts_monotone():
    ps = gen_random(2, 500, seed=30)
    report = box_dim(ps, [0.25, 0.125, 0.0625, 0.03125])
    assert list(report.counts) == sorted(report.counts)


def test_box_dim_validation():
    with pytest.raises(ValueError):
        box_dim(np.array([[0.1, 0.1]]), [0.5, 0.25])  # too few scales
    with pytest.raises(ValueError):
        box_dim(np.array([[0.1, 0.1]]), [0.5, 0.25, 1.5])  # scale out of range
    with pytest.raises(ValueError):
        box_dim(np.empty((0, 2)), [0.5, 0.25, 0.125])
    with pytest.raises(ValueError):
        box_dim(np.array([0.1, 0.2, 0.3]), [0.5, 0.25, 0.125])  # not an (n, d) array


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_box_dim_refuses_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="coordinates must be finite"):
        box_dim(np.array([[0.1, 0.2], [bad, 0.3], [0.5, 0.5]]), [0.5, 0.25, 0.125])


# ---------------------------------------------------------------------------
# dispatch


def test_run_query_dispatch():
    q = ConfigQuery(family="simplex", k=1, t=(1.0,), delta=0.01)
    assert run_query(SQUARE, q).count == 8
    with pytest.raises(ValueError):
        run_query(SQUARE, ConfigQuery(family="simplex", k=3, t=(1.0,) * 6, delta=0.01))
    with pytest.raises(ValueError):
        run_query(SQUARE, ConfigQuery(family="custom", k=1, t=(1.0,), delta=0.01))


def test_run_query_counts_a_custom_map_by_its_row():
    # run_query counts with the row's counter, which is the row's oracle, as
    # count_phi's is
    for t, delta, want in (((1.0,), 0.01, 8), ((2.0**0.5,), 0.01, 4), ((0.5,), 0.5, 8), ((3.0,), 0.1, 0)):
        query = ConfigQuery(family="custom", k=1, t=t, delta=delta, phi=DISTANCE_PHI)
        report = run_query(SQUARE, query)
        assert report.count == count_phi(SQUARE, DISTANCE_PHI, t, delta).count == want
    assert "algorithm" not in inspect.signature(run_query).parameters
    with pytest.raises(ValueError, match="needs k = 1"):
        run_query(SQUARE, ConfigQuery(family="custom", k=2, t=(1.0,), delta=0.01, phi=DISTANCE_PHI))


NON_FINITE = [(math.nan, 0.1), (math.inf, 0.1), (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf)]


@pytest.mark.parametrize("family,k", [("simplex", 1), ("volume", 2), ("area2", 2), ("angle", 2), ("custom", 1)])
@pytest.mark.parametrize("t,delta", NON_FINITE)
def test_non_finite_t_or_delta_rejected(family, k, t, delta):
    with pytest.raises(ValueError, match="finite"):
        ConfigQuery(family=family, k=k, t=(t,), delta=delta)


def test_query_validation():
    with pytest.raises(ValueError):
        ConfigQuery(family="nope", k=1, t=(1.0,), delta=0.01)
    with pytest.raises(ValueError):
        ConfigQuery(family="angle", k=2, t=(4.0,), delta=0.01)  # outside [0, pi]
    with pytest.raises(ValueError):
        ConfigQuery(family="volume", k=2, t=(0.5,), delta=-0.01)
    ConfigQuery(family="volume", k=2, t=(0.5,), delta=0.0)  # closed interval, delta 0 fine
