import itertools
import math

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
    count_report_row,
    count_simplex,
    count_simplex_brute,
    count_volume,
    distinct_classes,
    pair_order,
    run_query,
    _distance_rows,
    _pair_distance_matrix,
)
from configeo.errors import CapacityError
from configeo.pointgen import PointSet, gen_coplanar, gen_lattice, gen_random

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
    for algo in ("pruned", "brute"):
        assert count_simplex(SQUARE, 1, [1.0], 0.01, algorithm=algo).count == 8


def test_equilateral_triples():
    for algo in ("pruned", "brute"):
        assert count_simplex(EQUILATERAL, 2, [1.0, 1.0, 1.0], 1e-6, algorithm=algo).count == 6


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
    monkeypatch.setattr(configcount, "SIMPLEX_BLOCK_ENTRIES", 64)
    ps = gen_random(d, 40, seed=33)
    _assert_simplex_matches_brute(ps, k, realized_target(ps, k, seed=34), 0.05)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_distance_rows_bit_identical_to_oracle(d):
    pts = gen_random(d, 50, seed=35 + d).points
    rows = np.vstack([_distance_rows(pts, s, min(s + 7, 50)) for s in range(0, 50, 7)])
    assert rows.tobytes() == _pair_distance_matrix(pts).tobytes()


def test_simplex_band_budget_refusal(monkeypatch):
    monkeypatch.setattr(configcount, "SIMPLEX_BAND_NNZ_BUDGET", 100)
    monkeypatch.setattr(configcount, "SIMPLEX_BLOCK_ENTRIES", 1000)
    with pytest.raises(CapacityError):
        count_simplex(gen_random(2, 300, seed=36), 2, [0.5, 0.5, 0.5], 0.05)


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
    with pytest.raises(ValueError):
        count_simplex(SQUARE, 1, [1.0], 0.01, algorithm="magic")
    for count in (count_simplex, count_simplex_brute):
        with pytest.raises(ValueError, match="k <= d"):
            count(SQUARE, 3, [1.0] * 6, 0.1)  # k > d


# ---------------------------------------------------------------------------
# volume family


def test_volume_right_triangle():
    tri = PointSet(dim=2, points=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for algo in ("pruned", "brute"):
        assert count_volume(tri, 1.0, 0.01, algorithm=algo).count == 6


def test_volume_collinear_zero_target():
    line = PointSet(dim=2, points=[[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    assert count_volume(line, 0.0, 0.0).count == 6


def test_volume_coplanar_zero():
    ps = gen_coplanar(3, 30, seed=19)
    assert count_volume(ps, 0.2, 0.05).count == 0


def test_volume_unit_tetrahedron():
    tet = PointSet(dim=3, points=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for algo in ("pruned", "brute"):
        assert count_volume(tet, 1.0, 1e-9, algorithm=algo).count == 24
        assert count_volume(tet, 1.0 / 6.0, 1e-9, convention="simplex", algorithm=algo).count == 24


def test_volume_convention_rescaling_identity():
    ps = gen_random(3, 12, seed=20)
    t, delta = 0.02, 0.01
    bare = count_volume(ps, t * 6.0, delta * 6.0, convention="bare_determinant").count
    simp = count_volume(ps, t, delta, convention="simplex").count
    assert bare == simp


@pytest.mark.parametrize("d,n", [(2, 12), (3, 9)])
def test_volume_fast_equals_brute(d, n):
    for seed in (21, 22):
        ps = gen_random(d, n, seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        idx = rng.choice(n, size=d + 1, replace=False)
        rows = ps.points[idx[:-1]] - ps.points[idx[-1]]
        t = abs(float(np.linalg.det(rows)))
        for delta in (0.0005, 0.01):
            assert (
                count_volume(ps, t, delta).count
                == count_volume(ps, t, delta, algorithm="brute").count
            )


def test_volume_negative_target_error():
    with pytest.raises(ValueError):
        count_volume(SQUARE, -0.1, 0.01)


def test_volume_d4_generic_path():
    rng = np.random.Generator(np.random.PCG64(23))
    ps = PointSet(dim=4, points=rng.random((7, 4)))
    idx = rng.choice(7, size=5, replace=False)
    rows = ps.points[idx[:-1]] - ps.points[idx[-1]]
    t = abs(float(np.linalg.det(rows)))
    assert count_volume(ps, t, 1e-4).count == count_volume(ps, t, 1e-4, algorithm="brute").count
    assert count_volume(ps, t, 1e-4).count >= 24  # the realizing tuple's relabelings


# ---------------------------------------------------------------------------
# area2 family


def test_area2_matches_volume_in_plane():
    ps = gen_random(2, 14, seed=24)
    t, delta = 0.11, 0.03
    assert count_area2(ps, t, delta).count == count_volume(ps, t, delta).count


def test_area2_unit_triangle_in_3d():
    tri = PointSet(dim=3, points=[[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert count_area2(tri, 1.0, 1e-9).count == 6
    assert count_area2(tri, 0.5, 1e-9, convention="simplex").count == 6


@pytest.mark.parametrize("d", [2, 3])
def test_area2_fast_equals_brute(d):
    ps = gen_random(d, 11, seed=25)
    for t, delta in ((0.1, 0.02), (0.25, 0.06)):
        assert count_area2(ps, t, delta).count == count_area2(ps, t, delta, algorithm="brute").count


# ---------------------------------------------------------------------------
# angle family


def test_square_right_angles():
    for algo in ("pruned", "brute"):
        assert count_angle(SQUARE, math.pi / 2.0, 0.01, algorithm=algo).count == 8


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
    assert report.count == count_angle(ps, math.pi / 2.0, 0.01, algorithm="brute").count
    # so is a leg shorter than DEGENERATE_APEX_TOL that is not zero
    near = PointSet(dim=2, points=[[0.5, 0.5], [0.5 + 1e-13, 0.5], [0.9, 0.5], [0.5, 0.9]])
    for theta0 in (0.0, math.pi / 4.0, math.pi / 2.0):
        assert count_angle(near, theta0, 0.01).count == count_angle(near, theta0, 0.01, algorithm="brute").count


@pytest.mark.parametrize("d", [2, 3])
def test_angle_fast_equals_brute(d):
    for seed in (26, 27):
        ps = gen_random(d, 14, seed=seed)
        for theta0 in (0.3, math.pi / 2.0, 2.9):
            for delta in (0.01, 0.1):
                assert (
                    count_angle(ps, theta0, delta).count
                    == count_angle(ps, theta0, delta, algorithm="brute").count
                )


def test_angle_fewer_than_three_points_count_zero():
    for points in ([[0, 0]], [[0, 0], [1, 1]]):
        ps = PointSet(dim=2, points=points)
        for algo in ("pruned", "brute"):
            assert count_angle(ps, 1.0, 0.01, algorithm=algo).count == 0


# differential checks of the triple counters (volume d=2, area2, angle) and
# of the d = 3 volume counter against their oracles

TRIPLE_FAMILIES = ["angle", "area2", "volume"]
# (shift, scale) of a lattice: a moved lattice's legs x - y round, unlike the grid's
LATTICE_MOVES = [(0.0, 1.0), (1e3, 1.0), (0.0, 1e-3)]


def _oracle_values(family, pts):
    """Every value the family's oracle evaluates on pts, by the oracle's own
    formulas, so bands built from them have exact ties |value - t| = delta."""
    values = set()
    if family == "volume" and pts.shape[1] == 3:
        for i, j, l, b in itertools.permutations(range(len(pts)), 4):
            u0, u1, u2 = pts[i] - pts[b], pts[j] - pts[b], pts[l] - pts[b]
            c0 = u1[1] * u2[2] - u1[2] * u2[1]
            c1 = u1[2] * u2[0] - u1[0] * u2[2]
            c2 = u1[0] * u2[1] - u1[1] * u2[0]
            values.add(abs(u0[0] * c0 + u0[1] * c1 + u0[2] * c2))
        return sorted(values) or [0.0, 0.5]
    for i, j, b in itertools.permutations(range(len(pts)), 3):
        u, v = pts[i] - pts[b], pts[j] - pts[b]
        if family == "volume":
            values.add(abs(u[0] * v[1] - u[1] * v[0]))
        elif family == "area2":
            g = float(np.einsum("d,d->", u, v))
            values.add(float(np.sqrt(np.maximum(float((u * u).sum()) * float((v * v).sum()) - g * g, 0.0))))
        else:
            nu, nv = np.sqrt((u * u).sum()), np.sqrt((v * v).sum())
            if nu >= configcount.DEGENERATE_APEX_TOL and nv >= configcount.DEGENERATE_APEX_TOL:
                values.add(float(np.arccos(np.clip(np.einsum("d,d->", u, v) / (nu * nv), -1.0, 1.0))))
    return sorted(values) or [0.0, 0.5]


def _assert_matches_brute(data, family, pts):
    """Draw t and t + delta among the realized values (delta = 0 when both
    draws coincide) and compare the family's fast kernel with its oracle.
    The kernels take raw arrays, so a moved lattice may leave [0, 1]^d."""
    lo, hi = sorted(data.draw(st.lists(st.sampled_from(_oracle_values(family, pts)),
                                       min_size=2, max_size=2)))
    delta = hi - lo
    if delta == 0.0 and family == "angle":  # angle queries need delta > 0
        delta = 0.25
    row = configcount.FAMILIES[family]
    k = pts.shape[1] if family == "volume" else 2
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
    assert count_volume(ps, t, delta).count == count_volume(ps, t, delta, algorithm="brute").count


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
    for algo in ("pruned", "brute"):
        count = count_volume(ps, t, 0.0, algorithm=algo).count
        assert count == want and type(count) is int  # reports serialize Python ints


RECHECKS = {"volume": "_volume_orderings", "area2": "_area2_orderings", "angle": "_angle_orderings"}


def _spy_rechecks(monkeypatch, family="volume"):
    """Record the number of rows (point sets, or apex and leg pair) of each
    call of the family's recheck."""
    rechecked = []
    recheck = getattr(configcount, RECHECKS[family])

    def spy(pts, sets, t, delta):
        rechecked.append(len(sets))
        return recheck(pts, sets, t, delta)

    monkeypatch.setattr(configcount, RECHECKS[family], spy)
    return rechecked


@pytest.mark.parametrize("d,n", [(2, 9), (3, 7)])
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
    for algo in ("pruned", "brute"):
        count = count_area2(ps, t, 0.0, algorithm=algo).count
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
    count = configcount._angle_pairs(pts, math.pi / 2, delta)
    assert sum(rechecked) > 0
    assert count == configcount._angle_brute(pts, math.pi / 2, delta)


@pytest.mark.parametrize("family,d", [("volume", 2), ("volume", 3), ("area2", 2), ("area2", 3),
                                      ("area2", 4), ("angle", 2), ("angle", 3), ("angle", 4)])
def test_rechecks_value_every_ordering_like_the_oracle(family, d):
    # batched rechecks must round as the oracle's one-tuple formulas: with delta = 0 and
    # t each oracle value, one rounding apart changes a count (einsum's order at d = 3
    # differs from a coordinate-order sum in many random values)
    pts = gen_random(d, 8, seed=d).points
    if family == "angle":  # an apex and a leg pair
        rows = [(a, *pair) for a in range(8) for pair in itertools.combinations(range(8), 2) if a not in pair]
    else:
        rows = list(itertools.combinations(range(8), d + 1 if family == "volume" else 3))
    values = _oracle_values(family, pts)
    recheck = getattr(configcount, RECHECKS[family])
    for t in values[::max(1, len(values) // 20)]:
        assert recheck(pts, np.array(rows), t, 0.0) == configcount.FAMILIES[family].brute(pts, d, (t,), 0.0)


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
            want = [kernel(pts, 2, (t,), delta) for pts, t, delta in family_cases]
            want_rechecked, rechecked[:] = sum(rechecked), []
            patch.setattr(configcount, "_SET_BLOCK_ENTRIES", entries)
            assert [kernel(pts, 2, (t,), delta) for pts, t, delta in family_cases] == want
            assert sum(rechecked) == want_rechecked > 0


# ---------------------------------------------------------------------------
# generic Phi


DISTANCE_PHI = PhiFunction(arity=2, output_dim=1, evaluator=configcount.FAMILIES["simplex"].config_map)


def test_phi_matches_simplex_on_square():
    phi = DISTANCE_PHI
    # strict vs closed interval boundary is immaterial away from ties
    assert count_phi(SQUARE, phi, [1.0], 0.01).count == 8


def test_phi_constant_counts_all_tuples():
    phi = PhiFunction(arity=2, output_dim=1, evaluator=lambda pts: np.array([0.7]))
    assert count_phi(SQUARE, phi, [0.7], 1e-9).count == 12


def test_phi_always_false():
    phi = PhiFunction(arity=2, output_dim=1, evaluator=lambda pts: np.array([1.0]))
    assert count_phi(SQUARE, phi, [1.0 + 10 * 0.01], 0.01).count == 0


def test_phi_validation():
    phi = DISTANCE_PHI
    with pytest.raises(ValueError):
        count_phi(SQUARE, phi, [1.0, 2.0], 0.01)  # t length mismatch
    bad = PhiFunction(arity=2, output_dim=2, evaluator=lambda pts: np.array([1.0]))
    with pytest.raises(ValueError):
        count_phi(SQUARE, bad, [1.0, 1.0], 0.01)  # evaluator output mismatch


# ---------------------------------------------------------------------------
# congruence classes


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


# ---------------------------------------------------------------------------
# dispatch and serialization


def test_run_query_dispatch():
    q = ConfigQuery(family="simplex", k=1, t=(1.0,), delta=0.01)
    assert run_query(SQUARE, q).count == 8
    with pytest.raises(ValueError):
        run_query(SQUARE, ConfigQuery(family="simplex", k=3, t=(1.0,) * 6, delta=0.01))
    with pytest.raises(ValueError):
        run_query(SQUARE, ConfigQuery(family="custom", k=1, t=(1.0,), delta=0.01))


def test_count_report_csv_row():
    report = count_simplex(SQUARE, 1, [1.0], 0.01)
    assert count_report_row(report) == "simplex,1,2,4,1,0.01,8,pruned,,"


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
