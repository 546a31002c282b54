import dataclasses
import decimal
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

from configeo import fourierlab
from configeo.configcount import family_row
from configeo.errors import CapacityError, InfeasibleError
from configeo.fourierlab import (
    FrequencyPoint,
    MeasureSpec,
    decay_fit,
    ft_montecarlo,
    ft_quadrature,
    ft_sphere,
    ft_sphere_radial,
    ft_triangle,
    level_set_curvatures,
    nonzero_curvature_count,
    phase_hessian,
    phase_plane_discriminant,
    phase_plane_form,
    sphere_area,
    triangle_pair_frequencies,
)

SQ3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# sphere closed form


def test_sphere_masses():
    assert ft_sphere(2, [0.0, 0.0]) == pytest.approx(2 * math.pi, rel=1e-14)
    assert ft_sphere(3, [0.0, 0.0, 0.0]) == pytest.approx(4 * math.pi, rel=1e-12)
    assert ft_sphere(4, [0.0] * 4) == pytest.approx(2 * math.pi**2, rel=1e-12)
    assert sphere_area(5) == pytest.approx(8 * math.pi**2 / 3, rel=1e-14)


# sphere_area is the one expression 2 pi^(d/2) / math.gamma(d/2) at every d
# where Gamma(d/2) is a finite float, d <= 343; the seeded estimates pinned
# below follow its bits, so the pin compares with ==.
@pytest.mark.parametrize("d", range(1, 344))
def test_sphere_area_is_the_scipy_gamma_form_bit_for_bit(d):
    assert sphere_area(d) == 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


PI_50 = decimal.Decimal("3.14159265358979323846264338327950288419716939937510")


def _exact_sphere_area(d: int) -> decimal.Decimal:
    """2 pi^(d/2) / Gamma(d/2) to 50 digits, with the exact Gamma of an
    integer, (m-1)!, and of a half-integer, (2m)! sqrt(pi) / (4^m m!)."""
    m = d // 2
    with decimal.localcontext(decimal.Context(prec=50)):
        if d % 2 == 0:
            return 2 * PI_50**m / math.factorial(m - 1)
        return 2 * PI_50**m * 4**m * math.factorial(m) / math.factorial(2 * m)


def test_sphere_area_is_within_16_ulp_of_the_exact_area():
    for d in range(1, 61):
        exact = _exact_sphere_area(d)
        ulp = decimal.Decimal(math.ulp(float(exact)))
        assert abs(decimal.Decimal(sphere_area(d)) - exact) <= 16 * ulp, d
    assert sphere_area(3) == 4 * math.pi
    with pytest.raises(ValueError, match="1 <= d <= 343"):
        sphere_area(344)
    with pytest.raises(ValueError, match="1 <= d <= 343"):
        sphere_area(0)


def test_determinant_variety_weight_is_the_scipy_gamma_ball_bit_for_bit():
    from scipy.special import gamma

    spec = MeasureSpec.determinant_variety(t=0.2)
    *_, weight = fourierlab.MEASURES["determinant_variety"].draw(spec, 0.05, np.random.default_rng(0), 64)
    ball = math.pi ** (9 / 2.0) / gamma(9 / 2.0 + 1.0)
    assert weight == ball * spec.cutoff**9 / (2.0 * 0.05)


def test_sphere_d3_elementary_form():
    for r in (0.3, 1.0, 2.5, 7.0, 40.0):
        want = 2.0 * math.sin(2 * math.pi * r) / r
        assert ft_sphere(3, [r, 0.0, 0.0]).real == pytest.approx(want, abs=1e-10 * max(1, 1 / r))


def test_sphere_d2_vs_quadrature_oracle():
    spec = MeasureSpec.sphere(2)
    for r in (0.5, 1.0, 3.0):
        got = ft_sphere(2, [r, 0.0])
        oracle = ft_quadrature(spec, [r, 0.0], 4096)
        assert abs(got - oracle) / abs(oracle) <= 1e-8


def test_sphere_d3_vs_quadrature_oracle():
    spec = MeasureSpec.sphere(3)
    xi = np.array([0.7, -1.1, 1.6])  # |xi| = 2.04...
    got = ft_sphere(3, xi)
    oracle = ft_quadrature(spec, xi, 256)
    assert abs(got - oracle) / abs(oracle) <= 1e-8


def test_quadrature_mass_general_d():
    for d, nodes in ((2, 64), (3, 64), (4, 48)):
        q = ft_quadrature(MeasureSpec.sphere(d), np.zeros(d), nodes)
        assert q.real == pytest.approx(sphere_area(d), rel=1e-10)


def test_quadrature_node_doubling_converged():
    spec = MeasureSpec.sphere(2)
    for r in (1.0, 10.0):
        a = ft_quadrature(spec, [r, 0.0], 2048)
        b = ft_quadrature(spec, [r, 0.0], 4096)
        assert abs(a - b) < 1e-10


def test_quadrature_validation():
    with pytest.raises(ValueError):
        ft_quadrature(MeasureSpec.sphere(2), [1.0, 0.0], 8)
    with pytest.raises(ValueError):
        ft_quadrature(MeasureSpec.triangle2d(), [1.0, 0.0], 64)


def test_quadrature_node_budget_refuses_before_any_array(monkeypatch):
    # at d = 2 the oracle has node_count nodes, so a missed refusal stays small
    monkeypatch.setattr(fourierlab, "QUADRATURE_NODE_BUDGET", 1000)
    spec = MeasureSpec.sphere(2)
    assert ft_quadrature(spec, [0.0, 0.0], 1000).real == pytest.approx(2 * math.pi, rel=1e-12)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"4096\^1 quadrature nodes are over the budget of 1000"):
            ft_quadrature(spec, [1.0, 0.0], 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096 * 8 // 2  # half of the azimuth grid, the oracle's first array


def test_quadrature_node_budget_admits_the_cli_default_at_d3():
    assert 2048 ** (3 - 1) <= fourierlab.QUADRATURE_NODE_BUDGET < 2048 ** (4 - 1)


def test_sphere_rotation_invariance():
    rng = np.random.Generator(np.random.PCG64(1))
    xi = np.array([0.8, -0.3, 1.2])
    base = ft_sphere(3, xi).real
    for _ in range(100):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = ft_sphere(3, q @ xi).real
        assert rotated == pytest.approx(base, rel=1e-12)


def test_sphere_bounded_by_mass():
    rng = np.random.Generator(np.random.PCG64(2))
    for _ in range(50):
        xi = rng.standard_normal(3) * rng.uniform(0, 30)
        assert abs(ft_sphere(3, xi)) <= ft_sphere(3, [0, 0, 0]).real + 1e-12


# ---------------------------------------------------------------------------
# triangle pair measure


def test_triangle_mass():
    assert ft_triangle([0.0, 0.0], [0.0, 0.0]).real == pytest.approx(4 * math.pi, rel=1e-12)


def test_triangle_symmetry():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(20):
        xi, eta = rng.standard_normal(2), rng.standard_normal(2)
        a = ft_triangle(xi, eta)
        b = ft_triangle(-xi, -eta)
        assert b == a.conjugate()  # real measure, central symmetry of the maps


def test_triangle_bounded_by_mass():
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(50):
        xi, eta = 5 * rng.standard_normal(2), 5 * rng.standard_normal(2)
        assert abs(ft_triangle(xi, eta)) <= 4 * math.pi + 1e-12


def test_paired_frequency_norm_identity():
    # on the diagonal (xi, -xi) both branch frequencies have norm |xi|
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        xi = rng.standard_normal(2)
        wp, wm = triangle_pair_frequencies(xi, -xi)
        assert np.linalg.norm(wp) == pytest.approx(np.linalg.norm(xi), rel=1e-12)
        assert np.linalg.norm(wm) == pytest.approx(np.linalg.norm(xi), rel=1e-12)


def test_triangle_diagonal_reduces_to_circle():
    xi = np.array([0.6, -0.8])
    got = ft_triangle(3.0 * xi, -3.0 * xi).real
    want = 2.0 * float(ft_sphere_radial(2, 3.0))
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_sphere_mass_and_shrinking_error():
    spec = MeasureSpec.sphere(3)
    [(est1, se1)] = ft_montecarlo(spec, [FrequencyPoint.of([0.5, 0, 0])], 0.05, 10**4, seed=6)
    [(est2, se2)] = ft_montecarlo(spec, [FrequencyPoint.of([0.5, 0, 0])], 0.05, 9 * 10**4, seed=6)
    exact = ft_sphere(3, [0.5, 0, 0])
    assert abs(est2 - exact) <= 4 * se2
    assert se2 < se1


def test_mc_triangle_matches_closed_form():
    spec = MeasureSpec.triangle2d()
    for point in ((0.0, 0.0, 0.0, 0.0), (0.4, 0.2, -0.3, 0.1), (1.5, 0.5, -1.0, 0.8)):
        xi, eta = point[:2], point[2:]
        [(est, se)] = ft_montecarlo(
            spec, [FrequencyPoint.of(xi, eta)], epsilon=0.01, samples=2 * 10**5, seed=7
        )
        exact = ft_triangle(xi, eta)
        assert abs(est - exact) <= 3.5 * se


def test_mc_mass_positive():
    spec = MeasureSpec.chain_spheres(3)
    zero = FrequencyPoint.of([0, 0, 0], [0, 0, 0])
    [(est, se)] = ft_montecarlo(spec, [zero], 0.05, 10**5, seed=8)
    assert est.real > 0 and se > 0
    # analytic Leray mass of the two-sphere unit chain in R^3 is 8 pi^2
    assert est.real == pytest.approx(8 * math.pi**2, rel=0.05)


def test_mc_epsilon_bias_check():
    spec = MeasureSpec.chain_spheres(3)
    zero = FrequencyPoint.of([0, 0, 0], [0, 0, 0])
    [(est1, se1)] = ft_montecarlo(spec, [zero], 0.1, 4 * 10**5, seed=9)
    [(est2, se2)] = ft_montecarlo(spec, [zero], 0.05, 4 * 10**5, seed=10)
    [(est3, se3)] = ft_montecarlo(spec, [zero], 0.025, 4 * 10**5, seed=11)
    assert abs(est1 - est2) <= 3 * math.hypot(se1, se2)
    assert abs(est2 - est3) <= 3 * math.hypot(se2, se3)


def test_mc_reproducible():
    spec = MeasureSpec.triangle2d()
    fp = FrequencyPoint.of([0.3, 0.1], [-0.2, 0.4])
    a = ft_montecarlo(spec, [fp], 0.05, 4 * 10**4, seed=12)
    b = ft_montecarlo(spec, [fp], 0.05, 4 * 10**4, seed=12)
    assert a == b


def test_mc_infeasible_error():
    spec = MeasureSpec.determinant_variety(t=1.5)  # near the attainable edge
    with pytest.raises(InfeasibleError):
        ft_montecarlo(spec, [FrequencyPoint.of([0, 0, 0], [0, 0, 0], [0, 0, 0])],
                      epsilon=1e-6, samples=10**4, seed=13)


def test_mc_determinant_variety_mass():
    spec = MeasureSpec.determinant_variety(t=0.2)
    [(est, se)] = ft_montecarlo(
        spec, [FrequencyPoint.of([0, 0, 0], [0, 0, 0], [0, 0, 0])], 0.05, 2 * 10**5, seed=14
    )
    assert est.real > 0
    assert abs(est.imag) <= 3 * se


def test_mc_validation():
    spec = MeasureSpec.sphere(2)
    fp = FrequencyPoint.of([1.0, 0.0])
    with pytest.raises(ValueError):
        ft_montecarlo(spec, [fp], 0.5, 10**4, seed=0)  # epsilon too large
    with pytest.raises(ValueError):
        ft_montecarlo(spec, [fp], 0.05, 10**3, seed=0)  # too few samples
    with pytest.raises(ValueError):
        ft_montecarlo(spec, [FrequencyPoint.of([1.0, 0.0, 0.0])], 0.05, 10**4, seed=0)
    with pytest.raises(ValueError):  # one mismatched point fails the whole call
        ft_montecarlo(spec, [fp, FrequencyPoint.of([1.0, 0.0, 0.0])], 0.05, 10**4, seed=0)


def test_mc_sample_budget_refuses_before_the_first_chunk(monkeypatch):
    spec = MeasureSpec.chain_spheres(3)
    fp = FrequencyPoint.of([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    row = fourierlab.MEASURES["chain_spheres"]
    drawn = []

    def spy(spec, epsilon, rng, m):
        drawn.append(m)
        return row.draw(spec, epsilon, rng, m)

    monkeypatch.setitem(fourierlab.MEASURES, "chain_spheres", dataclasses.replace(row, draw=spy))
    monkeypatch.setattr(fourierlab, "MC_SAMPLE_BUDGET", 2 * 10**4)
    with pytest.raises(CapacityError, match="over the Monte Carlo budget of 20000"):
        ft_montecarlo(spec, [fp], 0.05, 2 * 10**4 + 1, seed=0)
    assert drawn == []
    ft_montecarlo(spec, [fp], 0.05, 2 * 10**4, seed=0)  # exactly at the budget
    assert drawn == [2 * 10**4]


def test_mc_sample_budget_leaves_room_for_the_cli_default_and_the_benchmark():
    # the ft command's default samples, and survey-dense's ft samples
    assert max(10**6, 400_000) <= fourierlab.MC_SAMPLE_BUDGET


# Seeded estimates over two chunks of _MC_CHUNK samples with a partial last
# one, each chunk's phases summed over its accepted rows only; sphere, which
# accepts every row, keeps its values from the per-point implementation.
# Compared with ==: evaluating a ray from one draw must not move a bit.
GOLDEN_SAMPLES = 270_000
GOLDEN_MC = {
    "sphere": (
        MeasureSpec.sphere(3), 21,
        [([0.5, 0.0, 0.0],), ([2.0, -1.0, 0.5],)],
        [(complex(0.005255379739091549, 0.010703533121323052), 0.024183980635551133),
         (complex(0.8470266257941472, 0.030542836433671658), 0.02412891944348632)],
    ),
    "triangle2d": (
        MeasureSpec.triangle2d(), 22,
        [([0.3, 0.1], [-0.2, 0.4]), ([1.5, 0.5], [-1.0, 0.8])],
        [(complex(2.058439828636069, 0.01148870728049929), 0.12549639963878928),
         (complex(1.0276877091248766, 0.08653914197484847), 0.1255432223414854)],
    ),
    "chain_spheres": (
        MeasureSpec.chain_spheres(3), 23,
        [([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]), ([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]),
         ([3.5, 0.2, 0.0], [-3.5, 0.0, 0.1])],
        [(complex(78.31348321812533, 0.0), 0.6597830567349645),
         (complex(-0.6983705385843055, 0.4087418435106131), 0.6767762390490609),
         (complex(-0.394718152060226, -0.18318546629548238), 0.676777512601815)],
    ),
    # phases come from the strided mats[:, j, :] views of the accepted rows
    "determinant_variety": (
        MeasureSpec.determinant_variety(t=0.2), 24,
        [([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
         ([0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]),
         ([0.3, -0.7, 0.2], [1.1, 0.0, -0.4], [-0.6, 0.9, 0.8])],
        [(complex(1392.351917984495, 0.0), 8.93928167348552),
         (complex(15.806407405887526, 1.3322725414431722), 9.332201636207806),
         (complex(7.655576811463104, 3.2544215123046), 9.332237834643754)],
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_MC))
def test_mc_golden_estimates_and_single_point_calls(kind):
    spec, seed, blocks, want = GOLDEN_MC[kind]
    points = [FrequencyPoint.of(*b) for b in blocks]
    assert ft_montecarlo(spec, points, 0.05, GOLDEN_SAMPLES, seed) == want
    for fp, one in zip(points, want):
        assert ft_montecarlo(spec, [fp], 0.05, GOLDEN_SAMPLES, seed) == [one]


@pytest.mark.parametrize("kind", sorted(fourierlab.MEASURES))
def test_each_draw_returns_accepted_blocks_of_the_row_widths(kind):
    spec = GOLDEN_MC[kind][0]
    blocks, weight = fourierlab.MEASURES[kind].draw(spec, 0.05, np.random.default_rng(0), 4096)
    accepted = len(blocks[0])
    assert 0 < accepted <= 4096 and weight > 0.0
    assert tuple(b.shape for b in blocks) == tuple((accepted, w) for w in spec.block_dims)


# The second value is the number of standard normal arrays per chunk.
@pytest.mark.parametrize("kind,normal_arrays", [
    ("sphere", 1), ("triangle2d", 2), ("chain_spheres", 2), ("determinant_variety", 1),
])
def test_mc_draws_once_per_chunk_whatever_the_point_count(monkeypatch, kind, normal_arrays):
    spec, seed, blocks, _ = GOLDEN_MC[kind]
    points = [FrequencyPoint.of(*b) for b in blocks]
    monkeypatch.setattr(fourierlab, "_MC_CHUNK", 4096)
    monkeypatch.setattr(fourierlab, "_MC_ROWS", 1000)  # the streamed arrays come in blocks
    make = np.random.Generator
    records = []

    class Recorded:  # hands out the stream's values and keeps a copy of each
        def __init__(self, bits):
            self._rng = make(bits)

        def __getattr__(self, name):
            def call(*args):
                out = getattr(self._rng, name)(*args)
                records[-1].append((name, out.copy()))
                return out
            return call

    monkeypatch.setattr(np.random, "Generator", Recorded)
    samples = 3 * 4096 + 100  # three full chunks and a partial one
    for batch in ([points[0]], points, points * 4):
        records.append([])
        ft_montecarlo(spec, batch, 0.05, samples, seed)
    first = records[0]
    assert sum(len(v) for name, v in first if name == "standard_normal") == normal_arrays * samples
    for other in records[1:]:
        assert [name for name, _ in other] == [name for name, _ in first]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(first, other))


# Drawing a chunk's last array in blocks of _MC_ROWS rows keeps the seeded
# estimates only because the Generator gives the same values either way.
@pytest.mark.parametrize("method,row", [("standard_normal", (3,)), ("standard_normal", (9,)),
                                        ("random", ())])
def test_generator_gives_the_same_values_in_row_blocks(method, row):
    m, rows = 3 * fourierlab._MC_ROWS + 100, fourierlab._MC_ROWS
    whole = getattr(np.random.default_rng(25), method)((m, *row))
    rng = np.random.default_rng(25)
    parts = [getattr(rng, method)((min(rows, m - lo), *row)) for lo in range(0, m, rows)]
    assert np.array_equal(whole, np.concatenate(parts))
    # the drawing thread's form: out passed positionally, into row slices
    rng = np.random.default_rng(25)
    into = np.empty((m, *row))
    for lo in range(0, m, rows):
        getattr(rng, method)(None, np.float64, into[lo:lo + rows])
    assert np.array_equal(whole, into)


# The drawing thread of _draw_spheres is joined on every exit path: a normal
# return, an error after the draw, an error in the calling thread mid-chunk
# and an error in the drawing thread, which the caller re-raises.
def _chain_mc(epsilon: float, samples: int, seconds: float = 60.0):
    """ft_montecarlo on a chain_spheres(3) point, run on a daemon thread so
    that a hang fails the test instead of stalling the session; its
    exception is re-raised here."""
    spec = MeasureSpec.chain_spheres(3)
    fp = FrequencyPoint.of([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    result = []

    def run():
        try:
            result.append((ft_montecarlo(spec, [fp], epsilon, samples, seed=0), None))
        except BaseException as exc:
            result.append((None, exc))

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(seconds)
    assert result, f"ft_montecarlo still running after {seconds} s"
    value, exc = result[0]
    if exc is not None:
        raise exc
    return value


def test_mc_leaves_no_drawing_thread_after_a_call():
    before = threading.active_count()
    _chain_mc(0.05, 10**5)
    assert threading.active_count() == before


def test_mc_leaves_no_drawing_thread_after_an_infeasible_call():
    before = threading.active_count()
    with pytest.raises(InfeasibleError):
        _chain_mc(1e-12, 10**4)
    assert threading.active_count() == before


def test_mc_error_in_the_caller_mid_chunk_propagates(monkeypatch):
    row_norms = fourierlab._row_norms
    calls = []

    def failing(a):
        calls.append(len(a))
        if len(calls) == 3:  # the first block's gap test, while the next blocks are drawn
            raise RuntimeError("the test failed")
        return row_norms(a)

    monkeypatch.setattr(fourierlab, "_row_norms", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="the test failed"):
        _chain_mc(0.05, 10**5)
    assert len(calls) == 3
    assert threading.active_count() == before


def test_mc_error_in_the_drawing_thread_is_reraised(monkeypatch):
    make = np.random.Generator

    class Failing:  # the second draw, the last sphere's first block, fails
        def __init__(self, bits):
            self._rng = make(bits)
            self._draws = 0

        def standard_normal(self, *args):
            self._draws += 1
            if self._draws == 2:
                raise RuntimeError("the draw failed")
            return self._rng.standard_normal(*args)

    monkeypatch.setattr(np.random, "Generator", Failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="the draw failed"):
        _chain_mc(0.05, 10**5)
    assert threading.active_count() == before


# The budgets of the ft_montecarlo docstring: float64 arrays of m rows, each
# row as wide as the kind's widest drawn array.
MC_MEMORY_BUDGETS = {"sphere": (2.5, 3), "triangle2d": (1.5, 2), "chain_spheres": (1.5, 3),
                     "determinant_variety": (1.125, 9)}


@pytest.mark.parametrize("kind", sorted(MC_MEMORY_BUDGETS))
def test_mc_chunk_stays_within_its_memory_budget(kind):
    arrays, width = MC_MEMORY_BUDGETS[kind]
    spec, seed, blocks, _ = GOLDEN_MC[kind]
    m = fourierlab._MC_CHUNK
    tracemalloc.start()
    try:
        ft_montecarlo(spec, [FrequencyPoint.of(*b) for b in blocks], 0.05, m, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < arrays * m * width * 8


@pytest.mark.parametrize("d", [2, 3, 4, 9])
def test_unit_vectors_equal_the_norm_division_bit_for_bit(d):
    # the norms add the squares in coordinate order: below 8 coordinates that
    # is np.linalg.norm's order too, from 8 on numpy's sum unrolls by 8
    g = np.random.default_rng(d).standard_normal((5000, d))
    if d < 8:
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    else:
        norms = np.zeros((len(g), 1))
        for k in range(d):
            norms[:, 0] += g[:, k] * g[:, k]
        norms = np.sqrt(norms)
    got = fourierlab._normalize_rows(np.random.default_rng(d).standard_normal((5000, d)))
    assert np.array_equal(got, g / norms)


@pytest.mark.parametrize("d", [2, 3, 9])
def test_unit_vectors_leave_zero_rows_unchanged(d):
    rows = np.arange(1.0, 6 * d + 1.0).reshape(6, d)  # a drawn array with zero rows
    rows[::2] = 0.0
    got = fourierlab._normalize_rows(rows)
    assert np.array_equal(got[::2], np.zeros((3, d)))
    assert np.allclose(np.linalg.norm(got[1::2], axis=1), 1.0)


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec.chain_spheres(3, radii=(1.0, 1.0), gaps=(2.5,))  # unreachable gap
    with pytest.raises(ValueError):
        MeasureSpec.chain_spheres(3, radii=(1.0,), gaps=())
    assert MeasureSpec.determinant_variety(t=0.5).d == 3  # fixed, as triangle2d fixes d = 2
    with pytest.raises(ValueError):
        MeasureSpec.determinant_variety(t=0.0)
    with pytest.raises(ValueError):
        MeasureSpec.determinant_variety(t=2.0)  # beyond attainable
    # NaN fails 0 < |t| < tmax; a cutoff must be positive and finite, so that
    # the ball's radius and volume are
    with pytest.raises(ValueError, match="level must satisfy"):
        MeasureSpec.determinant_variety(t=math.nan)
    for cutoff in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="cutoff must be positive and finite"):
            MeasureSpec.determinant_variety(t=0.1, cutoff=cutoff)
    with pytest.raises(ValueError):
        MeasureSpec.sphere(1)


# ---------------------------------------------------------------------------
# decay fits


def test_decay_fit_synthetic_power_law():
    radii = np.geomspace(1.0, 100.0, 40)
    report = decay_fit(lambda u, rs: (rs**-0.5, None), FrequencyPoint.of([1.0, 0.0]), radii)
    assert report.fitted_exponent == pytest.approx(0.5, abs=1e-9)
    assert not report.inconclusive


def test_decay_fit_sphere_d3():
    radii = np.geomspace(10.0, 1000.0, 20000)
    report = decay_fit(
        lambda u, rs: (ft_sphere(3, *u.ray(rs)), None),
        FrequencyPoint.of([0.3, -0.5, 0.81]),
        radii,
        reference=1.0,
    )
    assert abs(report.fitted_exponent - 1.0) <= 0.05
    assert report.reference_exponent == 1.0


def test_decay_fit_sphere_d2():
    radii = np.geomspace(10.0, 1000.0, 20000)
    report = decay_fit(
        lambda u, rs: (ft_sphere(2, *u.ray(rs)), None), FrequencyPoint.of([1.0, 0.4]), radii
    )
    assert abs(report.fitted_exponent - 0.5) <= 0.1


def test_decay_fit_triangle_paired_direction():
    radii = np.geomspace(10.0, 300.0, 8000)
    xi = np.array([0.6, 0.8])
    report = decay_fit(
        lambda u, rs: (ft_triangle(*u.ray(rs)), None),
        FrequencyPoint.of(xi, -xi),
        radii,
        reference=0.5,
    )
    assert abs(report.fitted_exponent - 0.5) <= 0.15


def test_decay_fit_direction_normalized():
    radii = np.geomspace(1.0, 20.0, 6)
    report = decay_fit(lambda u, rs: (rs**-1.0, None), FrequencyPoint.of([3.0, 4.0]), radii)
    assert report.direction.norm == pytest.approx(1.0, rel=1e-12)
    assert report.fitted_exponent == pytest.approx(1.0, abs=1e-9)


def test_decay_fit_validation():
    fp = FrequencyPoint.of([1.0, 0.0])
    ones = lambda u, rs: (np.ones(len(rs)), None)  # noqa: E731
    with pytest.raises(ValueError):
        decay_fit(ones, fp, [1, 2, 3, 40])  # too few radii
    with pytest.raises(ValueError):
        decay_fit(ones, fp, [1, 2, 3, 4, 5])  # less than a decade
    with pytest.raises(ValueError):
        decay_fit(ones, fp, [1, 2, 2, 4, 40])  # not increasing
    with pytest.raises(ValueError):
        decay_fit(ones, FrequencyPoint.of([0.0, 0.0]), [1, 2, 4, 8, 40])
    with pytest.raises(ValueError):  # one value per radius
        decay_fit(lambda u, rs: ([1.0], None), fp, [1, 2, 4, 8, 40])


@pytest.mark.parametrize("radii,named", [([0.0, 1.3, 2.7, 5.1, 10.3, 20.7], "0"),
                                         ([-2.0, -1.0, 1.0, 4.0, 40.0], "-2, -1"),
                                         ([1.0, 2.0, 4.0, 8.0, math.inf], "inf")])
def test_decay_fit_checks_radii_before_evaluating(radii, named):
    calls = []

    def spy(unit, rs):
        calls.append(rs)
        return np.ones(len(rs)), None

    with pytest.raises(ValueError, match=f"radii must be positive and finite, got {named}$"):
        decay_fit(spy, FrequencyPoint.of([1.0, 0.0, 0.0]), radii)
    assert calls == []


def test_decay_fit_refuses_a_radius_whose_square_is_not_a_finite_float():
    calls = []

    def spy(unit, rs):
        calls.append(rs)
        return np.ones(len(rs)), None

    # the bound is FrequencyPoint.unit's on a direction's norm, just under 2^512
    fp = FrequencyPoint.of([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="radii must be at most 1.34078e[+]154, .* got 1.3408e[+]154$"):
        decay_fit(spy, fp, np.geomspace(1.0, 1.3408e154, 5))
    assert calls == []
    decay_fit(spy, fp, np.geomspace(1.0, 1.34078e154, 5))
    assert len(calls) == 1 and calls[0][-1] ** 2 < math.inf


def test_decay_fit_floor_gives_inconclusive():
    radii = np.geomspace(1.0, 100.0, 8)
    report = decay_fit(lambda u, rs: (np.zeros(len(rs)), None), FrequencyPoint.of([1.0]), radii)
    assert report.inconclusive and report.fitted_exponent is None


def test_decay_fit_mc_error_bars_recorded():
    radii = np.geomspace(1.0, 20.0, 6)
    report = decay_fit(
        lambda u, rs: (rs**-1.0, [0.01] * len(rs)), FrequencyPoint.of([1.0, 0.0]), radii
    )
    assert report.mc_error_bars == (0.01,) * 6


def _radial_per_radius(d, xi):
    """The closed forms' rule one frequency at a time: np.linalg.norm of the
    frequency, then a scalar ft_sphere_radial."""
    return float(ft_sphere_radial(d, float(np.linalg.norm(xi))))


def _per_radius_reference(kind, unit, radii):
    """A ray's closed form evaluated one radius r at a time, at r * u."""
    values = []
    for r in radii.tolist():
        blocks = [r * b for b in unit.blocks]
        if kind == "sphere":
            values.append(_radial_per_radius(len(blocks[0]), blocks[0]))
            continue
        (x1, x2), (e1, e2) = blocks
        w_plus = np.array([x1 + e1 / 2.0 + e2 * SQ3 / 2.0, x2 - e1 * SQ3 / 2.0 + e2 / 2.0])
        w_minus = np.array([x1 + e1 / 2.0 - e2 * SQ3 / 2.0, x2 + e1 * SQ3 / 2.0 + e2 / 2.0])
        values.append(_radial_per_radius(2, w_plus) + _radial_per_radius(2, w_minus))
    return np.array(values)


@pytest.mark.parametrize("spec", [MeasureSpec.sphere(d) for d in range(2, 9)] + [MeasureSpec.triangle2d()],
                         ids=lambda spec: f"{spec.kind}{spec.d}")
def test_closed_form_ray_equals_the_per_radius_rule_bit_for_bit(spec):
    # one array call per ray gives every value the bits it had when each
    # radius was its own frequency point
    rng = np.random.default_rng(spec.d)
    radii = np.geomspace(0.01, 500.0, 200)
    closed_form = fourierlab.MEASURES[spec.kind].closed_form
    for _ in range(25):
        unit = FrequencyPoint.of(*(rng.standard_normal(n) for n in spec.block_dims)).unit()
        assert np.array_equal(closed_form(spec, unit, radii), _per_radius_reference(spec.kind, unit, radii))


def test_decay_fit_magnitudes_are_the_complex_abs_bit_for_bit():
    rng = np.random.default_rng(36)
    scale = 10.0 ** rng.uniform(-12, 12, (2, 5000))
    values = rng.standard_normal(5000) * scale[0] + 1j * rng.standard_normal(5000) * scale[1]
    report = decay_fit(lambda u, rs: (values, None), FrequencyPoint.of([1.0]), np.geomspace(1, 100, 5000))
    assert report.magnitudes == tuple(abs(complex(v)) for v in values)


def test_unit_direction_is_the_division_by_the_summed_squares():
    # a direction keeps the unit vector of its summed squares wherever they
    # are a positive finite float, up to the edge of the float range
    for blocks in ([[3.0, 4.0]], [[1e154, 0.0, 0.0]], [[0.3, -0.5], [0.81, 2.0]], [[1e-150, 2e-150]]):
        fp = FrequencyPoint.of(*blocks)
        norm = math.sqrt(sum(float((np.asarray(b) ** 2).sum()) for b in blocks))
        assert all(np.array_equal(u, np.asarray(b) * (1.0 / norm)) for u, b in zip(fp.unit().blocks, blocks))
    edge = 2.0**-511  # its square is the smallest normal float, sys.float_info.min
    assert np.array_equal(FrequencyPoint.of([edge, 0.0]).unit().blocks[0], [1.0, 0.0])
    for coords, shown in (([1e200, 0.0], "1e+200"), ([1e-200, 0.0], "1e-200"), ([0.0, 0.0], "0"),
                          ([1.7e308, 1.7e308], "inf"), ([1e-160, 0.0], "1e-160"),
                          ([np.nextafter(edge, 0.0), 0.0], f"{np.nextafter(edge, 0.0):g}")):
        with pytest.raises(ValueError, match=f"direction norm {re.escape(shown)} is out of range"):
            FrequencyPoint.of(coords).unit()


# ---------------------------------------------------------------------------
# curvature certificates


def _scalar_level_set_curvatures(F, t, x0, h=fourierlab.CURVATURE_STEP):
    """The reference rule: a scalar F called once per central-difference point."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    f0 = float(F(x0))
    if abs(f0 - t) > 1e-9:
        raise ValueError(f"x0 is not on the level set: |F(x0)-t| = {abs(f0 - t):.3g}")

    eye = np.eye(n)
    grad = np.array(
        [(float(F(x0 + h * eye[i])) - float(F(x0 - h * eye[i]))) / (2 * h) for i in range(n)]
    )
    gn = float(np.linalg.norm(grad))
    if gn < 1e-6:
        raise ValueError("gradient too small: not a regular point")

    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = (float(F(x0 + h * eye[i])) - 2.0 * f0 + float(F(x0 - h * eye[i]))) / h**2
        for j in range(i + 1, n):
            val = (
                float(F(x0 + h * eye[i] + h * eye[j]))
                - float(F(x0 + h * eye[i] - h * eye[j]))
                - float(F(x0 - h * eye[i] + h * eye[j]))
                + float(F(x0 - h * eye[i] - h * eye[j]))
            ) / (4.0 * h**2)
            hess[i, j] = hess[j, i] = val

    _, _, vt = np.linalg.svd(grad[None, :] / gn)
    tangent = vt[1:]
    form = tangent @ hess @ tangent.T / gn
    form = 0.5 * (form + form.T)
    eigs = np.linalg.eigvalsh(form)
    return eigs[np.argsort(-np.abs(eigs), kind="stable")]


def _family_level_set(name, d):
    """(batched map, level, base point) of a family's config_map at the
    curvature command's tuple: volume at (e_1, ..., e_d, 0), area2 at
    (e_1, e_2, 0), angle at (0, e_1, e_2)."""
    base = np.eye(d + 1, d)
    tup, t = {"volume": (base, 1.0), "area2": (base[[0, 1, d]], 1.0),
              "angle": (base[[d, 0, 1]], math.pi / 2)}[name]
    config_map = family_row(name).config_map
    return (lambda x: config_map(x.reshape(len(x), *tup.shape))[:, 0]), t, tup.ravel()


def _sphere(x):
    return (x * x).sum(axis=1)


def _pair_determinant(z):
    return z[:, 0] * z[:, 3] - z[:, 1] * z[:, 2]


def _affine(x):
    return 1.0 + 2.0 * x[:, 0] - 0.5 * x[:, 1] + x[:, 2]


LEVEL_SETS = {f"{name}{d}": _family_level_set(name, d) for name in ("volume", "area2", "angle")
              for d in (2, 3, 4)}
LEVEL_SETS.update(sphere=(_sphere, 1.0, np.array([1.0, 0.0, 0.0])),
                  pair_determinant=(_pair_determinant, 1.0, np.array([1.0, 0.0, 0.0, 1.0])),
                  affine=(_affine, 1.0, np.array([0.25, 1.0, 0.0])))


@pytest.mark.parametrize("case", sorted(LEVEL_SETS))
def test_batched_level_set_rule_equals_the_scalar_loop_bit_for_bit(case):
    # one call over all 2N^2 + 1 points forms and differences them as the
    # scalar loop did, point by point
    F, t, x0 = LEVEL_SETS[case]
    assert np.array_equal(level_set_curvatures(F, t, x0),
                          _scalar_level_set_curvatures(lambda x: F(x[None])[0], t, x0))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_family_level_set_ranks(d):
    # N - 1 principal curvatures, flat along the d translations, and along
    # dilation for the angle
    for name, flat in (("volume", d), ("area2", d), ("angle", d + 1)):
        F, t, x0 = _family_level_set(name, d)
        eigs = level_set_curvatures(F, t, x0)
        assert eigs.shape == (x0.size - 1,)
        assert nonzero_curvature_count(eigs) == x0.size - 1 - flat


def test_volume_d2_curvatures_match_the_analytic_form():
    # the volume map at d = 2 is det(x1 - x3, x2 - x3) near its base tuple, a
    # quadratic form z^T H z / 2 in z = (x1, x2, x3): central differences are
    # exact up to rounding, so they give the form built from grad = H z and H
    F, t, x0 = _family_level_set("volume", 2)
    legs = [np.kron(row, np.eye(2)) for row in ([1.0, 0.0, -1.0], [0.0, 1.0, -1.0])]
    turn = np.array([[0.0, 1.0], [-1.0, 0.0]])
    hess = legs[0].T @ turn @ legs[1] + legs[1].T @ turn.T @ legs[0]
    assert 0.5 * x0 @ hess @ x0 == pytest.approx(t)
    grad = hess @ x0
    tangent = np.linalg.svd(grad[None, :] / np.linalg.norm(grad))[2][1:]
    exact = np.linalg.eigvalsh(tangent @ hess @ tangent.T / np.linalg.norm(grad))
    np.testing.assert_allclose(np.sort(level_set_curvatures(F, t, x0)), exact, rtol=0, atol=1e-8)


def test_level_set_over_the_budget_is_refused_before_f_runs():
    calls = []
    n = fourierlab.CURVATURE_MAX_N + 1
    message = f"a level set in R^{n} is over the curvature budget of N = 72"
    with pytest.raises(CapacityError, match=re.escape(message)):
        level_set_curvatures(lambda x: calls.append(x) or _sphere(x), 1.0, np.eye(n)[0])
    assert calls == []


def test_level_set_rule_memory_at_the_budget():
    # the volume map at d = 8, N = 72: one call of (2N^2 + 1) x N points;
    # measured at a 22 MB tracemalloc peak
    F, t, x0 = _family_level_set("volume", 8)
    assert x0.size == fourierlab.CURVATURE_MAX_N
    tracemalloc.start()
    try:
        eigs = level_set_curvatures(F, t, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    assert nonzero_curvature_count(eigs) == 72 - 1 - 8


def test_sphere_umbilic():
    eigs = level_set_curvatures(_sphere, 1.0, [1.0, 0.0, 0.0])
    assert eigs.shape == (2,)
    np.testing.assert_allclose(eigs, [1.0, 1.0], rtol=1e-6)
    assert nonzero_curvature_count(eigs) == 2


def test_pair_determinant_form_three_nonzero():
    eigs = level_set_curvatures(_pair_determinant, 1.0, [1.0, 0.0, 0.0, 1.0])
    assert eigs.shape == (3,)
    assert nonzero_curvature_count(eigs) == 3
    np.testing.assert_allclose(np.abs(eigs), [1 / math.sqrt(2)] * 3, rtol=1e-5)


def test_affine_level_set_flat():
    eigs = level_set_curvatures(_affine, 1.0, [0.25, 1.0, 0.0])
    assert np.abs(eigs).max() < 1e-6


def test_curvature_step_convergence():
    # truncation-dominated regime: halving h shrinks the change quadratically
    # (|x| rather than |x|^2: quadratics differentiate exactly at any h)
    F = lambda x: np.sqrt((x * x).sum(axis=1))  # noqa: E731
    x0 = [1.0, 0.0, 0.0]
    e1 = level_set_curvatures(F, 1.0, x0, h=2e-2)
    e2 = level_set_curvatures(F, 1.0, x0, h=1e-2)
    e3 = level_set_curvatures(F, 1.0, x0, h=5e-3)
    c1 = np.abs(e1 - e2).max()
    c2 = np.abs(e2 - e3).max()
    assert c2 <= 0.6 * c1


def test_curvature_validation():
    with pytest.raises(ValueError):
        level_set_curvatures(_sphere, 1.0, [0.5, 0.0, 0.0])  # not on the level set
    with pytest.raises(ValueError):
        level_set_curvatures(lambda x: _sphere(x) ** 2, 0.0, [0.0, 0.0, 0.0])


# The chain variety V = {|x| = |y| = |x - y| = 1} at (x0, y0), written here
# independently of fourierlab: a covector from multipliers, and rotations of
# R^d, which map V to itself, as curves on V.


def _chain_point(d):
    x0, y0 = np.zeros(d), np.zeros(d)
    x0[-1] = 1.0
    y0[0], y0[-1] = SQ3 / 2.0, 0.5
    return x0, y0


def _critical_covector(d, lam):
    x0, y0 = _chain_point(d)
    l1, l2, l3 = lam
    return l1 * x0 + l3 * (x0 - y0), l2 * y0 + l3 * (y0 - x0)


def _closed_form_hessian(d, xi, eta):
    """p (+) d-2 copies of [[q11, q12], [q12, q22]] from the closed forms."""
    x0, y0 = _chain_point(d)
    p = -(xi @ x0 + eta @ y0) / 2.0  # per radian of the rotation, over its squared speed 2
    q11 = -(xi[-1] + (SQ3 / 6.0) * eta[0] - 0.5 * eta[-1])
    q12 = eta[0] / SQ3 - eta[-1]
    q22 = -2.0 * eta[0] / SQ3
    want = np.zeros((2 * d - 3, 2 * d - 3))
    want[0, 0] = p
    for lo in range(1, 2 * d - 3, 2):
        want[lo:lo + 2, lo:lo + 2] = [[q11, q12], [q12, q22]]
    return want


def _turn(z, a, b, t):
    """exp(t (a b^T - b a^T)) z for orthogonal a, b: a rotation of z."""
    gen = np.outer(a, b) - np.outer(b, a)
    s = np.linalg.norm(a) * np.linalg.norm(b)
    return z + math.sin(s * t) / s * (gen @ z) + (1.0 - math.cos(s * t)) / s**2 * (gen @ gen @ z)


def _second_difference(xi, eta, a, b, speed, h=1e-3):
    """d^2/dt^2 of xi.x + eta.y along (x, y)(t) = exp(t A / speed)(x0, y0),
    checked to lie on V."""
    x0, y0 = _chain_point(xi.size)
    values = []
    for t in (-h, 0.0, h):
        x, y = _turn(x0, a, b, t / speed), _turn(y0, a, b, t / speed)
        assert np.linalg.norm([x @ x - 1, y @ y - 1, (x - y) @ (x - y) - 1]) < 1e-13
        values.append(xi @ x + eta @ y)
    return (values[0] - 2.0 * values[1] + values[2]) / h**2


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_phase_hessian_is_the_second_difference_along_curves_on_the_variety(d):
    rng = np.random.Generator(np.random.PCG64(100 + d))
    x0, y0 = _chain_point(d)
    eye = np.eye(d)
    # u . (x0, y0) = (1, 0) or (0, 1), u in the (e_1, e_d) plane: the turn
    # toward e_k of x alone or of y alone; their sum turns both
    u_x, u_y = (np.linalg.lstsq(np.stack([x0, y0]), rhs, rcond=None)[0] for rhs in ([1, 0], [0, 1]))
    for _ in range(3):
        xi, eta = _critical_covector(d, rng.standard_normal(3))
        hess, _ = phase_hessian(d, xi, eta)
        # the rotation e_1 -> e_d moves (x0, y0) at speed sqrt(2)
        assert _second_difference(xi, eta, eye[-1], eye[0], math.sqrt(2.0)) == pytest.approx(
            hess[0, 0], abs=1e-6)
        for k in range(1, d - 1):
            i = 2 * k - 1
            turns = {"x": _second_difference(xi, eta, eye[k], u_x, 1.0),
                     "y": _second_difference(xi, eta, eye[k], u_y, 1.0),
                     "both": _second_difference(xi, eta, eye[k], u_x + u_y, 1.0)}
            assert turns["x"] == pytest.approx(hess[i, i], abs=1e-6)
            assert turns["y"] == pytest.approx(hess[i + 1, i + 1], abs=1e-6)
            assert (turns["both"] - turns["x"] - turns["y"]) / 2.0 == pytest.approx(hess[i, i + 1], abs=1e-6)
        # per radian, the rotation gives the closed form -(xi.x0 + eta.y0) = 2 p
        rotation = _second_difference(xi, eta, eye[-1], eye[0], 1.0)
        assert rotation == pytest.approx(-(xi @ x0 + eta @ y0), abs=1e-6)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_phase_hessian_equals_the_closed_form_blocks(d):
    rng = np.random.Generator(np.random.PCG64(200 + d))
    for _ in range(10):
        xi, eta = _critical_covector(d, rng.standard_normal(3))
        hess, rank = phase_hessian(d, xi, eta)
        want = _closed_form_hessian(d, xi, eta)
        np.testing.assert_allclose(hess, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        assert rank == 2 * d - 3


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_tangent_basis_is_orthonormal_and_tangent(d):
    basis = fourierlab._tangent_basis(d)
    x0, y0 = _chain_point(d)
    zero = np.zeros(d)
    gradients = np.array([np.concatenate(g) for g in ((x0, zero), (zero, y0), (x0 - y0, y0 - x0))])
    assert basis.shape == (2 * d - 3, 2 * d)
    np.testing.assert_allclose(basis @ basis.T, np.eye(2 * d - 3), atol=1e-15)
    np.testing.assert_allclose(basis @ gradients.T, 0.0, atol=1e-15)


def test_phase_hessian_zero_point():
    hess, rank = phase_hessian(3, np.zeros(3), np.zeros(3))
    assert rank == 0
    assert np.all(hess == 0.0)
    assert hess.shape == (3, 3)


def _check_covector(d, on_plane):
    """eta = 0.9 e_1 + 0.3 e_d with xi_d = 0.5, or with l1 + l2 + l3 = 0."""
    eta = np.zeros(d)
    eta[0], eta[-1] = 0.9, 0.3
    l2, l3 = eta[0] / SQ3 + eta[-1], eta[0] / SQ3 - eta[-1]
    l1 = -l2 - l3 if on_plane else 0.5 - l3 / 2.0
    return _critical_covector(d, (l1, l2, l3))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_phase_hessian_rank_floors(d):
    xi, eta = _check_covector(d, on_plane=False)
    assert xi[-1] == pytest.approx(0.5, rel=1e-15)
    _, rank_generic = phase_hessian(d, xi, eta)
    assert rank_generic == 2 * d - 3 >= 2 * (d - 2)
    xi, eta = _check_covector(d, on_plane=True)
    hess, rank_plane = phase_hessian(d, xi, eta)
    assert abs(hess[0, 0]) < 1e-15
    assert rank_plane == 2 * d - 4 >= d - 1
    assert fourierlab.phase_check_ranks(d) == (rank_generic, rank_plane)  # the curvature command's points


def test_phase_plane_restricted_determinant_matches_closed_form():
    # on l1 + l2 + l3 = 0 the block determinant is -(l2^2 + l2 l3 + l3^2)
    rng = np.random.Generator(np.random.PCG64(15))
    for _ in range(10):
        e1, ed = rng.standard_normal(2)
        l2, l3 = e1 / SQ3 + ed, e1 / SQ3 - ed
        xi, eta = _critical_covector(3, (-l2 - l3, l2, l3))
        np.testing.assert_allclose(eta, [e1, 0.0, ed], atol=1e-15)
        hess, _ = phase_hessian(3, xi, eta)
        got = float(np.linalg.det(hess[1:3, 1:3]))
        want = -(e1**2) - ed**2
        assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


def test_phase_plane_form_and_discriminant():
    a, b, c = phase_plane_form()
    assert a == pytest.approx(-1.0, rel=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)
    assert c == pytest.approx(-1.0, rel=1e-12)
    # the sign is computed, not assumed: it comes out negative (definite form)
    assert phase_plane_discriminant() == pytest.approx(-4.0, rel=1e-10)
    assert phase_plane_discriminant() < 0


def test_phase_hessian_validation():
    with pytest.raises(ValueError):
        phase_hessian(2, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        phase_hessian(3, np.zeros(2), np.zeros(3))
    # not critical: off the span of the constraint gradients
    with pytest.raises(ValueError, match="not a critical covector"):
        phase_hessian(3, [0.2, 0.0, 0.5], [0.9, 0.0, 0.3])
    xi, eta = _critical_covector(4, (0.7, -0.4, 1.3))
    xi[1] = 0.1
    with pytest.raises(ValueError, match="not a critical covector"):
        phase_hessian(4, xi, eta)
