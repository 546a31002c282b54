import math

import numpy as np
import pytest

from configeo import fourierlab
from configeo.errors import InfeasibleError
from configeo.fourierlab import (
    FrequencyPoint,
    MeasureSpec,
    circulant_check,
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
    phase_plane_xi,
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
    spec = MeasureSpec.determinant_variety(3, t=1.5)  # near the attainable edge
    with pytest.raises(InfeasibleError):
        ft_montecarlo(spec, [FrequencyPoint.of([0, 0, 0], [0, 0, 0], [0, 0, 0])],
                      epsilon=1e-6, samples=10**4, seed=13)


def test_mc_determinant_variety_mass():
    spec = MeasureSpec.determinant_variety(3, t=0.2)
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


# Seeded estimates pinned at the per-point implementation (one draw per
# point), over two chunks of _MC_CHUNK samples with a partial last one.
# Compared with ==: evaluating a ray from one draw must not move a bit.
GOLDEN_SAMPLES = 270_000
GOLDEN_MC = {
    "sphere": (
        MeasureSpec.sphere(3), 21,
        [([0.5, 0.0, 0.0],), ([2.0, -1.0, 0.5],)],
        [(complex(0.005255379739091543, 0.010703533121323059), 0.024183980635551133),
         (complex(0.8470266257941473, 0.030542836433671658), 0.024128919443486323)],
    ),
    "triangle2d": (
        MeasureSpec.triangle2d(), 22,
        [([0.3, 0.1], [-0.2, 0.4]), ([1.5, 0.5], [-1.0, 0.8])],
        [(complex(2.058439828636069, 0.011488707280499343), 0.12549639963878928),
         (complex(1.0276877091248766, 0.08653914197484844), 0.12554322234148538)],
    ),
    "chain_spheres": (
        MeasureSpec.chain_spheres(3), 23,
        [([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]), ([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]),
         ([3.5, 0.2, 0.0], [-3.5, 0.0, 0.1])],
        [(complex(78.31348321812536, 0.0), 0.6597830567349644),
         (complex(-0.6983705385843058, 0.40874184351061343), 0.676776239049061),
         (complex(-0.3947181520602262, -0.1831854662954825), 0.676777512601815)],
    ),
    # phases come from the strided mats[:, j, :] views of the accepted rows
    "determinant_variety": (
        MeasureSpec.determinant_variety(3, t=0.2), 24,
        [([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
         ([0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]),
         ([0.3, -0.7, 0.2], [1.1, 0.0, -0.4], [-0.6, 0.9, 0.8])],
        [(complex(1392.351917984495, 0.0), 8.939281673485521),
         (complex(15.806407405887523, 1.3322725414431702), 9.332201636207804),
         (complex(7.655576811463105, 3.2544215123045985), 9.332237834643754)],
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_MC))
def test_mc_golden_estimates_and_single_point_calls(kind):
    spec, seed, blocks, want = GOLDEN_MC[kind]
    points = [FrequencyPoint.of(*b) for b in blocks]
    assert ft_montecarlo(spec, points, 0.05, GOLDEN_SAMPLES, seed) == want
    for fp, one in zip(points, want):
        assert ft_montecarlo(spec, [fp], 0.05, GOLDEN_SAMPLES, seed) == [one]


@pytest.mark.parametrize("kind,draws_per_chunk", [
    ("sphere", 1), ("triangle2d", 2), ("chain_spheres", 2), ("determinant_variety", 1),
])
def test_mc_draws_once_per_chunk_whatever_the_point_count(monkeypatch, kind, draws_per_chunk):
    spec, seed, blocks, _ = GOLDEN_MC[kind]
    points = [FrequencyPoint.of(*b) for b in blocks]
    monkeypatch.setattr(fourierlab, "_MC_CHUNK", 4096)
    calls = []
    draw = fourierlab._unit_vectors
    monkeypatch.setattr(fourierlab, "_unit_vectors",
                        lambda *args: calls.append(args[1:]) or draw(*args))
    samples = 3 * 4096 + 100  # three full chunks and a partial one
    for batch in ([points[0]], points, points * 4):
        calls.clear()
        ft_montecarlo(spec, batch, 0.05, samples, seed)
        assert len(calls) == 4 * draws_per_chunk
        assert [m for m, _ in calls[::draws_per_chunk]] == [4096, 4096, 4096, 100]


@pytest.mark.parametrize("d", [2, 3, 4, 9])
def test_unit_vectors_equal_the_norm_division_bit_for_bit(d):
    # below 8 coordinates the norms are a coordinate-order sum, from 8 on np.add.reduce
    g = np.random.default_rng(d).standard_normal((5000, d))
    want = g / np.linalg.norm(g, axis=1, keepdims=True)
    got = fourierlab._unit_vectors(np.random.default_rng(d), 5000, d)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [2, 3, 9])
def test_unit_vectors_leave_zero_rows_unchanged(d):
    class Draw:  # a stream whose normal rows include zero rows
        def standard_normal(self, shape):
            rows = np.arange(1.0, shape[0] * shape[1] + 1.0).reshape(shape)
            rows[::2] = 0.0
            return rows

    got = fourierlab._unit_vectors(Draw(), 6, d)
    assert np.array_equal(got[::2], np.zeros((3, d)))
    assert np.allclose(np.linalg.norm(got[1::2], axis=1), 1.0)


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec.chain_spheres(3, radii=(1.0, 1.0), gaps=(2.5,))  # unreachable gap
    with pytest.raises(ValueError):
        MeasureSpec.chain_spheres(3, radii=(1.0,), gaps=())
    with pytest.raises(ValueError):
        MeasureSpec.determinant_variety(4, t=0.5)  # gated to d = 3
    with pytest.raises(ValueError):
        MeasureSpec.determinant_variety(3, t=0.0)
    with pytest.raises(ValueError):
        MeasureSpec.determinant_variety(3, t=2.0)  # beyond attainable
    with pytest.raises(ValueError):
        MeasureSpec.sphere(1)


# ---------------------------------------------------------------------------
# decay fits


def test_decay_fit_synthetic_power_law():
    radii = np.geomspace(1.0, 100.0, 40)
    report = decay_fit(lambda ps: [p.norm**-0.5 for p in ps], FrequencyPoint.of([1.0, 0.0]), radii)
    assert report.fitted_exponent == pytest.approx(0.5, abs=1e-9)
    assert not report.inconclusive


def test_decay_fit_sphere_d3():
    radii = np.geomspace(10.0, 1000.0, 20000)
    report = decay_fit(
        lambda ps: [ft_sphere(3, p.blocks[0]) for p in ps],
        FrequencyPoint.of([0.3, -0.5, 0.81]),
        radii,
        reference=1.0,
    )
    assert abs(report.fitted_exponent - 1.0) <= 0.05
    assert report.reference_exponent == 1.0


def test_decay_fit_sphere_d2():
    radii = np.geomspace(10.0, 1000.0, 20000)
    report = decay_fit(
        lambda ps: [ft_sphere(2, p.blocks[0]) for p in ps], FrequencyPoint.of([1.0, 0.4]), radii
    )
    assert abs(report.fitted_exponent - 0.5) <= 0.1


def test_decay_fit_triangle_paired_direction():
    radii = np.geomspace(10.0, 300.0, 8000)
    xi = np.array([0.6, 0.8])
    report = decay_fit(
        lambda ps: [ft_triangle(p.blocks[0], p.blocks[1]) for p in ps],
        FrequencyPoint.of(xi, -xi),
        radii,
        reference=0.5,
    )
    assert abs(report.fitted_exponent - 0.5) <= 0.15


def test_decay_fit_direction_normalized():
    radii = np.geomspace(1.0, 20.0, 6)
    report = decay_fit(lambda ps: [p.norm**-1.0 for p in ps], FrequencyPoint.of([3.0, 4.0]), radii)
    assert report.direction.norm == pytest.approx(1.0, rel=1e-12)
    assert report.fitted_exponent == pytest.approx(1.0, abs=1e-9)


def test_decay_fit_validation():
    fp = FrequencyPoint.of([1.0, 0.0])
    with pytest.raises(ValueError):
        decay_fit(lambda ps: [1.0] * len(ps), fp, [1, 2, 3, 40])  # too few radii
    with pytest.raises(ValueError):
        decay_fit(lambda ps: [1.0] * len(ps), fp, [1, 2, 3, 4, 5])  # less than a decade
    with pytest.raises(ValueError):
        decay_fit(lambda ps: [1.0] * len(ps), fp, [1, 2, 2, 4, 40])  # not increasing
    with pytest.raises(ValueError):
        decay_fit(lambda ps: [1.0] * len(ps), FrequencyPoint.of([0.0, 0.0]), [1, 2, 4, 8, 40])
    with pytest.raises(ValueError):  # one value per point
        decay_fit(lambda ps: [1.0], fp, [1, 2, 4, 8, 40])


def test_decay_fit_floor_gives_inconclusive():
    radii = np.geomspace(1.0, 100.0, 8)
    report = decay_fit(lambda ps: [0.0] * len(ps), FrequencyPoint.of([1.0]), radii)
    assert report.inconclusive and report.fitted_exponent is None


def test_decay_fit_mc_error_bars_recorded():
    radii = np.geomspace(1.0, 20.0, 6)
    report = decay_fit(
        lambda ps: [(p.norm**-1.0, 0.01) for p in ps], FrequencyPoint.of([1.0, 0.0]), radii
    )
    assert report.mc_error_bars == (0.01,) * 6


# ---------------------------------------------------------------------------
# curvature certificates


def test_sphere_umbilic():
    eigs = level_set_curvatures(lambda x: float(x @ x), 1.0, [1.0, 0.0, 0.0])
    assert eigs.shape == (2,)
    np.testing.assert_allclose(eigs, [1.0, 1.0], rtol=1e-6)
    assert nonzero_curvature_count(eigs) == 2


def test_pair_determinant_form_three_nonzero():
    F = lambda z: z[0] * z[3] - z[1] * z[2]  # noqa: E731
    eigs = level_set_curvatures(F, 1.0, [1.0, 0.0, 0.0, 1.0])
    assert eigs.shape == (3,)
    assert nonzero_curvature_count(eigs) == 3
    np.testing.assert_allclose(np.abs(eigs), [1 / math.sqrt(2)] * 3, rtol=1e-5)


def test_affine_level_set_flat():
    F = lambda x: float(1.0 + 2.0 * x[0] - 0.5 * x[1] + x[2])  # noqa: E731
    eigs = level_set_curvatures(F, 1.0, [0.25, 1.0, 0.0])
    assert np.abs(eigs).max() < 1e-6


def test_curvature_step_convergence():
    # truncation-dominated regime: halving h shrinks the change quadratically
    # (|x| rather than |x|^2: quadratics differentiate exactly at any h)
    F = lambda x: float(np.sqrt(x @ x))  # noqa: E731
    x0 = [1.0, 0.0, 0.0]
    e1 = level_set_curvatures(F, 1.0, x0, h=2e-2)
    e2 = level_set_curvatures(F, 1.0, x0, h=1e-2)
    e3 = level_set_curvatures(F, 1.0, x0, h=5e-3)
    c1 = np.abs(e1 - e2).max()
    c2 = np.abs(e2 - e3).max()
    assert c2 <= 0.6 * c1


def test_curvature_validation():
    F = lambda x: float(x @ x)  # noqa: E731
    with pytest.raises(ValueError):
        level_set_curvatures(F, 1.0, [0.5, 0.0, 0.0])  # not on the level set
    with pytest.raises(ValueError):
        level_set_curvatures(lambda x: float((x @ x) ** 2), 0.0, [0.0, 0.0, 0.0])


def test_circulant_values_and_closed_form():
    assert circulant_check(2) == pytest.approx(1.0, rel=1e-14)
    assert circulant_check(3) == pytest.approx(0.75, rel=1e-14)
    for d in range(2, 13):
        # eigenvalues 1/2 (multiplicity d-2) and d/2 give det = d / 2^(d-1)
        want = d / 2.0 ** (d - 1)
        assert circulant_check(d) == pytest.approx(want, rel=1e-12)
        assert circulant_check(d) != 0.0


def test_phase_hessian_zero_point():
    hess, rank = phase_hessian(3, np.zeros(3), np.zeros(3))
    assert rank == 0
    assert np.all(hess == 0.0)
    assert hess.shape == (3, 3)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_phase_hessian_rank_floors(d):
    eta = np.zeros(d)
    eta[0], eta[-1] = 0.9, 0.3
    xi = np.zeros(d)
    xi[0], xi[-1] = 0.2, 0.5
    _, rank_generic = phase_hessian(d, xi, eta)
    assert rank_generic >= 2 * (d - 2)
    _, rank_plane = phase_hessian(d, phase_plane_xi(eta, d), eta)
    assert rank_plane >= d - 1


def test_phase_plane_restricted_determinant_matches_closed_form():
    rng = np.random.Generator(np.random.PCG64(15))
    for _ in range(10):
        e1, ed = rng.standard_normal(2)
        eta = np.array([e1, 0.0, ed])
        hess, _ = phase_hessian(3, phase_plane_xi(eta, 3), eta)
        got = float(np.linalg.det(hess[1:3, 1:3]))
        want = -13.0 / 9.0 * e1**2 + 17.0 * SQ3 / 9.0 * e1 * ed - ed**2
        assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


def test_phase_plane_form_and_discriminant():
    a, b, c = phase_plane_form()
    assert a == pytest.approx(-13.0 / 9.0, rel=1e-12)
    assert b == pytest.approx(17.0 * SQ3 / 9.0, rel=1e-12)
    assert c == pytest.approx(-1.0, rel=1e-12)
    # the sign is computed, not assumed: it comes out positive (indefinite form)
    assert phase_plane_discriminant() == pytest.approx(399.0 / 81.0, rel=1e-10)
    assert phase_plane_discriminant() > 0


def test_phase_hessian_validation():
    with pytest.raises(ValueError):
        phase_hessian(2, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        phase_hessian(3, np.zeros(2), np.zeros(3))
