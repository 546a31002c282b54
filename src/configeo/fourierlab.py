"""Fourier transforms of configuration measures, decay-exponent fits, and
curvature/rank certificates.

Fixed normalizations (so the oracles are mutually comparable):

  sphere(d)     surface measure on S^{d-1}; total mass = surface area.
  triangle2d    the angle-parametrized measure on the pairs
                {(u,v) in R^2 x R^2 : |u|=|v|=|u-v|=1}: two circle branches
                v = R(+-60 deg) u traced by unit-speed angle; mass 2*2pi.
  chain_spheres a chain of spheres |x^i| = r_i with consecutive gaps
                |x^i - x^{i+1}| = g_i pinned; realized only by Monte Carlo.
  determinant_variety
                level set det[u^1,...,u^d] = t inside a cutoff ball
                (Monte Carlo, gated to d = 3: the ambient dimension d^2
                makes larger d infeasible at desk scale).

The Monte Carlo estimator samples the ambient product of spheres (or the
cutoff ball) and weights by (2*eps)^(-c) on |constraints| < eps, c the
number of scalar constraints.  Its limit is the thickened-shell measure,
which differs from a fixed parametrized normalization by a smooth positive
density; decay exponents are invariant under such densities.  For
triangle2d that density is the constant sqrt(3)/2, which the estimator
applies so it matches ft_triangle exactly; the other kinds are compared by
exponent only.

ft_montecarlo evaluates a whole list of frequency points from one seeded
draw: the loop runs over chunks of samples, each drawn and tested against the
constraints once, and over the points inside each chunk.  A point's estimate
and standard error are therefore the same whether it is evaluated alone or in
a list with others; decay_fit hands the evaluator the whole ray at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma as gamma_fn
from scipy.special import jv

from ._ols import ols_loglog
from .errors import InfeasibleError

MAGNITUDE_FLOOR = 1e-14
CURVATURE_STEP = 1e-4
CURVATURE_REL_TOL = 1e-6
_SQ3 = math.sqrt(3.0)
_MC_CHUNK = 1 << 18  # samples per draw from the seeded stream (see ft_montecarlo)


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1}."""
    if d < 1:
        raise ValueError("need d >= 1")
    return float(2.0 * math.pi ** (d / 2.0) / gamma_fn(d / 2.0))


# ---------------------------------------------------------------------------
# measures and frequency points


@dataclass(frozen=True, eq=False)
class MeasureSpec:
    """A configuration measure: its kind, block structure, and parameters."""

    kind: str
    d: int
    radii: tuple[float, ...] = ()
    gaps: tuple[float, ...] = ()
    t: float = 0.0
    cutoff: float = 2.0

    @classmethod
    def sphere(cls, d: int) -> "MeasureSpec":
        if d < 2:
            raise ValueError("sphere measures need d >= 2")
        return cls(kind="sphere", d=d)

    @classmethod
    def triangle2d(cls) -> "MeasureSpec":
        return cls(kind="triangle2d", d=2)

    @classmethod
    def chain_spheres(cls, d: int, radii=(1.0, 1.0), gaps=(1.0,)) -> "MeasureSpec":
        radii = tuple(float(r) for r in radii)
        gaps = tuple(float(g) for g in gaps)
        if d < 2:
            raise ValueError("chain measures need d >= 2")
        if len(radii) < 2 or len(gaps) != len(radii) - 1:
            raise ValueError("need >= 2 radii and one gap per consecutive pair")
        if any(r <= 0 for r in radii) or any(g <= 0 for g in gaps):
            raise ValueError("radii and gaps must be positive")
        for r1, r2, g in zip(radii, radii[1:], gaps):
            if not (abs(r1 - r2) <= g <= r1 + r2):
                raise ValueError(f"empty variety: gap {g} unreachable for radii {r1},{r2}")
        return cls(kind="chain_spheres", d=d, radii=radii, gaps=gaps)

    @classmethod
    def determinant_variety(cls, d: int, t: float, cutoff: float = 2.0) -> "MeasureSpec":
        if d != 3:
            raise ValueError("determinant-variety sampling is gated to d = 3")
        tmax = (cutoff**2 / d) ** (d / 2.0)
        if t == 0.0 or abs(t) >= tmax:
            raise ValueError(f"level must satisfy 0 < |t| < {tmax:.6g}")
        return cls(kind="determinant_variety", d=d, t=float(t), cutoff=float(cutoff))

    @property
    def block_dims(self) -> tuple[int, ...]:
        if self.kind == "sphere":
            return (self.d,)
        if self.kind == "triangle2d":
            return (2, 2)
        if self.kind == "chain_spheres":
            return (self.d,) * len(self.radii)
        if self.kind == "determinant_variety":
            return (self.d,) * self.d
        raise ValueError(f"unknown measure kind {self.kind!r}")

    @property
    def reference_exponent(self) -> float:
        """Fourier decay order expected for this measure."""
        if self.kind in ("sphere", "chain_spheres"):
            return (self.d - 1) / 2.0
        if self.kind == "triangle2d":
            return 0.5
        return (self.d**2 - 1) / 2.0


@dataclass(eq=False)
class FrequencyPoint:
    """A frequency (xi^1, ..., xi^k) split into the measure's ambient blocks."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.blocks = tuple(np.asarray(b, dtype=float).ravel() for b in self.blocks)

    @classmethod
    def of(cls, *blocks) -> "FrequencyPoint":
        return cls(blocks=tuple(blocks))

    @property
    def norm(self) -> float:
        return math.sqrt(sum(float((b * b).sum()) for b in self.blocks))

    def scaled(self, factor: float) -> "FrequencyPoint":
        return FrequencyPoint(blocks=tuple(factor * b for b in self.blocks))

    def matches(self, spec: MeasureSpec) -> bool:
        dims = tuple(b.size for b in self.blocks)
        return dims == spec.block_dims


# ---------------------------------------------------------------------------
# closed forms


def ft_sphere_radial(d: int, r) -> np.ndarray:
    """Fourier transform of surface measure on S^{d-1} at radius |xi| = r:
    2*pi*r^{-(d-2)/2} J_{(d-2)/2}(2*pi*r); equals the surface area at r=0."""
    if d < 2:
        raise ValueError("need d >= 2")
    r = np.asarray(r, dtype=float)
    nu = (d - 2) / 2.0
    out = np.empty_like(r)
    small = r < 1e-300
    rs = np.where(small, 1.0, r)
    out = 2.0 * math.pi * rs ** (-nu) * jv(nu, 2.0 * math.pi * rs)
    return np.where(small, sphere_area(d), out)


def ft_sphere(d: int, xi) -> complex:
    """Closed-form sphere transform; real-valued by central symmetry."""
    xi = np.asarray(xi, dtype=float)
    return complex(float(ft_sphere_radial(d, float(np.linalg.norm(xi)))))


def triangle_pair_frequencies(xi, eta) -> tuple[np.ndarray, np.ndarray]:
    """The two circle frequencies feeding the equilateral-pair transform:

        W_pm = (xi_1 + eta_1/2 +- eta_2*sqrt(3)/2,
                xi_2 -+ eta_1*sqrt(3)/2 + eta_2/2)
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    w_plus = np.array(
        [xi[0] + eta[0] / 2.0 + eta[1] * _SQ3 / 2.0,
         xi[1] - eta[0] * _SQ3 / 2.0 + eta[1] / 2.0]
    )
    w_minus = np.array(
        [xi[0] + eta[0] / 2.0 - eta[1] * _SQ3 / 2.0,
         xi[1] + eta[0] * _SQ3 / 2.0 + eta[1] / 2.0]
    )
    return w_plus, w_minus


def ft_triangle(xi, eta) -> complex:
    """Transform of the equilateral-pair measure: the sum of the circle
    transform at the two mapped frequencies; mass 4*pi at the origin."""
    w_plus, w_minus = triangle_pair_frequencies(xi, eta)
    return complex(
        float(ft_sphere_radial(2, float(np.linalg.norm(w_plus))))
        + float(ft_sphere_radial(2, float(np.linalg.norm(w_minus))))
    )


# ---------------------------------------------------------------------------
# quadrature oracle (sphere only)


def ft_quadrature(spec: MeasureSpec, xi, node_count: int = 2048) -> complex:
    """Product-quadrature oracle for the sphere transform: trapezoid in the
    azimuth (spectrally accurate on the periodic circle) and Gauss-Legendre
    in each polar angle; cost node_count^(d-1)."""
    if spec.kind != "sphere":
        raise ValueError("the quadrature oracle covers sphere measures only")
    if node_count < 16:
        raise ValueError("node_count must be >= 16")
    d = spec.d
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (d,):
        raise ValueError(f"xi must be a {d}-vector")
    theta = 2.0 * math.pi * np.arange(node_count) / node_count
    w_theta = 2.0 * math.pi / node_count
    if d == 2:
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        phases = np.exp(-2j * math.pi * (pts @ xi))
        return complex(phases.sum() * w_theta)

    # polar angles phi_1..phi_{d-2} in [0, pi]; surface element is the
    # product of sin^{d-2-j}(phi_j) over the polar axes (0-based j)
    nodes, weights = leggauss(node_count)
    phi = 0.5 * math.pi * (nodes + 1.0)
    w_phi = 0.5 * math.pi * weights
    axes = [phi] * (d - 2) + [theta]
    grids = np.meshgrid(*axes, indexing="ij")
    ndim = d - 1
    weight = np.full(grids[0].shape, w_theta)
    sin_prod = np.ones_like(grids[0])
    coords = []
    for j in range(d - 2):
        coords.append(sin_prod * np.cos(grids[j]))
        weight = weight * np.sin(grids[j]) ** (d - 2 - j)
        shape = [1] * ndim
        shape[j] = node_count
        weight = weight * w_phi.reshape(shape)
        sin_prod = sin_prod * np.sin(grids[j])
    coords.append(sin_prod * np.cos(grids[-1]))
    coords.append(sin_prod * np.sin(grids[-1]))
    phase = sum(c * x for c, x in zip(coords, xi))
    return complex((np.exp(-2j * math.pi * phase) * weight).sum())


# ---------------------------------------------------------------------------
# Monte Carlo


def ft_montecarlo(
    spec: MeasureSpec, points, epsilon: float, samples: int, seed: int
) -> list[tuple[complex, float]]:
    """Thickened-shell Monte Carlo estimates of the measure transform at each
    of the frequency points, as one (estimate, standard error) per point.

    Samples the ambient product of spheres (or the cutoff ball), weights by
    (2*eps)^(-c) * indicator(|constraints| < eps), and averages the phases.
    All samples come from one PCG64 stream, the first child of
    SeedSequence(seed), so the result is reproducible for a fixed seed.  Kinds
    that draw several arrays per sample interleave them per chunk of _MC_CHUNK
    samples, so the chunk is a constant: another size would change every
    seeded estimate.  The loop is chunk-major: each chunk is drawn and tested
    against the constraints once, then every point adds that chunk's phases to
    its own sums, so a point's estimate is the same whether it is evaluated
    alone or together with others, and memory stays bounded by the chunk.
    """
    if not (0.0 < epsilon <= 0.2):
        raise ValueError("epsilon must lie in (0, 0.2]")
    if samples < 10**4:
        raise ValueError("need at least 1e4 samples")
    points = list(points)
    for fp in points:
        if not fp.matches(spec):
            raise ValueError(f"frequency blocks {tuple(b.size for b in fp.blocks)} do not match "
                             f"measure blocks {spec.block_dims}")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))
    sum_v = [0.0 + 0.0j] * len(points)
    sum_re2 = [0.0] * len(points)
    sum_im2 = [0.0] * len(points)
    accepted = 0
    for start in range(0, samples, _MC_CHUNK):
        m = min(_MC_CHUNK, samples - start)
        blocks, acc, weight = _mc_draw(spec, epsilon, rng, m)
        v = np.zeros(m, dtype=complex)  # rejected rows stay zero for every point
        for i, fp in enumerate(points):
            phase = sum(b @ xi for b, xi in zip(blocks, fp.blocks))
            v[acc] = weight * np.exp(-2j * math.pi * phase)
            sum_v[i] += v.sum()
            sum_re2[i] += float((v.real**2).sum())
            sum_im2[i] += float((v.imag**2).sum())
        accepted += int(acc.sum())
    if accepted == 0:
        raise InfeasibleError("no sample satisfied the constraints; measure infeasible at this epsilon")
    out = []
    for s_v, s_re2, s_im2 in zip(sum_v, sum_re2, sum_im2):
        mean = s_v / samples
        var_re = max(s_re2 / samples - mean.real**2, 0.0)
        var_im = max(s_im2 / samples - mean.imag**2, 0.0)
        out.append((complex(mean), math.sqrt((var_re + var_im) / samples)))
    return out


def _row_norms(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.linalg.norm(a, axis=1), bit for bit, without its (m, d) square.
    Below 8 columns numpy's pairwise sum adds a row in coordinate order, so
    the squares are summed column by column into out; from 8 on it unrolls
    by 8, and the rows go to np.add.reduce as in np.linalg.norm."""
    d = a.shape[1]
    if d >= 8:
        return np.sqrt(np.add.reduce(a * a, axis=1), out=out)
    out = np.multiply(a[:, 0], a[:, 0], out=out)
    square = np.empty_like(out)
    for k in range(1, d):
        out += np.multiply(a[:, k], a[:, k], out=square)
    return np.sqrt(out, out=out)


def _unit_vectors(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    """m standard normal rows divided in place by their norms; zero rows
    stay zero."""
    g = rng.standard_normal((m, d))
    norms = _row_norms(g)
    norms[norms == 0.0] = 1.0
    g /= norms[:, None]
    return g


def _mc_draw(
    spec: MeasureSpec, epsilon: float, rng: np.random.Generator, m: int
) -> tuple[list[np.ndarray], np.ndarray, float]:
    """One chunk of m samples: the accepted rows of each frequency block's
    sample array, the acceptance mask over the chunk, and the weight."""
    if spec.kind == "sphere":
        x = _unit_vectors(rng, m, spec.d)
        return [x], np.ones(m, dtype=bool), sphere_area(spec.d)

    if spec.kind == "triangle2d":
        u = _unit_vectors(rng, m, 2)
        v = _unit_vectors(rng, m, 2)
        acc = np.abs(np.linalg.norm(u - v, axis=1) - 1.0) < epsilon
        ambient = (2.0 * math.pi) ** 2
        # constant shell->parametrized density: |grad over the torus| = sqrt(3)/2
        weight = ambient / (2.0 * epsilon) * (_SQ3 / 2.0)
        return [u[acc], v[acc]], acc, weight

    if spec.kind == "chain_spheres":
        blocks = [_unit_vectors(rng, m, spec.d) for _ in spec.radii]
        for x, r in zip(blocks, spec.radii):
            x *= r
        acc = np.ones(m, dtype=bool)
        diff, dist = np.empty((m, spec.d)), np.empty(m)  # reused for every gap
        for x, y, g in zip(blocks, blocks[1:], spec.gaps):
            _row_norms(np.subtract(x, y, out=diff), out=dist)
            acc &= np.abs(np.subtract(dist, g, out=dist), out=dist) < epsilon
        ambient = math.prod(
            sphere_area(spec.d) * r ** (spec.d - 1) for r in spec.radii
        )
        weight = ambient / (2.0 * epsilon) ** len(spec.gaps)
        return [b[acc] for b in blocks], acc, weight

    if spec.kind == "determinant_variety":
        dd = spec.d
        ambient_dim = dd * dd
        dirs = _unit_vectors(rng, m, ambient_dim)
        radius = spec.cutoff * rng.random(m) ** (1.0 / ambient_dim)
        y = dirs * radius[:, None]
        mats = y.reshape(m, dd, dd)
        acc = np.abs(np.linalg.det(mats) - spec.t) < epsilon
        mats = mats[acc]
        ball_vol = math.pi ** (ambient_dim / 2.0) / gamma_fn(ambient_dim / 2.0 + 1.0)
        ambient = ball_vol * spec.cutoff**ambient_dim
        return [mats[:, j, :] for j in range(dd)], acc, ambient / (2.0 * epsilon)

    raise ValueError(f"unknown measure kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# decay fits


@dataclass(eq=False)
class DecayReport:
    """A radial decay fit |F(r * direction)| ~ r^(-gamma)."""

    direction: FrequencyPoint
    radii: tuple[float, ...]
    magnitudes: tuple[float, ...]
    fitted_exponent: float | None
    stderr: float | None
    reference_exponent: float | None
    mc_error_bars: tuple[float, ...] | None
    inconclusive: bool
    fit_radii: tuple[float, ...]


def decay_fit(
    evaluator: Callable, direction: FrequencyPoint, radii, reference: float | None = None
) -> DecayReport:
    """Fit the decay order of |F| along a ray of frequency points.

    evaluator is called once with the ray's list of FrequencyPoints and
    returns one value per point, each a complex value or a (value, stderr)
    pair.  Magnitudes below 1e-14 are dropped.  The fit runs on the
    envelope, the local maxima of |F| over the radius grid (pointwise fits are
    corrupted by transform zeros); when fewer than 3 maxima exist (monotone
    profiles) all surviving points are used.
    """
    norm = direction.norm
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    unit = direction.scaled(1.0 / norm)
    radii = [float(r) for r in radii]
    if len(radii) < 5:
        raise ValueError("need at least 5 radii")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if radii[-1] < 10.0 * radii[0] * (1.0 - 1e-12):
        raise ValueError("radii must span at least one decade")

    outs = list(evaluator([unit.scaled(r) for r in radii]))
    if len(outs) != len(radii):
        raise ValueError(f"evaluator returned {len(outs)} values for {len(radii)} points")
    mags, errs = [], []
    has_err = False
    for out in outs:
        if isinstance(out, tuple):
            value, err = out
            has_err = True
        else:
            value, err = out, 0.0
        mags.append(abs(complex(value)))
        errs.append(float(err))

    mags_arr = np.asarray(mags)
    keep = mags_arr >= MAGNITUDE_FLOOR
    r_kept = np.asarray(radii)[keep]
    m_kept = mags_arr[keep]
    if m_kept.size < 3:
        return DecayReport(
            direction=unit, radii=tuple(radii), magnitudes=tuple(mags),
            fitted_exponent=None, stderr=None, reference_exponent=reference,
            mc_error_bars=tuple(errs) if has_err else None,
            inconclusive=True, fit_radii=(),
        )

    peaks = _local_maxima(m_kept)
    if peaks.size >= 3:
        r_fit, m_fit = r_kept[peaks], m_kept[peaks]
    else:
        r_fit, m_fit = r_kept, m_kept

    slope, stderr = ols_loglog(r_fit, m_fit)
    return DecayReport(
        direction=unit, radii=tuple(radii), magnitudes=tuple(mags),
        fitted_exponent=-slope, stderr=stderr, reference_exponent=reference,
        mc_error_bars=tuple(errs) if has_err else None,
        inconclusive=False, fit_radii=tuple(float(r) for r in r_fit),
    )


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices that dominate both neighbors (endpoints compare one side)."""
    n = values.size
    if n < 3:
        return np.arange(n)
    ge_left = np.empty(n, dtype=bool)
    ge_right = np.empty(n, dtype=bool)
    ge_left[0] = True
    ge_left[1:] = values[1:] >= values[:-1]
    ge_right[-1] = True
    ge_right[:-1] = values[:-1] >= values[1:]
    return np.flatnonzero(ge_left & ge_right)


# ---------------------------------------------------------------------------
# curvature certificates


def level_set_curvatures(F: Callable, t: float, x0, h: float = CURVATURE_STEP) -> np.ndarray:
    """Principal curvatures of the level set {F = t} at the regular point x0.

    Central-difference gradient and Hessian; the second fundamental form is
    the Hessian restricted to the tangent space, scaled by 1/|grad F|.
    Returns the N-1 eigenvalues sorted by decreasing magnitude.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError("x0 must be a vector")
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

    # orthonormal tangent basis: the singular directions orthogonal to grad
    _, _, vt = np.linalg.svd(grad[None, :] / gn)
    tangent = vt[1:]
    form = tangent @ hess @ tangent.T / gn
    form = 0.5 * (form + form.T)
    eigs = np.linalg.eigvalsh(form)
    return eigs[np.argsort(-np.abs(eigs), kind="stable")]


def nonzero_curvature_count(eigs) -> int:
    """Eigenvalues that are nonzero relative to the largest magnitude."""
    eigs = np.asarray(eigs, dtype=float)
    top = float(np.abs(eigs).max()) if eigs.size else 0.0
    if top == 0.0:
        return 0
    return int((np.abs(eigs) > CURVATURE_REL_TOL * top).sum())


def circulant_check(d: int) -> float:
    """Determinant of the (d-1)x(d-1) matrix with unit diagonal and 1/2
    off-diagonal entries; nonzero certifies its nonsingularity at size d."""
    if d < 2:
        raise ValueError("need d >= 2")
    m = d - 1
    mat = 0.5 * np.eye(m) + 0.5 * np.ones((m, m))
    return float(np.linalg.det(mat))


def phase_hessian(d: int, xi, eta) -> tuple[np.ndarray, int]:
    """Hessian of the two-sphere chain phase at its critical point, assembled
    from the closed forms

        p   = -xi_d - (13*sqrt(3)/18) eta_1 + (7/3) eta_d
        q11 = -(xi_d + (sqrt(3)/6) eta_1 - (1/2) eta_d)
        q12 = q21 = eta_1/sqrt(3) - eta_d
        q22 = -2 eta_1 / sqrt(3)

    as the (2d-3)x(2d-3) block matrix p I_1 (+) (d-2) copies of the 2x2
    block.  Returns (matrix, numerical rank at 1e-10 relative tolerance).
    """
    if d < 3:
        raise ValueError("the phase Hessian needs d >= 3")
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape != (d,) or eta.shape != (d,):
        raise ValueError(f"xi and eta must be {d}-vectors")
    p = -xi[-1] - (13.0 * _SQ3 / 18.0) * eta[0] + (7.0 / 3.0) * eta[-1]
    q11 = -(xi[-1] + (_SQ3 / 6.0) * eta[0] - 0.5 * eta[-1])
    q12 = eta[0] / _SQ3 - eta[-1]
    q22 = -2.0 * eta[0] / _SQ3
    size = 2 * d - 3
    hess = np.zeros((size, size))
    hess[0, 0] = p
    block = np.array([[q11, q12], [q12, q22]])
    for b in range(d - 2):
        lo = 1 + 2 * b
        hess[lo : lo + 2, lo : lo + 2] = block
    sing = np.linalg.svd(hess, compute_uv=False)
    top = float(sing.max(initial=0.0))
    rank = int((sing > 1e-10 * top).sum()) if top > 0.0 else 0
    return hess, rank


def phase_plane_xi(eta, d: int) -> np.ndarray:
    """A xi with p(xi, eta) = 0: the hyperplane where the 1x1 block vanishes."""
    eta = np.asarray(eta, dtype=float)
    xi = np.zeros(d)
    xi[-1] = -(13.0 * _SQ3 / 18.0) * eta[0] + (7.0 / 3.0) * eta[-1]
    return xi


def phase_plane_form() -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the 2x2-block determinant restricted to the
    plane {p = 0}, as a quadratic a*eta_1^2 + b*eta_1*eta_d + c*eta_d^2,
    extracted from the assembled Hessian."""

    def q_of(e1: float, ed: float) -> float:
        eta = np.array([e1, 0.0, ed])
        hess, _ = phase_hessian(3, phase_plane_xi(eta, 3), eta)
        return float(np.linalg.det(hess[1:3, 1:3]))

    a = q_of(1.0, 0.0)
    c = q_of(0.0, 1.0)
    b = q_of(1.0, 1.0) - a - c
    return a, b, c


def phase_plane_discriminant() -> float:
    """Discriminant b^2 - 4ac of the plane-restricted quadratic; its sign is
    reported rather than assumed (positive: the form is indefinite)."""
    a, b, c = phase_plane_form()
    return b * b - 4.0 * a * c
