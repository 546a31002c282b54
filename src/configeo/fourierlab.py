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
                level set det[u^1,u^2,u^3] = t inside a cutoff ball of
                R^9 (Monte Carlo; d is fixed at 3, as triangle2d's is at 2:
                the ambient dimension d^2 makes larger d infeasible).

Each kind is one MeasureKind row of MEASURES: its constructor, frequency
blocks, expected decay order, Monte Carlo draw and closed form.

A ray is one unit direction u and one radii array: decay_fit calls its
evaluator(u, radii) -> (values, stderrs) once.  A closed form is one array
call on the stacks u.ray(radii), through ft_sphere, the one radial rule.

The Monte Carlo estimator samples the ambient product of spheres (or the
cutoff ball) and weights by (2*eps)^(-c) on |constraints| < eps, c the
number of scalar constraints.  Its limit is the thickened-shell measure,
which differs from a fixed parametrized normalization by a smooth positive
density; decay exponents are invariant under such densities.  For
triangle2d that density is the constant sqrt(3)/2 (its row's density),
which the estimator applies so it matches ft_triangle exactly; the other
kinds are compared by exponent only.  sphere, triangle2d and chain_spheres
share one draw: the product of spheres of the spec's radii and gaps.

ft_montecarlo evaluates a whole list of frequency points from one seeded
draw: the loop runs over chunks of samples, each drawn and tested against the
constraints once, and over the points inside each chunk.  A point's estimate
and standard error are therefore the same whether it is evaluated alone or in
a list with others.

A chunk draws its arrays in stream order.  Every array but the last is drawn
whole, since the next one follows it in the stream; the last is drawn in
blocks of _MC_ROWS rows, and each block is normalized, scaled and tested
against the constraints as soon as it is drawn, keeping only its accepted
rows, the only rows each point's phases are summed over.  numpy's Generator
gives the same values in consecutive blocks as in one call, so the seeded
samples are those of whole-chunk draws, while a chunk holds one array less:
a chain holds the raw normals of spheres 1..k-1, determinant_variety its
(m, d^2) directions.  So a chunk of m samples peaks at 1.5 (m, d) float64
arrays for a chain of two spheres, 2.5 for sphere, which accepts every row,
and 1.125 (m, d^2) for determinant_variety (see ft_montecarlo).

The product of spheres (sphere, triangle2d, chain_spheres) draws on a second
thread.  Per chunk, one threading.Thread makes every standard_normal call of
the chunk, in stream order, into arrays the calling thread allocated: the
held spheres whole, then the last sphere's blocks into two (_MC_ROWS, d)
buffers in turn.  While it draws block b + 1, which releases the GIL, the
calling thread normalizes, scales and tests block b, as it would serially,
and copies out the accepted rows before it hands the buffer back.  The
values and their order are those of the serial draw, so every estimate is
bit-identical; the thread allocates no array and is joined before the draw
returns or raises.  determinant_variety draws serially.

scipy.special is imported in one place only: in ft_sphere_radial, for jv, the
sphere's closed form.  Its import is most of the package's import time, and
every command but the closed-form ft runs without it, Monte Carlo at every d
included.  Likewise numpy.polynomial is imported only inside ft_quadrature.

The phase certificate: V = {(x, y) : |x| = |y| = |x - y| = 1} in R^d x R^d,
d >= 3, at (x0, y0) = (e_d, (sqrt(3)/2) e_1 + e_d/2).  A covector is critical
for Phi = xi.x + eta.y on V when (xi, eta) = l1 (x0, 0) + l2 (0, y0) +
l3 (x0 - y0, y0 - x0), and the Hessian of Phi|V is then the Lagrangian Hessian
-[[l1 + l3, -l3], [-l3, l2 + l3]] (x) I_d in the orthonormal tangent basis
(J x0, J y0)/sqrt(2), J: e_1 -> e_d -> -e_1, then (e_k, 0), (0, e_k) for
k = 2..d-1.  That is p (+) d-2 copies of a 2x2 block, p = -(l1 + l2 + l3)/2 =
-(xi.x0 + eta.y0)/2, half the second derivative of Phi per radian of the
rotation (its squared speed is 2).  The plane {p = 0} is l1 + l2 + l3 = 0.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._ols import ols_loglog
from .errors import CapacityError, InfeasibleError

MAGNITUDE_FLOOR = 1e-14
CURVATURE_STEP = 1e-4
CURVATURE_REL_TOL = 1e-6
CURVATURE_MAX_N = 72  # the largest level-set dimension (see level_set_curvatures)
_SQ3 = math.sqrt(3.0)
MC_SAMPLE_BUDGET = 10**8  # samples per ft_montecarlo call, and samples x radii per ft ray
_MC_CHUNK = 1 << 18  # samples per draw from the seeded stream (see ft_montecarlo)
_MC_ROWS = 8192  # rows per block of a chunk's streamed last array (see ft_montecarlo)
QUADRATURE_NODE_BUDGET = 2**22  # node_count^(d-1) per ft_quadrature call
_NORM_MAX = 2.0**512 * (1.0 - 1e-12)  # under sqrt(largest float): a direction's squares sum finitely
_NORM_MIN = math.sqrt(sys.float_info.min)  # the norm of summed squares at the smallest normal float


def sphere_area(d: int) -> float:
    """Surface area 2 pi^(d/2) / Gamma(d/2) of the unit sphere S^{d-1}, for
    1 <= d <= 343; above that Gamma(d/2) overflows a float."""
    if not 1 <= d <= 343:
        raise ValueError(f"sphere areas need 1 <= d <= 343, got d = {d}: above 343 Gamma(d/2) "
                         "overflows a float")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


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

    def __post_init__(self):
        if self.kind not in MEASURES:
            raise ValueError(f"unknown measure kind {self.kind!r}")

    @classmethod
    def sphere(cls, d: int) -> "MeasureSpec":
        if d < 2:
            raise ValueError("sphere measures need d >= 2")
        return cls(kind="sphere", d=d, radii=(1.0,))

    @classmethod
    def triangle2d(cls) -> "MeasureSpec":
        return cls(kind="triangle2d", d=2, radii=(1.0, 1.0), gaps=(1.0,))  # two unit circles at gap 1

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
    def determinant_variety(cls, t: float, cutoff: float = 2.0) -> "MeasureSpec":
        d = 3  # the only desk-scale d (see the module docstring)
        if not 0.0 < cutoff < math.inf:
            raise ValueError(f"cutoff must be positive and finite, got cutoff={cutoff}")
        tmax = (cutoff**2 / d) ** (d / 2.0)
        if not 0.0 < abs(t) < tmax:  # NaN fails too
            raise ValueError(f"level must satisfy 0 < |t| < {tmax:.6g}")
        return cls(kind="determinant_variety", d=d, t=float(t), cutoff=float(cutoff))

    @property
    def block_dims(self) -> tuple[int, ...]:
        return MEASURES[self.kind].block_dims(self)

    @property
    def reference_exponent(self) -> float:
        """Fourier decay order expected for this measure."""
        return MEASURES[self.kind].reference_exponent(self.d)


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

    def unit(self) -> "FrequencyPoint":
        """This direction over its norm; a ValueError unless the summed squares
        are a normal finite float, checked on math.hypot before any square: a
        subnormal sum has lost digits, so its unit vector would not be one."""
        size = math.hypot(*np.concatenate(self.blocks))
        norm = self.norm if size <= _NORM_MAX else math.inf
        if not _NORM_MIN <= norm < math.inf:
            raise ValueError(f"direction norm {size:g} is out of range: its square must be a "
                             f"positive finite float, at least {sys.float_info.min:g}")
        return self.scaled(1.0 / norm)

    def ray(self, radii: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each block at every radius, as a (len(radii), block size) stack."""
        return tuple(np.multiply.outer(radii, b) for b in self.blocks)

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
    from scipy.special import jv
    r = np.asarray(r, dtype=float)
    nu = (d - 2) / 2.0
    small = r < 1e-300
    rs = np.where(small, 1.0, r)
    out = 2.0 * math.pi * rs ** (-nu) * jv(nu, 2.0 * math.pi * rs)
    return np.where(small, sphere_area(d), out)


def ft_sphere(d: int, xi) -> np.ndarray:
    """Closed-form sphere transform at frequencies of shape (..., d), real by
    central symmetry.  Each norm np.sqrt(np.vecdot(xi, xi)) has the bits of
    np.linalg.norm of that frequency alone."""
    xi = np.asarray(xi, dtype=float)
    return ft_sphere_radial(d, np.sqrt(np.vecdot(xi, xi)))


def triangle_pair_frequencies(xi, eta) -> tuple[np.ndarray, np.ndarray]:
    """The two circle frequencies feeding the equilateral-pair transform, for
    stacks of shape (..., 2):

        W_pm = (xi_1 + eta_1/2 +- eta_2*sqrt(3)/2,
                xi_2 -+ eta_1*sqrt(3)/2 + eta_2/2)
    """
    (x1, x2), (e1, e2) = (np.moveaxis(np.asarray(a, dtype=float), -1, 0) for a in (xi, eta))
    w_plus = np.stack([x1 + e1 / 2.0 + e2 * _SQ3 / 2.0, x2 - e1 * _SQ3 / 2.0 + e2 / 2.0], axis=-1)
    w_minus = np.stack([x1 + e1 / 2.0 - e2 * _SQ3 / 2.0, x2 + e1 * _SQ3 / 2.0 + e2 / 2.0], axis=-1)
    return w_plus, w_minus


def ft_triangle(xi, eta) -> np.ndarray:
    """Transform of the equilateral-pair measure at stacks of shape (..., 2):
    the sum of the circle transform at the two mapped frequencies; mass 4*pi
    at the origin."""
    w_plus, w_minus = triangle_pair_frequencies(xi, eta)
    return ft_sphere(2, w_plus) + ft_sphere(2, w_minus)


# ---------------------------------------------------------------------------
# quadrature oracle (sphere only)


def ft_quadrature(spec: MeasureSpec, xi, node_count: int = 2048) -> complex:
    """Product-quadrature oracle for the sphere transform: trapezoid in the
    azimuth (spectrally accurate on the periodic circle) and Gauss-Legendre
    in each polar angle; cost node_count^(d-1) nodes of 96-112 B each
    (tracemalloc, d = 3 and 4).  Over QUADRATURE_NODE_BUDGET = 2^22 nodes,
    ~0.45 GB and the default of 2048 nodes at d = 3, it refuses with
    CapacityError before any array is allocated."""
    if spec.kind != "sphere":
        raise ValueError(f"the quadrature oracle does not cover {spec.kind} measures")
    if node_count < 16:
        raise ValueError("node_count must be >= 16")
    d = spec.d
    if node_count ** (d - 1) > QUADRATURE_NODE_BUDGET:
        raise CapacityError(f"{node_count}^{d - 1} quadrature nodes are over the budget of "
                            f"{QUADRATURE_NODE_BUDGET}")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (d,):
        raise ValueError(f"xi must be a {d}-vector")
    theta = 2.0 * math.pi * np.arange(node_count) / node_count
    w_theta = 2.0 * math.pi / node_count
    if d == 2:
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        phases = np.exp(-2j * math.pi * (pts @ xi))
        return complex(phases.sum() * w_theta)

    from numpy.polynomial.legendre import leggauss

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

    Within a chunk, the arrays drawn before the last one are drawn whole, as
    the stream order demands, and the last is drawn, tested and cut to its
    accepted rows in blocks of _MC_ROWS rows (see the module docstring), and
    each point's phases are summed over the accepted rows only; a chunk is
    freed before the next one is drawn.  Memory budget, in float64 arrays of
    m = _MC_CHUNK rows per call (tracemalloc peaks at d = 3 in parentheses):
    1.5 (m, d) arrays for a chain of two spheres (7.7 MB), which holds the
    first sphere's raw normals, the blocks and the accepted rows, and for
    triangle2d (5.0 MB); 2.5 (m, d) for sphere (14.7 MB), which keeps all m
    unit vectors and phases them with two complex (m,) temporaries; 1.125
    (m, d^2) for determinant_variety (20.5 MB), which holds its directions
    whole and frees them before its accepted blocks are joined.
    The drawing thread of the product of spheres allocates nothing; its
    second block buffer is one (_MC_ROWS, d) array (192 KB at d = 3) more
    than a serial draw holds, and freeing the raw draws before the accepted
    rows are joined saves more than that.

    Sample budget: a call with more than MC_SAMPLE_BUDGET samples is refused
    with CapacityError before the first chunk is drawn.  At the budget, 10^8
    samples, one chain_spheres(3) point takes ~11-12 s on a 2-vCPU VM.
    """
    if not (0.0 < epsilon <= 0.2):
        raise ValueError("epsilon must lie in (0, 0.2]")
    if samples < 10**4:
        raise ValueError("need at least 1e4 samples")
    if samples > MC_SAMPLE_BUDGET:
        raise CapacityError(f"{samples} samples are over the Monte Carlo budget of {MC_SAMPLE_BUDGET}")
    points = list(points)
    for fp in points:
        if not fp.matches(spec):
            raise ValueError(f"frequency blocks {tuple(b.size for b in fp.blocks)} do not match "
                             f"measure blocks {spec.block_dims}")

    row = MEASURES[spec.kind]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))
    sum_v = [0.0 + 0.0j] * len(points)
    sum_re2 = [0.0] * len(points)
    sum_im2 = [0.0] * len(points)
    accepted = 0
    for start in range(0, samples, _MC_CHUNK):
        blocks, weight = row.draw(spec, epsilon, rng, min(_MC_CHUNK, samples - start))
        accepted += len(blocks[0])
        for i, fp in enumerate(points):
            v = weight * row.density * np.exp(-2j * math.pi * sum(b @ xi for b, xi in zip(blocks, fp.blocks)))
            sum_v[i] += v.sum()
            sum_re2[i] += float((v.real**2).sum())
            sum_im2[i] += float((v.imag**2).sum())
            del v  # before the next point's phases are computed
        del blocks  # free this chunk before the next one is drawn
    if accepted == 0:
        raise InfeasibleError("no sample satisfied the constraints; measure infeasible at this epsilon")
    out = []
    for s_v, s_re2, s_im2 in zip(sum_v, sum_re2, sum_im2):
        mean = s_v / samples
        var_re = max(s_re2 / samples - mean.real**2, 0.0)
        var_im = max(s_im2 / samples - mean.imag**2, 0.0)
        out.append((complex(mean), math.sqrt((var_re + var_im) / samples)))
    return out


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The Euclidean norms of the rows of a, the squares added column by
    column in coordinate order, without an (m, d) square."""
    out = a[:, 0] * a[:, 0]
    square = np.empty_like(out)
    for k in range(1, a.shape[1]):
        out += np.multiply(a[:, k], a[:, k], out=square)
    return np.sqrt(out, out=out)


def _normalize_rows(g: np.ndarray) -> np.ndarray:
    """g divided in place by its row norms; zero rows stay zero."""
    norms = _row_norms(g)
    norms[norms == 0.0] = 1.0
    for k in range(g.shape[1]):  # column by column: no (m, d) broadcast
        g[:, k] /= norms
    return g


# One chunk of m samples per draw: the accepted rows of each frequency
# block's sample array, and the weight.  The chunk's last array in stream
# order is drawn in blocks of _MC_ROWS rows, each block tested at once (see
# ft_montecarlo).


def _draw_spheres(spec: MeasureSpec, epsilon: float, rng: np.random.Generator, m: int):
    """The product of the spheres |x^i| = r_i of spec.radii, held to the gaps
    |x^i - x^(i+1)| = g_i of spec.gaps within epsilon: sphere is one unit
    sphere, triangle2d two unit circles at gap 1."""
    ambient = math.prod(sphere_area(spec.d) * r ** (spec.d - 1) for r in spec.radii)
    kept = _accepted_sphere_rows(spec, epsilon, rng, m)  # the raw draws are freed on its return
    return [np.concatenate(b) for b in kept], ambient / (2.0 * epsilon) ** len(spec.gaps)


def _accepted_sphere_rows(spec: MeasureSpec, epsilon: float, rng: np.random.Generator, m: int):
    """Per sphere of _draw_spheres, the accepted rows of each block of a
    chunk of m samples, drawn on a drawing thread and tested on this one
    (see the module docstring)."""
    held = [np.empty((m, spec.d)) for _ in spec.radii[:-1]]  # spheres 1..k-1, raw
    last = (np.empty((_MC_ROWS, spec.d)), np.empty((_MC_ROWS, spec.d)))  # the last sphere, in turn
    starts = range(0, m, _MC_ROWS)
    blocks = [last[b % 2][:min(_MC_ROWS, m - lo)] for b, lo in enumerate(starts)]
    free, filled, stop, failed = threading.Semaphore(2), threading.Semaphore(0), threading.Event(), []

    def draw():
        try:
            for g in held:
                rng.standard_normal(None, np.float64, g)
            for x in blocks:
                free.acquire()
                if stop.is_set():
                    return
                rng.standard_normal(None, np.float64, x)
                filled.release()
        except BaseException as exc:
            failed.append(exc)
            filled.release()

    kept = [[] for _ in spec.radii]
    drawer = threading.Thread(target=draw)
    drawer.start()
    try:
        for lo, last_rows in zip(starts, blocks):
            filled.acquire()
            if failed:
                raise failed[0]
            rows = [g[lo:lo + len(last_rows)] for g in held] + [last_rows]
            for x, r in zip(rows, spec.radii):
                _normalize_rows(x)
                x *= r
            ok = np.ones(len(last_rows), dtype=bool)
            for x, y, g in zip(rows, rows[1:], spec.gaps):
                ok &= np.abs(_row_norms(x - y) - g) < epsilon
            for out, x in zip(kept, rows):
                out.append(x[ok])
            free.release()  # the accepted rows are copies: the buffer may be redrawn
    finally:
        stop.set()
        free.release()
        drawer.join()
    return kept


def _draw_determinant_variety(spec: MeasureSpec, epsilon: float, rng: np.random.Generator, m: int):
    dd = spec.d
    ambient_dim = dd * dd
    dirs = rng.standard_normal((m, ambient_dim))  # whole: the radii follow it in the stream
    kept = []
    for lo in range(0, m, _MC_ROWS):
        y = _normalize_rows(dirs[lo:lo + _MC_ROWS])
        y *= (spec.cutoff * rng.random(len(y)) ** (1.0 / ambient_dim))[:, None]
        mats = y.reshape(-1, dd, dd)
        kept.append(mats[np.abs(np.linalg.det(mats) - spec.t) < epsilon])
    del dirs, y, mats  # the raw directions and their views, freed before the join
    mats = np.concatenate(kept)
    ball_vol = math.pi ** (ambient_dim / 2.0) / math.gamma(ambient_dim / 2.0 + 1.0)
    ambient = ball_vol * spec.cutoff**ambient_dim
    return [mats[:, j, :] for j in range(dd)], ambient / (2.0 * epsilon)


# ---------------------------------------------------------------------------
# the measure table


@dataclass(frozen=True)
class MeasureKind:
    """One row of MEASURES (see the module docstring)."""

    make: Callable[..., MeasureSpec]
    block_dims: Callable[[MeasureSpec], tuple[int, ...]]
    reference_exponent: Callable[[int], float]  # in dimension d
    draw: Callable[..., tuple[list[np.ndarray], float]]  # (spec, epsilon, rng, m)
    closed_form: Callable[..., np.ndarray] | None  # (spec, unit, radii) -> one value per radius
    density: float = 1.0  # constant shell->parametrized density, applied to the draw's weight


MEASURES: dict[str, MeasureKind] = {
    "sphere": MeasureKind(
        MeasureSpec.sphere, lambda spec: (spec.d,), lambda d: (d - 1) / 2.0, _draw_spheres,
        lambda spec, unit, radii: ft_sphere(spec.d, *unit.ray(radii))),
    "triangle2d": MeasureKind(
        MeasureSpec.triangle2d, lambda spec: (2, 2), lambda d: 0.5, _draw_spheres,
        lambda spec, unit, radii: ft_triangle(*unit.ray(radii)),
        density=_SQ3 / 2.0),  # |grad over the torus| of the gap constraint
    "chain_spheres": MeasureKind(
        MeasureSpec.chain_spheres, lambda spec: (spec.d,) * len(spec.radii),
        lambda d: (d - 1) / 2.0, _draw_spheres, None),
    "determinant_variety": MeasureKind(
        MeasureSpec.determinant_variety, lambda spec: (spec.d,) * spec.d,
        lambda d: (d**2 - 1) / 2.0, _draw_determinant_variety, None),
}


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


def decay_fit(
    evaluator: Callable, direction: FrequencyPoint, radii, reference: float | None = None
) -> DecayReport:
    """Fit the decay order of |F| along the ray r * u, u = direction.unit().

    evaluator(u, radii), called once on the radii as a float array, returns
    (values, stderrs): one real or complex value per radius, and one standard
    error per radius or None (a closed form).  The magnitudes, np.hypot of
    the parts (the bits of abs(complex)), below 1e-14 are dropped.  The fit
    runs on the envelope, the local maxima of |F| over the radius grid
    (pointwise fits are corrupted by transform zeros); when fewer than 3
    maxima exist (monotone profiles) all surviving points are used.
    """
    unit = direction.unit()
    radii = np.asarray(radii, dtype=float)
    if len(radii) < 5:
        raise ValueError("need at least 5 radii")
    bad = radii[~((0.0 < radii) & (radii < math.inf))]
    if bad.size:
        raise ValueError(f"radii must be positive and finite, got {', '.join(f'{r:g}' for r in bad)}")
    if np.any(radii[1:] <= radii[:-1]):
        raise ValueError("radii must be strictly increasing")
    if radii[-1] < 10.0 * radii[0] * (1.0 - 1e-12):
        raise ValueError("radii must span at least one decade")

    values, errs = evaluator(unit, radii)
    if len(values) != len(radii):
        raise ValueError(f"evaluator returned {len(values)} values for {len(radii)} radii")
    mags = np.hypot(np.real(values), np.imag(values))
    keep = mags >= MAGNITUDE_FLOOR
    r_kept, m_kept = radii[keep], mags[keep]
    exponent = stderr = None
    if m_kept.size >= 3:
        peaks = _local_maxima(m_kept)
        if peaks.size >= 3:
            r_kept, m_kept = r_kept[peaks], m_kept[peaks]
        slope, stderr = ols_loglog(r_kept, m_kept)
        exponent = -slope
    return DecayReport(
        direction=unit, radii=tuple(radii.tolist()), magnitudes=tuple(mags.tolist()),
        fitted_exponent=exponent, stderr=stderr, reference_exponent=reference,
        mc_error_bars=None if errs is None else tuple(map(float, errs)), inconclusive=exponent is None,
    )


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of at least 3 values that dominate both neighbors (endpoints
    compare one side)."""
    n = values.size
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

    F is batched: it values an (m, N) stack of points as an (m,) array.  One
    call values all 2N^2 + 1 central-difference points: x0, x0 +- h e_i and
    (x0 +- h e_i) +- h e_j for i < j.  Their differences give the gradient
    and Hessian; the second fundamental form is the Hessian restricted to
    the tangent space, scaled by 1/|grad F|.  Returns the N-1 eigenvalues
    sorted by decreasing magnitude.

    Budget: the points take (2N^2 + 1) N floats, so N > CURVATURE_MAX_N is
    refused with CapacityError before any point is built or F is called.  At
    N = 72 one call of the volume map (d = 8) took 0.03-0.05 s and a 22 MB
    tracemalloc peak on a 2-vCPU VM, and of area2 or angle (d = 24) 0.01 s
    and 12-14 MB.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError("x0 must be a vector")
    n = x0.size
    if n > CURVATURE_MAX_N:
        raise CapacityError(f"a level set in R^{n} is over the curvature budget of N = {CURVATURE_MAX_N}")
    step = h * np.eye(n)
    plus, minus = x0 + step, x0 - step
    i, j = np.triu_indices(n, 1)
    values = np.asarray(F(np.concatenate([x0[None], plus, minus, plus[i] + step[j], plus[i] - step[j],
                                          minus[i] + step[j], minus[i] - step[j]])), dtype=float)
    f0, f_plus, f_minus = values[0], values[1:n + 1], values[n + 1:2 * n + 1]
    if abs(f0 - t) > 1e-9:
        raise ValueError(f"x0 is not on the level set: |F(x0)-t| = {abs(f0 - t):.3g}")
    grad = (f_plus - f_minus) / (2 * h)
    gn = float(np.linalg.norm(grad))
    if gn < 1e-6:
        raise ValueError("gradient too small: not a regular point")

    pp, pm, mp, mm = values[2 * n + 1:].reshape(4, -1)
    hess = np.diag((f_plus - 2.0 * f0 + f_minus) / h**2)
    hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * h**2)

    # orthonormal tangent basis: the singular directions orthogonal to grad
    _, _, vt = np.linalg.svd(grad[None, :] / gn)
    tangent = vt[1:]
    form = tangent @ hess @ tangent.T / gn
    form = 0.5 * (form + form.T)
    eigs = np.linalg.eigvalsh(form)
    return eigs[np.argsort(-np.abs(eigs), kind="stable")]


def nonzero_curvature_count(eigs) -> int:
    """Eigenvalues that are nonzero relative to the largest magnitude."""
    mags = np.abs(np.asarray(eigs, dtype=float))
    return int((mags > CURVATURE_REL_TOL * mags.max(initial=0.0)).sum())


def _chain_point(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The base point (x0, y0) = (e_d, (sqrt(3)/2) e_1 + e_d/2) of V."""
    x0, y0 = np.eye(d)[-1], np.zeros(d)
    y0[0], y0[-1] = _SQ3 / 2.0, 0.5
    return x0, y0


def _tangent_basis(d: int) -> np.ndarray:
    """The (2d-3, 2d) rows of V's orthonormal tangent basis at (x0, y0)."""
    x0, y0 = _chain_point(d)
    turn = np.zeros((d, d))
    turn[-1, 0], turn[0, -1] = 1.0, -1.0  # J: e_1 -> e_d -> -e_1
    eye = np.eye(2 * d)
    rows = [np.concatenate([turn @ x0, turn @ y0]) / math.sqrt(2.0)]
    return np.array(rows + [row for k in range(1, d - 1) for row in (eye[k], eye[d + k])])


def phase_hessian(d: int, xi, eta) -> tuple[np.ndarray, int]:
    """Hessian of the chain phase xi.x + eta.y on V at (x0, y0), in the basis
    of _tangent_basis, and its rank by nonzero_curvature_count.  A covector
    off the span of the constraint gradients (the module docstring's rule)
    is not critical and is refused with ValueError."""
    if d < 3:
        raise ValueError("the phase Hessian needs d >= 3")
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape != (d,) or eta.shape != (d,):
        raise ValueError(f"xi and eta must be {d}-vectors")
    covector = np.concatenate([xi, eta])
    x0, y0 = _chain_point(d)
    # the gradients of |x|^2/2, |y|^2/2 and |x - y|^2/2
    grads = np.block([[x0, 0.0 * y0], [0.0 * x0, y0], [x0 - y0, y0 - x0]])
    lam = np.linalg.lstsq(grads.T, covector, rcond=None)[0]
    if np.linalg.norm(lam @ grads - covector) > 1e-9 * max(1.0, float(np.linalg.norm(covector))):
        raise ValueError("(xi, eta) is not a critical covector of the chain phase")
    l1, l2, l3 = lam
    basis = _tangent_basis(d)
    hess = -basis @ np.kron([[l1 + l3, -l3], [-l3, l2 + l3]], np.eye(d)) @ basis.T
    return hess, nonzero_curvature_count(np.linalg.eigvalsh(hess))


def _check_covector(d: int, eta, on_plane: bool) -> tuple[np.ndarray, np.ndarray]:
    """The critical (xi, eta) whose eta = l2 y0 + l3 (y0 - x0) fixes l2 and
    l3, with xi_d = 0.5 or, on_plane, l1 = -l2 - l3."""
    x0, y0 = _chain_point(d)
    l2, l3 = np.linalg.lstsq(np.stack([y0, y0 - x0], axis=1), eta, rcond=None)[0]
    l1 = -l2 - l3 if on_plane else 0.5 - l3 * (x0 - y0)[-1]
    return l1 * x0 + l3 * (x0 - y0), eta


def phase_check_ranks(d: int) -> tuple[int, int]:
    """Numerical ranks of the phase Hessian at eta = 0.9 e_1 + 0.3 e_d with
    xi_d = 0.5 (generic) and with xi on the plane {p = 0}; d >= 3."""
    eta = np.zeros(d)
    eta[0], eta[-1] = 0.9, 0.3
    return tuple(phase_hessian(d, *_check_covector(d, eta, on_plane))[1] for on_plane in (False, True))


def phase_plane_form() -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the 2x2-block determinant restricted to the
    plane {p = 0}, as a quadratic a*eta_1^2 + b*eta_1*eta_d + c*eta_d^2,
    extracted from the phase Hessian at d = 3."""

    def q_of(e1: float, ed: float) -> float:
        hess, _ = phase_hessian(3, *_check_covector(3, [e1, 0.0, ed], on_plane=True))
        return float(np.linalg.det(hess[1:3, 1:3]))

    a = q_of(1.0, 0.0)
    c = q_of(0.0, 1.0)
    b = q_of(1.0, 1.0) - a - c
    return a, b, c


def phase_plane_discriminant() -> float:
    """Discriminant b^2 - 4ac of the plane-restricted quadratic; its sign is
    reported, not assumed (positive: the form is indefinite; negative: definite)."""
    a, b, c = phase_plane_form()
    return b * b - 4.0 * a * c
