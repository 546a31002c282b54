"""Exact counting of approximate point configurations.

All counts run over ORDERED tuples of DISTINCT points (distinct indices).
Interval predicates are closed, |value - target| <= delta, except for the
generic configuration-map counter, which uses a strict max-norm ball
|Phi(tuple) - t|_inf < delta.  Counts are exact integers; there is no
sampling in this module.

Families
--------
Each family is one Family row of FAMILIES: a configuration map on
(k+1)-tuples x^1..x^{k+1} in R^d, its query rules, a fast counter, an
exhaustive oracle and the dimension threshold s0.  A tuple counts when every
map value lies within delta of the target t, so the count grows like
n^(k+1) delta^len(t); at delta = n^(-1/s) the predicted exponent is
arity - len(t)/s with arity = k+1.

  simplex  k in 1..d  |x^i - x^j|, pairs (1,2),...,(k,k+1)  t > 0         s0 = d - (d-1)/(2k)
  volume   k = d      |det(x^1-x^{d+1}, ..., x^d-x^{d+1})|  t >= 0        s0 = d-1 + 1/(2d), d even
                                                                          d-1 + 1/(2d-2), d odd
  area2    k = 2      sqrt(det Gram(x^1-x^3, x^2-x^3))      t >= 0        s0 = d/2 + 1/4
  angle    k = 2      angle(x^2-x^1, x^3-x^1)               t in [0, pi]  s0 = (d+1)/2

The ``simplex`` convention divides volume and area2 by d! and 2 (the row's
scale).  ``custom`` queries count any PhiFunction by full enumeration.

The optimized counters ("pruned") and the exhaustive oracles ("brute") must
agree exactly; the oracles share only the distance formula with the fast
paths.  The simplex fast path counts labelled homomorphisms of K_{k+1} into
the band graphs A_ij = [|D - t_ij| <= delta].  D is computed in row blocks of
SIMPLEX_BLOCK_ENTRIES // n anchors by the oracle's formula, bit for bit.  Each
distinct target gets one CSR band matrix, whose zero diagonal enforces
distinct indices; the build raises CapacityError as soon as its projected
nonzeros exceed SIMPLEX_BAND_NNZ_BUDGET.  k=1 counts nnz(A_01); k=2 sums
(A_01[blk] @ A_12) * A_02[blk] over row blocks, so the n x n product is never
held whole; k >= 3 restricts each later slot to the neighbours of one anchor,
A_ij[N_i][:, N_j], and recurses down to the k=2 product.  Volume in d = 2
and 3 and area2 in any d value each unordered point set once, from its
smallest index, by |det| and by the Gram determinant of its legs; angle
values each unordered leg pair at an apex once, by its cosine.  All three
compute their values in BLAS row blocks of at most _SET_BLOCK_ENTRIES.  A
proven rounding margin per family splits the values into those that count
for all of their orderings ((d+1)!, 6 and 2), those that count for none, and
those near a band edge, whose orderings are valued again by the oracle's
formula in the oracle's order, so the two agree bit for bit at ties.  Volume
in other d runs np.linalg.det over chunks of tuples.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import sparse

from ._ols import ols_loglog
from .errors import CapacityError
from .pointgen import PointSet

BRUTE_EVAL_BUDGET = 10**9
SIMPLEX_BAND_NNZ_BUDGET = 3 * 10**7  # nonzeros over all band matrices
SIMPLEX_BLOCK_ENTRIES = 1 << 16  # dense entries per row block of D or of a product
PHI_EVAL_BUDGET = 10**8
DEGENERATE_APEX_TOL = 1e-12
_SET_BLOCK_ENTRIES = 1 << 16  # values per row block of the volume, area2 and angle kernels
_VOLUME_MARGIN_C = 32  # rounding margin constant of _volume_margin
_AREA2_MARGIN_C = 8  # rounding margin constant of _area2_margin
_ANGLE_MARGIN_C = 16  # rounding margin constant of _angle_margin
_VOLUME_TUPLES = 1 << 14  # tuples per np.linalg.det call at d >= 4

VOLUME_CONVENTIONS = ("bare_determinant", "simplex")


def pair_order(k: int) -> list[tuple[int, int]]:
    """Lexicographic (i, j), i < j, over k+1 vertex slots (0-based)."""
    return [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]


@dataclass(frozen=True)
class Family:
    """One row of FAMILIES (see the module docstring).  Kernels are called as
    kernel(points, k, t, delta), t and delta in the bare convention."""

    name: str
    fixed_k: Callable[[int], int] | None  # k in dimension d; None: the query picks 1 <= k <= d
    targets: Callable[[int], int]  # len(t) for k
    t_ok: Callable[[float], bool]
    t_domain: str
    zero_delta: bool  # whether the closed band of width 0 is a query
    config_map: Callable[[np.ndarray], tuple[float, ...]]  # one (k+1, d) tuple -> bare values
    scale: Callable[[int], float]  # bare value of a unit simplex-convention value, in R^d
    fast: Callable[..., int]
    brute: Callable[..., int]
    threshold: Callable[[int, int], Fraction]  # s0(k, d)
    counter_args: tuple[str, ...]  # the ConfigQuery fields count_<name> takes after ps

    def check_k(self, k: int, d: int) -> None:
        if self.fixed_k is None and not 1 <= k <= d:
            raise ValueError(f"{self.name} family needs 1 <= k <= d, got k={k}, d={d}")
        if self.fixed_k is not None and k != self.fixed_k(d):
            raise ValueError(f"{self.name} family needs k = {self.fixed_k(d)} in d={d}, got k={k}")


def family_row(family: str) -> Family:
    """The FAMILIES row of a family; ValueError for custom and unknown names."""
    if family not in FAMILIES:
        raise ValueError(f"family {family!r} is not one of {', '.join(FAMILIES)}")
    return FAMILIES[family]


@dataclass(frozen=True)
class ConfigQuery:
    """One counting question: a family, its target, and the tolerance."""

    family: str
    k: int
    t: tuple[float, ...]
    delta: float
    volume_convention: str = "bare_determinant"

    def __post_init__(self):
        if self.volume_convention not in VOLUME_CONVENTIONS:
            raise ValueError(f"unknown volume convention {self.volume_convention!r}")
        object.__setattr__(self, "t", tuple(float(x) for x in np.atleast_1d(self.t)))
        object.__setattr__(self, "delta", float(self.delta))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not all(map(math.isfinite, (*self.t, self.delta))):
            raise ValueError(f"t and delta must be finite, got t={self.t}, delta={self.delta}")
        zero_ok = False  # custom maps use an open ball
        if self.family != "custom":
            row = family_row(self.family)
            if len(self.t) != row.targets(self.k):
                raise ValueError(f"{self.family} target needs {row.targets(self.k)} entries, "
                                 f"got {len(self.t)}")
            if not all(map(row.t_ok, self.t)):
                raise ValueError(f"{self.family} targets must be {row.t_domain}, got {self.t}")
            zero_ok = row.zero_delta
        if self.delta < 0 or (self.delta == 0 and not zero_ok):
            raise ValueError(f"delta must be {'nonnegative' if zero_ok else 'positive'}")


@dataclass(frozen=True)
class CountReport:
    """Result of one counting run.

    d and seed are carried for serialization (the CSV schema reports them).
    """

    query: ConfigQuery
    n: int
    count: int
    algorithm: str
    elapsed_seconds: float
    d: int
    seed: int | None = None


@dataclass(frozen=True)
class PhiFunction:
    """A deterministic configuration map on (arity) points with values in R^m."""

    arity: int
    output_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("arity must be >= 2 (at least one configuration edge)")
        if self.output_dim < 1:
            raise ValueError("output_dim must be >= 1")


@dataclass(frozen=True)
class BoxDimReport:
    """Box-counting record: occupied-box counts per scale and the fitted slope."""

    scales: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float
    stderr: float
    degenerate: bool


COUNT_CSV_HEADER = "family,k,d,n,t,delta,count,algorithm,elapsed_seconds,seed"


def count_report_row(report: CountReport) -> str:
    """One CSV row per run.  The volatile elapsed_seconds field is left empty
    so identical runs serialize byte-identically."""
    from .pointgen import format_float

    q = report.query
    tfield = ";".join(format_float(x) for x in q.t)
    seed = "" if report.seed is None else str(report.seed)
    return ",".join(
        [
            q.family,
            str(q.k),
            str(report.d),
            str(report.n),
            tfield,
            format_float(q.delta),
            str(report.count),
            report.algorithm,
            "",
            seed,
        ]
    )


# ---------------------------------------------------------------------------
# shared low-level pieces


def _pair_distance_matrix(pts: np.ndarray) -> np.ndarray:
    """All pair distances, one row at a time: other - pts[i], squared, summed
    over the last axis, sqrt.  The band-graph counter evaluates the same
    formula blockwise (`_distance_rows`), so both see bit-identical values."""
    n = pts.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        diff = pts - pts[i]
        out[i] = np.sqrt((diff * diff).sum(axis=1))
    return out


def _target_matrix(k: int, t: tuple[float, ...]) -> np.ndarray:
    tm = np.zeros((k + 1, k + 1))
    for val, (i, j) in zip(t, pair_order(k)):
        tm[i, j] = tm[j, i] = val
    return tm


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _row_blocks(last: np.ndarray, m: int):
    """Row blocks (start, stop, col) of the volume, area2 and angle kernels.
    Rows are leg sets sorted by their last leg e, and each pairs with the
    legs l > e of m legs, so a block is valued against the legs col..m-1,
    where col is the first leg any of its rows pairs with.  A block holds at
    most _SET_BLOCK_ENTRIES values (at least one row)."""
    start = 0
    while start < last.size:
        col = last[start] + 1
        stop = min(last.size, start + max(1, _SET_BLOCK_ENTRIES // (m - col)))
        yield start, stop, col
        start = stop


def _band_split(vals: np.ndarray, last: np.ndarray, col: int, inner, outer):
    """Sort a block of values into three groups.  The block's rows have last
    legs `last` and its columns are the legs col.., so the values at a leg
    l <= e are no set; they are set to NaN here, which is in no band.

    Returns the number of values inside the open band inner = (lo, hi) and
    None, or, when some values lie in the closed band outer = [lo', hi'] but
    not inside inner, that number and their (rows, legs): block rows and leg
    indices.  outer must contain inner; an empty inner band has lo >= hi."""
    width = last[-1] + 1 - col
    if width > 0:
        np.copyto(vals[:, :width], np.nan, where=np.arange(col, col + width) <= last[:, None])
    (lo, hi), (lo_out, hi_out) = inner, outer
    inside = int(np.count_nonzero(vals < hi)) - int(np.count_nonzero(vals <= lo)) if lo < hi else 0
    if int(np.count_nonzero(vals <= hi_out)) - int(np.count_nonzero(vals < lo_out)) == inside:
        return inside, None
    rows, cols = np.nonzero((vals >= lo_out) & (vals <= hi_out) & ~((vals > lo) & (vals < hi)))
    return inside, (rows, cols + col)


def _count(ps: PointSet, query: ConfigQuery, algorithm: str) -> CountReport:
    """Check k against d, then count a family query with the row's fast
    counter ("pruned") or its oracle ("brute").  The simplex convention is
    the bare count over the rescaled target and tolerance."""
    row = FAMILIES[query.family]
    row.check_k(query.k, ps.dim)
    kernels = {"pruned": row.fast, "brute": row.brute}
    if algorithm not in kernels:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    scale = row.scale(ps.dim) if query.volume_convention == "simplex" else 1.0
    t = tuple(x * scale for x in query.t)
    count, elapsed = _timed(lambda: kernels[algorithm](ps.points, query.k, t, query.delta * scale))
    return CountReport(query=query, n=ps.n, count=count, algorithm=algorithm,
                       elapsed_seconds=elapsed, d=ps.dim, seed=ps.meta.seed)


# ---------------------------------------------------------------------------
# simplex family


def count_simplex(
    ps: PointSet, k: int, t, delta: float, algorithm: str = "pruned"
) -> CountReport:
    """Ordered (k+1)-tuples of distinct points whose pairwise distances all
    satisfy t_ij - delta <= |x^i - x^j| <= t_ij + delta."""
    return _count(ps, ConfigQuery("simplex", k, t, delta), algorithm)


def count_simplex_brute(ps: PointSet, k: int, t, delta: float) -> CountReport:
    """Independent oracle: exhaustive evaluation over every ordered distinct
    tuple, with no pruning and no spatial index."""
    return count_simplex(ps, k, t, delta, algorithm="brute")


def _distance_rows(pts: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of `_pair_distance_matrix(pts)`, bit for bit."""
    diff = pts[None, :, :] - pts[start:stop, None, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _band_matrices(pts: np.ndarray, values: list[float], delta: float) -> list[sparse.csr_array]:
    """One CSR band matrix [|D - v| <= delta] with a zero diagonal per value v.
    To keep the heap small, blocks keep only column indices and row lengths,
    and the matrices share one read-only array of ones as data."""
    n = pts.shape[0]
    rows = max(1, SIMPLEX_BLOCK_ENTRIES // n)
    cols: list[list[np.ndarray]] = [[] for _ in values]
    indptr = np.zeros((len(values), n + 1), dtype=np.int32)
    nnz = 0
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        dist = _distance_rows(pts, start, stop)
        own = np.arange(stop - start)
        for v, col, ptr in zip(values, cols, indptr):
            band = np.abs(dist - v) <= delta
            band[own, own + start] = False
            col.append(np.nonzero(band)[1].astype(np.int32))
            ptr[start + 1:stop + 1] = np.count_nonzero(band, axis=1)
            nnz += col[-1].size
        if nnz * n > SIMPLEX_BAND_NNZ_BUDGET * stop:
            raise CapacityError(f"simplex band matrices project to {nnz * n // stop} "
                                f"nonzeros, over the budget of {SIMPLEX_BAND_NNZ_BUDGET}")
    np.cumsum(indptr, axis=1, out=indptr)
    ones = np.ones(indptr[:, -1].max(), dtype=np.int32)
    ones.flags.writeable = False
    return [sparse.csr_array((ones[:ptr[-1]], np.concatenate(col), ptr), shape=(n, n))
            for col, ptr in zip(cols, indptr)]


def _simplex_band(pts: np.ndarray, k: int, t: tuple[float, ...], delta: float) -> int:
    values = sorted(set(t))
    bands = dict(zip(values, _band_matrices(pts, values, delta)))
    return _contract({pair: bands[v] for pair, v in zip(pair_order(k), t)}, k)


def _contract(A: dict, k: int) -> int:
    """Sum over (x_0, ..., x_k) of prod_{i<j} A[i, j][x_i, x_j].

    A[i, j] relates the candidates of slot i (rows) to those of slot j
    (columns).  For k >= 3 each anchor x_0 restricts every later slot j to
    its neighbours in A[0, j], and the count recurses on those submatrices.
    """
    if k == 1:
        return A[0, 1].nnz
    if k == 2:  # in row blocks, so the full product is never held
        rows = max(1, SIMPLEX_BLOCK_ENTRIES // A[1, 2].shape[1])
        return sum(int((A[0, 1][s:s + rows] @ A[1, 2]).multiply(A[0, 2][s:s + rows]).sum())
                   for s in range(0, A[0, 1].shape[0], rows))
    total = 0
    for a in range(A[0, 1].shape[0]):
        nbr = [None] + [A[0, j].indices[A[0, j].indptr[a]:A[0, j].indptr[a + 1]]
                        for j in range(1, k + 1)]
        if any(x.size == 0 for x in nbr[1:]):
            continue
        sub = {(i - 1, j - 1): A[i, j][nbr[i]][:, nbr[j]] for i, j in pair_order(k) if i > 0}
        total += _contract(sub, k - 1)
    return total


def _simplex_brute(pts: np.ndarray, k: int, tmat: np.ndarray, delta: float) -> int:
    n = pts.shape[0]
    if n < k + 1:
        return 0
    if n ** (k + 1) > BRUTE_EVAL_BUDGET:
        raise CapacityError(f"brute enumeration of {n}^{k + 1} tuples exceeds the budget")
    if k > 3:
        raise ValueError("the brute simplex oracle covers k <= 3")
    D = _pair_distance_matrix(pts)

    def mask(i, j):
        m = np.abs(D - tmat[i, j]) <= delta
        np.fill_diagonal(m, False)
        return m.astype(float)

    if k == 1:
        return int(round(mask(0, 1).sum()))
    if k == 2:
        m01, m02, m12 = mask(0, 1), mask(0, 2), mask(1, 2)
        # sum_{a,b,c} m01[a,b] m02[a,c] m12[b,c]  (exhaustive sum-product)
        return int(round(float(((m01.T @ m02) * m12).sum())))
    m01, m02, m03 = mask(0, 1), mask(0, 2), mask(0, 3)
    m12, m13, m23 = mask(1, 2), mask(1, 3), mask(2, 3)
    total = 0.0
    for a in range(n):
        w = m13 * m03[a]  # w[b,d]
        z = w @ m23.T  # z[b,c] = sum_d w[b,d] m23[c,d]
        total += float(((m12 * z) * m02[a][None, :] * m01[a][:, None]).sum())
    return int(round(total))


def _distances(pts: np.ndarray) -> tuple[float, ...]:
    """The simplex map of one tuple: its pairwise distances in pair order."""
    return tuple(float(np.sqrt(((pts[i] - pts[j]) ** 2).sum())) for i, j in pair_order(len(pts) - 1))


# ---------------------------------------------------------------------------
# volume family (d-dimensional simplex volumes, d+1 points)


def count_volume(
    ps: PointSet,
    t: float,
    delta: float,
    convention: str = "bare_determinant",
    algorithm: str = "pruned",
) -> CountReport:
    """Ordered (d+1)-tuples of distinct points with
    |vol_d(x^1,...,x^{d+1}) - t| <= delta, where vol_d is the absolute
    determinant of the edge matrix at x^{d+1} (bare) or that value / d!.

    The (d+1)! orderings of a point set round differently, and the count is
    the oracle's, ordering by ordering.  In d = 2 and 3 the fast counter
    values each point set once and re-values ordering by ordering only the
    sets within its rounding margin of the band's edges."""
    return _count(ps, ConfigQuery("volume", ps.dim, t, delta, convention), algorithm)


def _check_enum_budget(n: int, arity: int) -> None:
    if n**arity > BRUTE_EVAL_BUDGET:
        raise CapacityError(f"enumeration of {n}^{arity} tuples exceeds the budget")


def _volume_sets(pts: np.ndarray, t: float, delta: float) -> int:
    """Ordered distinct (d+1)-tuples with |det| within delta of t, valuing each
    unordered point set once (d = 2, 3; other d go to `_volume_generic`).

    A set's apex is its smallest index b and its legs are U = pts[b+1:] -
    pts[b].  Each row of a block is a leg set short of its last leg, with
    normal vector nu: a leg i at d = 2, with nu = (-U_i[1], U_i[0]) so that
    nu . U_l = det(U_i, U_l); a leg pair i < j at d = 3, with nu =
    cross(U_i, U_j).  Rows are sorted by their last leg e, and a block of
    rows (`_row_blocks`) is valued against every leg l > e as nu @ U_l in
    BLAS.  Each value V lies within `_volume_margin` B of every one of the
    set's (d+1)! oracle values.  So `_band_split` counts a set with
    ||V| - t| < delta - B for (d+1)!, one with ||V| - t| > delta + B for 0,
    and the sets between are valued again by `_volume_orderings`.
    """
    n, d = pts.shape
    if n < d + 1:
        return 0
    _check_enum_budget(n, d + 1)
    if d not in (2, 3):
        return _volume_generic(pts, t, delta)
    margin = _volume_margin(pts, t, delta)
    inner, outer = delta - margin, delta + margin
    bands = (t - inner, t + inner), (t - outer, t + outer)
    orderings = math.factorial(d + 1)
    total = 0
    for b in range(n - d):
        legs = pts[b + 1:] - pts[b]
        m = legs.shape[0]
        if d == 2:
            last = np.arange(m - 1)
            row_legs = (last,)
            normals = legs[:-1, ::-1] * [-1.0, 1.0]
        else:
            last, first = np.tril_indices(m - 1, -1)  # pairs first < last, by last
            row_legs = (first, last)
            normals = np.cross(legs[first], legs[last])
        for start, stop, col in _row_blocks(last, m):
            inside, near = _band_split(np.abs(normals[start:stop] @ legs[col:].T), last[start:stop], col, *bands)
            total += orderings * inside
            if near is not None:
                rows, cols = near
                rows += start
                sets = np.column_stack([np.full(rows.size, b)] + [b + 1 + leg[rows] for leg in row_legs]
                                       + [b + 1 + cols])
                total += _volume_orderings(pts, sets, t, delta)
    return total


def _volume_margin(pts: np.ndarray, t: float, delta: float) -> float:
    """B = c eps (R^d + |t| + delta) + c tiny (1 + R)^(d-1) for d = 2, 3, with
    c = _VOLUME_MARGIN_C, eps the machine epsilon, tiny the smallest
    subnormal and R = sum_k (max_k - min_k) over the coordinates.

    Every leg x - y has l1 norm <= R, so the Leibniz terms of any d legs sum
    to <= R^d in absolute value.  Roundings, each a factor (1 + e), |e| <=
    eps/2, on every term below them:
    - legs: each entry of fl(x - y) is one rounding, so a term carries d and
      the det of the rounded legs is within 1.01 d eps/2 R^d of the exact
      |det| Delta of the points;
    - formula: a term of the oracle's u0[0]*u1[1] - u0[1]*u1[0] passes 2,
      one of its u0 . (u1 x u2) passes 5 (product and difference in the
      cross product, outer product, two additions).  The kernel's 2- and
      3-term dots in dgemm add at most a product and d-1 additions, in any
      order, fused (FMA) or not, to its exact negation at d = 2 and to
      np.cross's two roundings at d = 3: 2 and 5 again.
    So the kernel's value and each of the (d+1)! oracle values lie within
    1.01 (3d - 1) eps/2 R^d of Delta, within 8.1 eps R^d of each other at
    d <= 3.  The oracle's abs(abs(det) - t) <= delta is monotone in its one
    rounding, so it differs from the exact test only within one ulp of
    delta above it (<= eps delta).  The kernel's bounds t -+ (delta -+ B)
    round twice (<= eps (|t| + delta + B)).  That is <= 9 eps (R^d + |t| +
    delta) + eps B; c = 32 also covers the rounding of R, R^d and B.  A
    product that underflows is off by <= tiny/2, then scaled by <= R per
    later factor: < 9 (1 + R)^(d-1) tiny over two values and the tests.
    """
    d = pts.shape[1]
    spread = float(np.sum(pts.max(axis=0) - pts.min(axis=0)))
    return _VOLUME_MARGIN_C * (np.finfo(float).eps * (spread**d + abs(t) + delta)
                               + np.finfo(float).smallest_subnormal * (1.0 + spread) ** (d - 1))


def _volume_orderings(pts: np.ndarray, sets: np.ndarray, t: float, delta: float) -> int:
    """Ordered tuples over the rows of sets (each d+1 point indices) that the
    oracle `_volume_brute` accepts, each valued by its formula in its order."""
    d = pts.shape[1]
    total = 0
    for order in itertools.permutations(range(d + 1)):
        tup = pts[sets[:, order]]  # (sets, d+1, d), the apex last
        u = tup[:, :-1] - tup[:, -1:]
        if d == 2:
            u0, u1 = u[:, 0].T, u[:, 1].T
            det = u0[0] * u1[1] - u0[1] * u1[0]
        else:
            u0, u1, u2 = u[:, 0].T, u[:, 1].T, u[:, 2].T
            c0 = u1[1] * u2[2] - u1[2] * u2[1]
            c1 = u1[2] * u2[0] - u1[0] * u2[2]
            c2 = u1[0] * u2[1] - u1[1] * u2[0]
            det = u0[0] * c0 + u0[1] * c1 + u0[2] * c2
        total += int(np.count_nonzero(np.abs(np.abs(det) - t) <= delta))
    return total


def _volume_generic(pts: np.ndarray, t: float, delta: float) -> int:
    """Chunked exhaustive evaluation for ambient dimension >= 4."""
    n, d = pts.shape
    total = 0
    shape = (n,) * d
    size = n**d
    for b in range(n):
        u = pts - pts[b]
        for start in range(0, size, _VOLUME_TUPLES):
            flat = np.arange(start, min(start + _VOLUME_TUPLES, size))
            idx = np.stack(np.unravel_index(flat, shape), axis=1)  # (m, d)
            ok = idx[:, 0] != b
            for a in range(1, d):
                ok &= idx[:, a] != b
                for a2 in range(a):
                    ok &= idx[:, a] != idx[:, a2]
            if not ok.any():
                continue
            rows = u[idx[ok]]  # (m_ok, d, d)
            det = np.abs(np.linalg.det(rows))
            total += int(np.count_nonzero(np.abs(det - t) <= delta))
    return total


def _volume_brute(pts: np.ndarray, t: float, delta: float) -> int:
    n, d = pts.shape
    if n < d + 1:
        return 0
    _check_enum_budget(n, d + 1)
    total = 0
    if d == 2:
        for i, j, b in itertools.permutations(range(n), 3):
            u0 = pts[i] - pts[b]
            u1 = pts[j] - pts[b]
            det = u0[0] * u1[1] - u0[1] * u1[0]
            if abs(abs(det) - t) <= delta:
                total += 1
        return total
    if d == 3:
        for i, j, l, b in itertools.permutations(range(n), 4):
            u0 = pts[i] - pts[b]
            u1 = pts[j] - pts[b]
            u2 = pts[l] - pts[b]
            c0 = u1[1] * u2[2] - u1[2] * u2[1]
            c1 = u1[2] * u2[0] - u1[0] * u2[2]
            c2 = u1[0] * u2[1] - u1[1] * u2[0]
            det = u0[0] * c0 + u0[1] * c1 + u0[2] * c2
            if abs(abs(det) - t) <= delta:
                total += 1
        return total
    for tup in itertools.permutations(range(n), d + 1):
        rows = pts[list(tup[:-1])] - pts[tup[-1]]
        if abs(abs(float(np.linalg.det(rows))) - t) <= delta:
            total += 1
    return total


# ---------------------------------------------------------------------------
# area2 family (2-dimensional volumes in any ambient dimension, 3 points)


def count_area2(
    ps: PointSet,
    t: float,
    delta: float,
    convention: str = "bare_determinant",
    algorithm: str = "pruned",
) -> CountReport:
    """Ordered triples of distinct points with the parallelogram area
    sqrt(det Gram(x^1-x^3, x^2-x^3)) within delta of t (bare), or the
    triangle area (that value / 2) under the simplex convention.

    The 6 orderings of a triple round differently, and the count is the
    oracle's, ordering by ordering.  The fast counter values each triple
    once, by its Gram determinant, and re-values ordering by ordering only
    the triples within its rounding margin of the band's edges."""
    return _count(ps, ConfigQuery("area2", 2, t, delta, convention), algorithm)


def _area2_sets(pts: np.ndarray, t: float, delta: float) -> int:
    """Ordered distinct triples with area within delta of t, valuing each
    unordered triple once, as the Gram determinant G of its legs.

    A triple's apex is its smallest index b and its legs are U = pts[b+1:] -
    pts[b].  A row block of legs i (`_row_blocks`) is valued against every
    leg j > i as G = |U_i|^2 |U_j|^2 - (U_i . U_j)^2, the dots in BLAS.  The
    area sqrt(max(G, 0)) lies within delta of t when G lies in [(t - delta)^2,
    (t + delta)^2]; for t <= delta the lower edge is -inf, since every area is
    >= 0 >= t - delta.  Each G lies within `_area2_margin` M of that band
    test on every one of the triple's 6 oracle values.  So `_band_split`
    counts a triple for 6 when G is inside the band shrunk by M, for 0 when
    G is outside the band grown by M, and the triples between are valued
    again by `_area2_orderings`.
    """
    n = pts.shape[0]
    if n < 3:
        return 0
    _check_enum_budget(n, 3)
    margin = _area2_margin(pts, t, delta)
    low = -np.inf if t <= delta else (t - delta) ** 2
    high = (t + delta) ** 2
    bands = (low + margin, high - margin), (low - margin, high + margin)
    total = 0
    for b in range(n - 2):
        legs = pts[b + 1:] - pts[b]
        sq = (legs * legs).sum(axis=1)
        last = np.arange(legs.shape[0] - 1)
        for start, stop, col in _row_blocks(last, legs.shape[0]):
            dots = legs[start:stop] @ legs[col:].T
            gram = np.multiply.outer(sq[start:stop], sq[col:])
            gram -= np.multiply(dots, dots, out=dots)
            inside, near = _band_split(gram, last[start:stop], col, *bands)
            total += 6 * inside
            if near is not None:
                rows, cols = near
                sets = np.column_stack([np.full(rows.size, b), b + 1 + start + rows, b + 1 + cols])
                total += _area2_orderings(pts, sets, t, delta)
    return total


def _area2_margin(pts: np.ndarray, t: float, delta: float) -> float:
    """M = c eps ((d + 3) R^4 + (t + delta)^2) + c d tiny (1 + R)^2, with
    c = _AREA2_MARGIN_C, eps the machine epsilon, tiny the smallest
    subnormal and R = sum_k (max_k - min_k) over the coordinates.

    Every leg x - y has l2 norm <= its l1 norm <= R.  The exact Gram G* of a
    triple's points is the same at each apex, and the terms of its expansion
    sum_kl u_k^2 v_l^2 - u_k v_k u_l v_l have absolute sum |u|^2 |v|^2 +
    (sum_k |u_k v_k|)^2 <= 2 R^4.  Roundings, each a factor (1 + e), |e| <=
    eps/2, on every term below them:
    - legs: each entry of fl(x - y) is one rounding, so a term carries 4;
    - formula: a squared norm sums d products in any order (d), its product
      with the other one adds 1; a dot product (the oracle's einsum, the
      kernel's dgemm in any order, fused or not) carries d, its square 1;
      the difference 1.  So a term of either carries 2d + 2 more.
    So the kernel's G and each oracle value lie within 1.01 (2d + 6) (eps/2)
    2 R^4 of G*, within 4.1 (d + 3) eps R^4 of each other.  The oracle
    accepts fl(|fl(sqrt(max(g, 0))) - t|) <= delta: the sqrt and the
    difference round once each (the final test is exact, and monotone in
    the difference), which moves its edges in g, next to (t -+ delta)^2, by
    <= 2.05 eps (t + delta)^2.  The kernel's edges (t -+ delta)^2 -+ M round
    three times: <= 2.2 eps (t + delta)^2 + 0.51 eps M.  c = 8 covers the
    sum, 4.1 (d + 3) eps R^4 + 4.25 eps (t + delta)^2 + 0.51 eps M, and the
    rounding of R, R^4 and M.  A product that underflows is off by <= tiny/2,
    then scaled by <= R^2 in a later product: < (4.2 d R^2 + 3) tiny over two
    values and the edges.
    """
    d = pts.shape[1]
    spread = float(np.sum(pts.max(axis=0) - pts.min(axis=0)))
    return _AREA2_MARGIN_C * (np.finfo(float).eps * ((d + 3) * spread**4 + (t + delta) ** 2)
                              + d * np.finfo(float).smallest_subnormal * (1.0 + spread) ** 2)


def _area2_orderings(pts: np.ndarray, sets: np.ndarray, t: float, delta: float) -> int:
    """Ordered triples over the rows of sets (each 3 point indices) that the
    oracle `_area2_brute` accepts, each valued by its formula in its order.
    Swapping the two legs of an apex multiplies the same numbers, and its
    einsum adds the same products in the same order, so both orderings at
    an apex get one bit-identical value: each apex is valued once, for 2."""
    total = 0
    for i, j, b in ((1, 2, 0), (0, 2, 1), (0, 1, 2)):
        u = pts[sets[:, i]] - pts[sets[:, b]]
        v = pts[sets[:, j]] - pts[sets[:, b]]
        g = np.einsum("kd,kd->k", u, v)
        gram = (u * u).sum(axis=1) * (v * v).sum(axis=1) - g * g
        area = np.sqrt(np.maximum(gram, 0.0))
        total += 2 * int(np.count_nonzero(np.abs(area - t) <= delta))
    return total


def _area2_brute(pts: np.ndarray, t: float, delta: float) -> int:
    n = pts.shape[0]
    if n < 3:
        return 0
    _check_enum_budget(n, 3)
    total = 0
    for i, j, b in itertools.permutations(range(n), 3):
        u = pts[i] - pts[b]
        v = pts[j] - pts[b]
        sq_u = float((u * u).sum())
        sq_v = float((v * v).sum())
        g = float(np.einsum("d,d->", u, v))
        gram = sq_u * sq_v - g * g
        area = np.sqrt(np.maximum(gram, 0.0))
        if abs(area - t) <= delta:
            total += 1
    return int(total)


def _area2_map(pts: np.ndarray) -> tuple[float, ...]:
    u, v = pts[0] - pts[2], pts[1] - pts[2]
    gram = float((u * u).sum()) * float((v * v).sum()) - float((u * v).sum()) ** 2
    return (math.sqrt(max(gram, 0.0)),)


# ---------------------------------------------------------------------------
# angle family


def count_angle(ps: PointSet, theta0: float, delta: float, algorithm: str = "pruned") -> CountReport:
    """Ordered distinct triples with |angle(x^2-x^1, x^3-x^1) - theta0| <= delta.

    The cosine is clamped to [-1, 1] before arccos; triples whose apex legs
    are shorter than 1e-12 have no defined angle and are skipped.  The fast
    counter values each leg pair at an apex once, by its cosine, for both
    of its orderings, which the oracle values alike.  It takes the arccos,
    by the oracle's formula, only of the pairs within its rounding margin of
    the band's cosine edges.
    """
    return _count(ps, ConfigQuery("angle", 2, theta0, delta), algorithm)


def _angle_brute(pts: np.ndarray, theta0: float, delta: float) -> int:
    n = pts.shape[0]
    _check_enum_budget(n, 3)
    total = 0
    for a, i, j in itertools.permutations(range(n), 3):
        u = pts[i] - pts[a]
        w = pts[j] - pts[a]
        nu = np.sqrt((u * u).sum())
        nw = np.sqrt((w * w).sum())
        if nu < DEGENERATE_APEX_TOL or nw < DEGENERATE_APEX_TOL:
            continue
        cosv = np.clip(np.einsum("d,d->", u, w) / (nu * nw), -1.0, 1.0)
        theta = float(np.arccos(cosv))
        if abs(theta - theta0) <= delta:
            total += 1
    return total


def _angle_pairs(pts: np.ndarray, theta0: float, delta: float) -> int:
    """Ordered distinct triples (a, i, j) with the angle at apex a within
    delta of theta0, valuing each unordered leg pair at an apex once, by its
    cosine.

    The oracle values (a, i, j) and (a, j, i) bit-identically: its einsum
    multiplies the same numbers and adds them in the same order, and its
    norm product is the same.  So a pair counts 2 or 0.  At apex a the legs
    are pts - pts[a]; those shorter than DEGENERATE_APEX_TOL, by the oracle's
    norm formula, make no triple.  The others are divided by their norms,
    and a row block of legs i (`_row_blocks`) is valued against every leg
    j > i as the dot of the unit legs in BLAS.  `_angle_band` gives the
    cosine band, each end moved by the margin w of `_angle_margin`: a pair
    inside the band shrunk by w counts 2, one outside the band grown by w
    counts 0, and the pairs between are valued again by `_angle_orderings`.
    No arccos is taken outside them.
    """
    n, d = pts.shape
    if n < 3:
        return 0
    _check_enum_budget(n, 3)
    bands = _angle_band(theta0, delta, _angle_margin(d))
    total = 0
    for a in range(n):
        legs = pts - pts[a]
        norms = np.sqrt((legs * legs).sum(axis=1))
        keep = np.flatnonzero(norms >= DEGENERATE_APEX_TOL)  # never a itself
        unit = legs[keep] / norms[keep, None]
        last = np.arange(keep.size - 1)
        for start, stop, col in _row_blocks(last, keep.size):
            inside, near = _band_split(unit[start:stop] @ unit[col:].T, last[start:stop], col, *bands)
            total += 2 * inside
            if near is not None:
                rows, cols = near
                triples = np.column_stack([np.full(rows.size, a), keep[start + rows], keep[cols]])
                total += _angle_orderings(pts, triples, theta0, delta)
    return total


def _angle_margin(d: int) -> float:
    """w = c (d + 2) eps, with c = _ANGLE_MARGIN_C and eps the machine
    epsilon: the margin of the cosine bands of `_angle_pairs`.

    Assumed accuracy: np.arccos is within 4 ulps of arccos on [-1, 1], so
    within alpha = 8 eps (its values are <= pi < 4), and its values lie in
    [0, math.pi]; math.cos is within 4 ulps of cos, so within kappa = 4 eps.
    A rounding is a factor (1 + e), |e| <= eps/2.

    Cosines.  The kernel and the oracle use the same legs u, v and the same
    norms |u| (1 + eta), |eta| <= 1.01 (d/2 + 1) eps/2 (d squares summed,
    then sqrt).  The kernel's cosine is the dgemm dot of fl(u / |u|') and
    fl(v / |v|'): per term d roundings in any order, fused or not, one per
    division, and eta twice.  The oracle's is its einsum (d roundings) over
    the rounded product of the norms (eta twice and 1), rounded once more.
    As sum_k |u_k v_k| <= |u| |v|, each lies within 1.02 (2d + 4) eps/2 of
    the exact cosine of u and v, so the two lie within beta = 2.04 (d + 2)
    eps of each other.  A kernel cosine classified against edges inside
    (-1, 1) is classified alike when clipped to [-1, 1], as the oracle's is.

    Angles.  arccos is decreasing and |d arccos/dc| = 1/sqrt(1 - c^2) >= 1,
    so for C and C + g in [-1, 1], arccos(C + g) <= arccos(C) - g.  A cosine
    edge is off from cos(theta0 -+ delta) by <= eps pi/2 from rounding
    theta0 -+ delta (cos is 1-Lipschitz), kappa from math.cos and 0.51 eps
    from moving it by w.  Let g = w - beta - kappa - 2.1 eps.  A kernel
    cosine w inside an edge puts the oracle's clipped cosine g inside the
    exact edge, so its exact angle lies g inside theta0 -+ delta, and its
    np.arccos value g - alpha inside: the oracle accepts when g >= alpha
    (its rounded difference from theta0 is monotone in the angle).  A kernel
    cosine w outside an edge puts the oracle's angle more than g - alpha
    outside, and the oracle's difference (<= pi + alpha in size) rounds by
    <= 1.6 eps: it rejects when g > alpha + 1.6 eps.  Both hold when w >
    beta + kappa + alpha + 3.7 eps = 2.04 (d + 2) eps + 15.7 eps, which c = 16
    gives for every d >= 1 (at d = 1: 48 eps > 21.9 eps).  Legs are at least
    DEGENERATE_APEX_TOL long, so products that underflow move a cosine by
    <= d tiny / 1e-24, far below eps.
    """
    return _ANGLE_MARGIN_C * (d + 2) * np.finfo(float).eps


def _angle_band(theta0: float, delta: float, w: float):
    """The cosine bands of `_band_split` for |angle - theta0| <= delta, each
    end moved by w: (cos(theta0 + delta) + w, cos(theta0 - delta) - w) inside
    and [cos(theta0 + delta) - w, cos(theta0 - delta) + w] outside, with the
    angles clamped to [0, pi].  An inner end opens to -+inf when the oracle
    accepts every angle past it: theta0 <= delta passes the angle 0, and
    math.pi - theta0 <= delta passes math.pi, the largest np.arccos value;
    its test is monotone in the angle on each side of theta0.  An outer end
    past -+1 opens too, as the oracle clips every cosine into [-1, 1]."""
    c_lo, c_hi = math.cos(min(theta0 + delta, math.pi)), math.cos(max(theta0 - delta, 0.0))
    inner = (-np.inf if math.pi - theta0 <= delta else c_lo + w,
             np.inf if theta0 <= delta else c_hi - w)
    outer = (-np.inf if c_lo - w <= -1.0 else c_lo - w, np.inf if c_hi + w >= 1.0 else c_hi + w)
    return inner, outer


def _angle_orderings(pts: np.ndarray, triples: np.ndarray, theta0: float, delta: float) -> int:
    """Ordered triples over the rows (a, i, j) of triples that the oracle
    `_angle_brute` accepts, each row valued once by its formula for both of
    its bit-identical orderings (a, i, j) and (a, j, i)."""
    u = pts[triples[:, 1]] - pts[triples[:, 0]]
    w = pts[triples[:, 2]] - pts[triples[:, 0]]
    nu = np.sqrt((u * u).sum(axis=1))
    nw = np.sqrt((w * w).sum(axis=1))
    theta = np.arccos(np.clip(np.einsum("kd,kd->k", u, w) / (nu * nw), -1.0, 1.0))
    return 2 * int(np.count_nonzero(np.abs(theta - theta0) <= delta))


def _angle_map(pts: np.ndarray) -> tuple[float, ...]:
    u, w = pts[1] - pts[0], pts[2] - pts[0]
    cosv = float(np.clip((u * w).sum() / (np.linalg.norm(u) * np.linalg.norm(w)), -1, 1))
    return (float(np.arccos(cosv)),)


def _one_target(kernel):
    """kernel(points, t, delta) as a row kernel (points, k, t, delta)."""
    return lambda pts, k, t, delta: kernel(pts, t[0], delta)


FAMILIES: dict[str, Family] = {row.name: row for row in (
    Family(name="simplex", fixed_k=None, targets=lambda k: len(pair_order(k)),
           t_ok=lambda x: x > 0, t_domain="positive", zero_delta=False,
           config_map=_distances, scale=lambda d: 1.0, fast=_simplex_band,
           brute=lambda pts, k, t, delta: _simplex_brute(pts, k, _target_matrix(k, t), delta),
           threshold=lambda k, d: d - Fraction(d - 1, 2 * k), counter_args=("k", "t", "delta")),
    Family(name="volume", fixed_k=lambda d: d, targets=lambda k: 1,
           t_ok=lambda x: x >= 0, t_domain="nonnegative", zero_delta=True,
           config_map=lambda pts: (abs(float(np.linalg.det(pts[:-1] - pts[-1]))),),
           scale=math.factorial, fast=_one_target(_volume_sets), brute=_one_target(_volume_brute),
           threshold=lambda k, d: d - 1 + Fraction(1, 2 * d if d % 2 == 0 else 2 * (d - 1)),
           counter_args=("t", "delta", "volume_convention")),
    Family(name="area2", fixed_k=lambda d: 2, targets=lambda k: 1,
           t_ok=lambda x: x >= 0, t_domain="nonnegative", zero_delta=True,
           config_map=_area2_map, scale=lambda d: 2.0,
           fast=_one_target(_area2_sets), brute=_one_target(_area2_brute),
           threshold=lambda k, d: Fraction(d, 2) + Fraction(1, 4),
           counter_args=("t", "delta", "volume_convention")),
    Family(name="angle", fixed_k=lambda d: 2, targets=lambda k: 1,
           t_ok=lambda x: 0.0 <= x <= math.pi, t_domain="in [0, pi]", zero_delta=False,
           config_map=_angle_map, scale=lambda d: 1.0,
           fast=_one_target(_angle_pairs), brute=_one_target(_angle_brute),
           threshold=lambda k, d: Fraction(d + 1, 2), counter_args=("t", "delta")),
)}


# ---------------------------------------------------------------------------
# generic Phi-configurations


def count_phi(ps: PointSet, phi: PhiFunction, t, delta: float) -> CountReport:
    """Ordered distinct (arity)-tuples with |Phi(tuple) - t| < delta in the
    max norm on R^m.  Full enumeration; no structural assumptions on Phi."""
    query = ConfigQuery("custom", phi.arity - 1, t, delta)
    t_arr = np.array(query.t)
    if t_arr.shape != (phi.output_dim,):
        raise ValueError(f"target length {t_arr.size} != output_dim {phi.output_dim}")
    n = ps.n
    if n**phi.arity > PHI_EVAL_BUDGET:
        raise CapacityError(f"{n}^{phi.arity} evaluations exceed the Phi budget")
    pts = ps.points

    def run() -> int:
        total = 0
        for tup in itertools.permutations(range(n), phi.arity):
            val = np.atleast_1d(np.asarray(phi.evaluator(pts[list(tup)]), dtype=float))
            if val.shape != (phi.output_dim,):
                raise ValueError("evaluator output length differs from output_dim")
            if np.max(np.abs(val - t_arr)) < delta:
                total += 1
        return total

    count, elapsed = _timed(run)
    return CountReport(query=query, n=n, count=count, algorithm="brute",
                       elapsed_seconds=elapsed, d=ps.dim, seed=ps.meta.seed)


# ---------------------------------------------------------------------------
# congruence classes


def distinct_classes(ps: PointSet, k: int, delta: float) -> int:
    """Number of delta-distinct congruence classes of (k+1)-point subsets.

    Each unordered subset is canonicalized to the lexicographically minimal
    pairwise-distance vector over all (k+1)! vertex relabelings, after
    quantization to the grid delta*Z; classes are distinct canonical vectors.
    Distance vectors cannot see orientation, so mirror images are congruent.
    """
    if not (1 <= k <= 4):
        raise ValueError("canonicalization supports 1 <= k <= 4")
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = ps.n
    if n < k + 1:
        return 0
    pairs = pair_order(k)
    pair_idx = {p: a for a, p in enumerate(pairs)}
    mappings = []
    for sigma in itertools.permutations(range(k + 1)):
        mappings.append(
            tuple(pair_idx[tuple(sorted((sigma[i], sigma[j])))] for i, j in pairs)
        )
    D = _pair_distance_matrix(ps.points)
    classes = set()
    for comb in itertools.combinations(range(n), k + 1):
        q = tuple(int(round(D[comb[i], comb[j]] / delta)) for i, j in pairs)
        classes.add(min(tuple(q[m] for m in mapping) for mapping in mappings))
    return len(classes)


# ---------------------------------------------------------------------------
# box-counting dimension


def box_dim(points, scales) -> BoxDimReport:
    """Box-counting estimate: occupied-box counts N(s) on grids of the given
    scales, and the least-squares slope of log N against log(1/s).

    The grid is anchored at the per-axis data minimum and spans
    ceil(span/s) boxes, the bounding-box formulation; indices are clipped
    into range so boundary points land in the last box.
    """
    if isinstance(points, PointSet):
        pts = points.points
    else:
        pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need a nonempty (n, d) point array")
    scales = [float(s) for s in scales]
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    if any(not (0.0 < s < 1.0) for s in scales):
        raise ValueError("scales must lie in (0, 1)")
    mins = pts.min(axis=0)
    spans = pts.max(axis=0) - mins
    counts = []
    for s in scales:
        nboxes = np.maximum(np.ceil(spans / s).astype(np.int64), 1)
        idx = np.clip(((pts - mins) / s).astype(np.int64), 0, nboxes - 1)
        counts.append(int(np.unique(idx, axis=0).shape[0]))
    degenerate = len(set(counts)) == 1
    if degenerate:
        slope, stderr = 0.0, 0.0
    else:
        slope, stderr = ols_loglog([1.0 / s for s in scales], counts)
    return BoxDimReport(
        scales=tuple(scales),
        counts=tuple(counts),
        slope=slope,
        stderr=stderr,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# dispatch


def run_query(ps: PointSet, query: ConfigQuery, algorithm: str = "pruned",
              phi: PhiFunction | None = None) -> CountReport:
    """Route a ConfigQuery to its counting operation.  count_<family> is
    looked up at every call, so wrappers installed on this module's attribute
    see each query."""
    if query.family == "custom":
        if phi is None:
            raise ValueError("custom family needs a PhiFunction")
        return count_phi(ps, phi, query.t, query.delta)
    args = [getattr(query, name) for name in FAMILIES[query.family].counter_args]
    return globals()[f"count_{query.family}"](ps, *args, algorithm=algorithm)
