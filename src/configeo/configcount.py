"""Exact counting of approximate point configurations.

All counts run over ORDERED tuples of DISTINCT points (distinct indices).
Every count, of a named family or of a custom map, accepts a tuple by one
closed rule: |value - target| <= delta for each of its map values
(`_accepted`).  Counts are exact integers; there is no sampling in this
module.

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

Every value is the bare map's: a volume is the absolute determinant, not
that value / d!, and an area2 value is the parallelogram's area, not the
triangle's.  A custom query is a row too, built by `family_row` from its
PhiFunction (`_phi_row`), with no threshold s0.

One map per row defines the family: config_map takes a batch of tuples and
returns their values, and the exhaustive oracle ("brute", `_oracle`) values
every ordered distinct tuple, each combination in every ordering of
`_orders`.  The optimized counters ("pruned") must agree with the oracles
exactly.  The simplex fast path counts labelled homomorphisms of
K_{k+1} into the band graphs A_ij = [|D - t_ij| <= delta].  D comes in row
blocks of BLOCK_ENTRIES // n anchors from `_distance_blocks`, which adds the
squared coordinate differences in coordinate order, as the map and the
oracle do, so all three agree bit for bit.  Each block runs under a small
ufunc buffer, which keeps numpy off its slow buffered broadcast on narrow
blocks.  Each distinct target gets one packed bit row per point, ceil(n/64)
uint64 words, whose clear diagonal enforces distinct indices; the rows are
refused before any distance when they would take more than 4 *
SIMPLEX_BAND_NNZ_BUDGET bytes, and during the build as soon as their
projected nonzeros exceed SIMPLEX_BAND_NNZ_BUDGET.
The count extends chunks of partial tuples one slot at a time: slot j's
candidates are the AND of the rows of A_ij at x_i over i < j, unpacked into
the next chunk for an inner slot and summed by popcount for the last.

Volume, area2 and angle share one set kernel (`_set_kernel`), which values
each unordered point set once, in BLAS row blocks of at most BLOCK_ENTRIES
values.  Each family supplies its per-apex views (apex, leg indices, row
legs and a value block: |det| by normal vectors, the Gram determinant of the
legs, or the cosine of unit legs), its value-space bands from a proven
rounding margin, its map, and the leading columns its orderings hold in
place (none, none and the apex: (d+1)!, 6 and 2 orderings).  The kernel
splits each block (`_band_split`) into the sets that count for all of their
orderings, those that count for none, and those near a band edge, whose
orderings `_recheck` values by the map, so the two agree bit for bit at
ties.  At every d, the volume map's |det| and the kernel's normals are the
Laplace minors of one rule, `_minors`.

Congruence classes (`distinct_classes`) are keyed by the simplex map: each
subset of the oracle's chunked stream (`_subsets`) by its distances rounded
onto delta Z, minimized over the relabelings of `_orders`.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from ._ols import ols_loglog
from .errors import CapacityError
from .pointgen import PointSet

BRUTE_EVAL_BUDGET = 10**9
SIMPLEX_BAND_NNZ_BUDGET = 3 * 10**7  # nonzeros over all band matrices
BLOCK_ENTRIES = 1 << 16  # entries per block: distances, unpacked band bits, set values, tuples
DEGENERATE_APEX_TOL = 1e-12
_VOLUME_MARGIN_C = 32  # rounding margin constant of _volume_margin
_AREA2_MARGIN_C = 8  # rounding margin constant of _area2_margin
_ANGLE_MARGIN_C = 16  # rounding margin constant of _angle_margin
_BLOCK_BUFSIZE = 256  # ufunc buffer size inside a distance block (see _distance_blocks)


def pair_order(k: int) -> list[tuple[int, int]]:
    """Lexicographic (i, j), i < j, over k+1 vertex slots (0-based)."""
    return [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]


@dataclass(frozen=True)
class Family:
    """One row of FAMILIES or a custom map's (see the module docstring).
    Kernels are called as kernel(points, k, t, delta), t and delta bare."""

    name: str
    fixed_k: Callable[[int], int] | None  # k in dimension d; None: the query picks 1 <= k <= d
    targets: Callable[[int], int]  # len(t) for k
    t_ok: Callable[[float], bool]
    t_domain: str
    zero_delta: bool  # whether the closed band of width 0 is a query
    config_map: Callable[[np.ndarray], np.ndarray]  # (m, k+1, d) tuples -> (m, len(t)) bare values
    fast: Callable[..., int]
    brute: Callable[..., int]
    threshold: Callable[[int, int], Fraction] | None  # s0(k, d); None: unknown (a custom map)
    fixed_by: str = "in d={d}"  # what fixes k, as check_k's refusal names it

    def check_k(self, k: int, d: int) -> None:
        if self.fixed_k is None and not 1 <= k <= d:
            raise ValueError(f"{self.name} family needs 1 <= k <= d, got k={k}, d={d}")
        if self.fixed_k is not None and k != self.fixed_k(d):
            raise ValueError(f"{self.name} family needs k = {self.fixed_k(d)} "
                             f"{self.fixed_by.format(d=d)}, got k={k}")

    def check_target(self, k: int, t: tuple[float, ...]) -> None:
        if len(t) != self.targets(k):
            raise ValueError(f"{self.name} target needs {self.targets(k)} entries, got {len(t)}")
        if not all(math.isfinite(x) and self.t_ok(x) for x in t):
            raise ValueError(f"{self.name} targets must be finite and {self.t_domain}, got {t}")

    def check_delta(self, delta: float) -> None:
        if not (0 < delta < math.inf or delta == 0 and self.zero_delta):
            raise ValueError(f"delta must be finite and {'nonnegative' if self.zero_delta else 'positive'}, "
                             f"got {delta}")


def family_row(family: str, phi: PhiFunction | None = None) -> Family:
    """The FAMILIES row of a named family, or the row of the custom map phi;
    ValueError for an unknown name, for custom without a map and for a map
    with a named family."""
    if family == "custom" and phi is not None:
        return _phi_row(phi)
    if family not in FAMILIES:
        raise ValueError(f"family {family!r} is not one of {', '.join(FAMILIES)}")
    if phi is not None:
        raise ValueError(f"a PhiFunction makes a custom query, not a {family} one")
    return FAMILIES[family]


@dataclass(frozen=True)
class ConfigQuery:
    """One counting question: a family, its target, and the tolerance; phi
    is the map of a custom query."""

    family: str
    k: int
    t: tuple[float, ...]
    delta: float
    phi: PhiFunction | None = None

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(float(x) for x in np.atleast_1d(self.t)))
        object.__setattr__(self, "delta", float(self.delta))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not all(map(math.isfinite, (*self.t, self.delta))):  # before the row: a custom query needs phi
            raise ValueError(f"t and delta must be finite, got t={self.t}, delta={self.delta}")
        row = family_row(self.family, self.phi)
        row.check_target(self.k, self.t)
        row.check_delta(self.delta)


@dataclass(frozen=True)
class CountReport:
    """Result of one counting run."""

    query: ConfigQuery
    n: int
    count: int
    algorithm: str
    elapsed_seconds: float


@dataclass(frozen=True)
class PhiFunction:
    """A deterministic configuration map on (arity) points with values in
    R^output_dim.  evaluator takes a batch of tuples, an (m, arity, d) array,
    and returns their values as an (m, output_dim) array."""

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


# ---------------------------------------------------------------------------
# shared low-level pieces


def _pair_distance_rows(pts: np.ndarray):
    """The distances from each point in turn to all n, one row at a time:
    pts - the point, the squared differences added in coordinate order,
    sqrt.  `_distance_blocks` keeps the same rule, so the band-graph counter
    and the energy see these values bit for bit."""
    for anchor in pts:
        diff = pts - anchor
        yield np.sqrt(sum(diff[:, c] * diff[:, c] for c in range(pts.shape[1])))


def _pair_distance_matrix(pts: np.ndarray) -> np.ndarray:
    """All pair distances: the rows of `_pair_distance_rows`, stacked."""
    return np.fromiter(_pair_distance_rows(pts), np.dtype((float, len(pts))), len(pts))


def _band_split(vals: np.ndarray, last: np.ndarray, col: int, inner, outer):
    """Sort a block of values into three groups.  The block's rows have last
    legs `last` and its columns are the legs col.., so the values at a leg
    l <= e are no set.  One pass over the block finds the cells in the outer
    band; only those are tested further: for l <= e, which drops them, and
    against the inner band.  NaN is in no band.

    Returns the number of values inside the open band inner = (lo, hi) and
    None, or, when some values lie in the closed band outer = [lo', hi'] but
    not inside inner, that number and their (rows, legs): block rows and leg
    indices, in row-major order.  outer must contain inner; an empty inner
    band has lo >= hi."""
    (lo, hi), (lo_out, hi_out) = inner, outer
    width = vals.shape[1]
    cells = np.flatnonzero((vals >= lo_out) & (vals <= hi_out))
    rows = cells // width
    # cell f of row r is leg col + f - r * width, a set when that is > last[r]
    sets = cells > (np.arange(len(last)) * width + last - col)[rows]
    cand = vals.take(cells)
    near = ~((cand > lo) & (cand < hi))
    near &= sets
    in_outer, n_near = int(np.count_nonzero(sets)), int(np.count_nonzero(near))
    if n_near == 0:
        return in_outer, None
    rows, cells = rows[near], cells[near]
    return in_outer - n_near, (rows, cells - rows * width + col)


def _enumeration_budget(n: int, arity: int) -> None:
    """CapacityError when an enumeration of n^arity tuples exceeds BRUTE_EVAL_BUDGET."""
    if n**arity > BRUTE_EVAL_BUDGET:
        raise CapacityError(f"enumeration of {n}^{arity} tuples exceeds the budget")


def _orders(arity: int, fixed: int = 0) -> np.ndarray:
    """The orderings of arity columns that hold the first fixed in place: rows
    of column indices in itertools.permutations order."""
    return np.array([(*range(fixed), *p) for p in itertools.permutations(range(fixed, arity))], np.intp)


def _accepted(values: np.ndarray, t, delta: float) -> int:
    """Rows of values, (m, len(t)), with every |value - t| <= delta.  NaN is
    in no band."""
    return int(np.count_nonzero((np.abs(values - np.asarray(t)) <= delta).all(axis=1)))


def _subsets(n: int, arity: int):
    """The arity-subsets of range(n) in lex order, as (m, arity) np.intp
    chunks of m = max(1, BLOCK_ENTRIES // arity!) rows (fewer in the last), so
    a chunk taken in all of its orderings holds at most BLOCK_ENTRIES tuples."""
    combos = itertools.combinations(range(n), arity)
    size = max(1, BLOCK_ENTRIES // math.factorial(arity))
    while len(chunk := np.fromiter(itertools.islice(combos, size), np.dtype((np.intp, arity)))):
        yield chunk


def _oracle(config_map):
    """A row's exhaustive oracle kernel(points, k, t, delta): every ordered
    distinct (k+1)-tuple, after `_enumeration_budget`: each chunk of
    `_subsets`, each set in every ordering of `_orders`, valued by config_map."""
    def brute(pts: np.ndarray, k: int, t: tuple[float, ...], delta: float) -> int:
        _enumeration_budget(len(pts), k + 1)
        orders = _orders(k + 1)
        return sum(_accepted(config_map(pts[chunk[:, orders].reshape(-1, k + 1)]), t, delta)
                   for chunk in _subsets(len(pts), k + 1))
    return brute


def _recheck(pts: np.ndarray, config_map, sets: np.ndarray, orders, t: float, delta: float) -> int:
    """Ordered tuples over the rows of sets (point indices), each taken in
    every one of the orders (rows of `_orders`), that the oracle accepts:
    valued by the row's config_map, as the oracle values them, order by order."""
    return sum(_accepted(config_map(pts[sets[:, order]]), (t,), delta) for order in orders)


def _set_kernel(views, bands, config_map, fixed=0):
    """The fast counter kernel(points, k, t, delta) of a set family, which
    values each unordered point set once.  The family supplies:
    - views(pts): one (apex, index, rows, last, values) per apex: index[l] is
      the point of leg l, rows[r] the legs of row r, ascending, last[r] its
      last leg e (-1 if none), ascending over the rows, and values(start,
      stop, col) the block of rows start:stop against the legs col.., in BLAS;
    - bands(pts, t, delta): the inner and outer bands of `_band_split`;
    - config_map: the row's map, by which `_recheck` values the near sets;
    - fixed: the leading columns of a set (apex, row legs, leg) that its
      orderings hold in place, 1 when the value is the apex's.
    A row pairs with the legs l > e, so a block is valued against the legs
    from the first one any of its rows pairs with; it holds at most
    BLOCK_ENTRIES values (at least one row).  A set inside the inner band
    counts for all (k+1-fixed)! orderings and one outside the outer band for
    none; the sets between are valued again by `_recheck`, ordering by
    ordering of `_orders`, a table built at a call's first recheck.
    """
    def fast(pts: np.ndarray, k: int, t: tuple[float, ...], delta: float) -> int:
        n = pts.shape[0]
        if n < k + 1:
            return 0
        _enumeration_budget(n, k + 1)
        orders = None
        inner, outer = bands(pts, t[0], delta)
        total = 0
        for apex, index, rows, last, values in views(pts):
            start = 0
            while start < last.size:
                col = last[start] + 1
                stop = min(last.size, start + max(1, BLOCK_ENTRIES // (index.size - col)))
                inside, near = _band_split(values(start, stop, col), last[start:stop], col, inner, outer)
                total += math.factorial(k + 1 - fixed) * inside
                if near is not None:
                    orders = _orders(k + 1, fixed) if orders is None else orders
                    cells, cols = near
                    sets = np.column_stack([np.full(cols.size, apex), index[rows[cells + start]], index[cols]])
                    total += _recheck(pts, config_map, sets, orders, t[0], delta)
                start = stop
        return total
    return fast


def _dot_values(rows: np.ndarray, cols: np.ndarray, absolute: bool = False):
    """A view's values(start, stop, col): rows start:stop dotted with the
    cols col.., in BLAS, or their absolute values.  The arrays are bound
    here, so a view keeps its own apex's after the next one is made."""
    def values(start, stop, col):
        dots = rows[start:stop] @ cols[col:].T
        return np.abs(dots, out=dots) if absolute else dots
    return values


def _count(ps: PointSet, query: ConfigQuery, algorithm: str) -> CountReport:
    """Check k against d, then count a family query with the row's fast
    counter ("pruned") or its oracle ("brute")."""
    row = family_row(query.family, query.phi)
    row.check_k(query.k, ps.dim)
    kernels = {"pruned": row.fast, "brute": row.brute}
    if algorithm not in kernels:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    start = time.perf_counter()
    count = kernels[algorithm](ps.points, query.k, query.t, query.delta)
    return CountReport(query=query, n=ps.n, count=count, algorithm=algorithm,
                       elapsed_seconds=time.perf_counter() - start)


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


def _distance_blocks(pts: np.ndarray, upper: bool = False):
    """The row blocks of `_pair_distance_matrix(pts)`, bit for bit: yields
    (start, dist, scratch) for blocks of max(1, BLOCK_ENTRIES // n) rows, dist
    the C-contiguous distances of the block's rows at the columns col.. and
    scratch a free buffer of its shape.  col is 0, or start + 1 when upper,
    whose blocks cover the rows 0..n-2.  Each distance adds the squared
    coordinate differences in place, in coordinate order.  Both arrays are
    views of two buffers that the next block reuses.

    numpy buffers the broadcast anchor column of the subtract when a block
    is narrower than about a third of its ufunc buffer (2730 columns at the
    default 8192 elements), 3-4x slower than the plain loop and with a
    ~129 KB transient per call, so each block runs under a small buffer,
    `_BLOCK_BUFSIZE`.  numpy keeps the buffer size in the errstate context,
    which a generator shares with its consumer, so the caller's size is
    restored before each yield.  Every operation is elementwise, so the
    distances keep their bits."""
    n, d = pts.shape
    last = n - 1 if upper else n
    rows = max(1, min(last, BLOCK_ENTRIES // n))
    coords = np.ascontiguousarray(pts.T)
    dist_buf, scratch_buf = np.empty(rows * n), np.empty(rows * n)
    for start in range(0, last, rows):
        stop, col = min(start + rows, last), start + 1 if upper else 0
        shape = (stop - start, n - col)
        dist, diff = (buf[:shape[0] * shape[1]].reshape(shape) for buf in (dist_buf, scratch_buf))
        with np.errstate():
            np.setbufsize(_BLOCK_BUFSIZE)
            np.subtract(coords[0, col:], coords[0, start:stop, None], out=dist)
            np.multiply(dist, dist, out=dist)
            for c in range(1, d):
                np.subtract(coords[c, col:], coords[c, start:stop, None], out=diff)
                dist += np.multiply(diff, diff, out=diff)
            np.sqrt(dist, out=dist)
        yield start, dist, diff


def _band_rows(pts: np.ndarray, values: list[float], delta: float) -> np.ndarray:
    """Packed band rows: (len(values), n, ceil(n/64)) uint64 whose row x of
    value v holds, from bit 0 of word 0 on, the bits [|D[x] - v| <= delta]
    with bit x and the padding bits past n clear.  Refuses (CapacityError)
    before any distance when the rows would take more than 4 *
    SIMPLEX_BAND_NNZ_BUDGET bytes, and during the build as soon as their
    projected nonzeros exceed SIMPLEX_BAND_NNZ_BUDGET."""
    n = pts.shape[0]
    words = -(-n // 64)
    if len(values) * n * words * 8 > 4 * SIMPLEX_BAND_NNZ_BUDGET:
        raise CapacityError(f"simplex band rows take {len(values) * n * words * 8} bytes, "
                            f"over the budget of {4 * SIMPLEX_BAND_NNZ_BUDGET}")
    packed = np.zeros((len(values), n, 8 * words), dtype=np.uint8)
    nnz = 0
    for start, dist, gap in _distance_blocks(pts):
        stop = start + len(dist)
        own = np.arange(len(dist))
        for v, out in zip(values, packed):
            band = np.abs(np.subtract(dist, v, out=gap), out=gap) <= delta
            band[own, own + start] = False
            out[start:stop, :-(-n // 8)] = np.packbits(band, axis=1, bitorder="little")
            nnz += int(np.count_nonzero(band))
        if nnz * n > SIMPLEX_BAND_NNZ_BUDGET * stop:
            raise CapacityError(f"simplex band rows project to {nnz * n // stop} "
                                f"nonzeros, over the budget of {SIMPLEX_BAND_NNZ_BUDGET}")
    return packed.view(np.uint64)


def _simplex_band(pts: np.ndarray, k: int, t: tuple[float, ...], delta: float) -> int:
    """Labelled homomorphisms of K_{k+1} into the band graphs, extended slot
    by slot from chunks of anchors (`_extend`)."""
    values = sorted(set(t))
    packed = _band_rows(pts, values, delta)
    edge = {pair: packed[values.index(v)] for pair, v in zip(pair_order(k), t)}
    n, words = packed.shape[1:]
    step = max(1, BLOCK_ENTRIES // (64 * words))
    return sum(_extend(edge, k, step, np.arange(s, min(s + step, n))[:, None])
               for s in range(0, n, step))


def _extend(edge: dict, k: int, step: int, tuples: np.ndarray) -> int:
    """Completions to k+1 slots of a chunk of partial tuples (x_0, ...,
    x_{j-1}), the rows of tuples.  Slot j's candidates are the AND of the
    band rows edge[i, j][x_i] over i < j.  An inner slot unpacks them, step
    rows (at most BLOCK_ENTRIES bits) at a time, into the next chunk;
    the last slot sums their bits.  Clear diagonals keep the indices
    distinct.  The pairs (row, candidate) of an unpacked block come from one
    flat `flatnonzero` in row-major order, which is several times faster than
    a 2-D nonzero."""
    j = tuples.shape[1]
    cand = edge[0, j][tuples[:, 0]]
    for i in range(1, j):
        cand &= edge[i, j][tuples[:, i]]
    if j == k:
        return int(np.bitwise_count(cand).sum())
    total = 0
    for s in range(0, len(tuples), step):
        bits = np.unpackbits(cand[s:s + step].view(np.uint8), axis=1, bitorder="little")
        rows, cols = np.divmod(np.flatnonzero(bits.view(bool)), bits.shape[1])
        total += _extend(edge, k, step, np.column_stack([tuples[s + rows], cols]))
    return total


def _simplex_brute(pts: np.ndarray, k: int, t: tuple[float, ...], delta: float) -> int:
    n = pts.shape[0]
    if n < k + 1:
        return 0
    _enumeration_budget(n, k + 1)
    if k > 3:
        raise ValueError("the brute simplex oracle covers k <= 3")
    if k == 1:  # row by row; the n diagonal entries |0 - t| = t are in the band when t <= delta
        rows = _pair_distance_rows(pts)
        return sum(int(np.count_nonzero(np.abs(row - t[0]) <= delta)) for row in rows) - n * (t[0] <= delta)
    D = _pair_distance_matrix(pts)
    target = dict(zip(pair_order(k), t))

    def mask(i, j):
        m = np.abs(D - target[i, j]) <= delta
        np.fill_diagonal(m, False)
        return m.astype(float)

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


def _simplex_values(tuples: np.ndarray) -> np.ndarray:
    """The simplex map: pairwise distances in pair order, each by
    `_pair_distance_matrix`'s rule, the squares added in coordinate order."""
    i, j = np.array(pair_order(tuples.shape[1] - 1)).T
    diff = tuples[:, j] - tuples[:, i]
    return np.sqrt(sum(diff[..., c] * diff[..., c] for c in range(tuples.shape[2])))


# ---------------------------------------------------------------------------
# volume family (d-dimensional simplex volumes, d+1 points)


def count_volume(ps: PointSet, t: float, delta: float, algorithm: str = "pruned") -> CountReport:
    """Ordered (d+1)-tuples of distinct points with
    |vol_d(x^1,...,x^{d+1}) - t| <= delta, where vol_d is the bare map's
    value: the absolute determinant of the edge matrix at x^{d+1}, not that
    value / d!.

    The (d+1)! orderings of a point set round differently, and the count is
    the oracle's, ordering by ordering.  The fast counter values each point
    set once, at every d, and re-values ordering by ordering only the sets
    within its rounding margin of the band's edges."""
    return _count(ps, ConfigQuery("volume", ps.dim, t, delta), algorithm)


def _minors(u: np.ndarray) -> dict:
    """Every k x k minor of the rows of u, a (k, d, ...) array of entries
    u[a][c] over a batch, keyed by its columns, ascending: the Laplace
    expansion along its first row, left to right, of minors of the rows
    below, taken bottom-up, so each is computed once.  No rows: 1."""
    u, d = np.ascontiguousarray(u), u.shape[1]  # contiguous entry arrays
    minors = {(): np.ones(u.shape[2:])}
    for size, row in enumerate(u[::-1], 1):
        below, minors = minors, {}
        for cols in itertools.combinations(range(d), size):
            acc = row[cols[0]] * below[cols[1:]]
            for p in range(1, size):
                term = row[cols[p]] * below[cols[:p] + cols[p + 1:]]
                (np.subtract if p % 2 else np.add)(acc, term, out=acc)
            minors[cols] = acc
    return minors


def _volume_views(pts: np.ndarray):
    """The apex views of the volume kernel.  A set's apex is its smallest
    index b and its legs are U = pts[b+1:] - pts[b].  A row is d-1 legs short
    of the set's last leg; the rows are the (d-1)-sets of range(n-2) in colex
    order, one table of which apex b takes the prefix over its legs.  A row's
    normal nu[c] is (-1)^(d-1+c) times its minor without column c
    (`_minors`), so nu @ U_l is det(U_i, ..., U_l) expanded along U_l:
    (-U_i[1], U_i[0]) at d = 2, np.cross at d = 3, 1 at d = 1.  |nu @ U_l|
    lies within `_volume_margin` of each of the set's (d+1)! oracle values."""
    n, d = pts.shape
    combos = itertools.chain.from_iterable(itertools.combinations(range(n - 2), d - 1))  # lex, mirrored: colex
    table = n - 3 - np.fromiter(combos, np.intp).reshape(math.comb(n - 2, d - 1), d - 1)[::-1, ::-1]
    last = table.max(axis=1, initial=-1)
    for b in range(n - d):
        legs = pts[b + 1:] - pts[b]
        rows = table[:math.comb(len(legs) - 1, d - 1)]
        minors = reversed(_minors(legs[rows].transpose(1, 2, 0)).values())  # without column 0, ..., d-1
        normals = np.column_stack([minor * (-1) ** (d - 1 + c) for c, minor in enumerate(minors)])
        yield b, np.arange(b + 1, n), rows, last[:len(rows)], _dot_values(normals, legs, absolute=True)


def _volume_bands(pts: np.ndarray, t: float, delta: float):
    """The bands ||V| - t| < delta - B and ||V| - t| <= delta + B, with B the
    `_volume_margin`."""
    margin = _volume_margin(pts, t, delta)
    inner, outer = delta - margin, delta + margin
    return (t - inner, t + inner), (t - outer, t + outer)


def _volume_margin(pts: np.ndarray, t: float, delta: float) -> float:
    """B = c eps (m R^d + |t| + delta) + c m tiny (1 + R)^(d-1), with c =
    _VOLUME_MARGIN_C, m = (d^2 + 3d - 2)/2, eps the machine epsilon, tiny the
    smallest subnormal and R = sum_k (max_k - min_k) over the coordinates.

    Every leg x - y has l1 norm <= R, so the d! Leibniz terms of any d legs
    sum to <= R^d in absolute value.  Roundings, each a factor (1 + e),
    |e| <= eps/2, on every term below them: d in the legs, one per entry of
    fl(x - y); and in `_minors`, at each level j = 2..d, one product and at
    most j - 1 additions (a 1 x 1 minor is its entry times 1, exactly).  The
    oracle's |det| is the d x d minor.  The kernel's normal holds the
    (d-1) x (d-1) minors, some negated, exactly, and its dot with a leg in
    dgemm is level d: one product and at most d - 1 additions, in any order,
    fused (FMA) or not (exact at d = 1).  So a term carries at most
    m = d + sum_{j=2..d} j roundings (4 at d = 2 and 8 at d = 3, as
    u0[0]*u1[1] - u0[1]*u1[0] and u0 . (u1 x u2) do), and the kernel's value
    and each of the (d+1)! oracle values lie within 1.01 m eps/2 R^d of the
    exact |det| of the points, within 1.01 m eps R^d of each other.  The
    oracle's abs(abs(det) - t) <= delta is monotone in its one rounding, so
    it differs from the exact test only within one ulp of delta above it
    (<= eps delta).  The kernel's bounds t -+ (delta -+ B) round twice
    (<= eps (|t| + delta + B)).  That is <= 1.01 m eps R^d + 2 eps (|t| +
    delta) + eps B; c = 32 also covers the rounding of R, m R^d and B.  A
    product that underflows is off by <= tiny/2, then scaled by <= R at each
    later level: <= tiny/2 sum_{j=2..d} j R^(d-j) per value, < 1.01 m
    (1 + R)^(d-1) tiny over two values, and the tests add a few tiny.
    """
    d = pts.shape[1]
    spread, m = float(np.sum(pts.max(axis=0) - pts.min(axis=0))), (d * d + 3 * d - 2) // 2
    return _VOLUME_MARGIN_C * (np.finfo(float).eps * (m * spread**d + abs(t) + delta)
                               + m * np.finfo(float).smallest_subnormal * (1.0 + spread) ** (d - 1))


def _volume_values(tuples: np.ndarray) -> np.ndarray:
    """The volume map: |det| of the legs u_a = x^a - x^{d+1}, the d x d minor
    of `_minors` (u0[0]*u1[1] - u0[1]*u1[0] at d = 2, u0 . (u1 x u2) at d = 3)."""
    (det,) = _minors((tuples[:, :-1] - tuples[:, -1:]).transpose(1, 2, 0)).values()
    return np.abs(det)[:, None]


# ---------------------------------------------------------------------------
# area2 family (2-dimensional volumes in any ambient dimension, 3 points)


def count_area2(ps: PointSet, t: float, delta: float, algorithm: str = "pruned") -> CountReport:
    """Ordered triples of distinct points with the bare map's value, the
    parallelogram area sqrt(det Gram(x^1-x^3, x^2-x^3)), within delta of t;
    the triangle area is that value / 2.

    The 6 orderings of a triple round differently, and the count is the
    oracle's, ordering by ordering.  The fast counter values each triple
    once, by its Gram determinant, and re-values ordering by ordering only
    the triples within its rounding margin of the band's edges."""
    return _count(ps, ConfigQuery("area2", 2, t, delta), algorithm)


def _area2_views(pts: np.ndarray):
    """The apex views of the area2 kernel.  A triple's apex is its smallest
    index b and its legs are U = pts[b+1:] - pts[b].  A row is a leg i,
    valued against a leg j as the Gram determinant G = |U_i|^2 |U_j|^2 -
    (U_i . U_j)^2, the dots in BLAS."""
    n = pts.shape[0]
    for b in range(n - 2):
        legs = pts[b + 1:] - pts[b]
        last = np.arange(len(legs) - 1)
        yield b, np.arange(b + 1, n), last[:, None], last, _gram_values(legs)


def _gram_values(legs: np.ndarray):
    """The area2 view's values(start, stop, col): the Gram determinants of
    the legs start:stop against the legs col.., bound to this apex's legs."""
    sq = (legs * legs).sum(axis=1)

    def values(start, stop, col):
        dots = legs[start:stop] @ legs[col:].T
        gram = np.multiply.outer(sq[start:stop], sq[col:])
        gram -= np.multiply(dots, dots, out=dots)
        return gram
    return values


def _area2_bands(pts: np.ndarray, t: float, delta: float):
    """The area sqrt(max(G, 0)) lies within delta of t when G lies in
    [(t - delta)^2, (t + delta)^2]; for t <= delta the lower edge is -inf,
    since every area is >= 0 >= t - delta.  Each G lies within
    `_area2_margin` M of that band test on every one of the triple's 6
    oracle values, so the bands are that band shrunk and grown by M."""
    margin = _area2_margin(pts, t, delta)
    low = -np.inf if t <= delta else (t - delta) ** 2
    high = (t + delta) ** 2
    return (low + margin, high - margin), (low - margin, high + margin)


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


def _area2_values(tuples: np.ndarray) -> np.ndarray:
    """The area2 map: sqrt(max(G, 0)) of the Gram determinant G = |u|^2 |v|^2
    - (u . v)^2 of the legs u = x^1 - x^3 and v = x^2 - x^3, the dot by
    einsum."""
    u, v = tuples[:, 0] - tuples[:, 2], tuples[:, 1] - tuples[:, 2]
    g = np.einsum("kd,kd->k", u, v)
    gram = (u * u).sum(axis=1) * (v * v).sum(axis=1) - g * g
    return np.sqrt(np.maximum(gram, 0.0))[:, None]


# ---------------------------------------------------------------------------
# angle family


def count_angle(ps: PointSet, theta0: float, delta: float, algorithm: str = "pruned") -> CountReport:
    """Ordered distinct triples with |angle(x^2-x^1, x^3-x^1) - theta0| <= delta.

    The cosine is clamped to [-1, 1] before arccos; triples whose apex legs
    are shorter than 1e-12 have no defined angle and are skipped.  The fast
    counter values each leg pair at an apex once, by its cosine, for both
    of its orderings.  It takes the arccos, by the oracle's map, only of the
    pairs within its rounding margin of the band's cosine edges.
    """
    return _count(ps, ConfigQuery("angle", 2, theta0, delta), algorithm)


def _angle_views(pts: np.ndarray):
    """The apex views of the angle kernel, one per point a.  The legs are
    pts - pts[a]; those shorter than DEGENERATE_APEX_TOL, by the map's norm
    formula, make no triple.  The others are divided by their norms, and a
    row, a leg i, is valued against a leg j as the dot of the unit legs in
    BLAS, a cosine.  No arccos is taken outside the rechecks."""
    for a in range(len(pts)):
        legs = pts - pts[a]
        norms = np.sqrt((legs * legs).sum(axis=1))
        keep = np.flatnonzero(norms >= DEGENERATE_APEX_TOL)  # never a itself
        unit = legs[keep] / norms[keep, None]
        last = np.arange(keep.size - 1)
        yield a, keep, last[:, None], last, _dot_values(unit, unit)


def _angle_margin(d: int) -> float:
    """w = c (d + 2) eps, with c = _ANGLE_MARGIN_C and eps the machine
    epsilon: the margin of the angle kernel's cosine bands.

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


def _angle_bands(pts: np.ndarray, t: float, delta: float):
    """The cosine bands of `_band_split` for |angle - t| <= delta, each end
    moved by the `_angle_margin` w: (cos(t + delta) + w, cos(t - delta) - w)
    inside and [cos(t + delta) - w, cos(t - delta) + w] outside, with the
    angles clamped to [0, pi].  An inner end opens to -+inf when the oracle
    accepts every angle past it: t <= delta passes the angle 0, and
    math.pi - t <= delta passes math.pi, the largest np.arccos value; its
    test is monotone in the angle on each side of t.  An outer end past -+1
    opens too, as the oracle clips every cosine into [-1, 1]."""
    w = _angle_margin(pts.shape[1])
    c_lo, c_hi = math.cos(min(t + delta, math.pi)), math.cos(max(t - delta, 0.0))
    inner = (-np.inf if math.pi - t <= delta else c_lo + w,
             np.inf if t <= delta else c_hi - w)
    outer = (-np.inf if c_lo - w <= -1.0 else c_lo - w, np.inf if c_hi + w >= 1.0 else c_hi + w)
    return inner, outer


def _angle_values(tuples: np.ndarray) -> np.ndarray:
    """The angle map: arccos of the cosine of the legs u = x^2 - x^1 and
    w = x^3 - x^1, their dot by einsum over the product of their norms,
    clipped to [-1, 1].  NaN, in no band, when a leg is shorter than
    DEGENERATE_APEX_TOL; only the other rows are divided, so no 0/0 warns."""
    u, w = tuples[:, 1] - tuples[:, 0], tuples[:, 2] - tuples[:, 0]
    nu, nw = np.sqrt((u * u).sum(axis=1)), np.sqrt((w * w).sum(axis=1))
    keep = (nu >= DEGENERATE_APEX_TOL) & (nw >= DEGENERATE_APEX_TOL)
    theta = np.full((len(tuples), 1), np.nan)
    cosv = np.einsum("kd,kd->k", u[keep], w[keep]) / (nu[keep] * nw[keep])
    theta[keep, 0] = np.arccos(np.clip(cosv, -1.0, 1.0))
    return theta


FAMILIES: dict[str, Family] = {row.name: row for row in (
    Family(name="simplex", fixed_k=None, targets=lambda k: len(pair_order(k)),
           t_ok=lambda x: x > 0, t_domain="positive", zero_delta=False,
           config_map=_simplex_values, fast=_simplex_band, brute=_simplex_brute,
           threshold=lambda k, d: d - Fraction(d - 1, 2 * k)),
    Family(name="volume", fixed_k=lambda d: d, targets=lambda k: 1,
           t_ok=lambda x: x >= 0, t_domain="nonnegative", zero_delta=True,
           config_map=_volume_values, fast=_set_kernel(_volume_views, _volume_bands, _volume_values),
           brute=_oracle(_volume_values),
           threshold=lambda k, d: d - 1 + Fraction(1, 2 * d if d % 2 == 0 else 2 * (d - 1))),
    Family(name="area2", fixed_k=lambda d: 2, targets=lambda k: 1,
           t_ok=lambda x: x >= 0, t_domain="nonnegative", zero_delta=True,
           config_map=_area2_values, fast=_set_kernel(_area2_views, _area2_bands, _area2_values),
           brute=_oracle(_area2_values),
           threshold=lambda k, d: Fraction(d, 2) + Fraction(1, 4)),
    Family(name="angle", fixed_k=lambda d: 2, targets=lambda k: 1,
           t_ok=lambda x: 0.0 <= x <= math.pi, t_domain="in [0, pi]", zero_delta=False,
           config_map=_angle_values, fast=_set_kernel(_angle_views, _angle_bands, _angle_values, fixed=1),
           brute=_oracle(_angle_values),
           threshold=lambda k, d: Fraction(d + 1, 2)),
)}


# ---------------------------------------------------------------------------
# generic Phi-configurations


def _phi_row(phi: PhiFunction) -> Family:
    """The row of a custom map: k = arity - 1, one target per output, any
    finite target and no threshold.  Its map is the evaluator, which
    values an (m, arity, d) batch of tuples as an (m, output_dim) array, with
    that shape checked; its fast counter and its oracle are both `_oracle`
    of that map, which accepts by the named rows' closed rule."""

    def config_map(tuples: np.ndarray) -> np.ndarray:
        values = np.asarray(phi.evaluator(tuples), dtype=float)
        if values.shape != (len(tuples), phi.output_dim):
            raise ValueError(f"evaluator returned shape {values.shape} for {len(tuples)} tuples, "
                             f"not ({len(tuples)}, {phi.output_dim})")
        return values

    brute = _oracle(config_map)
    return Family(name="custom", fixed_k=lambda d: phi.arity - 1, targets=lambda k: phi.output_dim,
                  t_ok=math.isfinite, t_domain="real", zero_delta=False, config_map=config_map,
                  fast=brute, brute=brute, threshold=None,
                  fixed_by=f"for a map of arity {phi.arity}")


def count_phi(ps: PointSet, phi: PhiFunction, t, delta: float) -> CountReport:
    """Ordered distinct (arity)-tuples with |Phi(tuple) - t| <= delta in
    every coordinate of R^output_dim, by the custom row's oracle under
    BRUTE_EVAL_BUDGET.  No structural assumptions on Phi."""
    return _count(ps, ConfigQuery("custom", phi.arity - 1, t, delta, phi=phi), "brute")


# ---------------------------------------------------------------------------
# congruence classes


def distinct_classes(ps: PointSet, k: int, delta: float) -> int:
    """Number of delta-distinct congruence classes of (k+1)-point subsets.

    A subset's key is the simplex map (`_simplex_values`) of the subset in
    index order, divided by delta and rounded half to even onto Z (np.rint,
    float64 keys, so no tiny delta overflows), one entry per pair of
    pair_order(k).  Its class is the lexicographic minimum of that key over
    the (k+1)! relabelings of `_orders`: ordering o reads pair (i, j) from
    the key's entry of the pair {o_i, o_j}.  Classes are the distinct
    minima.  Distance vectors cannot see orientation, so mirror images are
    congruent.  delta must be finite and positive, and the C(n, k+1) (k+1)!
    tuples keyed pass `_enumeration_budget` (n^(k+1)) before any value.  The
    subsets come in the chunks of `_subsets`, so memory follows one chunk in
    all its orderings (at most BLOCK_ENTRIES key rows) plus the classes; no
    n x n distance matrix is built.
    """
    if not (1 <= k <= 4):
        raise ValueError("canonicalization supports 1 <= k <= 4")
    FAMILIES["simplex"].check_delta(delta)
    if ps.n < k + 1:
        return 0
    _enumeration_budget(ps.n, k + 1)
    i, j = np.array(pair_order(k)).T
    slot = np.zeros((k + 1, k + 1), np.intp)
    slot[i, j] = slot[j, i] = np.arange(i.size)
    orders = _orders(k + 1)
    gather = slot[orders[:, i], orders[:, j]]  # (orderings, pairs): the key entry each ordering reads
    classes = set()
    for chunk in _subsets(ps.n, k + 1):
        keys = np.rint(_simplex_values(ps.points[chunk]) / delta)[:, gather]
        least = np.ones(keys.shape[:2], bool)  # the orderings equal to the minimum so far
        for p in range(i.size):
            col = np.where(least, keys[:, :, p], np.inf)
            least &= col == col.min(axis=1, keepdims=True)
        canon = keys[np.arange(len(keys)), least.argmax(axis=1)]  # each subset's first least ordering
        classes.update(map(tuple, canon.tolist()))
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
    if not np.all(np.isfinite(pts)):
        raise ValueError("coordinates must be finite")
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


def run_query(ps: PointSet, query: ConfigQuery) -> CountReport:
    """Count a ConfigQuery with the fast counter: route it to count_<family>,
    passing k only where the family's row does not fix it.  count_<family> is
    looked up at every call, so wrappers installed on this module's attribute
    see each query; a custom map's query has none and goes to its row's
    counter directly."""
    if query.phi is not None:
        return _count(ps, query, "pruned")
    k = (query.k,) if FAMILIES[query.family].fixed_k is None else ()
    return globals()[f"count_{query.family}"](ps, *k, query.t, query.delta)
