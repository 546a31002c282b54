"""Structured point-set generators and the point-set file format.

Every generator emits points inside the unit cube [0,1]^d and is a pure
function of its arguments: the same call (including the seed) reproduces the
same point set byte for byte after serialization.  Random draws come from
numpy's PCG64, a named, seedable 64-bit generator whose streams are identical
across platforms.

The text file format (UTF-8, LF newlines):

    pointset v1 d=<d> n=<n>
    # generator=<name>            (optional meta, one `# key=value` per line)
    # seed=<int>
    # nominal_dimension=<float>
    # separation=<float>
    <coord_1> ... <coord_d>       (n rows, 17 significant digits, single spaces)

The meta lines are the fields of PointSetMeta that are set, in field order.
The reader takes every line that starts with `#` as meta (unknown keys and
lines with no `=` are comments), skips blank lines and hands the other lines,
as they are, to np.loadtxt, which parses them straight into the array.  It
rejects dimension/count mismatches, and a header n over DEFAULT_POINT_BUDGET
before any row is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, get_args, get_type_hints

import numpy as np
# numpy loads numpy.random on first use; loading it with the package keeps
# that out of the first draw of every seeded generator
from numpy.random import PCG64, Generator

from .errors import CapacityError

DEFAULT_POINT_BUDGET = 10**6

_FLOAT_FMT = "{:.17g}"  # lossless for IEEE-754 doubles


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (bit-exact round trip)."""
    return _FLOAT_FMT.format(float(x))


@dataclass(frozen=True)
class PointSetMeta:
    """Provenance attached to a generated point set."""

    generator: str = "unknown"
    seed: int | None = None
    nominal_dimension: float | None = None
    separation: float | None = None


# PointSetMeta field -> the type of its value, in field order: the file
# writes a float by format_float and reads each value back as its type
_META_TYPES = {name: next(t for t in (*get_args(hint), hint) if t is not type(None))
               for name, hint in get_type_hints(PointSetMeta).items()}


@dataclass(frozen=True)
class PointSet:
    """An ordered n-point configuration in [0,1]^d.

    The coordinate array is made read-only on construction; point sets are
    safe to share across concurrent readers.
    """

    dim: int
    points: np.ndarray
    meta: PointSetMeta = field(default_factory=PointSetMeta)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        pts = np.array(self.points, dtype=float, copy=True, order="C")
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(
                f"points must be an (n, {self.dim}) array, got shape {pts.shape}"
            )
        if pts.shape[0] < 1:
            raise ValueError("a point set holds at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        if pts.min() < 0.0 or pts.max() > 1.0:
            raise ValueError("coordinates must lie in [0,1]")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class GeneratorSpec:
    """A generator kind plus its parameters.

    kind names a row of GENERATORS, which says which params the kind reads;
    they are validated before generation.
    """

    kind: str
    params: tuple[tuple[str, object], ...]

    def __post_init__(self):
        if self.kind not in GENERATORS:
            raise ValueError(f"unknown generator kind '{self.kind}'")

    @classmethod
    def make(cls, kind: str, **params) -> "GeneratorSpec":
        return cls(kind=kind, params=tuple(sorted(params.items())))

    def as_dict(self) -> dict:
        return dict(self.params)


def _check_budget(n: int) -> None:
    if n > DEFAULT_POINT_BUDGET:
        raise CapacityError(f"requested {n} points exceeds the budget of {DEFAULT_POINT_BUDGET}")


def gen_lattice(d: int, m: int) -> PointSet:
    """The grid {0, 1/(m-1), ..., 1}^d; m = 1 gives the single origin point."""
    if d < 1 or m < 1:
        raise ValueError("need d >= 1 and m >= 1")
    n = m**d
    _check_budget(n)
    axis = np.linspace(0.0, 1.0, m) if m >= 2 else np.array([0.0])
    pts = _product_points(axis, d)
    sep = 1.0 / (m - 1) if m >= 2 else None
    meta = PointSetMeta(generator="lattice", nominal_dimension=float(d), separation=sep)
    return PointSet(dim=d, points=pts, meta=meta)


def cantor_endpoints(r: float, level: int) -> np.ndarray:
    """Sorted left endpoints of the level-`level` intervals of the ratio-r
    Cantor construction on [0,1]."""
    e = np.array([0.0])
    for _ in range(level):
        e = np.concatenate([e * r, (1.0 - r) + e * r])
    return e


def gen_cantor(d: int, r: float, level: int) -> PointSet:
    """d-fold product of the ratio-r Cantor set, truncated at `level`.

    Emits the left endpoints of the surviving intervals (exactly
    representable by the recursion, unlike midpoints), so n = 2^(d*level).
    The nominal dimension of the limiting set is d*log(2)/log(1/r).
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if not (0.0 < r < 0.5):
        raise ValueError("contraction ratio must satisfy 0 < r < 1/2")
    if level < 0:
        raise ValueError("level must be >= 0")
    n = 2 ** (d * level)
    _check_budget(n)
    axis = cantor_endpoints(r, level)
    pts = _product_points(axis, d)
    sep = float(np.diff(axis).min()) if level >= 1 else None
    meta = PointSetMeta(
        generator="cantor_product",
        nominal_dimension=d * math.log(2.0) / math.log(1.0 / r),
        separation=sep,
    )
    return PointSet(dim=d, points=pts, meta=meta)


def gen_random(d: int, n: int, seed: int) -> PointSet:
    """n i.i.d. uniform points in [0,1]^d (PCG64 stream of `seed`)."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    _check_budget(n)
    rng = Generator(PCG64(seed))
    pts = rng.random((n, d))
    meta = PointSetMeta(generator="uniform_random", seed=seed, nominal_dimension=float(d))
    return PointSet(dim=d, points=pts, meta=meta)


def gen_coplanar(d: int, n: int, seed: int) -> PointSet:
    """n uniform points in the degenerate slice {x_d = 1/2} of [0,1]^d."""
    if d < 2:
        raise ValueError("coplanar sets need d >= 2")
    if n < 1:
        raise ValueError("need n >= 1")
    _check_budget(n)
    rng = Generator(PCG64(seed))
    pts = np.empty((n, d))
    pts[:, : d - 1] = rng.random((n, d - 1))
    pts[:, d - 1] = 0.5
    meta = PointSetMeta(generator="coplanar", seed=seed, nominal_dimension=float(d - 1))
    return PointSet(dim=d, points=pts, meta=meta)


def gen_homogeneous(d: int, m: int, seed: int, jitter: float = 0.25) -> PointSet:
    """A jittered lattice: one uniform point per grid cell, confined to the
    central sub-cube of side 2*jitter so the set stays (1-2*jitter)/m separated."""
    if d < 1 or m < 1:
        raise ValueError("need d >= 1 and m >= 1")
    if not (0.0 <= jitter < 0.5):
        raise ValueError("jitter must lie in [0, 1/2)")
    n = m**d
    _check_budget(n)
    rng = Generator(PCG64(seed))
    cells = _product_points(np.arange(m, dtype=float), d)
    offsets = (rng.random((n, d)) - 0.5) * (2.0 * jitter)
    pts = (cells + 0.5 + offsets) / m
    meta = PointSetMeta(generator="homogeneous", seed=seed, nominal_dimension=float(d))
    return PointSet(dim=d, points=pts, meta=meta)


def _product_points(axis: np.ndarray, d: int) -> np.ndarray:
    """Row-major cartesian power of a 1-d coordinate axis."""
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _per_axis(n: int, d: int) -> int:
    """Points per axis of a grid of about n points."""
    return max(1, round(n ** (1.0 / d)))


@dataclass(frozen=True)
class GeneratorKind:
    """One row of GENERATORS, called as build(d, <size>[, seed], *extras)
    with the GeneratorSpec parameters of those names.  An extra with default
    None is required."""

    build: Callable[..., PointSet]
    size: str  # the GeneratorSpec parameter that sets the size
    seeded: bool
    scan_size: Callable[[int, int], int]  # the size giving about n points in dimension d
    extras: dict[str, float | None] = field(default_factory=dict)  # float parameter -> default or None

    @property
    def params(self) -> tuple[str, ...]:
        """Every GeneratorSpec parameter the kind reads."""
        return ("d", self.size) + ("seed",) * self.seeded + tuple(self.extras)


GENERATORS: dict[str, GeneratorKind] = {
    "lattice": GeneratorKind(gen_lattice, "m", False, _per_axis),
    "cantor_product": GeneratorKind(lambda d, level, r: gen_cantor(d, r, level), "L", False,
                                    lambda n, d: max(0, round(math.log2(n) / d)), {"r": None}),
    "homogeneous": GeneratorKind(gen_homogeneous, "m", True, _per_axis, {"jitter": 0.25}),
    "uniform_random": GeneratorKind(gen_random, "n", True, lambda n, d: n),
    "coplanar": GeneratorKind(gen_coplanar, "n", True, lambda n, d: n),
}


def generate(spec: GeneratorSpec) -> PointSet:
    """Build the point set of a GeneratorSpec from its kind's row; an absent
    extra parameter takes the row's default."""
    row = GENERATORS[spec.kind]
    p = {name: default for name, default in row.extras.items() if default is not None} | spec.as_dict()
    try:
        args = [float(p[name]) if name in row.extras else int(p[name]) for name in row.params]
    except KeyError as exc:
        raise ValueError(f"generator '{spec.kind}' is missing parameter {exc}") from None
    return row.build(*args)


def format_pointset(ps: PointSet) -> str:
    """Serialize to the text format (see module docstring)."""
    lines = [f"pointset v1 d={ps.dim} n={ps.n}"]
    for name, kind in _META_TYPES.items():
        value = getattr(ps.meta, name)
        if value is not None:
            lines.append(f"# {name}={format_float(value) if kind is float else value}")
    for row in ps.points:
        lines.append(" ".join(format_float(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_pointset(text: str) -> PointSet:
    """Parse the text format; rejects dimension/count mismatches, and a
    header n over DEFAULT_POINT_BUDGET (CapacityError) before any row."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty point-set file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "pointset" or header[1] != "v1":
        raise ValueError(f"bad header line: {lines[0]!r}")
    try:
        d = int(_expect_kv(header[2], "d"))
        n = int(_expect_kv(header[3], "n"))
    except ValueError as exc:
        raise ValueError(f"bad header line: {lines[0]!r}") from exc
    _check_budget(n)

    meta_kv: dict[str, str] = {}
    rows: list[str] = []
    for line in lines[1:]:
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta_kv[key.strip()] = value.strip()
        elif line.strip():
            rows.append(line)
    # loadtxt raises ValueError on an unparseable coordinate or a ragged row
    pts = np.loadtxt(rows, comments="#", ndmin=2) if rows else np.empty((0, d))
    if pts.shape[1] != d:
        raise ValueError(f"expected {d} coordinates per row, got {pts.shape[1]}")
    if len(pts) != n:
        raise ValueError(f"expected {n} points, found {len(pts)}")

    meta = PointSetMeta(**{key: _META_TYPES[key](value) for key, value in meta_kv.items()
                           if key in _META_TYPES})
    return PointSet(dim=d, points=pts, meta=meta)


def _expect_kv(token: str, key: str) -> str:
    k, _, v = token.partition("=")
    if k != key or not v:
        raise ValueError(f"expected {key}=<value>, got {token!r}")
    return v


def save_pointset(ps: PointSet, path) -> None:
    Path(path).write_text(format_pointset(ps), encoding="utf-8", newline="\n")


def load_pointset(path) -> PointSet:
    return parse_pointset(Path(path).read_text(encoding="utf-8"))
