"""Dimension thresholds, predicted count exponents and the count-growth scan.

Both closed forms come from the family's row in configcount.FAMILIES (its
module docstring has the table): the threshold s0(k, d) is the row's own,
and the predicted growth exponent of the count in n at set dimension s is
arity - len(t)/s, with arity = k+1 points and len(t) target values.
Thresholds and exponents are exact rationals when the inputs are exact.

A scan generates a point family over an increasing n schedule, counts one
fixed configuration at tolerance delta_n = n^(-1/s), checks the bounded-
energy condition at the same s, and compares the fitted log-log growth
slope against the predicted exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from ._ols import ols_loglog
from .configcount import ConfigQuery, CountReport, PhiFunction, family_row, run_query
from .energy import DEFAULT_ADAPTABILITY_C, EnergyReport, _check_positive, is_adaptable
from .errors import InfeasibleError
from .pointgen import GENERATORS, GeneratorSpec, PointSet, generate


def threshold(family: str, k: int, d: int):
    """Dimension threshold above which the family's configuration set has
    positive measure; exact Fraction."""
    if d < 2:
        raise ValueError("thresholds are defined for d >= 2")
    row = family_row(family)
    row.check_k(k, d)
    return row.threshold(k, d)


def count_exponent(family: str, k: int, d: int, s):
    """Predicted growth exponent (k+1) - len(t)/s of the count in n at set
    dimension s; exact (Fraction) when s is an int or Fraction, else float."""
    s = Fraction(s) if isinstance(s, Rational) else float(s)
    _check_positive("s", s)
    row = family_row(family)
    row.check_k(k, d)
    return (k + 1) - row.targets(k) / s


def fit_slope(samples) -> tuple[float, float]:
    """OLS slope and stderr of log y against log n; zero-count samples are
    dropped rather than floored (flooring biases small-n slopes)."""
    kept = [(n, y) for n, y in samples if y > 0]
    if len(kept) < 3:
        raise InfeasibleError("need at least 3 positive samples to fit a slope")
    return ols_loglog(*zip(*kept))


# ---------------------------------------------------------------------------
# scans


@dataclass(frozen=True)
class ScanSpec:
    """A generator family, a query template, an n schedule, and a delta rule.

    generator is a size-free template (no m/L/n key); the per-step size is
    derived from the schedule.  With t=None the target is sampled from a
    configuration realized by the largest-n point set.  A custom scan names
    its map phi and its predicted exponent.  With s=None the generator's
    nominal dimension drives delta_n = n^(-1/s).  Per-step seeds are base
    seed + step index.
    """

    generator: GeneratorSpec
    family: str
    k: int
    schedule: tuple[int, ...]
    seed: int = 0
    s: float | None = None
    t: tuple[float, ...] | None = None
    delta: float | None = None
    predicted: float | None = None
    adaptability_C: float = DEFAULT_ADAPTABILITY_C
    phi: PhiFunction | None = None

    def __post_init__(self):
        sched = tuple(int(n) for n in self.schedule)
        if len(sched) < 3:
            raise ValueError("schedule needs at least 3 sizes")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("schedule must be strictly increasing")
        d = int(self.generator.as_dict()["d"])
        sized = GENERATORS[self.generator.kind]
        for a, b in zip(sched, sched[1:]):
            if sized.scan_size(b, d) <= sized.scan_size(a, d):  # one point set counted twice
                raise ValueError(f"schedule steps n={a} and n={b} make the same {self.generator.kind} "
                                 f"set, {sized.size}={sized.scan_size(a, d)}")
        object.__setattr__(self, "schedule", sched)
        if self.s is not None:
            _check_positive("s", self.s)
        _check_positive("C", self.adaptability_C)
        row = family_row(self.family, self.phi)
        row.check_k(self.k, d)  # before any generation
        if self.t is not None:  # each step's ConfigQuery checks them too
            row.check_target(self.k, tuple(map(float, np.atleast_1d(self.t))))
        if self.delta is not None:
            row.check_delta(float(self.delta))
        if row.threshold is None and self.predicted is None:  # no theory predicts its growth
            raise ValueError(f"{self.family} scans need an explicit predicted exponent")


@dataclass(frozen=True)
class ScanRow:
    n: int
    delta: float
    count: int


@dataclass(frozen=True)
class ScanReport:
    family: str
    k: int
    d: int
    s: float
    seed: int
    t: tuple[float, ...]
    rows: tuple[ScanRow, ...]
    fitted_slope: float | None
    stderr: float | None
    predicted: float
    verdict: str  # consistent | exceeds | inconclusive
    energy: tuple[EnergyReport, ...]


def _sized_generator(template: GeneratorSpec, n: int, seed: int) -> GeneratorSpec:
    """Fill a size-free generator template for a target of about n points."""
    row = GENERATORS[template.kind]
    p = template.as_dict()
    p[row.size] = row.scan_size(n, int(p["d"]))
    if row.seeded:
        p["seed"] = seed
    return GeneratorSpec.make(template.kind, **p)


def _sample_target(ps: PointSet, spec: ScanSpec) -> tuple[float, ...]:
    """A target realized by an actual configuration of ps (seeded draw)."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if ps.n < spec.k + 1:
        raise InfeasibleError("point set too small to realize a target configuration")
    pts = ps.points[rng.choice(ps.n, size=spec.k + 1, replace=False)]
    return tuple(float(value) for value in family_row(spec.family, spec.phi).config_map(pts[None])[0])


def run_scan(spec: ScanSpec) -> ScanReport:
    """Count one fixed configuration across the n schedule and fit the growth.

    Per step: delta_n = n^(-1/s) on the actual generated size (unless a fixed
    delta override is given), a bounded-energy check at the same s, then one
    exact count.  Verdict: `exceeds` only when slope - 2*stderr > predicted,
    `inconclusive` when more than half the counts are zero or the fit is
    impossible, `consistent` otherwise.
    """
    sets: list[PointSet] = []
    for i, n in enumerate(spec.schedule):
        gspec = _sized_generator(spec.generator, n, spec.seed + i)
        sets.append(generate(gspec))

    d = sets[-1].dim
    if spec.s is not None:
        s = float(spec.s)
    else:
        s = sets[-1].meta.nominal_dimension
        if s is None:
            raise ValueError("generator has no nominal dimension; pass s explicitly")

    t = spec.t if spec.t is not None else _sample_target(sets[-1], spec)
    if spec.predicted is not None:
        predicted = float(spec.predicted)
    else:
        predicted = float(count_exponent(spec.family, spec.k, d, s))

    rows: list[ScanRow] = []
    energies: list[EnergyReport] = []
    for ps in sets:
        delta_n = spec.delta if spec.delta is not None else ps.n ** (-1.0 / s)
        query = ConfigQuery(spec.family, spec.k, t, float(delta_n), spec.phi)
        report: CountReport = run_query(ps, query)
        rows.append(ScanRow(n=ps.n, delta=float(delta_n), count=report.count))
        energies.append(is_adaptable(ps, s, spec.adaptability_C))

    slope: float | None = None
    stderr: float | None = None
    verdict = "inconclusive"
    if sum(1 for r in rows if r.count == 0) <= len(rows) / 2:
        try:
            slope, stderr = fit_slope([(r.n, r.count) for r in rows])
        except InfeasibleError:
            pass
        else:
            verdict = "exceeds" if slope - 2.0 * stderr > predicted else "consistent"

    return ScanReport(
        family=spec.family,
        k=spec.k,
        d=d,
        s=float(s),
        seed=spec.seed,
        t=tuple(float(x) for x in t),
        rows=tuple(rows),
        fitted_slope=slope,
        stderr=stderr,
        predicted=predicted,
        verdict=verdict,
        energy=tuple(energies),
    )
