"""Discrete Riesz-type energies and the bounded-energy adaptability test.

For an n-point set P and exponent s > 0 the normalized energy is

    E_s(P) = n^{-2} * sum over ordered pairs p != p' of |p - p'|^{-s}.

The sum runs over ordered pairs with the n^{-2} normalization; unordered
conventions differ by a factor of 2 and are deliberately not offered.  A set
counts as adaptable at exponent s and level C when E_s(P) <= C; boundedness of
this sum is the finite stand-in for the finiteness of the s-energy integral of
the set thickened at scale n^{-1/s}.

Summation contract: |p - p'| is symmetric, so row i holds only the pairs
j = i+1 .. n-1, and E = 2 * (sum of the row sums) / n^2.  The rows come in
the upper blocks of configcount._distance_blocks, against the columns past
each block's first row; the columns j <= i of a block's leading tile are set
to inf before the power, so they add no zero distance and no warning, and
the coincidence check runs over the same upper entries before any sum.  Each
row's upper slice is summed whole (numpy's pairwise summation), then the
n - 1 row sums are summed, so the value does not depend on how many rows a
block holds; repeated runs agree bit for bit.  Every distance adds its
squared coordinate differences in coordinate order, the rule of the simplex
band rows and of _pair_distance_matrix, which the simplex oracle uses, so
all three see the same bits at every d.  A profile over an s-grid is one
discrete_energy call per s, so each of its values is the single-exponent
energy bit for bit, whatever the grid holds besides.

Budget: a set with more than ENERGY_PAIR_BUDGET ordered pairs n(n-1) is
refused with CapacityError before any distance is computed.  At the budget,
10^9 ordered pairs (n = 31,623; half as many distances), one exponent at
d = 2 takes 3.0 s at s = 1 and 4.3 s at s = 1.9 on a 2-vCPU VM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configcount import _distance_blocks
from .errors import CapacityError, CoincidentPointsError
from .pointgen import PointSet

COINCIDENCE_TOL = 1e-12
DEFAULT_ADAPTABILITY_C = 10.0
ENERGY_PAIR_BUDGET = 10**9  # ordered pairs n(n-1)


@dataclass(frozen=True)
class EnergyReport:
    """Outcome of one adaptability test."""

    s: float
    value: float
    n: int
    adaptable_at: float
    verdict: bool


def _check_positive(name: str, value) -> None:
    """Refuse a value of the exponent s or the adaptability level C that is
    not positive and finite (NaN included)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {name}={float(value):g}")


def discrete_energy(ps: PointSet, s: float) -> float:
    """E_s(ps) as defined above; raises on coincident points, and refuses a
    set with more than ENERGY_PAIR_BUDGET ordered pairs before the first
    block."""
    _check_positive("s", s)
    n = ps.n
    if n == 1:
        return 0.0
    if n * (n - 1) > ENERGY_PAIR_BUDGET:
        raise CapacityError(f"{n} points make {n * (n - 1)} ordered pairs, "
                            f"over the energy budget of {ENERGY_PAIR_BUDGET}")
    row_sums = np.empty(n - 1)  # row n-1 holds no pair
    for start, dist, _ in _distance_blocks(ps.points, upper=True):
        m = len(dist)
        np.copyto(dist[:, :m], np.inf, where=np.tri(m, k=-1, dtype=bool))  # the columns j <= i
        if dist.min() < COINCIDENCE_TOL:
            raise CoincidentPointsError(
                f"pair closer than {COINCIDENCE_TOL:g} encountered; "
                "|p-p'|^{-s} is not evaluable"
            )
        dist **= -s
        for r in range(m):
            row_sums[start + r] = np.add.reduce(dist[r, r:])
    return 2.0 * float(np.sum(row_sums)) / (n * n)


def energy_profile(ps: PointSet, s_grid) -> list[tuple[float, float]]:
    """(s, E_s(ps)) for every s of the grid, in grid order: one
    discrete_energy call per s, after every s is checked."""
    grid = [float(s) for s in s_grid]
    for s in grid:
        _check_positive("s", s)
    return [(s, discrete_energy(ps, s)) for s in grid]


def is_adaptable(ps: PointSet, s: float, C: float = DEFAULT_ADAPTABILITY_C) -> EnergyReport:
    """Energy report with the verdict E_s(ps) <= C."""
    _check_positive("C", C)
    value = discrete_energy(ps, s)
    return EnergyReport(s=float(s), value=value, n=ps.n, adaptable_at=float(C), verdict=value <= C)

