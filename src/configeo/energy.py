"""Discrete Riesz-type energies and the bounded-energy adaptability test.

For an n-point set P and exponent s > 0 the normalized energy is

    E_s(P) = n^{-2} * sum over ordered pairs p != p' of |p - p'|^{-s}.

The sum runs over ordered pairs with the n^{-2} normalization; unordered
conventions differ by a factor of 2 and are deliberately not offered.  A set
counts as adaptable at exponent s and level C when E_s(P) <= C; boundedness of
this sum is the finite stand-in for the finiteness of the s-energy integral of
the set thickened at scale n^{-1/s}.

Summation contract: each row of n distances is computed and summed whole
(numpy's pairwise summation along the row), and the final reduction runs over
the n row sums, so the value does not depend on how many rows a block holds;
repeated runs agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointsError
from .pointgen import PointSet

COINCIDENCE_TOL = 1e-12
DEFAULT_ADAPTABILITY_C = 10.0

_BLOCK_ENTRIES = 1 << 16  # pairs per block: max(1, _BLOCK_ENTRIES // n) whole rows


@dataclass(frozen=True)
class EnergyReport:
    """Outcome of one adaptability test."""

    s: float
    value: float
    n: int
    adaptable_at: float
    verdict: bool


def discrete_energy(ps: PointSet, s: float) -> float:
    """E_s(ps) as defined above; raises on coincident points."""
    if s <= 0:
        raise ValueError("energy exponent s must be positive")
    pts = ps.points
    n = ps.n
    if n == 1:
        return 0.0
    row_sums = np.empty(n)
    rows = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        block_rows = np.arange(start, stop)
        dist[block_rows - start, block_rows] = np.inf  # exclude p == p'
        if np.any(dist < COINCIDENCE_TOL):
            raise CoincidentPointsError(
                f"pair closer than {COINCIDENCE_TOL:g} encountered; "
                "|p-p'|^{-s} is not evaluable"
            )
        row_sums[start:stop] = np.sum(dist**-s, axis=1)
    return float(np.sum(row_sums)) / (n * n)


def is_adaptable(ps: PointSet, s: float, C: float = DEFAULT_ADAPTABILITY_C) -> EnergyReport:
    """Energy report with the verdict E_s(ps) <= C."""
    if C <= 0:
        raise ValueError("adaptability constant C must be positive")
    value = discrete_energy(ps, s)
    return EnergyReport(s=float(s), value=value, n=ps.n, adaptable_at=float(C), verdict=value <= C)


def energy_profile(ps: PointSet, s_grid) -> list[tuple[float, float]]:
    """Pointwise E_s over a grid of exponents, in input order."""
    return [(float(s), discrete_energy(ps, s)) for s in s_grid]
