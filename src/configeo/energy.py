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
repeated runs agree bit for bit.  A profile over an s-grid is one
discrete_energy call per s, so each of its values is the single-exponent
energy bit for bit, whatever the grid holds besides.

Budget: a set with more than ENERGY_PAIR_BUDGET ordered pairs n(n-1) is
refused with CapacityError before any distance is computed.  At the budget,
10^9 pairs (n = 31,623), one exponent at d = 2 takes ~18 s on a 2-vCPU VM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, CoincidentPointsError
from .pointgen import PointSet

COINCIDENCE_TOL = 1e-12
DEFAULT_ADAPTABILITY_C = 10.0
ENERGY_PAIR_BUDGET = 10**9  # ordered pairs n(n-1)

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
    """E_s(ps) as defined above; raises on coincident points, and refuses a
    set with more than ENERGY_PAIR_BUDGET ordered pairs before the first
    block."""
    if s <= 0:
        raise ValueError("energy exponent s must be positive")
    n = ps.n
    if n == 1:
        return 0.0
    if n * (n - 1) > ENERGY_PAIR_BUDGET:
        raise CapacityError(f"{n} points make {n * (n - 1)} ordered pairs, "
                            f"over the energy budget of {ENERGY_PAIR_BUDGET}")
    rows = max(1, _BLOCK_ENTRIES // n)
    pts = ps.points
    coords = np.ascontiguousarray(pts.T)
    dist_buf = np.empty((rows, n))
    term_buf = np.empty((rows, n)) if ps.dim == 2 else None
    row_sums = np.empty(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        if ps.dim <= 2:
            # one coordinate at a time in place: a sum of at most two squares
            # has one rounding, so it equals the einsum below bit for bit
            dist = dist_buf[: stop - start]
            np.subtract(coords[0, start:stop, None], coords[0], out=dist)
            dist *= dist
            if term_buf is not None:
                term = term_buf[: stop - start]
                np.subtract(coords[1, start:stop, None], coords[1], out=term)
                term *= term
                dist += term
            np.sqrt(dist, out=dist)
        else:
            diff = pts[start:stop, None, :] - pts[None, :, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        block_rows = np.arange(start, stop)
        dist[block_rows - start, block_rows] = np.inf  # exclude p == p'
        if dist.min() < COINCIDENCE_TOL:
            raise CoincidentPointsError(
                f"pair closer than {COINCIDENCE_TOL:g} encountered; "
                "|p-p'|^{-s} is not evaluable"
            )
        dist **= -s
        row_sums[start:stop] = np.sum(dist, axis=1)
    return float(np.sum(row_sums)) / (n * n)


def energy_profile(ps: PointSet, s_grid) -> list[tuple[float, float]]:
    """(s, E_s(ps)) for every s of the grid, in grid order: one
    discrete_energy call per s, after every s is checked."""
    grid = [float(s) for s in s_grid]
    if any(s <= 0 for s in grid):
        raise ValueError("energy exponent s must be positive")
    return [(s, discrete_energy(ps, s)) for s in grid]


def is_adaptable(ps: PointSet, s: float, C: float = DEFAULT_ADAPTABILITY_C) -> EnergyReport:
    """Energy report with the verdict E_s(ps) <= C."""
    if C <= 0:
        raise ValueError("adaptability constant C must be positive")
    value = discrete_energy(ps, s)
    return EnergyReport(s=float(s), value=value, n=ps.n, adaptable_at=float(C), verdict=value <= C)

