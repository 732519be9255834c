"""Grid verification harness for the signature identity and the mod-4 congruence.

Sweeps run over the exact rational-angle lattice ((p/res) pi, (q/res) pi),
1 <= p, q < res, in one walk, _lattice, shared by the identity sweep, the
mod-4 check and the region grid.  It checks ell and res, then visits the
points row by row with one lattice_strips call each: two integer divisions
that give the strips and the root-locus membership together, so excluded
points are skipped exactly, never by tolerance, and h, sigma and the sign
of the Conway potential are read off the strips: no float enters a
verdict.  Each report is deterministic given (ell, resolution) and
serializes to JSON.
"""

from __future__ import annotations

from itertools import islice

from ._values import Frozen
from .torus_rep import (
    check_ell,
    lattice_strips,
    strip_h,
    strip_potential_sign,
    strip_sigma,
)

SENTINEL = -999


def _lattice(ell: int, resolution: int):
    """(p, q, strips) row by row over 1 <= p, q < res; strips None on the root
    locus.  ell and res are checked at the call, before any point."""
    check_ell(ell)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    axis = range(1, resolution)
    return ((p, q, lattice_strips(ell, p, q, resolution)) for p in axis for q in axis)


class Report(Frozen):
    """Outcome of one check, built once from its counts.  `points` is None
    unless the check records them, and to_json then leaves it out, keeping
    the other fields in slot order."""

    __slots__ = ("ell", "resolution", "checked", "failed", "skipped_on_roots", "points")

    def to_json(self) -> dict:
        fields = zip(self.__slots__, self._fields())
        return {name: value for name, value in fields if value is not None}


def sweep_main_identity(ell: int, resolution: int, verbose: bool = False) -> Report:
    """Assert h = -(sigma(w1,w2) + sigma(w1,w2^{-1}))/2 over the exact grid."""
    checked = failed = skipped = 0
    points = [] if verbose else None
    # a local assigned after points: if memory runs out, the frame frees
    # points before it closes the walk, so that the close has room
    walk = _lattice(ell, resolution)
    for p, q, ij in walk:
        if ij is None:
            skipped += 1
            continue
        i, j = ij  # j is the strip of the flipped pair (p, resolution - q)
        h, s1, s2 = strip_h(ell, i, j), strip_sigma(ell, i), strip_sigma(ell, j)
        ok = 2 * h == -(s1 + s2)
        checked += 1
        if not ok:
            failed += 1
        if points is not None:
            points.append(
                {
                    "alpha": [f"{p}/{resolution}", f"{q}/{resolution}"],
                    "h": h,
                    "sigma": [s1, s2],
                    "pass": ok,
                }
            )
    return Report(ell, resolution, checked, failed, skipped, points)


class RegionGrid(Frozen):
    """h values over the lattice; SENTINEL marks excluded root-locus cells."""

    __slots__ = ("ell", "resolution", "values")


def region_grid(ell: int, resolution: int) -> RegionGrid:
    walk = _lattice(ell, resolution)
    cells = (SENTINEL if ij is None else strip_h(ell, *ij) for *_, ij in walk)
    n = resolution - 1  # cells per row of the walk, each row built from it alone
    return RegionGrid(ell, resolution, [list(islice(cells, n)) for _ in range(n)])


def check_mod4_congruence(ell: int, resolution: int) -> Report:
    """sigma == 2 + ell + sign(conway potential) mod 4 over the exact
    admissible grid, both read off the strip of the angle sum.  Requires
    ell > 0 (the potential normalization is pinned only there)."""
    if ell < 1:
        raise ValueError("mod-4 congruence check requires positive ell")
    checked = failed = skipped = 0
    for *_, ij in _lattice(ell, resolution):
        if ij is None:
            skipped += 1
            continue
        i = ij[0]
        checked += 1
        if (strip_sigma(ell, i) - 2 - ell - strip_potential_sign(ell, i)) % 4:
            failed += 1
    return Report(ell, resolution, checked, failed, skipped, None)
