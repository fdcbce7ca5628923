"""Winding counts and circulation for a point vortex in a planar film.

A vortex of sign sigma imprints one quantum of phase winding, 2 pi sigma,
on every atom it encircles, so dragging the vortex core around a closed
loop shifts the condensate phase by 2 pi sigma times the number of atoms
inside the loop.  At uniform areal density n that count concentrates
around n * area, which reproduces the geometric phase area / L^2 with
L^2 = 1 / (2 pi n).

Membership is decided by an integer winding number computed from signed
edge crossings, so loop orientation never matters and multiply-wound loops
count correctly.  Circulation uses an independent route: the exact sum of
wrapped angle increments around the core, which equals 2 pi sigma times
the winding number for any polygonal loop that avoids the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_geometry import as_path

__all__ = [
    "VortexScene",
    "scene_from_dict",
    "winding_number",
    "winding_numbers",
    "point_in_polygon",
    "points_in_polygon",
    "count_phase",
    "winding_phase",
    "film_length_scale",
    "circulation_integral",
]

# a point whose side-of-edge value is within EDGE_TOL times the squared edge
# length of zero (relative distance 1e-12 from the edge's line) is treated as
# on the edge; such points sit on a measure-zero set and follow the crossing
# tie-break
EDGE_TOL = 1e-12

# points sorted, and (edge, point) pairs tested, per chunk in winding_numbers;
# bounds its memory
_PAIR_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class VortexScene:
    """Core trajectory loop, atom positions, vortex sign, optional density."""

    core_loop: np.ndarray
    atoms: np.ndarray
    sigma: int
    density: float | None = None

    def __post_init__(self):
        loop = as_path(self.core_loop, min_vertices=3, name="core_loop")
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.size == 0:
            atoms = atoms.reshape(0, 2)
        if atoms.ndim != 2 or atoms.shape[1] != 2:
            raise ValueError(f"atoms must be an (N, 2) array, got shape {atoms.shape}")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms contain non-finite coordinates")
        if self.sigma not in (1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")
        if self.density is not None and not (self.density > 0 and math.isfinite(self.density)):
            raise ValueError(f"density must be positive when given, got {self.density}")
        object.__setattr__(self, "core_loop", loop)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "sigma", int(self.sigma))


def scene_from_dict(data: dict) -> VortexScene:
    """Build a scene from the JSON layout {core_loop, atoms, sigma, density?}."""
    if not isinstance(data, dict):
        raise ValueError(f"scene must be a mapping, got {type(data).__name__}")
    missing = [k for k in ("core_loop", "atoms", "sigma") if k not in data]
    if missing:
        raise ValueError(f"scene is missing required keys: {', '.join(missing)}")
    density = data.get("density")
    return VortexScene(
        core_loop=data["core_loop"],
        atoms=data["atoms"],
        sigma=data["sigma"],
        density=None if density is None else float(density),
    )


def winding_numbers(points, polygon) -> np.ndarray:
    """Integer winding numbers of a closed polygon around many points.

    Signed edge-crossing method: an edge crosses the rightward ray from a
    point when the point's y lies in the edge's half-open slab
    [min(y1, y2), max(y1, y2)) and the point is strictly left of an upward
    edge (+1) or strictly right of a downward edge (-1).  CCW traversal
    around a point gives +1 per turn, CW gives -1.  A point within a
    relative distance EDGE_TOL of an edge's line (|side| <= EDGE_TOL times
    the squared edge length) counts as on that edge and adds nothing, so
    scaling the whole scene by a power of two leaves every count unchanged.

    The points are swept _PAIR_CHUNK at a time.  Each chunk is sorted by y,
    each edge's slab in it is located with a binary search, and the side
    test runs only on (edge, point) pairs inside a slab, _PAIR_CHUNK pairs
    at a time: O(N log C + E ceil(N/C) log C + slab pairs) time for N points,
    E edges and chunk size C, and O(E + C) memory beyond the result.
    """
    poly = as_path(polygon, min_vertices=3, name="polygon")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return np.zeros(0, dtype=int)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must be an (N, 2) array, got shape {pts.shape}")

    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    dx, dy = x2 - x1, y2 - y1
    up = y2 > y1
    sign = np.where(up, 1.0, -1.0)
    tol = EDGE_TOL * (dx * dx + dy * dy)
    y_lo, y_hi = np.where(up, y1, y2), np.where(up, y2, y1)

    out = np.empty(pts.shape[0], dtype=int)
    for c0 in range(0, pts.shape[0], _PAIR_CHUNK):
        chunk = pts[c0:c0 + _PAIR_CHUNK]
        bad = np.flatnonzero(~np.isfinite(chunk).all(axis=1))
        if bad.size:
            row = c0 + int(bad[0])
            raise ValueError(f"points contain a non-finite coordinate in row {row}: "
                             f"{pts[row].tolist()}")
        # Any sort order gives exact counts: points with equal y are contiguous
        # in every y order, so each slab holds the same points, and each count
        # is a sum of +-1.0 over the same (edge, point) pairs, exact in floats.
        order = np.argsort(chunk[:, 1])
        px, py = chunk[order, 0], chunk[order, 1]
        # slab of edge e: sorted points first[e] .. first[e] + size[e] - 1
        first = np.searchsorted(py, y_lo, side="left")
        size = np.searchsorted(py, y_hi, side="left") - first
        ends = np.cumsum(size)
        starts = ends - size

        wn = np.zeros(py.shape[0])
        for lo in range(0, int(ends[-1]), _PAIR_CHUNK):
            hi = min(lo + _PAIR_CHUNK, int(ends[-1]))
            # edges with pairs in [lo, hi), and how many of their pairs fall there
            e0 = int(np.searchsorted(ends, lo, side="right"))
            e1 = int(np.searchsorted(starts, hi, side="left"))
            span = np.minimum(ends[e0:e1], hi) - np.maximum(starts[e0:e1], lo)
            e = np.repeat(np.arange(e0, e1), span)
            j = first[e] + (np.arange(lo, hi) - starts[e])
            # side > 0: point lies left of the directed edge
            side = dx[e] * (py[j] - y1[e]) - (px[j] - x1[e]) * dy[e]
            s = sign[e]
            hit = np.where(s * side > tol[e], s, 0.0)
            j0 = int(j.min())
            wn[j0:int(j.max()) + 1] += np.bincount(j - j0, weights=hit)
        out[c0:c0 + _PAIR_CHUNK][order] = wn
    return out


def winding_number(point, polygon) -> int:
    return int(winding_numbers(np.asarray(point, dtype=float)[None, :], polygon)[0])


def points_in_polygon(points, polygon) -> np.ndarray:
    """Membership by nonzero winding number; orientation-independent."""
    return winding_numbers(points, polygon) != 0


def point_in_polygon(point, polygon) -> bool:
    return bool(winding_number(point, polygon) != 0)


def count_phase(sigma: int, count: int) -> float:
    """Phase 2 pi sigma N picked up from N enclosed atoms."""
    return 2.0 * math.pi * sigma * float(count)


def winding_phase(scene: VortexScene) -> float:
    """Total phase 2 pi sigma times the number of atoms inside the core loop."""
    inside = points_in_polygon(scene.atoms, scene.core_loop)
    return count_phase(scene.sigma, np.count_nonzero(inside))


def film_length_scale(density: float) -> float:
    """Length L with L^2 = 1 / (2 pi n) for areal density n."""
    if not (density > 0 and math.isfinite(density)):
        raise ValueError(f"density must be positive and finite, got {density}")
    return math.sqrt(1.0 / (2.0 * math.pi * density))


def circulation_integral(core, loop, sigma: int = 1) -> float:
    """Phase circulation of the vortex field along a closed loop.

    Sums the wrapped angle increments delta in (-pi, pi] seen from the
    core, segment by segment, times sigma.  Exact (to rounding) for any
    polygonal loop: the result is 2 pi sigma times the loop's winding
    number around the core.  The loop must keep every vertex farther from
    the core than 1e-9 times the loop's size seen from the core (its
    farthest vertex's distance), so the test does not depend on the unit
    of length.
    """
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma}")
    c = np.asarray(core, dtype=float).reshape(2)
    if not np.all(np.isfinite(c)):
        raise ValueError(f"core must be finite, got {c.tolist()}")
    poly = as_path(loop, min_vertices=3, name="loop")
    rel = poly - c
    dist = np.hypot(rel[:, 0], rel[:, 1])
    dmin, dmax = float(dist.min()), float(dist.max())
    if dmin <= 1e-9 * dmax:
        raise ValueError(
            f"loop passes through the core: minimum vertex distance {dmin:g} "
            f"<= 1e-09 x maximum {dmax:g}"
        )
    theta = np.arctan2(rel[:, 1], rel[:, 0])
    d = np.diff(np.concatenate([theta, theta[:1]]))
    # wrap to (-pi, pi]
    d = np.remainder(d + math.pi, 2.0 * math.pi) - math.pi
    d[d == -math.pi] = math.pi
    return float(sigma * np.sum(d))
