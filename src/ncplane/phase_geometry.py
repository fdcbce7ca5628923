"""Two routes to the interference phase of a closed planar loop.

Area route: the phase is the shoelace signed area of the loop divided by
L^2.  Action route: map the loop into phase space with q = x,
p = hbar * y / L^2, split it into two branches that share endpoints, and
take the trapezoidal action difference divided by hbar.  For any polygonal
loop the two routes agree to rounding error; that agreement is the whole
point of the module.

Orientation convention: counterclockwise area counts positive, so both
phases flip sign when the loop is traversed backwards.  A counterclockwise
loop has trapezoidal integral sum(p_avg * dq) = -area, so the action-route
helper assigns branch 1 to the reversed traversal; the branch with larger
momentum then accumulates the larger action and the difference comes out
equal to the counterclockwise-positive area.

Paths and loops are (N, 2) float arrays (or anything array-like).  Loops
are implicitly closed: the last vertex connects back to the first, and an
explicit duplicate first vertex only adds a zero-length edge.
"""

from __future__ import annotations

import numpy as np

from .operator_core import NcParams

__all__ = [
    "as_path",
    "signed_area",
    "action_integral",
    "interference_phase_area",
    "interference_phase_action",
    "to_phase_space",
    "loop_action_phase",
]

# endpoint agreement interference_phase_action asks for, relative to the
# paths' q extent
ENDPOINT_TOL = 1e-9


def as_path(vertices, min_vertices: int = 2, name: str = "path") -> np.ndarray:
    """Coerce to an (N, 2) float array and validate it."""
    arr = np.asarray(vertices, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must be an (N, 2) vertex array, got shape {arr.shape}")
    if arr.shape[0] < min_vertices:
        if min_vertices >= 3:
            raise ValueError(
                f"degenerate loop: need at least {min_vertices} vertices, got {arr.shape[0]}"
            )
        raise ValueError(f"{name} needs at least {min_vertices} vertices, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite vertices")
    return arr


def signed_area(loop) -> float:
    """Shoelace signed area of an implicitly closed loop, CCW positive."""
    arr = as_path(loop, min_vertices=3, name="loop")
    x, y = arr[:, 0], arr[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def action_integral(path) -> float:
    """Trapezoidal sum(p_avg * dq) along an open phase-space path.

    Exact for piecewise-linear paths; reversing the path negates the value
    term by term.
    """
    arr = as_path(path, min_vertices=2, name="path")
    q, p = arr[:, 0], arr[:, 1]
    return float(np.sum(0.5 * (p[1:] + p[:-1]) * np.diff(q)))


def interference_phase_area(loop, params: NcParams) -> float:
    """Loop phase via the geometric route: signed area / L^2."""
    return signed_area(loop) / params.L2


def interference_phase_action(path1, path2, hbar: float = 1.0) -> float:
    """Phase by which branch 1 leads branch 2: (S1 - S2) / hbar.

    The branches must share initial and final configuration points (the q
    coordinates) within ENDPOINT_TOL = 1e-9 times the q extent of both
    paths together; the connecting jumps in p then contribute nothing to
    the closed-loop action, so the difference equals the loop integral of
    p dq over branch-1-forward, branch-2-backward.
    """
    a = as_path(path1, min_vertices=2, name="path1")
    b = as_path(path2, min_vertices=2, name="path2")
    if not (hbar > 0 and np.isfinite(hbar)):
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    extent = max(a[:, 0].max(), b[:, 0].max()) - min(a[:, 0].min(), b[:, 0].min())
    for label, qa, qb in (("first", a[0, 0], b[0, 0]), ("last", a[-1, 0], b[-1, 0])):
        if abs(qa - qb) > ENDPOINT_TOL * extent:
            raise ValueError(
                f"paths do not interfere: {label} configuration points differ, "
                f"path1 {label} q = {float(qa)!r} vs path2 {label} q = {float(qb)!r}"
            )
    return (action_integral(a) - action_integral(b)) / hbar


def to_phase_space(loop, params: NcParams) -> np.ndarray:
    """Map plane vertices (x, y) to canonical pairs (q, p) = (x, hbar y / L^2)."""
    arr = as_path(loop, min_vertices=2, name="loop")
    out = arr.copy()
    out[:, 1] *= params.hbar / params.L2
    return as_path(out, name=f"the loop in phase space at L = {params.L}, hbar = {params.hbar}")


def loop_action_phase(loop, params: NcParams, split: int | None = None) -> float:
    """Action-route phase of a closed plane loop.

    The loop is mapped to phase space, then cut at vertex `split` into two
    branches from vertex 0: branch 1 walks the loop backwards, branch 2
    forwards.  The composite branch-1-forward / branch-2-backward circuit
    traverses the loop in reversed orientation, which makes the result
    equal to interference_phase_area for any polygon (up to rounding).
    """
    verts = to_phase_space(as_path(loop, min_vertices=3, name="loop"), params)
    n = verts.shape[0]
    m = n // 2 if split is None else int(split)
    if not 1 <= m <= n - 1:
        raise ValueError(f"split must be in [1, {n - 1}], got {m}")
    backward = np.concatenate([verts[:1], verts[:m - 1:-1]])
    forward = verts[: m + 1]
    return interference_phase_action(backward, forward, params.hbar)
