"""Winding counts, winding phase, and circulation on the film geometry.

The y-slab sweep in winding_numbers is checked against a brute-force
per-edge oracle, and the winding number's invariances are checked as
properties over integer-grid inputs, where every side test is exact.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplane import vortex_film
from ncplane import (
    VortexScene,
    circulation_integral,
    count_phase,
    film_length_scale,
    point_in_polygon,
    points_in_polygon,
    scene_from_dict,
    winding_number,
    winding_numbers,
    winding_phase,
)

SQUARE = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])


def star_loop(rng, n, center=(0.0, 0.0), r_lo=0.5, r_hi=2.0):
    angles = np.sort(rng.uniform(0, 2 * np.pi, n))
    radii = rng.uniform(r_lo, r_hi, n)
    return np.column_stack(
        [center[0] + radii * np.cos(angles), center[1] + radii * np.sin(angles)]
    )


def test_winding_number_inside_outside():
    assert winding_number((0.5, 0.5), SQUARE) == 1
    assert winding_number((1.5, 0.5), SQUARE) == 1
    assert winding_number((2.5, 0.5), SQUARE) == 0
    assert winding_number((-0.1, 1.0), SQUARE) == 0
    # clockwise traversal counts with opposite sign
    assert winding_number((1.0, 1.0), SQUARE[::-1]) == -1


def test_winding_numbers_vectorized():
    pts = np.array([[0.5, 0.5], [3.0, 3.0], [1.0, 1.9], [1.0, -0.5]])
    np.testing.assert_array_equal(winding_numbers(pts, SQUARE), [1, 0, 1, 0])
    inside = points_in_polygon(pts, SQUARE)
    np.testing.assert_array_equal(inside, [True, False, True, False])
    assert point_in_polygon((0.5, 0.5), SQUARE)


def test_winding_number_double_wound_loop():
    angles = np.linspace(0, 4 * np.pi, 400, endpoint=False)
    loop = np.column_stack([np.cos(angles), np.sin(angles)])
    assert winding_number((0.0, 0.0), loop) == 2


def test_scene_validation():
    with pytest.raises(ValueError, match="sigma"):
        VortexScene(core_loop=SQUARE, atoms=np.zeros((0, 2)), sigma=2)
    with pytest.raises(ValueError):
        VortexScene(core_loop=SQUARE, atoms=np.zeros((3, 3)), sigma=1)
    with pytest.raises(ValueError):
        VortexScene(core_loop=SQUARE, atoms=np.zeros((0, 2)), sigma=1, density=-1.0)
    with pytest.raises(ValueError, match="core_loop"):
        scene_from_dict({"atoms": [], "sigma": 1})


def test_winding_phase_counts_enclosed_atoms():
    atoms = [[0.5, 0.5], [1.5, 1.5], [1.0, 0.3], [3.0, 3.0]]
    scene = scene_from_dict({"core_loop": SQUARE.tolist(), "atoms": atoms, "sigma": 1})
    assert winding_phase(scene) == pytest.approx(6 * np.pi)
    flipped = scene_from_dict({"core_loop": SQUARE.tolist(), "atoms": atoms, "sigma": -1})
    assert winding_phase(flipped) == pytest.approx(-6 * np.pi)


def test_winding_phase_empty_scene():
    scene = scene_from_dict({"core_loop": SQUARE.tolist(), "atoms": [], "sigma": 1})
    assert winding_phase(scene) == 0.0
    assert scene.atoms.shape == (0, 2)


def test_film_length_scale():
    assert film_length_scale(1.0 / (2 * np.pi)) == pytest.approx(1.0, rel=1e-14)
    # L^2 = 1/(2 pi n)
    n = 3.7
    assert film_length_scale(n) ** 2 == pytest.approx(1.0 / (2 * np.pi * n), rel=1e-14)
    with pytest.raises(ValueError):
        film_length_scale(0.0)


def test_circulation_square_loop():
    core = (1.0, 1.0)
    assert circulation_integral(core, SQUARE) == pytest.approx(2 * np.pi, rel=1e-12)
    assert circulation_integral(core, SQUARE, sigma=-1) == pytest.approx(-2 * np.pi)
    assert circulation_integral(core, SQUARE[::-1]) == pytest.approx(-2 * np.pi)
    # core outside the loop picks up no net angle
    assert circulation_integral((5.0, 5.0), SQUARE) == pytest.approx(0.0, abs=1e-12)


def test_circulation_double_wound_loop():
    angles = np.linspace(0, 4 * np.pi, 1000, endpoint=False)
    loop = np.column_stack([np.cos(angles), np.sin(angles)])
    assert circulation_integral((0.0, 0.0), loop) == pytest.approx(4 * np.pi, rel=1e-12)


def test_circulation_rejects_core_on_loop():
    with pytest.raises(ValueError, match="through the core"):
        circulation_integral((0.0, 0.0), SQUARE)


def test_circulation_matches_crossing_count():
    # two independent routes to the winding number must agree
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        loop = star_loop(rng, n)
        core = tuple(rng.uniform(-2.5, 2.5, size=2))
        if np.min(np.hypot(loop[:, 0] - core[0], loop[:, 1] - core[1])) < 1e-6:
            continue
        w = winding_number(core, loop)
        circ = circulation_integral(core, loop)
        assert circ == pytest.approx(2 * np.pi * w, abs=1e-9)


# ---------------------------------------------------------------- sweep kernel

def per_edge_winding(points, polygon):
    """Brute-force oracle: every point against every edge, one edge at a time."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    poly = np.asarray(polygon, dtype=float)
    px, py = pts[:, 0], pts[:, 1]
    wn = np.zeros(len(pts), dtype=int)
    for (x1, y1), (x2, y2) in zip(poly, np.roll(poly, -1, axis=0)):
        side = (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)
        tol = vortex_film.EDGE_TOL * ((x2 - x1) ** 2 + (y2 - y1) ** 2)
        wn += ((y1 <= py) & (y2 > py) & (side > tol)).astype(int)
        wn -= ((y1 > py) & (y2 <= py) & (side < -tol)).astype(int)
    return wn


def on_boundary(points, polygon):
    """Exact test (integer coordinates) for points lying on some edge."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    poly = np.asarray(polygon, dtype=np.int64)
    hit = np.zeros(len(pts), dtype=bool)
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (pts[:, 0] - a[0]) * (b[1] - a[1])
        inside_box = ((np.minimum(a[0], b[0]) <= pts[:, 0]) & (pts[:, 0] <= np.maximum(a[0], b[0]))
                      & (np.minimum(a[1], b[1]) <= pts[:, 1]) & (pts[:, 1] <= np.maximum(a[1], b[1])))
        hit |= (cross == 0) & inside_box
    return hit


grid_xy = st.tuples(st.integers(-16, 16), st.integers(-16, 16))
grid_polygons = st.lists(grid_xy, min_size=3, max_size=12)
grid_points = st.lists(st.tuples(st.integers(-18, 18), st.integers(-18, 18)),
                       min_size=1, max_size=40)


@settings(deadline=None)
@given(grid_polygons, grid_points)
def test_sweep_matches_per_edge_oracle_on_grid(polygon, points):
    np.testing.assert_array_equal(winding_numbers(points, polygon),
                                  per_edge_winding(points, polygon))


finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=3, max_size=15),
       st.lists(st.tuples(finite, finite), min_size=1, max_size=30))
def test_sweep_matches_per_edge_oracle_on_floats(polygon, points):
    np.testing.assert_array_equal(winding_numbers(points, polygon),
                                  per_edge_winding(points, polygon))


@settings(deadline=None)
@given(grid_polygons, grid_points, st.integers(-200, 200))
def test_winding_invariant_under_power_of_two_scaling(polygon, points, k):
    scale = 2.0 ** k
    np.testing.assert_array_equal(
        winding_numbers(np.asarray(points) * scale, np.asarray(polygon) * scale),
        winding_numbers(points, polygon),
    )


@settings(deadline=None)
@given(grid_polygons, grid_points, st.integers(0, 11),
       st.tuples(st.integers(-64, 64), st.integers(-64, 64)))
def test_winding_invariant_under_vertex_shift_and_translation(polygon, points, shift, offset):
    base = winding_numbers(points, polygon)
    np.testing.assert_array_equal(winding_numbers(points, np.roll(polygon, shift, axis=0)), base)
    t = np.asarray(offset) / 4.0
    np.testing.assert_array_equal(
        winding_numbers(np.asarray(points) + t, np.asarray(polygon) + t), base
    )


@settings(deadline=None)
@given(grid_polygons, grid_points)
def test_rotation_and_reversal_off_the_boundary(polygon, points):
    pts = np.asarray(points)[~on_boundary(points, polygon)]
    poly = np.asarray(polygon)
    base = winding_numbers(pts, poly)
    rot = np.array([[0, -1], [1, 0]])
    np.testing.assert_array_equal(winding_numbers(pts @ rot.T, poly @ rot.T), base)
    np.testing.assert_array_equal(winding_numbers(pts, poly[::-1]), -base)


@settings(deadline=None)
@given(grid_polygons, st.tuples(st.integers(-18, 18), st.integers(-18, 18)))
def test_circulation_equals_winding_off_the_loop(polygon, core):
    if on_boundary([core], polygon)[0]:
        return
    w = winding_number(core, polygon)
    assert circulation_integral(core, polygon) / (2 * np.pi) == pytest.approx(w, abs=1e-9)


def test_winding_is_scale_invariant_at_micron_scale():
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts = np.array([[0.5, 0.5], [0.5, 0.01]])
    for scale in (1.0, 1e-6, 1e6):
        np.testing.assert_array_equal(winding_numbers(pts * scale, unit * scale), [1, 1])


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_sweep_chunk_boundaries_split_edges(monkeypatch, chunk):
    # a zigzag whose every edge spans the whole y range, so each slab holds
    # every point and chunks cut through edges
    rng = np.random.default_rng(3)
    n = 24
    xs = np.linspace(-1.0, 1.0, n)
    ys = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    polygon = np.vstack([np.column_stack([xs, ys]), [[1.0, -2.0], [-1.0, -2.0]]])
    points = rng.uniform(-1.2, 1.2, (300, 2))
    monkeypatch.setattr(vortex_film, "_PAIR_CHUNK", chunk)
    np.testing.assert_array_equal(winding_numbers(points, polygon),
                                  per_edge_winding(points, polygon))


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, vortex_film._PAIR_CHUNK])
@settings(deadline=None, max_examples=5)
@given(grid_polygons, st.integers(0, 2 ** 32 - 1))
def test_chunked_sweep_matches_per_edge_oracle(chunk, polygon, seed):
    # 3000 grid points: many share a y value, many lie on edges, and a chunk
    # of a few points splits both the point sweep and a slab's pairs
    points = np.random.default_rng(seed).integers(-18, 19, (3000, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vortex_film, "_PAIR_CHUNK", chunk)
        counts = winding_numbers(points, polygon)
    np.testing.assert_array_equal(counts, per_edge_winding(points, polygon))


def test_the_sweep_holds_one_chunk_beyond_its_result():
    # traced after the input is built: the 8 B/point result plus one 2^14-point
    # chunk's sort, slab and pair buffers (about 100 B per chunk point), not
    # point-sized copies of the sorted input
    rng = np.random.default_rng(11)
    polygon = star_loop(rng, 200)
    n = 200_000
    points = rng.uniform(-2.0, 2.0, (n, 2))
    tracemalloc.start()
    try:
        counts = winding_numbers(points, polygon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (n,) and np.count_nonzero(counts) > n // 10
    budget = 8 * n + 160 * 2 ** 14
    assert peak <= budget, f"{peak} B traced, budget {budget} B"


def test_winding_phase_matches_count_phase():
    atoms = [[0.5, 0.5], [1.5, 1.5], [1.0, 0.3], [3.0, 3.0]]
    scene = scene_from_dict({"core_loop": SQUARE[::-1].tolist(), "atoms": atoms, "sigma": -1})
    assert np.count_nonzero(points_in_polygon(scene.atoms, scene.core_loop)) == 3
    assert winding_phase(scene) == count_phase(-1, 3) == -6 * np.pi


@pytest.mark.parametrize("call, match", [
    (lambda: VortexScene(core_loop=SQUARE, atoms=[[np.inf, 0.0]], sigma=1),
     "atoms contain non-finite coordinates"),
    (lambda: scene_from_dict([SQUARE.tolist()]), "scene must be a mapping, got list"),
    (lambda: winding_numbers(np.ones((2, 3)), SQUARE), r"points must be an \(N, 2\) array"),
    (lambda: circulation_integral([1.0, 1.0], SQUARE, 2), r"sigma must be \+1 or -1"),
    (lambda: winding_numbers([[0.5, 0.5], [1.0, np.nan], [np.inf, 0.0]], SQUARE),
     r"^points contain a non-finite coordinate in row 1: \[1\.0, nan\]$"),
    (lambda: circulation_integral([np.inf, 0.0], SQUARE),
     r"^core must be finite, got \[inf, 0\.0\]$"),
], ids=["atom-inf", "scene-list", "points-shape", "circulation-sigma", "points-nan",
        "circulation-core-inf"])
def test_input_checks_raise_value_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_a_single_point_as_a_1d_array_gets_one_count():
    counts = winding_numbers(np.array([1.0, 1.0]), SQUARE)
    assert counts.shape == (1,) and counts[0] == 1
