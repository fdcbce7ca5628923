"""Signed areas, action integrals, and the two routes to the interference phase."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplane import (
    NcParams,
    action_integral,
    as_path,
    interference_phase_action,
    interference_phase_area,
    loop_action_phase,
    signed_area,
    to_phase_space,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

# area of the regular unit hexagon, 3*sqrt(3)/2, frozen independently
HEXAGON_AREA = 2.598076211353316


def hexagon():
    angles = 2 * np.pi * np.arange(6) / 6
    return np.column_stack([np.cos(angles), np.sin(angles)])


def circle(segments, radius=1.0, clockwise=False):
    angles = 2 * np.pi * np.arange(segments) / segments
    if clockwise:
        angles = -angles
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


def test_signed_area_orientation():
    assert signed_area(UNIT_SQUARE) == pytest.approx(1.0)
    assert signed_area(UNIT_SQUARE[::-1]) == pytest.approx(-1.0)


def test_signed_area_hexagon_oracle():
    assert signed_area(hexagon()) == pytest.approx(HEXAGON_AREA, rel=1e-12)


def test_signed_area_translation_invariant():
    shifted = hexagon() + np.array([137.0, -42.5])
    assert signed_area(shifted) == pytest.approx(HEXAGON_AREA, rel=1e-9)


def test_as_path_validation():
    with pytest.raises(ValueError):
        as_path([[0.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate loop"):
        as_path([[0.0, 0.0], [1.0, 1.0]], min_vertices=3)
    with pytest.raises(ValueError):
        as_path([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


def test_action_integral_circle():
    # trapezoid integral of p dq around the unit circle: -pi when counterclockwise
    ccw = action_integral(circle(10000))
    cw = action_integral(circle(10000, clockwise=True))
    assert ccw == pytest.approx(-np.pi, abs=1e-5)
    assert cw == pytest.approx(np.pi, abs=1e-5)


def test_action_integral_open_segment():
    path = np.array([[0.0, 2.0], [1.0, 2.0]])
    assert action_integral(path) == pytest.approx(2.0)


def test_phase_area_unit_square():
    assert interference_phase_area(UNIT_SQUARE, NcParams(L=0.5)) == pytest.approx(4.0)
    assert interference_phase_area(UNIT_SQUARE, NcParams(L=1.0)) == pytest.approx(1.0)


def test_phase_action_two_paths_unit_area():
    # both branches run left to right along q; they enclose the unit square
    upper = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    phase = interference_phase_action(upper, lower, hbar=1.0)
    assert phase == pytest.approx(1.0, rel=1e-12)
    # swapping the branches flips the sign
    assert interference_phase_action(lower, upper) == pytest.approx(-1.0, rel=1e-12)


def test_phase_action_hbar_scaling():
    upper = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert interference_phase_action(upper, lower, hbar=0.5) == pytest.approx(2.0, rel=1e-12)


def test_phase_action_rejects_detached_endpoints():
    upper = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    lower = np.array([[0.0, 0.0], [1.0 + 1e-8, 0.0]])
    with pytest.raises(ValueError, match="paths do not interfere"):
        interference_phase_action(upper, lower)
    # a much smaller mismatch stays below the tolerance
    lower_ok = np.array([[0.0, 0.0], [1.0 + 1e-10, 0.0]])
    interference_phase_action(upper, lower_ok)


def test_to_phase_space_scaling():
    params = NcParams(L=0.5, hbar=2.0)
    mapped = to_phase_space(UNIT_SQUARE, params)
    np.testing.assert_allclose(mapped[:, 0], UNIT_SQUARE[:, 0])
    np.testing.assert_allclose(mapped[:, 1], UNIT_SQUARE[:, 1] * 2.0 / 0.25)


def test_loop_action_phase_matches_area_route_square():
    params = NcParams(L=0.5)
    area_route = interference_phase_area(UNIT_SQUARE, params)
    action_route = loop_action_phase(UNIT_SQUARE, params)
    assert action_route == pytest.approx(area_route, rel=1e-12)


def test_loop_action_phase_matches_area_route_random_polygons():
    rng = np.random.default_rng(7)
    params = NcParams(L=1.2, hbar=0.7)
    for _ in range(20):
        n = rng.integers(3, 15)
        angles = np.sort(rng.uniform(0, 2 * np.pi, n))
        radii = rng.uniform(0.5, 2.0, n)
        loop = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        if rng.random() < 0.5:
            loop = loop[::-1]
        area_route = interference_phase_area(loop, params)
        action_route = loop_action_phase(loop, params)
        assert action_route == pytest.approx(area_route, rel=1e-9)


def test_loop_action_phase_split_choices():
    params = NcParams(L=1.0)
    target = interference_phase_area(hexagon(), params)
    for split in (1, 2, 3, 4, 5):
        assert loop_action_phase(hexagon(), params, split=split) == pytest.approx(
            target, rel=1e-9
        )
    with pytest.raises(ValueError):
        loop_action_phase(hexagon(), params, split=0)
    with pytest.raises(ValueError):
        loop_action_phase(hexagon(), params, split=6)


@settings(deadline=None, max_examples=300)
@given(
    grid=st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
                  min_size=3, max_size=40),
    shift=st.tuples(st.integers(-10**7, 10**7), st.integers(-10**7, 10**7)),
    scale=st.floats(1e-6, 1e6),
    L=st.floats(1e-3, 1e3),
    hbar=st.floats(1e-3, 1e3),
    data=st.data(),
)
def test_area_phase_equals_action_phase(grid, shift, scale, L, hbar, data):
    """The paper's phase-area theorem, over random polygons, scales, L and cuts."""
    loop = (np.array(grid, dtype=float) + shift) * (scale * 1e-6)
    params = NcParams(L=L, hbar=hbar)
    split = data.draw(st.integers(1, len(grid) - 1), label="split")
    x, y = loop[:, 0], loop[:, 1]
    # the shoelace products set the size of the rounding in either route
    products = np.abs(x * np.roll(y, -1)).sum() + np.abs(np.roll(x, -1) * y).sum()
    gap = interference_phase_area(loop, params) - loop_action_phase(loop, params, split=split)
    assert abs(gap) <= 1e-12 * products / params.L2


@pytest.mark.parametrize("call, match", [
    (lambda: signed_area([[0.0, 0.0], [1.0, np.nan], [1.0, 1.0]]),
     "loop contains non-finite vertices"),
    (lambda: interference_phase_action(UNIT_SQUARE, UNIT_SQUARE, hbar=0.0),
     "hbar must be positive"),
], ids=["nonfinite-vertex", "hbar-zero"])
def test_input_checks_raise_value_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()
