"""Magnetic length, Landau levels, cyclotron algebra, and flux quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplane import (
    MagneticParams,
    aharonov_bohm_phase,
    cyclotron_algebra,
    cyclotron_operators,
    flux_quantization,
    landau_hamiltonian,
    landau_spectrum,
    magnetic_length,
)


def test_magnetic_length_frozen_value():
    assert magnetic_length(MagneticParams(B=4.0)) == pytest.approx(0.5)
    # L^2 = hbar c / (e B)
    p = MagneticParams(B=2.0, e=0.5, c=3.0, hbar=2.0)
    assert p.L2 == pytest.approx(2.0 * 3.0 / (0.5 * 2.0))


def test_params_validation():
    with pytest.raises(ValueError):
        MagneticParams(B=0.0)
    with pytest.raises(ValueError):
        MagneticParams(B=1.0, e=-1.0)
    with pytest.raises(ValueError):
        MagneticParams(B=1.0, M=0.0)


def test_landau_spectrum_frozen_values():
    np.testing.assert_allclose(landau_spectrum(MagneticParams(B=1.0), 2), [0.5, 1.5, 2.5])


def test_landau_spectrum_matches_formula_exactly():
    p = MagneticParams(B=3.7, e=1.3, c=2.0, M=0.8, hbar=1.9)
    values = landau_spectrum(p, 12)
    n = np.arange(13)
    assert np.array_equal(values, p.hbar * p.omega_c * (n + 0.5))


def test_hamiltonian_reproduces_levels_below_artifact():
    p = MagneticParams(B=2.0, M=1.5)
    dim = 10
    H = landau_hamiltonian(p, dim)
    # keep only the clean block; the top level carries the truncation artifact
    clean = np.linalg.eigvalsh(H[: dim - 1, : dim - 1])
    np.testing.assert_allclose(clean, landau_spectrum(p, dim - 2), rtol=1e-10)


def test_cyclotron_operator_commutators():
    from ncplane import commutator

    p = MagneticParams(B=1.0)
    ops = cyclotron_operators(p, 4)
    rho_pair = commutator(ops["rho_x"], ops["rho_y"])
    center_pair = commutator(ops["center_x"], ops["center_y"])
    cross = commutator(ops["rho_x"], ops["center_y"])
    assert rho_pair[0, 0] == pytest.approx(1j * p.L2)
    assert center_pair[0, 0] == pytest.approx(-1j * p.L2)
    assert np.abs(cross).max() < 1e-14


def test_cyclotron_algebra_report():
    p = MagneticParams(B=0.5, hbar=2.0)  # L2 = 4
    report = cyclotron_algebra(p, 5)
    assert report.labels == ("rho_x", "rho_y", "center_x", "center_y")
    idx = {label: k for k, label in enumerate(report.labels)}
    lead = report.leading
    assert lead[idx["rho_x"], idx["rho_y"]] == pytest.approx(4j)
    assert lead[idx["center_x"], idx["center_y"]] == pytest.approx(-4j)
    assert lead[idx["rho_x"], idx["center_x"]] == pytest.approx(0.0)
    assert lead[idx["rho_x"], idx["center_y"]] == pytest.approx(0.0)
    np.testing.assert_allclose(report.artifact, -(5 - 1) * lead, atol=1e-12)
    assert report.max_clean_deviation() < 1e-12
    with pytest.raises(ValueError):
        cyclotron_algebra(p, 2)


def test_flux_quantization_steps():
    p = MagneticParams(B=1.0)
    pairs = flux_quantization(p, 3)
    assert len(pairs) == 3
    areas = [a for a, _ in pairs]
    steps = [s for _, s in pairs]
    np.testing.assert_allclose(areas, [np.pi, 3 * np.pi, 5 * np.pi], rtol=1e-12)
    np.testing.assert_allclose(steps, p.flux_quantum, rtol=1e-12)
    with pytest.raises(ValueError):
        flux_quantization(p, 0)


def test_flux_quantum_definition():
    p = MagneticParams(B=2.5, e=1.7, c=0.9, hbar=1.3)
    assert p.flux_quantum == pytest.approx(2 * np.pi * 1.3 * 0.9 / 1.7)
    # one orbit-to-orbit area step times B equals the flux quantum
    assert 2 * np.pi * p.B * p.L2 == pytest.approx(p.flux_quantum, rel=1e-14)


def test_aharonov_bohm_phase_unit_flux():
    p = MagneticParams(B=3.0)
    # a loop enclosing exactly one flux quantum picks up a 2 pi phase
    area = p.flux_quantum / p.B
    side = np.sqrt(area)
    loop = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    assert aharonov_bohm_phase(p, loop) == pytest.approx(2 * np.pi, rel=1e-12)
    # clockwise traversal flips the sign
    assert aharonov_bohm_phase(p, loop[::-1]) == pytest.approx(-2 * np.pi, rel=1e-12)


@settings(deadline=None)
@given(B=st.floats(1e-6, 1e6), e=st.floats(1e-6, 1e6), c=st.floats(1e-6, 1e6),
       hbar=st.floats(1e-6, 1e6))
def test_every_flux_step_is_one_flux_quantum(B, e, c, hbar):
    params = MagneticParams(B=B, e=e, c=c, hbar=hbar)
    steps = np.array([step for _, step in flux_quantization(params, 200)])
    assert np.abs(steps / params.flux_quantum - 1.0).max() <= 1e-12


@pytest.mark.parametrize("n_max", [-1, 2.0])
def test_landau_spectrum_needs_a_nonnegative_integer(n_max):
    with pytest.raises(ValueError, match="n_max must be a nonnegative integer"):
        landau_spectrum(MagneticParams(B=1.0), n_max)
