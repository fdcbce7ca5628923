"""Landau levels of a charge on a plane threaded by a uniform field.

The field B turns the kinematic momenta into a canonical pair with
commutator scale L^2 = hbar c / (e B), and independently turns the orbit
centers into a second pair with the opposite sign, [X, Y] = -i L^2.  The
two pairs commute with each other, which is why the level spectrum is an
oscillator ladder E_n = hbar omega_c (n + 1/2) while the center
coordinates are frozen.  Orbit areas pi L^2 (2n + 1) then step the
enclosed flux by exactly one flux quantum per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    CommutatorReport,
    NcParams,
    build_xy,
    factored_commutator_table,
    require_dim,
)
from .phase_geometry import signed_area

__all__ = [
    "MagneticParams",
    "magnetic_length",
    "landau_spectrum",
    "landau_hamiltonian",
    "cyclotron_operators",
    "cyclotron_algebra",
    "flux_quantization",
    "aharonov_bohm_phase",
]


@dataclass(frozen=True)
class MagneticParams:
    """Field strength and particle constants, all strictly positive."""

    B: float
    e: float = 1.0
    c: float = 1.0
    M: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("B", "e", "c", "M", "hbar"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")

    @property
    def omega_c(self) -> float:
        """Cyclotron frequency e B / (M c)."""
        return self.e * self.B / (self.M * self.c)

    @property
    def L2(self) -> float:
        """Squared magnetic length hbar c / (e B)."""
        return self.hbar * self.c / (self.e * self.B)

    @property
    def flux_quantum(self) -> float:
        """2 pi hbar c / e."""
        return 2.0 * math.pi * self.hbar * self.c / self.e


def magnetic_length(params: MagneticParams) -> float:
    """sqrt(hbar c / (e B)), the field-induced length scale."""
    return math.sqrt(params.L2)


def landau_spectrum(params: MagneticParams, n_max: int) -> np.ndarray:
    """Level energies hbar omega_c (n + 1/2) for n = 0 .. n_max."""
    if not isinstance(n_max, (int, np.integer)) or n_max < 0:
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max}")
    n = np.arange(n_max + 1, dtype=float)
    return params.hbar * params.omega_c * (n + 0.5)


def landau_hamiltonian(params: MagneticParams, dim: int) -> np.ndarray:
    """Finite representation of H = (M/2) omega_c^2 (rho_x^2 + rho_y^2).

    Built on a single truncated ladder for the kinematic pair.  The leading
    dim-1 eigenvalues reproduce landau_spectrum; the top level is polluted
    by the truncation and should be discarded.
    """
    rho_x, rho_y = build_xy(NcParams(L=magnetic_length(params), hbar=params.hbar), dim)
    pref = 0.5 * params.M * params.omega_c ** 2
    return pref * (rho_x @ rho_x + rho_y @ rho_y)


def _cyclotron_factors(params: MagneticParams, dim: int) -> list[list[tuple[str, np.ndarray]]]:
    """Kinematic pair on the first ladder factor, center pair on the second."""
    plus, minus = build_xy(NcParams(L=magnetic_length(params), hbar=params.hbar), dim)
    return [
        [("rho_x", plus), ("rho_y", minus)],
        [("center_x", plus), ("center_y", -minus)],
    ]


def cyclotron_operators(params: MagneticParams, dim: int) -> dict[str, np.ndarray]:
    """Kinematic and orbit-center pairs on a dim x dim tensor space.

    The kinematic pair (rho_x, rho_y) acts on the first ladder factor with
    [rho_x, rho_y] = +i L^2; the center pair (center_x, center_y) acts on
    the second factor with [center_x, center_y] = -i L^2.  Operators from
    different factors commute exactly, no truncation caveat.
    """
    dim = require_dim(dim)
    kinematic, center = _cyclotron_factors(params, dim)
    eye = np.eye(dim)
    ops = {label: np.kron(m, eye) for label, m in kinematic}
    ops.update({label: np.kron(eye, m) for label, m in center})
    return ops


def cyclotron_algebra(params: MagneticParams, dim: int) -> CommutatorReport:
    """Pairwise bracket table for (rho_x, rho_y, center_x, center_y).

    Expected clean-block values: [rho_x, rho_y] = i L^2,
    [center_x, center_y] = -i L^2, all cross-factor brackets zero.
    Computed on the dim x dim ladder factors; the cross-factor entries are
    exact zeros.  Requires dim >= 3 so the clean block is big enough to
    certify constancy.
    """
    dim = require_dim(dim, minimum=3)
    return factored_commutator_table(_cyclotron_factors(params, dim), dim)


def flux_quantization(params: MagneticParams, n_max: int) -> list[tuple[float, float]]:
    """Orbit areas and flux steps for levels n = 0 .. n_max - 1.

    Returns n_max pairs (A_n, dPhi_n) with A_n = pi L^2 (2n + 1) and
    dPhi_n = B (A_{n+1} - A_n), the flux gained climbing from level n to
    n + 1.  Every step equals the flux quantum.
    """
    if not isinstance(n_max, (int, np.integer)) or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max}")
    n = np.arange(n_max + 1, dtype=float)
    areas = math.pi * params.L2 * (2.0 * n + 1.0)
    steps = params.B * np.diff(areas)
    return [(float(areas[k]), float(steps[k])) for k in range(n_max)]


def aharonov_bohm_phase(params: MagneticParams, loop) -> float:
    """e Phi / (hbar c) for the flux Phi = B * signed_area(loop).

    Identical to the geometric interference phase area / L^2; the loop's
    orientation carries through as the sign.
    """
    flux = params.B * signed_area(loop)
    return params.e * flux / (params.hbar * params.c)
