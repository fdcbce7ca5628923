#!/usr/bin/env python3
"""Friction also builds a fuzzy plane, with L^2 = hbar / R.

Doubling the coordinate (one copy running forward in time, one backward)
turns the damped equation M x'' + R x' + U'(x) = 0 into a closed Hamiltonian
system.  The canonical combinations xi_pm evolve under a pure hyperbolic
boost when U = 0, conserving the Minkowski form xi_-^2 - xi_+^2, and the
barrier transmission of the related inverted oscillator is a Fermi function
in the energy.

Trajectories are (N, 5) arrays with columns t, x+, x-, v+, v-; the canonical
map and the Hamiltonian act on whole columns.
"""

import numpy as np

from ncplane import (
    DissipativeParams,
    Potential,
    TwoCoordState,
    canonical_coords,
    hamiltonian_value,
    hyperbolic_evolve,
    integrate_array,
    orbit_invariant,
    transmission_coefficient,
)

# --- damped oscillator on the diagonal x_+ = x_- -------------------------
params = DissipativeParams(M=1.0, R=0.2, potential=Potential.harmonic(1.0))
print(f"damped oscillator: M = 1, R = 0.2, k = 1, Gamma = {params.gamma}")
print(f"length scale squared hbar / R = {params.L2}")

dt = 0.002
traj = integrate_array(TwoCoordState(1.0, 1.0, 0.0, 0.0), params, dt, 12000)
x = traj[:, 1]
down = np.flatnonzero((x[:-1] > 0) & (x[1:] <= 0))  # descending zero crossings
crossings = (down + x[down] / (x[down] - x[down + 1])) * dt
omega_d = 2 * np.pi / np.mean(np.diff(crossings))
print(f"measured ring-down frequency: {omega_d:.8f}")
print(f"sqrt(k/M - Gamma^2/4):        {np.sqrt(1.0 - params.gamma**2 / 4):.8f}")
print()

# --- free motion in canonical coordinates ---------------------------------
free = DissipativeParams(M=1.0, R=0.5)
state0 = TwoCoordState(0.3, -0.2, 0.9, 0.4)
traj = integrate_array(state0, free, 0.002, 3000)
t = traj[:, 0]
cc = canonical_coords(traj, free)
xi = np.column_stack(cc.xi)
closed = hyperbolic_evolve(xi[0], free.gamma, t)
invariant = orbit_invariant(xi)

print("free run, xi coordinates vs the closed-form boost:")
print(f"  {'Gamma t':>8} {'xi_+ (num)':>12} {'xi_+ (boost)':>13} {'invariant':>12}")
for k in (0, 750, 1500, 2250, 3000):
    print(
        f"  {free.gamma * t[k]:>8.3f} {xi[k, 0]:>12.6f} {closed[k, 0]:>13.6f}"
        f" {invariant[k]:>12.8f}"
    )
h = hamiltonian_value(traj, free)
print(f"  Hamiltonian drift over the run: {np.abs(h - h[0]).max():.2e}")
print()

# --- eigendirections of the boost -----------------------------------------
print("boost eigendirections at Gamma t = 1:")
print(f"  (1, -1) -> {hyperbolic_evolve(np.array([1.0, -1.0]), 1.0, 1.0)}  decays")
print(f"  (1, +1) -> {hyperbolic_evolve(np.array([1.0, 1.0]), 1.0, 1.0)}  grows")
print(f"  exp(-1) = {np.exp(-1):.8f}, exp(+1) = {np.exp(1):.8f}")
print()

# --- transmission through the inverted barrier ----------------------------
gamma = 0.7
print(f"barrier transmission, Gamma = {gamma}:")
for omega in (-2 * gamma, -gamma, 0.0, gamma, 2 * gamma):
    p = transmission_coefficient(omega, gamma)
    print(f"  omega = {omega:>6.2f}: P = {p:.10f}")
print("  P(omega) + P(-omega) = 1 and P(0) = 1/2, a Fermi profile in omega")
