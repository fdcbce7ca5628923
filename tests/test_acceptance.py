"""Acceptance suite: ten numbered criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see every line as it prints.
Each criterion computes its own quantities, prints PASS or FAIL with the
criterion number and name, and only then asserts.
"""

import numpy as np
import pytest

from ncplane import (
    DissipativeParams,
    MagneticParams,
    NcParams,
    Potential,
    TwoCoordState,
    bohr_frequencies,
    canonical_coords,
    circulation_integral,
    cyclotron_algebra,
    distance_spectrum,
    evolve_density,
    flux_quantization,
    hamiltonian_value,
    hyperbolic_evolve,
    integrate_array,
    interference_phase_area,
    kappa_commutator_check,
    landau_hamiltonian,
    landau_spectrum,
    loop_action_phase,
    orbit_invariant,
    scene_from_dict,
    signed_area,
    transmission_coefficient,
    winding_number,
    winding_phase,
)


def report(num, name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}"
    if detail and not ok:
        line += f"  [{detail}]"
    print(line)
    return ok


def test_criterion_01_distance_quantization():
    values = distance_spectrum(NcParams(L=1.0), 64)
    expected = 2.0 * np.arange(64) + 1.0
    err = np.abs(values / expected - 1.0).max()
    ok = err < 1e-10
    assert report(1, "distance quantization", ok, f"max rel err {err:.3e}")


def test_criterion_02_landau_spectrum():
    params = MagneticParams(B=2.3, e=1.1, c=1.8, M=0.9, hbar=1.4)
    n_max = 22
    dim = 24
    values = landau_spectrum(params, n_max)
    formula = params.hbar * params.omega_c * (np.arange(n_max + 1) + 0.5)
    exact = np.array_equal(values, formula)
    H = landau_hamiltonian(params, dim)
    clean = np.linalg.eigvalsh(H[: dim - 1, : dim - 1])
    rep_err = np.abs(clean / landau_spectrum(params, dim - 2) - 1.0).max()
    ok = exact and rep_err < 1e-9
    assert report(2, "landau spectrum", ok, f"exact={exact} rep err {rep_err:.3e}")


def test_criterion_03_flux_quantization():
    params = MagneticParams(B=2.7, e=1.3, c=2.2, hbar=1.7)
    pairs = flux_quantization(params, 50)
    steps = np.array([s for _, s in pairs])
    err = np.abs(steps / params.flux_quantum - 1.0).max()
    ok = len(pairs) == 50 and err < 1e-12
    assert report(3, "flux quantization", ok, f"max rel err {err:.3e}")


def random_star_polygon(rng, n):
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(0.5, 2.0, n)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def test_criterion_04_phase_area_theorem():
    rng = np.random.default_rng(2024)
    params = NcParams(L=0.8, hbar=1.3)
    loops = []
    while len(loops) < 100:
        n = int(rng.integers(3, 41))
        loop = random_star_polygon(rng, n)
        if abs(signed_area(loop)) < 0.05:
            continue  # avoid near-degenerate areas in the relative comparison
        if len(loops) % 2 == 1:
            loop = loop[::-1]
        loops.append(loop)
    for _ in range(10):
        segments = int(rng.integers(1000, 3000))
        radius = rng.uniform(0.5, 2.0)
        center = rng.uniform(-1.0, 1.0, 2)
        angles = 2.0 * np.pi * np.arange(segments) / segments
        circle = center + radius * np.column_stack([np.cos(angles), np.sin(angles)])
        loops.append(circle)
    worst = 0.0
    for loop in loops:
        area_route = interference_phase_area(loop, params)
        action_route = loop_action_phase(loop, params)
        worst = max(worst, abs(action_route / area_route - 1.0))
    ok = worst < 1e-6
    assert report(4, "phase-area theorem", ok, f"worst rel err {worst:.3e}")


def test_criterion_05_commutator_tables():
    checks = []

    mag = cyclotron_algebra(MagneticParams(B=1.0), 12)
    l2 = MagneticParams(B=1.0).L2
    midx = {label: k for k, label in enumerate(mag.labels)}
    expected_mag = np.zeros((4, 4), dtype=complex)
    expected_mag[midx["rho_x"], midx["rho_y"]] = 1j * l2
    expected_mag[midx["center_x"], midx["center_y"]] = -1j * l2
    expected_mag -= expected_mag.T
    checks.append(np.abs(mag.leading - expected_mag).max() < 1e-12)
    checks.append(np.abs(mag.artifact - (-(12 - 1) * mag.leading)).max() < 1e-10)
    checks.append(mag.max_clean_deviation() < 1e-12)

    dparams = DissipativeParams(M=1.0, R=1.0)
    dis = kappa_commutator_check(dparams, 10)
    didx = {label: k for k, label in enumerate(dis.labels)}
    dl2 = dparams.L2
    expected_dis = np.zeros((6, 6), dtype=complex)
    expected_dis[didx["K_plus"], didx["K_minus"]] = 1j / dl2
    expected_dis[didx["K_plus"], didx["xi_plus"]] = -1j
    expected_dis[didx["K_minus"], didx["xi_minus"]] = -1j
    expected_dis[didx["xi_plus"], didx["xi_minus"]] = 1j * dl2
    expected_dis[didx["X_plus"], didx["X_minus"]] = -1j * dl2
    expected_dis -= expected_dis.T
    checks.append(np.abs(dis.leading - expected_dis).max() < 1e-12)
    checks.append(np.abs(dis.artifact - (-(10 - 1) * dis.leading)).max() < 1e-10)
    checks.append(dis.max_clean_deviation() < 1e-12)

    ok = all(checks)
    assert report(5, "commutator tables", ok, f"subchecks {checks}")


def test_criterion_06_dissipative_dynamics():
    # (a) diagonal data reproduce the damped classical equation
    params_a = DissipativeParams(M=1.0, R=0.3, potential=Potential.harmonic(1.0))
    dt_a = 1e-3 / params_a.gamma
    traj_a = integrate_array(TwoCoordState(1.0, 1.0, 0.0, 0.0), params_a, dt_a, 6000)
    x = 0.5 * (traj_a[:, 1] + traj_a[:, 2])
    acc = (x[2:] - 2 * x[1:-1] + x[:-2]) / dt_a**2
    vel = (x[2:] - x[:-2]) / (2 * dt_a)
    residual = np.abs(params_a.M * acc + params_a.R * vel + 1.0 * x[1:-1]).max()
    ok_a = residual < 1e-5

    # (b) free trajectories in xi coordinates follow the closed-form flow
    params_b = DissipativeParams(M=1.0, R=0.5)
    dt_b = 1e-3 / params_b.gamma
    steps_b = 3000  # Gamma t runs up to 3
    traj_b = integrate_array(TwoCoordState(0.3, -0.2, 0.9, 0.4), params_b, dt_b, steps_b)
    xi_b = np.column_stack(canonical_coords(traj_b, params_b).xi)
    xi_closed = hyperbolic_evolve(xi_b[0], params_b.gamma, traj_b[:, 0] - traj_b[0, 0])
    dev_b = np.abs(xi_b - xi_closed).max()
    ok_b = dev_b < 1e-6

    # (c) Hamiltonian and orbit-invariant drift per unit Gamma t
    params_c = DissipativeParams(M=1.0, R=0.3, potential=Potential.harmonic(1.0))
    dt_c = 1e-3 / params_c.gamma
    traj_c = integrate_array(TwoCoordState(0.5, -0.3, 0.2, 0.7), params_c, dt_c, 6000)
    gamma_t_c = params_c.gamma * dt_c * 6000
    h = hamiltonian_value(traj_c, params_c)
    h_drift = np.abs(h - h[0]).max() / max(1.0, abs(h[0])) / gamma_t_c
    gamma_t_b = params_b.gamma * dt_b * steps_b
    inv = orbit_invariant(xi_b)
    inv_drift = np.abs(inv - inv[0]).max() / max(1.0, abs(inv[0])) / gamma_t_b
    ok_c = h_drift < 1e-7 and inv_drift < 1e-7

    ok = ok_a and ok_b and ok_c
    assert report(
        6,
        "dissipative dynamics",
        ok,
        f"residual {residual:.3e} xi dev {dev_b:.3e} drifts {h_drift:.3e}/{inv_drift:.3e}",
    )


def test_criterion_07_minkowski_invariance():
    rng = np.random.default_rng(77)
    n = 10**6
    xi = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
    gamma = rng.uniform(0.1, 2.0, n)
    gamma_t = rng.uniform(-5.0, 5.0, n)
    t = gamma_t / gamma
    xi_out = hyperbolic_evolve(xi, gamma, t)
    before = orbit_invariant(xi)
    after = orbit_invariant(xi_out)
    scale = np.maximum(1.0, np.maximum((xi**2).sum(axis=1), (xi_out**2).sum(axis=1)))
    worst = (np.abs(after - before) / scale).max()
    ok = worst < 1e-14
    assert report(7, "minkowski invariance", ok, f"worst scaled err {worst:.3e}")


def test_criterion_08_transmission_coefficient():
    gamma = 0.7
    exact_half = transmission_coefficient(0.0, gamma) == 0.5
    rng = np.random.default_rng(8)
    omega = rng.uniform(-5.0 * gamma, 5.0 * gamma, 10**4)
    sym_err = np.abs(
        transmission_coefficient(omega, gamma)
        + transmission_coefficient(-omega, gamma)
        - 1.0
    ).max()
    # stay inside the range where float64 resolves the tails
    grid = np.linspace(-30.0, 30.0, 10**4) * gamma / (2.0 * np.pi)
    monotone = bool(np.all(np.diff(transmission_coefficient(grid, gamma)) > 0))
    ok = exact_half and sym_err <= 1e-15 and monotone
    assert report(
        8,
        "transmission coefficient",
        ok,
        f"half={exact_half} sym {sym_err:.3e} monotone={monotone}",
    )


def draw_resolved_spectrum(rng, dim, dt, n_samples):
    """Random diagonal spectrum whose pairwise gaps are mutually resolvable."""
    bin_width = 2.0 * np.pi / (n_samples * dt)
    while True:
        energies = np.sort(rng.uniform(0.0, 6.0, dim))
        if np.diff(energies).min() < 0.3:
            continue
        diffs = np.array(
            [energies[j] - energies[i] for i in range(dim) for j in range(i + 1, dim)]
        )
        if diffs.max() > 0.9 * np.pi / dt:
            continue
        gaps = np.abs(diffs[:, None] - diffs[None, :])
        distinct = gaps[np.triu_indices(len(diffs), 1)]
        # distinct gaps either coincide or sit at least eight bins apart
        if np.all((distinct < 0.25 * bin_width) | (distinct > 8.0 * bin_width)):
            return energies, diffs


def test_criterion_09_bohr_frequencies():
    rng = np.random.default_rng(99)
    dt = 0.4
    n_samples = 1024
    bin_width = 2.0 * np.pi / (n_samples * dt)
    ok = True
    details = []
    for dim in (3, 4, 5):
        energies, diffs = draw_resolved_spectrum(rng, dim, dt, n_samples)
        rho0 = np.full((dim, dim), 1.0 / dim)
        rhos = np.array(
            [evolve_density(energies, rho0, k * dt) for k in range(n_samples)]
        )
        found = bohr_frequencies(rhos, dt)
        missing = max(np.abs(found - d).min() for d in diffs) if len(found) else np.inf
        spurious = max(np.abs(diffs - f).min() for f in found) if len(found) else np.inf
        ok = ok and missing <= bin_width and spurious <= bin_width
        details.append(f"dim {dim}: recover {missing:.3e} spurious {spurious:.3e}")
    assert report(9, "bohr frequencies", ok, "; ".join(details))


def test_criterion_10_vortex_statistics():
    rng = np.random.default_rng(1010)
    density = 10.0
    side = 10.0
    atoms = rng.uniform(0.0, side, size=(int(density * side * side), 2))

    within_bound = 0
    trials = 50
    for k in range(trials):
        area_target = rng.uniform(2.0, 20.0)
        radius = np.sqrt(area_target / np.pi)
        center = rng.uniform(radius, side - radius, 2)
        angles = 2.0 * np.pi * np.arange(256) / 256
        loop = center + radius * np.column_stack([np.cos(angles), np.sin(angles)])
        sigma = 1 if k % 2 == 0 else -1
        scene = scene_from_dict(
            {"core_loop": loop.tolist(), "atoms": atoms.tolist(), "sigma": sigma}
        )
        count = winding_phase(scene) / (2.0 * np.pi * sigma)
        expected = density * abs(signed_area(loop))
        if abs(count - expected) < 3.0 * np.sqrt(expected):
            within_bound += 1
    ok_stat = within_bound >= 48

    worst = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(3, 30))
        loop = random_star_polygon(rng, n)
        core = rng.uniform(-2.5, 2.5, 2)
        # keep the core away from the loop so both routes are well conditioned
        seg_a = loop
        seg_b = np.roll(loop, -1, axis=0)
        d = seg_b - seg_a
        tproj = np.clip(
            ((core - seg_a) * d).sum(axis=1) / (d**2).sum(axis=1), 0.0, 1.0
        )
        nearest = seg_a + tproj[:, None] * d
        if np.hypot(*(nearest - core).T).min() < 1e-3:
            continue
        sigma = 1 if done % 2 == 0 else -1
        w = winding_number(core, loop)
        circ = circulation_integral(tuple(core), loop, sigma)
        worst = max(worst, abs(circ - 2.0 * np.pi * sigma * w))
        done += 1
    ok_circ = worst < 1e-9

    ok = ok_stat and ok_circ
    assert report(
        10,
        "vortex statistics",
        ok,
        f"{within_bound}/50 within 3 sigma; worst circulation gap {worst:.3e}",
    )
