"""Doubled-coordinate dynamics: integrator, canonical structure, hyperbolic flow,
transmission, and density-matrix frequency extraction."""

import warnings

import numpy as np
import pytest

from ncplane import (
    CanonicalCoords,
    DissipativeParams,
    DivergenceError,
    Potential,
    TwoCoordState,
    bohr_frequencies,
    canonical_coords,
    canonical_momenta,
    eom_rhs,
    evolve_density,
    friction_hamiltonian,
    hamiltonian_value,
    hyperbolic_evolve,
    integrate_trajectory,
    kappa_commutator_check,
    orbit_invariant,
    trajectory_to_array,
    transmission_coefficient,
    validate_density_matrix,
)

# damped frequency sqrt(k/M - (R/2M)^2) for k=1, M=1, R=0.2, frozen
OMEGA_D = 0.99498743710662

# inverted-oscillator transmission at omega = gamma: 1/(1 + exp(-2 pi))
P_AT_GAMMA = 0.998136038110375


def test_potential_kinds():
    assert Potential.free().value(3.0) == 0.0
    assert Potential.free().derivative(3.0) == 0.0
    h = Potential.harmonic(2.0)
    assert h.value(3.0) == pytest.approx(9.0)
    assert h.derivative(3.0) == pytest.approx(6.0)
    p = Potential.polynomial([1.0, 0.0, 0.0, 2.0])  # 1 + 2 x^3
    assert p.value(2.0) == pytest.approx(17.0)
    assert p.derivative(2.0) == pytest.approx(24.0)
    with pytest.raises(ValueError):
        Potential.harmonic(-1.0)
    with pytest.raises(ValueError):
        Potential.polynomial(np.ones(8))  # degree cap


def test_params_scales():
    p = DissipativeParams(M=2.0, R=0.5, hbar=2.0)
    assert p.gamma == pytest.approx(0.25)
    assert p.L2 == pytest.approx(4.0)
    frictionless = DissipativeParams(M=1.0, R=0.0)
    assert frictionless.gamma == 0.0
    with pytest.raises(ValueError, match="R > 0"):
        frictionless.L2
    with pytest.raises(ValueError):
        DissipativeParams(M=0.0, R=1.0)
    with pytest.raises(ValueError):
        DissipativeParams(M=1.0, R=-0.1)


def test_eom_rhs_frozen():
    params = DissipativeParams(M=1.0, R=1.0)
    state = TwoCoordState(x_plus=0.0, x_minus=0.0, v_plus=1.0, v_minus=1.0)
    assert eom_rhs(state, params) == (1.0, 1.0, -1.0, -1.0)


def test_eom_rhs_cross_coupling():
    # friction on each branch is driven by the opposite branch velocity
    params = DissipativeParams(M=2.0, R=0.6)
    state = TwoCoordState(0.0, 0.0, v_plus=1.0, v_minus=-3.0)
    rhs = eom_rhs(state, params)
    assert rhs[2] == pytest.approx(-0.6 * (-3.0) / 2.0)
    assert rhs[3] == pytest.approx(-0.6 * 1.0 / 2.0)


def test_underdamped_frequency():
    params = DissipativeParams(M=1.0, R=0.2, potential=Potential.harmonic(1.0))
    state = TwoCoordState(1.0, 1.0, 0.0, 0.0)
    dt = 0.001
    states = integrate_trajectory(state, params, dt, 20000)
    x = np.array([s.x_plus for s in states])
    # linear interpolation of the descending zero crossings
    crossings = []
    for i in range(1, len(x)):
        if x[i - 1] > 0 >= x[i]:
            frac = x[i - 1] / (x[i - 1] - x[i])
            crossings.append((i - 1 + frac) * dt)
    assert len(crossings) >= 3
    period = np.mean(np.diff(crossings))
    assert 2 * np.pi / period == pytest.approx(OMEGA_D, abs=1e-4)


def test_diagonal_initial_data_stays_diagonal():
    params = DissipativeParams(M=1.0, R=0.3, potential=Potential.harmonic(2.0))
    state = TwoCoordState(0.7, 0.7, -0.4, -0.4)
    states = integrate_trajectory(state, params, 0.01, 400)
    for s in states:
        assert s.x_plus == s.x_minus
        assert s.v_plus == s.v_minus


def test_free_particle_velocity_decay():
    # on the diagonal the velocity obeys dv/dt = -Gamma v
    params = DissipativeParams(M=2.0, R=0.8)
    state = TwoCoordState(0.0, 0.0, 1.0, 1.0)
    dt = 0.002
    states = integrate_trajectory(state, params, dt, 2500)
    t_end = states[-1].t
    assert states[-1].v_plus == pytest.approx(np.exp(-params.gamma * t_end), rel=1e-6)


def test_integrator_warns_on_coarse_step():
    params = DissipativeParams(M=1.0, R=2.0)
    state = TwoCoordState(0.0, 0.0, 1.0, 1.0)
    with pytest.warns(RuntimeWarning, match="dt"):
        integrate_trajectory(state, params, 0.5, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate_trajectory(state, params, 0.01, 2)


def test_divergence_reports_step():
    # inverted quartic potential blows up quickly at a coarse step
    params = DissipativeParams(
        M=1.0, R=0.5, potential=Potential.polynomial([0.0, 0.0, 0.0, 0.0, -1.0])
    )
    state = TwoCoordState(1.0, 1.0, 2.0, 2.0)
    with pytest.raises(DivergenceError, match="diverged") as exc_info:
        integrate_trajectory(state, params, 0.5, 2000)
    assert exc_info.value.step > 0
    assert exc_info.value.t > 0


def test_trajectory_to_array_shape():
    params = DissipativeParams(M=1.0, R=0.1)
    states = integrate_trajectory(TwoCoordState(0, 0, 1, 0), params, 0.1, 10)
    arr = trajectory_to_array(states)
    assert arr.shape == (11, 5)
    np.testing.assert_allclose(arr[:, 0], 0.1 * np.arange(11), atol=1e-12)
    assert arr[0, 3] == 1.0


def test_hamiltonian_value_frozen():
    params = DissipativeParams(M=2.0, R=0.4, potential=Potential.harmonic(3.0))
    state = TwoCoordState(x_plus=1.0, x_minus=2.0, v_plus=1.0, v_minus=0.5)
    # (M/2)(v+^2 - v-^2) + U(x+) - U(x-) = 0.75 + 1.5 - 6.0
    assert hamiltonian_value(state, params) == pytest.approx(-3.75)


def test_canonical_momenta_generate_the_flow():
    # Hamilton's equations for H(x, p) must reproduce eom_rhs
    params = DissipativeParams(M=1.7, R=0.9, potential=Potential.harmonic(1.3))
    rng = np.random.default_rng(3)

    def h_of(xp, xm, pp, pm):
        vp = (pp - params.R * xm / 2.0) / params.M
        vm = -(pm + params.R * xp / 2.0) / params.M
        u = params.potential.value
        return 0.5 * params.M * (vp**2 - vm**2) + u(xp) - u(xm)

    for _ in range(5):
        state = TwoCoordState(*rng.normal(size=4))
        pp, pm = canonical_momenta(state, params)
        xp, xm = state.x_plus, state.x_minus
        assert h_of(xp, xm, pp, pm) == pytest.approx(
            hamiltonian_value(state, params), rel=1e-12
        )
        dxp, dxm, dvp, dvm = eom_rhs(state, params)
        # dp/dt along the flow, from the momentum definitions
        dpp = params.M * dvp + params.R * dxm / 2.0
        dpm = -(params.M * dvm + params.R * dxp / 2.0)
        h = 1e-6
        d_dpp = (h_of(xp, xm, pp + h, pm) - h_of(xp, xm, pp - h, pm)) / (2 * h)
        d_dpm = (h_of(xp, xm, pp, pm + h) - h_of(xp, xm, pp, pm - h)) / (2 * h)
        d_dxp = (h_of(xp + h, xm, pp, pm) - h_of(xp - h, xm, pp, pm)) / (2 * h)
        d_dxm = (h_of(xp, xm + h, pp, pm) - h_of(xp, xm - h, pp, pm)) / (2 * h)
        assert d_dpp == pytest.approx(dxp, abs=1e-6)
        assert d_dpm == pytest.approx(dxm, abs=1e-6)
        assert -d_dxp == pytest.approx(dpp, abs=1e-6)
        assert -d_dxm == pytest.approx(dpm, abs=1e-6)


def test_canonical_coords_frozen():
    params = DissipativeParams(M=1.0, R=1.0)
    cc = canonical_coords(TwoCoordState(0.0, 0.0, 0.0, 1.0), params)
    assert isinstance(cc, CanonicalCoords)
    assert cc.xi_plus == pytest.approx(-1.0)
    assert cc.xi_minus == pytest.approx(0.0)
    cc2 = canonical_coords(TwoCoordState(2.0, 3.0, 1.0, 0.0), params)
    assert cc2.xi_minus == pytest.approx(1.0)
    assert cc2.X_plus == pytest.approx(2.0 - cc2.xi_plus)
    assert cc2.X_minus == pytest.approx(3.0 - cc2.xi_minus)
    with pytest.raises(ValueError, match="R = 0"):
        canonical_coords(TwoCoordState(0, 0, 0, 0), DissipativeParams(M=1.0, R=0.0))


def test_hyperbolic_evolve_eigen_directions():
    gamma, t = 0.7, 1.4
    grow = hyperbolic_evolve(np.array([1.0, 1.0]), gamma, t)
    decay = hyperbolic_evolve(np.array([1.0, -1.0]), gamma, t)
    np.testing.assert_allclose(grow, np.exp(gamma * t) * np.array([1.0, 1.0]), rtol=1e-13)
    np.testing.assert_allclose(decay, np.exp(-gamma * t) * np.array([1.0, -1.0]), rtol=1e-13)


def test_hyperbolic_evolve_composition_and_broadcast():
    rng = np.random.default_rng(11)
    xi = rng.normal(size=(6, 2))
    one = hyperbolic_evolve(hyperbolic_evolve(xi, 0.3, 1.0), 0.3, 2.0)
    two = hyperbolic_evolve(xi, 0.3, 3.0)
    np.testing.assert_allclose(one, two, rtol=1e-12)
    assert hyperbolic_evolve(xi, 0.3, -1.0).shape == (6, 2)
    # negative time inverts the map
    back = hyperbolic_evolve(hyperbolic_evolve(xi, 0.3, 1.7), 0.3, -1.7)
    np.testing.assert_allclose(back, xi, rtol=1e-12, atol=1e-14)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_hyperbolic_evolve_overflow_raises():
    with pytest.raises(ValueError, match=r"gamma\*t = 800"):
        hyperbolic_evolve((1.0, 0.5), 1.0, 800.0)
    with pytest.raises(ValueError, match=r"gamma\*t = -800"):
        hyperbolic_evolve((1.0, 0.5), 1.0, -800.0)
    # only the second row overflows; the message names its gamma*t
    with pytest.raises(ValueError, match=r"gamma\*t = 800"):
        hyperbolic_evolve(np.array([[1.0, 0.5], [1.0, 0.5]]), np.array([0.1, 2.0]), 400.0)
    with pytest.raises(ValueError, match="xi contains non-finite"):
        hyperbolic_evolve((np.inf, 0.0), 1.0, 1.0)
    # large but representable stays finite
    assert np.isfinite(hyperbolic_evolve((1.0, 0.5), 1.0, 700.0)).all()


def test_orbit_invariant_values():
    assert orbit_invariant((3.0, 5.0)) == pytest.approx(16.0)
    xi = np.array([[3.0, 5.0], [1.0, 1.0]])
    np.testing.assert_allclose(orbit_invariant(xi), [16.0, 0.0])


def test_friction_hamiltonian_frozen():
    params = DissipativeParams(M=1.0, R=1.0)
    assert friction_hamiltonian((0.0, 1.0), params) == pytest.approx(0.5)


def test_friction_hamiltonian_equals_kinetic_split():
    # for U = 0 the xi-space quadratic form reproduces (M/2)(v+^2 - v-^2)
    params = DissipativeParams(M=1.6, R=0.4, hbar=1.2)
    rng = np.random.default_rng(5)
    for _ in range(5):
        state = TwoCoordState(*rng.normal(size=4))
        hf = friction_hamiltonian(canonical_coords(state, params).xi, params)
        direct = 0.5 * params.M * (state.v_plus**2 - state.v_minus**2)
        assert hf == pytest.approx(direct, rel=1e-12)


def test_invariant_constant_along_free_trajectory():
    params = DissipativeParams(M=1.0, R=0.5)
    state = TwoCoordState(0.3, -0.2, 0.9, 0.4)
    states = integrate_trajectory(state, params, 0.01, 600)
    inv = [orbit_invariant(canonical_coords(s, params).xi) for s in states]
    assert np.abs(np.diff(inv)).max() < 1e-9


def test_transmission_values():
    assert transmission_coefficient(0.0, 1.0) == 0.5
    assert transmission_coefficient(1.0, 1.0) == pytest.approx(P_AT_GAMMA, rel=1e-14)
    omega = np.linspace(-4, 4, 101)
    p = transmission_coefficient(omega, 0.7)
    np.testing.assert_allclose(p + p[::-1], 1.0, atol=1e-15)
    assert np.all(np.diff(p) > 0)
    with pytest.raises(ValueError):
        transmission_coefficient(1.0, 0.0)


def test_kappa_commutator_table():
    params = DissipativeParams(M=1.5, R=0.5, hbar=2.0)  # L2 = 4
    report = kappa_commutator_check(params, 5)
    idx = {label: k for k, label in enumerate(report.labels)}
    lead = report.leading
    assert lead[idx["xi_plus"], idx["xi_minus"]] == pytest.approx(4j)
    assert lead[idx["X_plus"], idx["X_minus"]] == pytest.approx(-4j)
    assert lead[idx["K_plus"], idx["K_minus"]] == pytest.approx(1j / 4)
    # xi and X commute pairwise across the split
    for a in ("xi_plus", "xi_minus"):
        for b in ("X_plus", "X_minus"):
            assert abs(lead[idx[a], idx[b]]) < 1e-14
    np.testing.assert_allclose(report.artifact, -(5 - 1) * lead, atol=1e-12)
    assert report.max_clean_deviation() < 1e-12


def test_validate_density_matrix():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]])
    validate_density_matrix(rho)
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.9, 0.0], [0.0, 0.0]]))  # trace
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # hermiticity


def test_evolve_density_phases():
    energies = np.array([0.0, 1.0])
    rho0 = np.full((2, 2), 0.5)
    rho = evolve_density(energies, rho0, np.pi / 2)
    assert rho[0, 1] == pytest.approx(0.5j)
    assert rho[1, 0] == pytest.approx(-0.5j)
    np.testing.assert_allclose(np.diag(rho), np.diag(rho0))
    # full period returns the initial matrix
    np.testing.assert_allclose(evolve_density(energies, rho0, 2 * np.pi), rho0, atol=1e-14)
    assert np.trace(evolve_density(energies, rho0, 0.37)) == pytest.approx(1.0)


def test_evolve_density_hbar():
    energies = np.array([0.0, 2.0])
    rho0 = np.full((2, 2), 0.5)
    slow = evolve_density(energies, rho0, 1.0, hbar=2.0)
    fast = evolve_density(np.array([0.0, 1.0]), rho0, 1.0, hbar=1.0)
    np.testing.assert_allclose(slow, fast, atol=1e-14)


def sample_coherences(energies, n, dt):
    dim = len(energies)
    rho0 = np.full((dim, dim), 1.0 / dim)
    return np.array([evolve_density(energies, rho0, k * dt) for k in range(n)])


def test_bohr_frequencies_single_gap():
    rhos = sample_coherences(np.array([0.5, 1.5]), 1024, 0.4)
    found = bohr_frequencies(rhos, 0.4)
    assert len(found) == 1
    assert abs(found[0] - 1.0) <= 2 * np.pi / (1024 * 0.4)


def test_bohr_frequencies_three_levels():
    energies = np.array([0.0, 1.0, 3.0])
    rhos = sample_coherences(energies, 2048, 0.3)
    found = bohr_frequencies(rhos, 0.3)
    bin_width = 2 * np.pi / (2048 * 0.3)
    expected = [1.0, 2.0, 3.0]
    assert len(found) == 3
    for gap in expected:
        assert min(abs(found - gap)) <= bin_width


def test_bohr_frequencies_static_state_is_silent():
    energies = np.array([1.0, 1.0, 1.0])
    rhos = sample_coherences(energies, 256, 0.5)
    assert bohr_frequencies(rhos, 0.5).size == 0


def test_bohr_frequencies_needs_enough_samples():
    rhos = sample_coherences(np.array([0.0, 1.0]), 32, 0.1)
    with pytest.raises(ValueError, match="64"):
        bohr_frequencies(rhos, 0.1)
