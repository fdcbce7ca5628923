"""Doubled-coordinate dynamics: integrator, canonical structure, hyperbolic flow,
transmission, and density-matrix frequency extraction.

For the free and harmonic potentials the doubled system is linear, so its
exact propagator expm(A t) is the oracle for the RK4 trajectory array.
"""

import dataclasses
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncplane import dissipative_dynamics

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
    integrate_array,
    kappa_commutator_check,
    orbit_invariant,
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
    x = integrate_array(state, params, dt, 20000)[:, 1]
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
    traj = integrate_array(state, params, 0.01, 400)
    assert (traj[:, 1] == traj[:, 2]).all()
    assert (traj[:, 3] == traj[:, 4]).all()


def test_free_particle_velocity_decay():
    # on the diagonal the velocity obeys dv/dt = -Gamma v
    params = DissipativeParams(M=2.0, R=0.8)
    state = TwoCoordState(0.0, 0.0, 1.0, 1.0)
    dt = 0.002
    t_end, _, _, v_plus, _ = integrate_array(state, params, dt, 2500)[-1]
    assert v_plus == pytest.approx(np.exp(-params.gamma * t_end), rel=1e-6)


def test_integrator_warns_on_coarse_step():
    params = DissipativeParams(M=1.0, R=2.0)
    state = TwoCoordState(0.0, 0.0, 1.0, 1.0)
    with pytest.warns(RuntimeWarning, match="dt") as record:
        integrate_array(state, params, 0.5, 2)
    assert record[0].filename == __file__  # the caller's line, not the library's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate_array(state, params, 0.01, 2)


def test_divergence_reports_step():
    # inverted quartic potential blows up quickly at a coarse step
    params = DissipativeParams(
        M=1.0, R=0.5, potential=Potential.polynomial([0.0, 0.0, 0.0, 0.0, -1.0])
    )
    state = TwoCoordState(1.0, 1.0, 2.0, 2.0)
    with pytest.raises(DivergenceError, match="diverged") as exc_info:
        integrate_array(state, params, 0.5, 2000)
    assert exc_info.value.step > 0
    assert exc_info.value.t > 0


def test_trajectory_to_array_shape():
    params = DissipativeParams(M=1.0, R=0.1)
    states = dissipative_dynamics.integrate_trajectory(TwoCoordState(0, 0, 1, 0), params, 0.1, 10)
    arr = dissipative_dynamics.trajectory_to_array(states)
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
    traj = integrate_array(state, params, 0.01, 600)
    inv = orbit_invariant(np.column_stack(canonical_coords(traj, params).xi))
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


def test_transmission_far_from_the_barrier_is_exact_and_quiet():
    assert transmission_coefficient(0.0, 3.7) == 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # |omega / gamma| = 1e3: exp(2 pi 1e3) overflows on the low side
        p = transmission_coefficient(np.array([-2e3, 2e3]), 2.0)
        low = transmission_coefficient(-1e3, 1.0)
    np.testing.assert_array_equal(p, [0.0, 1.0])
    assert low == 0.0


@pytest.mark.parametrize("gamma", [1e-3, 0.7, 2 * math.pi, 50.0])
def test_transmission_agrees_with_expit(gamma):
    from scipy.special import expit

    omega = np.linspace(-100.0, 100.0, 20001) * gamma
    want = expit(2.0 * math.pi * omega / gamma)
    got = transmission_coefficient(omega, gamma)
    assert np.all(want > 0)
    assert (np.abs(got - want) / want).max() <= 1e-15


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
    nan, inf = float("nan"), float("inf")
    for bad in ([[nan, 0.0], [0.0, 1.0]], [[0.5, nan], [nan, 0.5]],
                [[inf, 0.0], [0.0, 1.0]], [[0.5, inf], [inf, 0.5]]):
        with pytest.raises(ValueError, match="non-finite"):
            validate_density_matrix(np.array(bad))


@pytest.mark.parametrize("energies, t, name", [
    ([0.0, float("inf")], 1.0, "energies"),
    ([float("nan"), 1.0], 1.0, "energies"),
    ([0.0, 1.0], float("inf"), "t"),
    ([0.0, 1.0], float("nan"), "t"),
])
def test_evolve_density_rejects_non_finite_input(energies, t, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            evolve_density(energies, np.full((2, 2), 0.5), t)


@pytest.mark.parametrize("energies, t, hbar, bad", [
    ([0.0, 1e300], 1e10, 1.0, "1e+300 * 10000000000.0 / 1.0 for energy 1"),
    ([-1e300, 0.0], 1e10, 1.0, "for energy 0"),
    ([0.0, 1.0], 1e300, 1e-10, "0.0 * 1e+300 / 1e-10 for energy 0"),
])
def test_evolve_density_rejects_an_overflowing_phase(energies, t, hbar, bad):
    # each input is finite; their product E t / hbar is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phase E t / hbar must be finite") as err:
            evolve_density(energies, np.full((2, 2), 0.5), t, hbar)
    assert bad in str(err.value)


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


def dephasing_reference(energies, rho0, t, hbar=1.0):
    """The elementwise form evolve_density had before the unitary one: d^2
    complex exps per call; the reference its output is held to."""
    omega = (energies[:, None] - energies[None, :]) / hbar
    return np.exp(-1j * omega * t) * rho0


@settings(deadline=None, max_examples=200)
@given(data=st.data(), d=st.integers(1, 8), t=st.floats(-10.0, 10.0),
       hbar=st.floats(0.5, 2.0))
def test_evolve_density_is_exactly_hermitian_and_keeps_the_populations(data, d, t, hbar):
    energies = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)))
    part = st.floats(-1.0, 1.0)
    upper = np.array(data.draw(st.lists(st.tuples(part, part), min_size=d * d, max_size=d * d)))
    pops = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=d, max_size=d)))
    rho0 = np.triu((upper[:, 0] + 1j * upper[:, 1]).reshape(d, d), 1)
    rho0 = rho0 + rho0.conj().T + np.diag(pops / pops.sum())  # exactly Hermitian
    rho = evolve_density(energies, rho0, t, hbar)
    assert np.array_equal(rho, rho.conj().T)
    assert rho.diagonal().tobytes() == rho0.diagonal().tobytes()
    scale = float(np.abs(rho0).max())
    assert np.abs(rho - dephasing_reference(energies, rho0, t, hbar)).max() <= 1e-12 * scale
    # the same values in Fortran order
    assert np.array_equal(evolve_density(energies, np.asfortranarray(rho0), t, hbar), rho)


def bohr_reference(rhos, dt, threshold=0.1):
    """bohr_frequencies as it was before the upper-triangle batch: one FFT
    per off-diagonal entry, all d(d-1) of them, and a loop over bins."""
    arr = np.asarray(rhos, dtype=complex)
    n, d = arr.shape[0], arr.shape[1]
    window = np.hanning(n)
    power = np.zeros(n)
    raw_power = 0.0
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            s = arr[:, i, j]
            raw_power += float(np.sum(np.abs(s) ** 2))
            s = s - s.mean()
            power += np.abs(np.fft.fft(s * window)) ** 2
    half = n // 2
    m = (n - 1) // 2
    folded = power[1 : half + 1].copy()
    folded[:m] += power[: n - m - 1 : -1]
    pmax = float(folded.max()) if folded.size else 0.0
    if pmax <= 1e-24 * n * max(raw_power, 1.0):
        return np.array([])
    floor = threshold * pmax
    freqs = []
    bin_width = 2.0 * math.pi / (n * dt)
    for k in range(folded.size):
        left = folded[k - 1] if k > 0 else -np.inf
        right = folded[k + 1] if k + 1 < folded.size else -np.inf
        if folded[k] >= floor and folded[k] >= left and folded[k] >= right:
            freqs.append((k + 1) * bin_width)
    return np.array(freqs)


@settings(deadline=None, max_examples=40)
@given(d=st.integers(1, 8), n=st.sampled_from([511, 512]), seed=st.integers(0, 2**32 - 1))
def test_bohr_frequencies_match_the_per_entry_periodogram(d, n, seed):
    # levels on a grid of spacing c >= 8 bins (repeats allowed): distinct
    # gaps sit at least eight bins apart, equal ones coincide, as in
    # draw_resolved_spectrum of the acceptance suite; an odd n has no
    # Nyquist bin, and d = 1 has no off-diagonal entry
    rng = np.random.default_rng(seed)
    dt = 0.4
    bin_width = 2.0 * np.pi / (n * dt)
    grid = rng.integers(0, 25, d)
    span = max(int(np.ptp(grid)), 1)
    c = rng.uniform(8.0 * bin_width, 0.9 * np.pi / (dt * span))
    energies = rng.uniform(-3.0, 3.0) + c * grid
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    rhos = [evolve_density(energies, rho0, k * dt) for k in range(n)]
    found = bohr_frequencies(rhos, dt)
    assert np.array_equal(found, bohr_reference(rhos, dt))
    assert (found.size > 0) == (np.ptp(grid) > 0)
    static = [evolve_density(np.full(d, energies[0]), rho0, k * dt) for k in range(n)]
    assert bohr_frequencies(static, dt).size == 0
    assert bohr_reference(static, dt).size == 0


@pytest.mark.parametrize("energies, block", [
    ([0.0, 0.0, 1.9, 2.2, 4.0], 1),
    ([0.0, 0.0, 1.9, 2.2, 4.0], 3 * 256),
    ([0.0, 0.0, 1.9, 2.2, 4.0], 1 << 17),
    ([0.0, 0.0, 0.7, 1.9, 2.2, 3.1, 4.0, 4.6], 1),
    ([0.0, 0.0, 0.7, 1.9, 2.2, 3.1, 4.0, 4.6], 2 * 256),
    (0.31 * np.arange(15), 1),
], ids=["1", "768", "131072", "d8-1", "d8-512", "d15-1"])
def test_bohr_frequencies_do_not_depend_on_the_block(monkeypatch, energies, block):
    # 256 samples: 1, 3 and all 10 upper entries of d = 5 per FFT block, so
    # groups of 8, 24 and 10 entries; d = 8 has 28 entries, in groups of 8 or
    # 16, and d = 15 has 105, which leave a one-entry last group.  The
    # degenerate pair keeps one coherence constant, which only its own mean removes
    rhos = sample_coherences(np.asarray(energies), 256, 0.3)
    want = bohr_reference(rhos, 0.3)
    monkeypatch.setattr(dissipative_dynamics, "_FFT_BLOCK", block)
    assert want.size > 0
    assert np.array_equal(bohr_frequencies(rhos, 0.3), want)


def test_bohr_frequencies_weigh_a_faint_beat_against_every_group(monkeypatch):
    # d = 5 with one-entry FFT blocks: groups of entries 0-7 and 8-9.  The
    # constant coherence (0, 1) of the first group carries nearly all the
    # raw power; against it the faint beat in (3, 4), in the last group, is
    # silent, but against the last group's raw power alone it is a peak
    n, dt = 256, 0.3
    rhos = np.zeros((n, 5, 5), dtype=complex)
    rhos[:, 0, 1] = 1e3
    rhos[:, 3, 4] = 3e-10 * np.exp(-1j * 1.3 * dt * np.arange(n))
    monkeypatch.setattr(dissipative_dynamics, "_FFT_BLOCK", 1)
    assert bohr_frequencies(rhos, dt).size == bohr_reference(rhos, dt).size == 0
    rhos[:, 0, 1] = 0.0
    assert bohr_frequencies(rhos, dt).size == bohr_reference(rhos, dt).size == 1


def test_bohr_frequencies_hold_one_group_beyond_the_input():
    n, d = 4096, 40
    rhos = np.empty((n, d, d), dtype=complex)
    rho0 = np.full((d, d), 1.0 / d)
    energies = 0.05 * np.arange(d) ** 1.5
    for k in range(n):
        rhos[k] = evolve_density(energies, rho0, 0.05 * k)
    tracemalloc.start()
    try:
        found = bohr_frequencies(rhos, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.size > 0
    # one group of 8 FFT blocks (16 MiB), then an FFT block, its transform
    # and the FFT's own scratch; the whole upper triangle would be 51 MB more
    group = 16 * dissipative_dynamics._GROUP_BLOCKS * dissipative_dynamics._FFT_BLOCK
    budget = group + 8 * 2**20
    assert peak <= budget, f"{peak} B traced, budget {budget} B"


def test_bohr_frequencies_names_the_sample_of_a_ragged_stack():
    good = sample_coherences(np.array([0.0, 1.0]), 64, 0.1)
    ragged = list(good[:63]) + [np.eye(3) / 3]
    sample_63 = r"\(samples, d, d\) stack: sample 63 has shape \(3, 3\), sample 0 has \(2, 2\)"
    with pytest.raises(ValueError, match=sample_63):
        bohr_frequencies(ragged, 0.1)
    with pytest.raises(ValueError, match=r"stack: sample 5 has shape \(2, 3\)"):
        bohr_frequencies(list(good[:5]) + [np.zeros((2, 3))] + list(good[6:]), 0.1)
    with pytest.raises(ValueError, match=r"stack: sample 0 has shape \(2, 3\)"):
        bohr_frequencies([np.zeros((2, 3))] * 64, 0.1)
    with pytest.raises(ValueError, match=r"stack: sample 2: "):
        bohr_frequencies([[[1.0, 0.0], [0.0, 0.0]]] * 2 + [[[1.0, 0.0], [0.0]]] * 62, 0.1)
    # no strict upper triangle: no peaks, but every sample's shape is still checked
    assert bohr_frequencies(np.zeros((64, 0, 0)), 0.1).size == 0
    one_level = [np.ones((1, 1))] * 10 + [np.eye(2) / 2] + [np.ones((1, 1))] * 53
    sample_10 = r"stack: sample 10 has shape \(2, 2\), sample 0 has \(1, 1\)"
    with pytest.raises(ValueError, match=sample_10):
        bohr_frequencies(one_level, 0.1)


def test_bohr_frequencies_of_a_list_equal_those_of_the_array():
    rhos = sample_coherences(np.array([0.0, 1.0, 3.0]), 256, 0.3)
    as_list = [r.copy() for r in rhos]
    before = rhos.copy()
    found = bohr_frequencies(rhos, 0.3)
    assert found.size == 3
    assert np.array_equal(bohr_frequencies(as_list, 0.3), found)
    assert np.array_equal(rhos, before)
    assert all(np.array_equal(r, b) for r, b in zip(as_list, before))


# ------------------------------------------------------- trajectory arrays


def horner_derivative(coeffs, x):
    """U'(x) of a polynomial by the loop Potential.derivative ran before the
    force became one precomputed closure; the reference for its bits."""
    acc = 0.0
    for n in range(len(coeffs) - 1, 0, -1):
        acc = acc * x + n * coeffs[n]
    return acc


def same_bits(got, want):
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


coefficient = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=300)
@given(coeffs=st.lists(coefficient, min_size=1, max_size=7), x=st.floats(),
       xs=st.lists(st.floats(), max_size=6))
@example(coeffs=[0.0, -0.0], x=-0.0, xs=[0.0, -0.0])
@example(coeffs=[1.0, 0.0, -0.0, 2.0], x=-0.0, xs=[-0.0, 0.0, -1.5])
@example(coeffs=[0.5], x=2.0, xs=[1.0, -0.0])
def test_polynomial_force_has_the_bits_of_the_horner_loop(coeffs, x, xs):
    potential = Potential.polynomial(coeffs)
    arr = np.array(xs, dtype=float)
    with np.errstate(all="ignore"):
        assert same_bits(potential.derivative(x), horner_derivative(coeffs, x))
        assert same_bits(potential.derivative(arr), horner_derivative(coeffs, arr))


def test_free_and_harmonic_forces():
    arr = np.array([-1.5, -0.0, 0.0, 2.0])
    assert same_bits(Potential.free().derivative(arr), 0.0)
    assert same_bits(Potential.free().derivative(-0.0), 0.0)
    assert same_bits(Potential.harmonic(1.3).derivative(arr), 1.3 * arr)
    assert same_bits(Potential.harmonic(1.3).derivative(-0.0), 1.3 * -0.0)


@pytest.mark.parametrize("potential", [Potential.free(), Potential.harmonic(1.3),
                                       Potential.polynomial([0.1, -0.3, 0.5, 0.05, 0.25])])
def test_potential_pickles_and_compares_equal_after_use(potential):
    before = (potential.kind, potential.k, potential.coeffs)
    potential.derivative(0.7)
    potential.derivative(np.array([0.7, -1.0]))
    copy = pickle.loads(pickle.dumps(potential))
    assert copy == potential
    assert hash(copy) == hash(potential)
    assert [f.name for f in dataclasses.fields(copy)] == ["kind", "k", "coeffs"]
    assert (copy.kind, copy.k, copy.coeffs) == before
    assert same_bits(copy.derivative(0.7), potential.derivative(0.7))


def linear_generator(m, r, k):
    """A with d/dt (x+, x-, v+, v-) = A (x+, x-, v+, v-) for U = k x^2 / 2."""
    return np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-k / m, 0.0, 0.0, -r / m],
        [0.0, -k / m, -r / m, 0.0],
    ])


unit = st.floats(-2.0, 2.0, allow_nan=False)


@settings(deadline=None, max_examples=60)
@given(m=st.floats(0.2, 5.0), r=st.floats(0.0, 2.0), k=st.floats(0.0, 4.0),
       h=st.floats(1e-4, 1e-2), steps=st.integers(1, 1500),
       state=st.tuples(unit, unit, unit, unit), t0=st.floats(-10.0, 10.0))
# the free run of acceptance criterion 6: dt * gamma = 1e-3 up to gamma t = 3
@example(m=1.0, r=0.5, k=0.0, h=2e-3, steps=3000, state=(0.3, -0.2, 0.9, 0.4), t0=0.0)
def test_rk4_array_agrees_with_exact_propagator(m, r, k, h, steps, state, t0):
    # dt is a fixed fraction h of the fastest rate, as in the acceptance runs
    rate = r / m + math.sqrt(k / m)
    dt = h / max(rate, 1.0)
    potential = Potential.harmonic(k) if k > 0 else Potential.free()
    params = DissipativeParams(M=m, R=r, potential=potential)
    traj = integrate_array(TwoCoordState(*state, t=t0), params, dt, steps)
    assert traj.shape == (steps + 1, 5)
    assert traj[0, 0] == t0
    np.testing.assert_array_equal(traj[1:, 0], t0 + np.arange(1, steps + 1) * dt)
    gen = linear_generator(m, r, k)
    rows = np.unique(np.linspace(0, steps, 9).astype(int))
    exact = np.array([scipy.linalg.expm(gen * (n * dt)) @ np.array(state) for n in rows])
    scale = max(1.0, float(np.abs(exact).max()))
    assert np.abs(traj[rows, 1:] - exact).max() <= 1e-6 * scale


def rk4_reference(state, params, dt, steps):
    """Per-step RK4 through eom_rhs, the loop integrate_array replaced: rows
    (t, x+, x-, v+, v-) up to and including the first non-finite state."""
    y = (state.x_plus, state.x_minus, state.v_plus, state.v_minus)
    rows = [(state.t, *y)]
    for step in range(1, steps + 1):
        a = [eom_rhs(TwoCoordState(*y), params)]
        for c in (0.5 * dt, 0.5 * dt, dt):
            a.append(eom_rhs(TwoCoordState(*(v + c * d for v, d in zip(y, a[-1]))), params))
        y = tuple(v + dt / 6.0 * (d1 + 2.0 * (d2 + d3) + d4) for v, d1, d2, d3, d4 in zip(y, *a))
        rows.append((state.t + step * dt, *y))
        if not all(math.isfinite(v) for v in y):
            break
    return np.array(rows)


@pytest.mark.parametrize("potential", [Potential.free(), Potential.harmonic(1.3),
                                       Potential.polynomial([0.1, -0.3, 0.5, 0.05, 0.25])])
@pytest.mark.parametrize("r", [0.0, 0.3])
def test_rk4_array_equals_the_per_step_reference(potential, r):
    params = DissipativeParams(M=1.1, R=r, potential=potential)
    state = TwoCoordState(0.4, -0.25, 0.7, -0.1, t=0.5)
    arr = integrate_array(state, params, 0.01, 300)
    assert arr.tobytes() == rk4_reference(state, params, 0.01, 300).tobytes()
    states = dissipative_dynamics.integrate_trajectory(state, params, 0.01, 300)
    assert states[0] == state
    np.testing.assert_array_equal(dissipative_dynamics.trajectory_to_array(states), arr)


def test_array_forms_equal_the_per_state_values():
    # bit for bit: the kinetic term squares by the C library pow for an array
    # as for a single state
    rng = np.random.default_rng(17)
    traj = np.column_stack([np.zeros(20000), rng.uniform(-3.0, 3.0, (20000, 4))])
    states = [TwoCoordState(xp, xm, vp, vm, t) for t, xp, xm, vp, vm in traj.tolist()]
    for potential in (Potential.free(), Potential.harmonic(0.7),
                      Potential.polynomial([0.2, 0.0, 0.5, -0.1, 0.25])):
        params = DissipativeParams(M=1.3, R=0.45, potential=potential)
        h = hamiltonian_value(traj, params)
        assert h.tobytes() == np.array([hamiltonian_value(s, params) for s in states]).tobytes()
        cc = canonical_coords(traj, params)
        for name in ("xi_plus", "xi_minus", "X_plus", "X_minus"):
            want = np.array([getattr(canonical_coords(s, params), name) for s in states])
            assert getattr(cc, name).tobytes() == want.tobytes(), name
        pp, pm = canonical_momenta(traj, params)
        want = np.array([canonical_momenta(s, params) for s in states])
        assert np.column_stack((pp, pm)).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match=r"\(N, 5\)"):
        hamiltonian_value(traj[:, :4], params)



def test_hamiltonian_overflow_names_the_row_and_the_column():
    # |v| above ~1.3e154 overflows v ** 2; an infinite v squares to inf as before
    params = DissipativeParams(M=1.0, R=0.0)
    traj = np.zeros((4, 5))
    traj[2, 4] = -1e200
    with pytest.raises(ValueError, match=r"v_minus = -1e\+200 in row 2"):
        hamiltonian_value(traj, params)
    traj[3, 3] = 2e160
    with pytest.raises(ValueError, match=r"v_plus = 2e\+160 in row 3"):
        hamiltonian_value(traj, params)
    with pytest.raises(ValueError, match=r"v_plus = 1e\+155 in row 0"):
        hamiltonian_value(TwoCoordState(0.0, 0.0, 1e155, 0.0), params)
    traj[2, 4], traj[3, 3] = np.inf, 1e154
    assert hamiltonian_value(traj, params)[2] == -np.inf
    assert hamiltonian_value(traj, params)[3] == 0.5 * (1e154 ** 2)


SQUARE_EDGE = 1.3407807929942596e154  # the largest float whose square is finite


@settings(deadline=None, max_examples=300)
@given(vs=st.lists(st.floats(-SQUARE_EDGE, SQUARE_EDGE), min_size=1, max_size=40))
@example(vs=[SQUARE_EDGE, -SQUARE_EDGE, np.nextafter(SQUARE_EDGE, 0.0)])
@example(vs=[5e-324, -5e-324, 2.2250738585072009e-308, 1.4916681462400413e-154, 1e-160])
@example(vs=[-0.0, 0.0])
# pow rounds these squares differently from v * v
@example(vs=[1.8376620108236215, -0.5214443866709748, 8.044067707689175e-151,
             9.367220132642594e+153])
def test_hamiltonian_squares_by_the_float_power_of_python(vs):
    # with M = 2, U = 0 and v- = 0, H is v+ ** 2 exactly: this checks that
    # np.float_power reaches the C library pow that Python's float power calls
    params = DissipativeParams(M=2.0, R=0.0)
    v = np.array(vs)
    want = [x ** 2 for x in v.tolist()]
    traj = np.zeros((len(vs), 5))
    traj[:, 3] = v
    assert hamiltonian_value(traj, params).tobytes() == np.array(want).tobytes()
    for x, sq in zip(v.tolist(), want):
        assert same_bits(hamiltonian_value(TwoCoordState(0.0, 0.0, x, 0.0), params), sq)


@pytest.mark.parametrize("block", [1, 3, 7, 4096])
def test_divergence_step_does_not_depend_on_the_block(monkeypatch, block):
    params = DissipativeParams(
        M=1.0, R=0.5, potential=Potential.polynomial([0.0, 0.0, 0.0, 0.0, -1.0])
    )
    state = TwoCoordState(1.0, 1.0, 2.0, 2.0, t=0.25)
    monkeypatch.setattr(dissipative_dynamics, "_BLOCK_STEPS", block)
    with pytest.raises(DivergenceError) as exc_info:
        integrate_array(state, params, 0.5, 2000)
    step = len(rk4_reference(state, params, 0.5, 2000)) - 1  # the first non-finite step
    assert exc_info.value.step == step
    assert exc_info.value.t == 0.25 + step * 0.5


def test_divergence_carries_the_last_finite_state():
    params = DissipativeParams(
        M=1.0, R=0.5, potential=Potential.polynomial([0.0, 0.0, 0.0, 0.0, -1.0])
    )
    state = TwoCoordState(1.0, 1.0, 2.0, 2.0, t=0.25)
    with pytest.raises(DivergenceError) as exc_info:
        integrate_array(state, params, 0.5, 2000)
    err = exc_info.value
    assert str(err) == f"trajectory diverged at step {err.step} (t = {err.t:g}): non-finite state"
    assert err.step > 1
    # the row before the failing step, as a run that stops there ends
    assert err.state == tuple(integrate_array(state, params, 0.5, err.step - 1)[-1].tolist())
    assert all(math.isfinite(v) for v in err.state)
    assert err.state[0] == 0.25 + (err.step - 1) * 0.5


def test_integrate_array_validates_like_the_list_form():
    params = DissipativeParams(M=1.0, R=2.0)
    state = TwoCoordState(0.0, 0.0, 1.0, 1.0)
    with pytest.warns(RuntimeWarning, match="dt"):
        integrate_array(state, params, 0.5, 2)
    for dt, steps in ((0.0, 2), (float("nan"), 2), (0.01, 0), (0.01, 2.0)):
        with pytest.raises(ValueError):
            integrate_array(state, params, dt, steps)
    with pytest.raises(ValueError, match="non-finite"):
        integrate_array(TwoCoordState(0.0, float("inf"), 0.0, 0.0), params, 0.01, 2)


# ------------------------------------------------------- paper identities


@settings(deadline=None)
@given(omega=st.floats(-1e3, 1e3), gamma=st.floats(1e-3, 1e3))
def test_transmission_is_symmetric_about_one_half(omega, gamma):
    total = transmission_coefficient(omega, gamma) + transmission_coefficient(-omega, gamma)
    assert abs(total - 1.0) <= 1e-15


@settings(deadline=None)
@given(xi=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
       gamma=st.floats(0.0, 5.0), t=st.floats(-5.0, 5.0))
@example(xi=(0.0, 3.4408962727289032e-161), gamma=1.0, t=1.625)  # subnormal squares
def test_boost_conserves_the_minkowski_form(xi, gamma, t):
    out = hyperbolic_evolve(xi, gamma, t)
    # the form is a difference of squares: its roundoff is relative to the squares,
    # except that each of the four squares rounds to the subnormal grid, half a
    # step at most, once the squares fall below the normal range
    size = max(float(np.abs(out).max()), max(abs(v) for v in xi)) ** 2
    tol = 16 * np.finfo(float).eps * size + 2 * np.finfo(float).smallest_subnormal
    assert abs(orbit_invariant(out) - orbit_invariant(xi)) <= tol


_RHO = np.diag([0.5, 0.5])


@pytest.mark.parametrize("call, match", [
    (lambda: Potential.polynomial([]), "at least one coefficient"),
    (lambda: Potential.polynomial([1.0, math.nan]), "coefficients must be finite"),
    (lambda: DissipativeParams(M=1.0, R=0.1, hbar=0.0), "hbar must be positive"),
    (lambda: hyperbolic_evolve([1.0, 2.0, 3.0], 0.1, 1.0), "trailing axis of size 2"),
    (lambda: hyperbolic_evolve([1.0, 2.0], -0.1, 1.0), "gamma must be >= 0"),
    (lambda: orbit_invariant([1.0, 2.0, 3.0]), "trailing axis of size 2"),
    (lambda: validate_density_matrix(np.ones((1, 2))), "must be square"),
    (lambda: evolve_density([0.0, 1.0, 2.0], _RHO, 1.0), "energies must be a 1-d array"),
    (lambda: evolve_density([0.0, 1.0], _RHO, 1.0, hbar=0.0), "hbar must be positive"),
    (lambda: bohr_frequencies(64, 0.1), r"rhos must be a \(samples, d, d\) stack, got int"),
    (lambda: bohr_frequencies([_RHO] * 64, 0.0), "dt must be positive"),
], ids=["poly-empty", "poly-nan", "hbar-zero", "boost-xi-shape", "boost-gamma",
        "invariant-xi-shape", "rho-not-square", "energies-shape", "density-hbar",
        "rhos-not-a-stack", "bohr-dt"])
def test_input_checks_raise_value_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()
