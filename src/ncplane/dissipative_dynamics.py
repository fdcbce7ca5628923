"""Doubled-coordinate dynamics of a particle with linear friction.

Friction R makes a single coordinate non-Hamiltonian, but the doubled pair
(x_plus, x_minus) with cross-coupled damping

    M dv_pm/dt + R v_mp + U'(x_pm) = 0

admits the conserved generator

    H = (M/2) (v_plus^2 - v_minus^2) + U(x_plus) - U(x_minus).

On the diagonal x_plus = x_minus the pair collapses to ordinary damped
motion, and the diagonal is exactly preserved by the flow.  The friction
constant also fixes a length scale L^2 = hbar / R that turns the scaled
velocities into a canonical pair: xi_plus = -M v_minus / R and
xi_minus = +M v_plus / R satisfy [xi_plus, xi_minus] = i L^2, while the
shifted centers X_pm = x_pm - xi_pm form the opposite-sign pair and
commute with the xi's.  Under pure friction (U = 0) the xi pair evolves by
the hyperbolic boost

    xi(t) = [[cosh Gt, sinh Gt], [sinh Gt, cosh Gt]] xi(0),   G = R / M,

which keeps the centers X_pm constant and decays the antisymmetric
direction xi_plus = -xi_minus carrying the classical diagonal motion.  The
boost preserves the Minkowski form xi_minus^2 - xi_plus^2, the orbit
invariant, and the generator restricted to pure friction is
H_friction = (hbar^2 / (2 M L^4)) (xi_minus^2 - xi_plus^2).

The quantized inverted oscillator behind the boost transmits wavepackets
with probability P(omega) = 1 / (1 + exp(-2 pi omega / G)), and energy
eigenstates dephase as rho_fi(t) = exp(-i (E_f - E_i) t / hbar) rho_fi(0),
so transition frequencies can be read off a periodogram of the
off-diagonal entries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .operator_core import CommutatorReport, build_ladder, factored_commutator_table, require_dim

__all__ = [
    "Potential",
    "DissipativeParams",
    "TwoCoordState",
    "CanonicalCoords",
    "DivergenceError",
    "eom_rhs",
    "integrate_trajectory",
    "trajectory_to_array",
    "hamiltonian_value",
    "canonical_momenta",
    "canonical_coords",
    "hyperbolic_evolve",
    "orbit_invariant",
    "friction_hamiltonian",
    "transmission_coefficient",
    "doubled_operators",
    "kappa_commutator_check",
    "validate_density_matrix",
    "evolve_density",
    "bohr_frequencies",
]

POLY_MAX_DEGREE = 6


@dataclass(frozen=True)
class Potential:
    """External potential U(x): free, harmonic, or polynomial (degree <= 6).

    Polynomial coefficients are ascending powers: coeffs[k] multiplies x**k.
    Construct through the classmethods; the raw constructor is not
    validated against mixed kinds.
    """

    kind: str
    k: float = 0.0
    coeffs: tuple[float, ...] = ()

    @classmethod
    def free(cls) -> "Potential":
        return cls(kind="free")

    @classmethod
    def harmonic(cls, k: float) -> "Potential":
        if not (k >= 0 and math.isfinite(k)):
            raise ValueError(f"harmonic stiffness k must be >= 0 and finite, got {k}")
        return cls(kind="harmonic", k=float(k))

    @classmethod
    def polynomial(cls, coeffs) -> "Potential":
        coeffs = tuple(float(c) for c in coeffs)
        if len(coeffs) == 0:
            raise ValueError("polynomial potential needs at least one coefficient")
        if len(coeffs) > POLY_MAX_DEGREE + 1:
            raise ValueError(
                f"polynomial degree {len(coeffs) - 1} exceeds the maximum {POLY_MAX_DEGREE}"
            )
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        return cls(kind="polynomial", coeffs=coeffs)

    def value(self, x: float) -> float:
        if self.kind == "free":
            return 0.0
        if self.kind == "harmonic":
            return 0.5 * self.k * x * x
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self, x: float) -> float:
        if self.kind == "free":
            return 0.0
        if self.kind == "harmonic":
            return self.k * x
        acc = 0.0
        for n in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * x + n * self.coeffs[n]
        return acc


@dataclass(frozen=True)
class DissipativeParams:
    """Mass, friction constant, hbar, and the external potential.

    R = 0 is legal (frictionless doubled motion) but leaves the canonical
    length scale undefined: accessing L2 then raises.
    """

    M: float
    R: float
    hbar: float = 1.0
    potential: Potential = field(default_factory=Potential.free)

    def __post_init__(self):
        if not (self.M > 0 and math.isfinite(self.M)):
            raise ValueError(f"mass M must be positive and finite, got {self.M}")
        if not (self.R >= 0 and math.isfinite(self.R)):
            raise ValueError(f"friction R must be >= 0 and finite, got {self.R}")
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")

    @property
    def gamma(self) -> float:
        """Decay rate R / M."""
        return self.R / self.M

    @property
    def L2(self) -> float:
        """Squared canonical length hbar / R; undefined without dissipation."""
        if self.R == 0:
            raise ValueError("no dissipation: the length scale hbar / R requires R > 0")
        return self.hbar / self.R

    @property
    def length_scale(self) -> float:
        return math.sqrt(self.L2)


@dataclass(frozen=True)
class TwoCoordState:
    """Point of the doubled system: positions, velocities, and time."""

    x_plus: float
    x_minus: float
    v_plus: float
    v_minus: float
    t: float = 0.0


def eom_rhs(state: TwoCoordState, params: DissipativeParams):
    """Time derivatives (dx_plus, dx_minus, dv_plus, dv_minus).

    Note the cross coupling: the friction term in dv_plus/dt carries
    v_minus and vice versa.  That is what makes the doubled system
    conservative while its diagonal is damped.
    """
    du = params.potential.derivative
    return (
        state.v_plus,
        state.v_minus,
        -(params.R * state.v_minus + du(state.x_plus)) / params.M,
        -(params.R * state.v_plus + du(state.x_minus)) / params.M,
    )


class DivergenceError(RuntimeError):
    """Trajectory produced a non-finite state; .step is the failing step."""

    def __init__(self, step: int, t: float):
        self.step = step
        self.t = t
        super().__init__(f"trajectory diverged at step {step} (t = {t:g}): non-finite state")


def integrate_trajectory(
    initial: TwoCoordState,
    params: DissipativeParams,
    dt: float,
    steps: int,
) -> list[TwoCoordState]:
    """Fixed-step RK4 integration of the doubled equations of motion.

    Returns steps + 1 states including the initial one.  dt * gamma < 0.1
    is the recommended operating range; at dt * gamma >= 1 a RuntimeWarning
    is emitted because fixed-step RK4 is no longer trustworthy there.
    Raises DivergenceError (with the failing step index) if the state stops
    being finite.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    fields = (initial.x_plus, initial.x_minus, initial.v_plus, initial.v_minus, initial.t)
    if not all(math.isfinite(v) for v in fields):
        raise ValueError("initial state contains non-finite entries")
    if params.R > 0 and dt * params.gamma >= 1.0:
        warnings.warn(
            f"dt * gamma = {dt * params.gamma:g} >= 1: fixed-step RK4 is unreliable here "
            "(recommended dt * gamma < 0.1)",
            RuntimeWarning,
            stacklevel=2,
        )

    m = params.M
    r = params.R
    du = params.potential.derivative

    def rhs(xp, xm, vp, vm):
        return vp, vm, -(r * vm + du(xp)) / m, -(r * vp + du(xm)) / m

    xp, xm, vp, vm = initial.x_plus, initial.x_minus, initial.v_plus, initial.v_minus
    t0 = initial.t
    out = [TwoCoordState(xp, xm, vp, vm, t0)]
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(1, steps + 1):
        a1 = rhs(xp, xm, vp, vm)
        a2 = rhs(xp + half * a1[0], xm + half * a1[1], vp + half * a1[2], vm + half * a1[3])
        a3 = rhs(xp + half * a2[0], xm + half * a2[1], vp + half * a2[2], vm + half * a2[3])
        a4 = rhs(xp + dt * a3[0], xm + dt * a3[1], vp + dt * a3[2], vm + dt * a3[3])
        xp += sixth * (a1[0] + 2.0 * (a2[0] + a3[0]) + a4[0])
        xm += sixth * (a1[1] + 2.0 * (a2[1] + a3[1]) + a4[1])
        vp += sixth * (a1[2] + 2.0 * (a2[2] + a3[2]) + a4[2])
        vm += sixth * (a1[3] + 2.0 * (a2[3] + a3[3]) + a4[3])
        t = t0 + k * dt
        if not (math.isfinite(xp) and math.isfinite(xm) and math.isfinite(vp) and math.isfinite(vm)):
            raise DivergenceError(step=k, t=t)
        out.append(TwoCoordState(xp, xm, vp, vm, t))
    return out


def trajectory_to_array(states: list[TwoCoordState]) -> np.ndarray:
    """Stack states into an (N, 5) array with columns t, x+, x-, v+, v-."""
    return np.array([[s.t, s.x_plus, s.x_minus, s.v_plus, s.v_minus] for s in states])


def hamiltonian_value(state: TwoCoordState, params: DissipativeParams) -> float:
    """Conserved generator (M/2)(v+^2 - v-^2) + U(x+) - U(x-)."""
    u = params.potential.value
    kinetic = 0.5 * params.M * (state.v_plus ** 2 - state.v_minus ** 2)
    return kinetic + u(state.x_plus) - u(state.x_minus)


def canonical_momenta(state: TwoCoordState, params: DissipativeParams) -> tuple[float, float]:
    """Momenta conjugate to (x_plus, x_minus): p_pm = pm(M v_pm + R x_mp / 2).

    With these, H = (1/2M)[(p+ - R x-/2)^2 - (p- + R x+/2)^2] + U(x+) - U(x-)
    coincides with the velocity form used by hamiltonian_value.
    """
    p_plus = params.M * state.v_plus + 0.5 * params.R * state.x_minus
    p_minus = -(params.M * state.v_minus + 0.5 * params.R * state.x_plus)
    return p_plus, p_minus


@dataclass(frozen=True)
class CanonicalCoords:
    """Canonical pair xi_pm and the commuting center pair X_pm."""

    xi_plus: float
    xi_minus: float
    X_plus: float
    X_minus: float

    @property
    def xi(self) -> tuple[float, float]:
        return (self.xi_plus, self.xi_minus)


def canonical_coords(state: TwoCoordState, params: DissipativeParams) -> CanonicalCoords:
    """Map (x_pm, v_pm) to (xi_pm, X_pm); requires dissipation.

    xi_plus = -M v_minus / R, xi_minus = +M v_plus / R, X_pm = x_pm - xi_pm.
    Under pure friction the X's are constants of motion.
    """
    if params.R == 0:
        raise ValueError("canonical coordinates are undefined without dissipation (R = 0)")
    xi_plus = -params.M * state.v_minus / params.R
    xi_minus = params.M * state.v_plus / params.R
    return CanonicalCoords(
        xi_plus=xi_plus,
        xi_minus=xi_minus,
        X_plus=state.x_plus - xi_plus,
        X_minus=state.x_minus - xi_minus,
    )


def hyperbolic_evolve(xi, gamma, t):
    """Closed-form pure-friction evolution of the canonical pair.

    Applies [[cosh(G t), sinh(G t)], [sinh(G t), cosh(G t)]] to
    (xi_plus, xi_minus).  The antisymmetric direction (1, -1), which
    carries classical diagonal motion, decays like exp(-G t); the
    symmetric direction (1, 1) grows like exp(+G t).  Determinant 1, so
    the Minkowski form xi_minus^2 - xi_plus^2 is exactly preserved.

    Evaluated in light-cone components (xi_plus + xi_minus scales by
    exp(G t), xi_minus - xi_plus by exp(-G t)) rather than by the matrix
    itself; the direct form loses the invariant to cancellation of order
    eps * exp(2 G t) while this one stays at a few ulps.

    Accepts a single pair or an (..., 2) array; gamma and t broadcast
    against the leading axes.  Raises ValueError naming gamma*t when the
    result is not finite; exp(|gamma*t|) alone overflows past ~709.
    """
    arr = np.asarray(xi, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError(f"xi must have a trailing axis of size 2, got shape {arr.shape}")
    g = np.asarray(gamma, dtype=float)
    if not (np.all(np.isfinite(g)) and np.all(g >= 0)):
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")
    gt = np.asarray(g * np.asarray(t, dtype=float))
    u_t = np.exp(gt) * (arr[..., 0] + arr[..., 1])
    w_t = np.exp(-gt) * (arr[..., 1] - arr[..., 0])
    out = np.empty(np.broadcast(u_t, w_t).shape + (2,), dtype=float)
    out[..., 0] = 0.5 * (u_t - w_t)
    out[..., 1] = 0.5 * (u_t + w_t)
    if not np.isfinite(out).all():
        if not np.isfinite(arr).all():
            raise ValueError("xi contains non-finite entries")
        bad = np.broadcast_to(gt, out.shape[:-1])[~np.isfinite(out).all(axis=-1)]
        raise ValueError(f"hyperbolic flow overflows float64 at gamma*t = {bad.flat[0]:g}")
    return out


def orbit_invariant(xi) -> float | np.ndarray:
    """Minkowski form xi_minus^2 - xi_plus^2, conserved by the boost."""
    arr = np.asarray(xi, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError(f"xi must have a trailing axis of size 2, got shape {arr.shape}")
    val = arr[..., 1] ** 2 - arr[..., 0] ** 2
    return float(val) if val.ndim == 0 else val


def friction_hamiltonian(xi, params: DissipativeParams) -> float | np.ndarray:
    """Pure-friction generator (hbar^2 / (2 M L^4)) (xi_minus^2 - xi_plus^2).

    Equals (M/2)(v+^2 - v-^2) when xi comes from canonical_coords, and
    (hbar Gamma / (2 L^2)) times the orbit invariant.  Requires R > 0.
    """
    l2 = params.L2
    pref = params.hbar ** 2 / (2.0 * params.M * l2 * l2)
    return pref * orbit_invariant(xi)


def transmission_coefficient(omega, gamma: float):
    """Barrier transmission P(omega) = 1 / (1 + exp(-2 pi omega / gamma)).

    P(0) = 1/2 exactly, P(omega) + P(-omega) = 1, monotone increasing.
    Vectorized over omega.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError(f"transmission requires a positive decay rate, got gamma = {gamma}")
    omega = np.asarray(omega, dtype=float)
    out = expit(2.0 * math.pi * omega / gamma)
    return float(out) if out.ndim == 0 else out


def _doubled_factors(params: DissipativeParams, dim: int) -> list[list[tuple[str, np.ndarray]]]:
    """K_pm and xi_pm on the first ladder factor, X_pm on the second."""
    l2 = params.L2
    ell = math.sqrt(l2)
    z, zdag = build_ladder(dim)
    plus_f = (z + zdag) / math.sqrt(2.0)
    minus_f = -1j * (z - zdag) / math.sqrt(2.0)
    k_plus = plus_f / ell
    k_minus = minus_f / ell
    return [
        [("K_plus", k_plus), ("K_minus", k_minus),
         ("xi_plus", -l2 * k_minus), ("xi_minus", l2 * k_plus)],
        [("X_plus", ell * plus_f), ("X_minus", -ell * minus_f)],
    ]


def doubled_operators(params: DissipativeParams, dim: int) -> dict[str, np.ndarray]:
    """Finite representations of K_pm, xi_pm, X_pm on a dim x dim tensor space.

    The scaled-velocity pair K_pm = M v_pm / hbar and the xi's act on the
    first ladder factor, the centers X_pm on the second, so the cross
    brackets vanish identically.  Clean-block relations:
    [K+, K-] = i / L^2, [xi+, xi-] = i L^2, [X+, X-] = -i L^2.
    """
    dim = require_dim(dim)
    velocity, center = _doubled_factors(params, dim)
    eye = np.eye(dim)
    ops = {label: np.kron(m, eye) for label, m in velocity}
    ops.update({label: np.kron(eye, m) for label, m in center})
    return ops


def kappa_commutator_check(params: DissipativeParams, dim: int) -> CommutatorReport:
    """Pairwise bracket table for (K_pm, xi_pm, X_pm).

    Certifies [K+, K-] = i / L^2, [xi+, xi-] = i L^2, [X+, X-] = -i L^2,
    and that every mixed xi/X bracket vanishes, with the truncation
    artifact isolated on the last level.  Computed on the dim x dim ladder
    factors; the mixed-factor entries are exact zeros.
    """
    dim = require_dim(dim, minimum=3)
    return factored_commutator_table(_doubled_factors(params, dim), dim)


def validate_density_matrix(rho, tol: float = 1e-12) -> np.ndarray:
    """Check Hermiticity and unit trace, returning a complex array copy."""
    arr = np.array(rho, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {arr.shape}")
    defect = float(np.abs(arr - arr.conj().T).max())
    if defect > tol:
        raise ValueError(f"density matrix is not Hermitian: defect {defect:g} > {tol:g}")
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"density matrix trace must be 1, got {tr}")
    return arr


def evolve_density(energies, rho0, t: float, hbar: float = 1.0) -> np.ndarray:
    """Dephasing evolution rho_fi(t) = exp(-i (E_f - E_i) t / hbar) rho_fi(0).

    energies are the eigenvalues of the single-copy Hamiltonian in the
    basis rho0 is written in.  Populations (the diagonal) are untouched,
    so trace and Hermiticity survive exactly.
    """
    e = np.asarray(energies, dtype=float)
    rho = validate_density_matrix(rho0)
    if e.ndim != 1 or e.size != rho.shape[0]:
        raise ValueError(
            f"energies must be a 1-d array matching the density dimension "
            f"{rho.shape[0]}, got shape {e.shape}"
        )
    if not (hbar > 0 and math.isfinite(hbar)):
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    omega = (e[:, None] - e[None, :]) / hbar
    return np.exp(-1j * omega * t) * rho


def bohr_frequencies(rhos, dt: float, threshold: float = 0.1) -> np.ndarray:
    """Transition frequencies from a uniformly sampled density trajectory.

    rhos is a sequence of density matrices sampled every dt.  Each
    off-diagonal entry rotates at one Bohr frequency, so a Hann-windowed
    periodogram summed over entries shows a peak per distinct energy
    difference.  Local maxima above `threshold` times the tallest peak are
    returned as positive angular frequencies, sorted ascending, each
    accurate to one DFT bin (2 pi / (N dt)).  A record with no rotating
    off-diagonal content returns an empty array.

    Needs at least 64 samples, and the record should span at least two
    periods of the slowest transition (unverifiable here; shorter records
    smear the low-frequency peaks).
    """
    arr = np.asarray(rhos, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"rhos must be a (samples, d, d) stack, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 64:
        raise ValueError(
            f"need at least 64 uniform samples spanning two periods of the slowest "
            f"transition, got {n}"
        )
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (0 < threshold <= 1):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    d = arr.shape[1]
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
    # fold negative-frequency bins onto positive ones; bin 0 (DC) dropped
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
