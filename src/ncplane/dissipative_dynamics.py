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

A trajectory is an (N, 5) array with columns t, x+, x-, v+, v-:
integrate_array, the integrator, fills it from one scalar RK4 loop, and
hamiltonian_value, canonical_momenta and canonical_coords take such an
array as well as a single TwoCoordState, returning one column per quantity
with the same bits the per-state call gives.  The list view,
integrate_trajectory (integrate_array's rows as TwoCoordState objects)
and trajectory_to_array, is module-only, not exported from ncplane: it is
kept because the benchmark's tracer looks these names up.

The quantized inverted oscillator behind the boost transmits wavepackets
with probability P(omega) = 1 / (1 + exp(-2 pi omega / G)), and energy
eigenstates dephase as rho_fi(t) = exp(-i (E_f - E_i) t / hbar) rho_fi(0),
so transition frequencies can be read off a periodogram of the
off-diagonal entries.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .operator_core import (
    CommutatorReport, NcParams, build_xy, commutator_table, require_dim, tensor_operators,
)

__all__ = [
    "Potential",
    "DissipativeParams",
    "TwoCoordState",
    "CanonicalCoords",
    "DivergenceError",
    "eom_rhs",
    "integrate_array",
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
_DENSITY_TOL = 1e-12  # validate_density_matrix's bound on the Hermiticity and trace errors
_PEAK_FLOOR = 0.1  # bohr_frequencies' peaks reach this fraction of the tallest one


@dataclass(frozen=True)
class Potential:
    """External potential U(x): free, harmonic, or polynomial (degree <= 6).

    Polynomial coefficients are ascending powers: coeffs[k] multiplies x**k.
    Construct through the classmethods; the raw constructor is not
    validated against mixed kinds.  value and derivative take a float or an
    array (the free potential gives a scalar 0.0 for either).
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

    def value(self, x):
        if self.kind == "free":
            return 0.0
        if self.kind == "harmonic":
            return 0.5 * self.k * x * x
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self, x):
        return _force(self)(x)


def _force(potential: Potential):
    """U' as a function of a float or an array: the one implementation,
    built once per integration run and called at every RK4 stage.

    The polynomial form precomputes the products n * c_n and runs Horner's
    steps from acc = 0.0, so its first step is 0.0 * x + n * c_n.
    """
    if potential.kind == "free":
        return lambda x: 0.0
    if potential.kind == "harmonic":
        k = potential.k
        return lambda x: k * x
    terms = [n * c for n, c in enumerate(potential.coeffs)][:0:-1]

    def du(x):
        acc = 0.0
        for c in terms:
            acc = acc * x + c
        return acc
    return du


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
    du = _force(params.potential)
    return (
        state.v_plus,
        state.v_minus,
        -(params.R * state.v_minus + du(state.x_plus)) / params.M,
        -(params.R * state.v_plus + du(state.x_minus)) / params.M,
    )


class DivergenceError(RuntimeError):
    """Trajectory produced a non-finite state; .step is the failing step and
    .state the last finite row (t, x+, x-, v+, v-), the one before it."""

    def __init__(self, step: int, t: float, state: tuple | None = None):
        self.step = step
        self.t = t
        self.state = state
        super().__init__(f"trajectory diverged at step {step} (t = {t:g}): non-finite state")


# steps per finiteness check, and per copy of plain floats into the array
_BLOCK_STEPS = 4096


def integrate_array(
    initial: TwoCoordState,
    params: DissipativeParams,
    dt: float,
    steps: int,
) -> np.ndarray:
    """Fixed-step RK4 integration of the doubled equations of motion.

    Returns the trajectory as an (steps + 1, 5) array with columns t, x+,
    x-, v+, v-, the initial state first; row k is at t0 + k * dt.  dt *
    gamma < 0.1 is the recommended operating range; at dt * gamma >= 1 a
    RuntimeWarning is emitted because fixed-step RK4 is no longer
    trustworthy there.  Raises DivergenceError (with the failing step
    index) if the state stops being finite.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    fields = (initial.t, initial.x_plus, initial.x_minus, initial.v_plus, initial.v_minus)
    if not all(math.isfinite(v) for v in fields):
        raise ValueError("initial state contains non-finite entries")
    if params.R > 0 and dt * params.gamma >= 1.0:
        warnings.warn(
            f"dt * gamma = {dt * params.gamma:g} >= 1: fixed-step RK4 is unreliable here "
            "(recommended dt * gamma < 0.1)",
            RuntimeWarning,
            stacklevel=2,  # the line that called integrate_array
        )

    m = params.M
    r = params.R
    du = _force(params.potential)
    t0, xp, xm, vp, vm = (float(v) for v in fields)
    out = np.empty((steps + 1, 5))
    out[:, 0] = t0 + np.arange(steps + 1) * dt
    out[0] = (t0, xp, xm, vp, vm)
    half = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite
    for lo in range(1, steps + 1, _BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, steps + 1)
        flat = []
        push = flat.extend
        for _ in range(lo, hi):
            # stage k evaluates (x, x', v, v') -> (v, v', -(R v' + U'(x)) / M, ...)
            f1 = -(r * vm + du(xp)) / m
            g1 = -(r * vp + du(xm)) / m
            u2 = vp + half * f1
            w2 = vm + half * g1
            f2 = -(r * w2 + du(xp + half * vp)) / m
            g2 = -(r * u2 + du(xm + half * vm)) / m
            u3 = vp + half * f2
            w3 = vm + half * g2
            f3 = -(r * w3 + du(xp + half * u2)) / m
            g3 = -(r * u3 + du(xm + half * w2)) / m
            u4 = vp + dt * f3
            w4 = vm + dt * g3
            f4 = -(r * w4 + du(xp + dt * u3)) / m
            g4 = -(r * u4 + du(xm + dt * w3)) / m
            xp, xm, vp, vm = (
                xp + sixth * (vp + 2.0 * (u2 + u3) + u4),
                xm + sixth * (vm + 2.0 * (w2 + w3) + w4),
                vp + sixth * (f1 + 2.0 * (f2 + f3) + f4),
                vm + sixth * (g1 + 2.0 * (g2 + g3) + g4),
            )
            push((xp, xm, vp, vm))
        out[lo:hi, 1:] = np.fromiter(flat, float, 4 * (hi - lo)).reshape(-1, 4)
        # a non-finite coordinate stays non-finite, so the block's last row
        # tells whether any row of the block failed
        if not (isfinite(xp) and isfinite(xm) and isfinite(vp) and isfinite(vm)):
            step = lo + int(np.argmin(np.isfinite(out[lo:hi, 1:]).all(axis=1)))
            raise DivergenceError(step=step, t=t0 + step * dt,
                                  state=tuple(out[step - 1].tolist()))
    return out


def integrate_trajectory(
    initial: TwoCoordState,
    params: DissipativeParams,
    dt: float,
    steps: int,
) -> list[TwoCoordState]:
    """integrate_array's trajectory as steps + 1 TwoCoordState objects."""
    arr = integrate_array(initial, params, dt, steps)
    return [TwoCoordState(xp, xm, vp, vm, t) for t, xp, xm, vp, vm in arr.tolist()]


def trajectory_to_array(states: list[TwoCoordState]) -> np.ndarray:
    """Stack states into an (N, 5) array with columns t, x+, x-, v+, v-."""
    return np.array([[s.t, s.x_plus, s.x_minus, s.v_plus, s.v_minus] for s in states])


def _state_fields(state):
    """(x+, x-, v+, v-) of a TwoCoordState, or the columns of an (N, 5) trajectory."""
    if isinstance(state, TwoCoordState):
        return state.x_plus, state.x_minus, state.v_plus, state.v_minus
    arr = np.asarray(state, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ValueError(f"a trajectory must be an (N, 5) array, got shape {arr.shape}")
    return arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4]


def _square(v, name: str):
    """v ** 2 by the C library pow, the float power of Python.

    np.float_power calls that pow on every element, so an array form and
    the value of a single state (a Python float) agree bit for bit.  v * v
    (np.square) rounds a few squares in a thousand differently, and
    np.power may run a SIMD loop that differs on some hosts.  A finite
    value whose square overflows raises ValueError naming the column (name)
    and the first such row; an infinite value squares to inf.
    """
    with np.errstate(over="ignore"):
        sq = np.float_power(v, 2.0)
    if not np.isfinite(sq).all():
        over = np.isinf(sq) & np.isfinite(v)
        if over.any():
            row = int(np.argmax(over))
            raise ValueError(
                f"Hamiltonian overflows: {name} = {float(np.atleast_1d(v)[row])!r} "
                f"in row {row} is too large to square"
            )
    return sq if isinstance(sq, np.ndarray) else float(sq)


def hamiltonian_value(state, params: DissipativeParams):
    """Conserved generator (M/2)(v+^2 - v-^2) + U(x+) - U(x-).

    state is a TwoCoordState (a float comes back) or an (N, 5) trajectory
    array (one value per row).  A finite velocity whose square overflows
    raises ValueError naming its column and row.
    """
    xp, xm, vp, vm = _state_fields(state)
    u = params.potential.value
    kinetic = 0.5 * params.M * (_square(vp, "v_plus") - _square(vm, "v_minus"))
    return kinetic + u(xp) - u(xm)


def canonical_momenta(state, params: DissipativeParams):
    """Momenta conjugate to (x_plus, x_minus): p_pm = pm(M v_pm + R x_mp / 2).

    With these, H = (1/2M)[(p+ - R x-/2)^2 - (p- + R x+/2)^2] + U(x+) - U(x-)
    coincides with the velocity form used by hamiltonian_value.  state is a
    TwoCoordState or an (N, 5) trajectory array.
    """
    xp, xm, vp, vm = _state_fields(state)
    p_plus = params.M * vp + 0.5 * params.R * xm
    p_minus = -(params.M * vm + 0.5 * params.R * xp)
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


def canonical_coords(state, params: DissipativeParams) -> CanonicalCoords:
    """Map (x_pm, v_pm) to (xi_pm, X_pm); requires dissipation.

    xi_plus = -M v_minus / R, xi_minus = +M v_plus / R, X_pm = x_pm - xi_pm.
    Under pure friction the X's are constants of motion.  For an (N, 5)
    trajectory array each field is a column of N values.
    """
    if params.R == 0:
        raise ValueError("canonical coordinates are undefined without dissipation (R = 0)")
    xp, xm, vp, vm = _state_fields(state)
    xi_plus = -params.M * vm / params.R
    xi_minus = params.M * vp / params.R
    return CanonicalCoords(
        xi_plus=xi_plus,
        xi_minus=xi_minus,
        X_plus=xp - xi_plus,
        X_minus=xm - xi_minus,
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

    P(0) = 1/2 exactly, P(omega) + P(-omega) = 1 to rounding, monotone
    increasing.
    Vectorized over omega.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError(f"transmission requires a positive decay rate, got gamma = {gamma}")
    omega = np.asarray(omega, dtype=float)
    # exp(-x) overflows to inf far below the barrier, where P rounds to 0
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-2.0 * math.pi * omega / gamma))
    return float(out) if out.ndim == 0 else out


def _doubled_factors(params: DissipativeParams, dim: int) -> list[list[tuple[str, np.ndarray]]]:
    """K_pm and xi_pm on the first ladder factor, X_pm on the second."""
    l2 = params.L2
    ell = math.sqrt(l2)
    plus_f, minus_f = build_xy(NcParams(L=1.0), dim)
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
    return tensor_operators(_doubled_factors(params, dim), dim)


def kappa_commutator_check(params: DissipativeParams, dim: int) -> CommutatorReport:
    """Pairwise bracket table for (K_pm, xi_pm, X_pm).

    Certifies [K+, K-] = i / L^2, [xi+, xi-] = i L^2, [X+, X-] = -i L^2,
    and that every mixed xi/X bracket vanishes, with the truncation
    artifact isolated on the last level.  Computed on the dim x dim ladder
    factors; the mixed-factor entries are exact zeros.  Requires dim >= 3.
    """
    return commutator_table(_doubled_factors(params, require_dim(dim, minimum=3)), dim)


@functools.lru_cache(maxsize=8)
def _strict_upper(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns, flat indices and mirrored flat indices (j, i) of the
    strict upper triangle of a C-ordered d x d matrix; read-only."""
    rows, cols = np.triu_indices(d, 1)
    index = (rows, cols, rows * d + cols, cols * d + rows)
    for a in index:
        a.setflags(write=False)
    return index


def validate_density_matrix(rho) -> np.ndarray:
    """Check Hermiticity and unit trace, returning a C-ordered complex copy.

    The Hermiticity defect is max |rho - rho^dagger|; a NaN or inf entry
    makes it NaN, which fails the check like any defect above _DENSITY_TOL.
    """
    arr = np.array(rho, dtype=complex, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {arr.shape}")
    diff = np.conjugate(arr.T, order="C")
    with np.errstate(invalid="ignore"):  # inf - inf: reported below
        diff -= arr
    defect = float(np.abs(diff).max(initial=0.0))
    if math.isnan(defect):
        raise ValueError("density matrix has non-finite entries")
    if not defect <= _DENSITY_TOL:
        raise ValueError(f"density matrix is not Hermitian: defect {defect:g} > {_DENSITY_TOL:g}")
    tr = complex(arr.trace())
    if not abs(tr - 1.0) <= _DENSITY_TOL:
        raise ValueError(f"density matrix trace must be 1, got {tr}")
    return arr


def evolve_density(energies, rho0, t: float, hbar: float = 1.0) -> np.ndarray:
    """Dephasing evolution rho(t) = U rho0 U^dagger, U = diag(exp(-i E t / hbar)).

    energies are the eigenvalues of the single-copy Hamiltonian in the
    basis rho0 is written in, so entry (f, i) turns by
    exp(-i (E_f - E_i) t / hbar).  A call costs d complex exps, not d^2:
    the phases u_f conj(u_i) are formed on the strict upper triangle only,
    and the lower triangle is the conjugate of the upper one.  The output is
    therefore exactly Hermitian, and the populations (the diagonal) are
    copied untouched, so the trace is exact too.
    """
    e = np.asarray(energies, dtype=float)
    rho = validate_density_matrix(rho0)
    if e.ndim != 1 or e.size != rho.shape[0]:
        raise ValueError(
            f"energies must be a 1-d array matching the density dimension "
            f"{rho.shape[0]}, got shape {e.shape}"
        )
    e_max = float(np.abs(e).max())  # NaN or inf when an energy is
    if not math.isfinite(e_max):
        raise ValueError(f"energies must be finite, got {e}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if not (hbar > 0 and math.isfinite(hbar)):
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    scale = t / hbar
    # e_max |t / hbar| bounds every |E t / hbar|, so one finite product clears them all
    if not math.isfinite(e_max * scale):
        k = int(np.argmax(np.abs(e))) if math.isfinite(scale) else 0
        raise ValueError(
            f"the phase E t / hbar must be finite, got {e[k]} * {t} / {hbar} for energy {k}"
        )
    rows, cols, upper, lower = _strict_upper(rho.shape[0])
    u = np.exp(-1j * (e * scale))
    coherences = u.take(rows) * u.conj().take(cols)
    coherences *= rho.take(upper)
    flat = rho.reshape(-1)
    flat[upper] = coherences
    flat[lower] = coherences.conj()
    return rho


# complex values per FFT block in bohr_frequencies (2 MB)
_FFT_BLOCK = 1 << 17


def _stack_sample(rhos, k: int, d: int | None = None) -> np.ndarray:
    """Sample k of a (samples, d, d) stack as a complex array, or a
    ValueError naming k; d=None takes d from the sample."""
    try:
        arr = np.asarray(rhos[k], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"rhos must be a (samples, d, d) stack: sample {k}: {exc}") from None
    if d is None and arr.ndim == 2:
        d = arr.shape[0]
    if arr.shape != (d, d):
        raise ValueError(
            f"rhos must be a (samples, d, d) stack: sample {k} has shape {arr.shape}"
            + (f", sample 0 has {(d, d)}" if k else "")
        )
    return arr


def bohr_frequencies(rhos, dt: float) -> np.ndarray:
    """Transition frequencies from a uniformly sampled density trajectory.

    rhos is a sequence of density matrices sampled every dt.  Each
    off-diagonal entry rotates at one Bohr frequency, so a Hann-windowed
    periodogram summed over entries shows a peak per distinct energy
    difference.  Local maxima above _PEAK_FLOOR times the tallest peak are
    returned as positive angular frequencies, sorted ascending, each
    accurate to one DFT bin (2 pi / (N dt)).  A record with no rotating
    off-diagonal content returns an empty array.

    The samples are taken to be Hermitian: only their strict upper
    triangles are read, gathered one sample at a time into one
    (samples, d(d-1)/2) array, and entry (j, i) adds the power of (i, j)
    at the mirrored bin, P_ji(k) = P_ij(-k).  The FFTs run on blocks of
    columns, so memory stays near that array's size, and the input is not
    modified.

    Needs at least 64 samples, and the record should span at least two
    periods of the slowest transition (unverifiable here; shorter records
    smear the low-frequency peaks).
    """
    try:
        n = len(rhos)
    except TypeError:
        raise ValueError(
            f"rhos must be a (samples, d, d) stack, got {type(rhos).__name__}"
        ) from None
    if n < 64:
        raise ValueError(
            f"need at least 64 uniform samples spanning two periods of the slowest "
            f"transition, got {n}"
        )
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    d = _stack_sample(rhos, 0).shape[0]
    upper = _strict_upper(d)[2]
    entries = np.empty((n, upper.size), dtype=complex)
    for k in range(n):
        _stack_sample(rhos, k, d).take(upper, out=entries[k])
    # the lower triangle holds as much power as the upper one
    raw_power = 2.0 * float(np.vdot(entries, entries).real)
    mean = entries.mean(axis=0)
    window = np.hanning(n)
    cols = max(1, _FFT_BLOCK // n)
    block = np.empty((min(cols, upper.size), n), dtype=complex)
    squares = np.zeros(2 * n)
    for a in range(0, upper.size, cols):
        x = block[: min(cols, upper.size - a)]
        np.subtract(entries[:, a : a + cols].T, mean[a : a + cols, None], out=x)
        x *= window
        # re^2 and im^2 of each bin side by side, summed over the block's entries
        spectrum = np.fft.fft(x).view(float)
        spectrum *= spectrum
        squares += spectrum.sum(axis=0)
    upper_power = squares[0::2] + squares[1::2]
    # add the lower entries, P_ji(k) = P_ij(-k); index -k is bin n - k
    power = upper_power + upper_power[-np.arange(n)]
    # fold negative-frequency bins onto positive ones; bin 0 (DC) dropped
    half = n // 2
    m = (n - 1) // 2
    folded = power[1 : half + 1].copy()
    folded[:m] += power[: n - m - 1 : -1]
    pmax = float(folded.max())
    if pmax <= 1e-24 * n * max(raw_power, 1.0):
        return np.array([])
    padded = np.concatenate(([-np.inf], folded, [-np.inf]))
    peaks = (folded >= _PEAK_FLOOR * pmax) & (folded >= padded[:-2]) & (folded >= padded[2:])
    return (np.flatnonzero(peaks) + 1) * (2.0 * math.pi / (n * dt))
