"""Reference values computed by the benchmark, independently of ncplane.

Nothing here imports ncplane.  Each checker takes the program's output and
returns a Check: the largest relative error of any checked float against
the reference, and a list of mismatches (empty when the output is right).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

# RK4 at the step sizes used here stays below 1e-9 relative to the state
# amplitude; an exact propagator is exact.  Anything the arithmetic of the
# formulas themselves can reach (cancellation in H, 17-digit printing) is
# orders of magnitude below these.
LINEAR_TOL = 1e-7
POLY_DRIFT_TOL = 1e-6
DIAGONAL_TOL = 1e-12
EXACT_TOL = 1e-9


@dataclass
class Check:
    max_rel_err: float = 0.0
    errors: list = field(default_factory=list)

    def compare(self, what: str, got, ref, scale, tol: float) -> None:
        """Relative error |got - ref| / scale, elementwise; record the worst."""
        got = np.asarray(got, dtype=float)
        ref = np.asarray(ref, dtype=float)
        if got.shape != ref.shape:
            self.errors.append(f"{what}: shape {got.shape} != expected {ref.shape}")
            return
        if got.size == 0:
            return
        if not np.all(np.isfinite(got)):
            self.errors.append(f"{what}: non-finite value in output")
            return
        err = np.abs(got - ref) / np.asarray(scale, dtype=float)
        worst = int(np.argmax(err))
        value = float(err.flat[worst])
        self.max_rel_err = max(self.max_rel_err, value)
        if value > tol:
            self.errors.append(
                f"{what}: relative error {value:.3g} > {tol:g} at flat index {worst} "
                f"(got {float(got.flat[worst])!r}, expected {float(ref.flat[worst])!r})"
            )

    def require(self, what: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.errors.append(f"{what}{': ' + detail if detail else ''}")

    def merge(self, other: "Check") -> None:
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)
        self.errors.extend(other.errors)


# ------------------------------------------------------------ trajectories

def linear_generator(m: float, r: float, k: float) -> np.ndarray:
    """A with d/dt (x+, x-, v+, v-) = A (x+, x-, v+, v-) for U = k x^2 / 2:
    M v+' = -R v- - k x+,  M v-' = -R v+ - k x-."""
    return np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-k / m, 0.0, 0.0, -r / m],
        [0.0, -k / m, -r / m, 0.0],
    ])


def linear_states(m: float, r: float, k: float, s0, dt: float, steps: int,
                  block: int = 256) -> np.ndarray:
    """Exact states at t_n = n dt, n = 0..steps, from scipy.linalg.expm.

    exp(A n dt) is split as exp(A m dt) exp(A j block dt) with n = j block + m,
    so every row costs two matrix exponentials and no error accumulates
    along the run.
    """
    from scipy.linalg import expm

    a = linear_generator(m, r, k)
    n = np.arange(steps + 1)
    blocks = np.arange(steps // block + 1) * block
    starts = expm(blocks[:, None, None] * dt * a) @ np.asarray(s0, dtype=float)
    inner = expm(np.arange(block)[:, None, None] * dt * a)
    return np.einsum("nij,nj->ni", inner[n % block], starts[n // block])


def poly_value(coeffs, x):
    acc = np.zeros_like(x)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_abs_terms(coeffs, x):
    """Sum of |c_j x^j|: the magnitude the polynomial value is cancelled from."""
    return sum(abs(c) * np.abs(x) ** j for j, c in enumerate(coeffs))


def derived_columns(states, m: float, r: float, coeffs):
    """Reference (value, scale) for hamiltonian, xi, X and orbit-invariant
    columns from (x+, x-, v+, v-) rows.  Scales follow the row's state
    amplitude through each formula (the Hamiltonian's from the magnitudes of
    its terms), so cancellation and zero crossings do not inflate the
    relative error of an otherwise accurate row."""
    xp, xm, vp, vm = states.T
    amp = np.max(np.abs(states), axis=1)
    kin = 0.5 * m * (vp ** 2 - vm ** 2)
    ham = kin + poly_value(coeffs, xp) - poly_value(coeffs, xm)
    ham_scale = (0.5 * m * (vp ** 2 + vm ** 2) + poly_abs_terms(coeffs, xp)
                 + poly_abs_terms(coeffs, xm))
    out = {"hamiltonian": (ham, np.maximum(ham_scale, 1e-300))}
    if r > 0:
        xi_p = -m * vm / r
        xi_m = m * vp / r
        xi_scale = np.maximum(amp * m / r, 1e-300)
        out["xi_plus"] = (xi_p, xi_scale)
        out["xi_minus"] = (xi_m, xi_scale)
        out["X_plus"] = (xp - xi_p, xi_scale + amp)
        out["X_minus"] = (xm - xi_m, xi_scale + amp)
        out["orbit_invariant"] = (xi_m ** 2 - xi_p ** 2, xi_scale ** 2)
    return out


def read_csv(text: str):
    header = text.split("\n", 1)[0].split(",")
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_trajectory(text: str, run: dict) -> Check:
    """Check an evolve CSV against the exact or the stated-bound reference.

    run: {M, R, coeffs (ascending), linear_k or None, s0, dt, steps,
    canonical}.  Linear potentials (free, harmonic) are compared row by row
    with the exact solution, relative to the row's state amplitude.
    Polynomial runs must keep the generator H within POLY_DRIFT_TOL of its
    start (relative to max(1, |H0|)) and, started on the diagonal, keep
    x+ = x-, v+ = v-.
    """
    chk = Check()
    header, data = read_csv(text)
    want = ["t", "x_plus", "x_minus", "v_plus", "v_minus"]
    if run["canonical"]:
        want += ["xi_plus", "xi_minus", "X_plus", "X_minus", "hamiltonian", "orbit_invariant"]
    else:
        want += ["hamiltonian"]
    chk.require("csv header", header == want, f"{header} != {want}")
    chk.require("csv rows", data.shape == (run["steps"] + 1, len(want)),
                f"shape {data.shape}, expected {(run['steps'] + 1, len(want))}")
    if chk.errors:
        return chk
    col = {name: data[:, i] for i, name in enumerate(want)}
    dt, steps = run["dt"], run["steps"]
    t_ref = np.arange(steps + 1) * dt
    chk.compare("t", col["t"], t_ref, np.maximum(t_ref, dt), EXACT_TOL)
    got = data[:, 1:5]
    m, r, coeffs = run["M"], run["R"], run["coeffs"]
    if run["linear_k"] is not None:
        ref = linear_states(m, r, run["linear_k"], run["s0"], dt, steps)
        amp = np.max(np.abs(ref), axis=1, keepdims=True)
        chk.compare("state", got, ref, np.broadcast_to(amp, ref.shape), LINEAR_TOL)
        tol = LINEAR_TOL
    else:
        ref = got
        ham = poly_value(coeffs, got[:, 0]) - poly_value(coeffs, got[:, 1]) \
            + 0.5 * m * (got[:, 2] ** 2 - got[:, 3] ** 2)
        h_scale = max(1.0, abs(ham[0]))
        chk.compare("hamiltonian drift", ham, np.full_like(ham, ham[0]), h_scale, POLY_DRIFT_TOL)
        if run["s0"][0] == run["s0"][1] and run["s0"][2] == run["s0"][3]:
            amp = np.maximum(np.max(np.abs(got), axis=1), 1e-300)
            chk.compare("diagonal x", got[:, 0], got[:, 1], amp, DIAGONAL_TOL)
            chk.compare("diagonal v", got[:, 2], got[:, 3], amp, DIAGONAL_TOL)
        tol = EXACT_TOL
    for name, (value, scale) in derived_columns(ref, m, r, coeffs).items():
        if name in col:
            chk.compare(name, col[name], value, scale, tol)
    return chk


def check_evolve_summary(stdout: str, run: dict) -> Check:
    chk = Check()
    try:
        summary = json.loads(stdout)
    except json.JSONDecodeError as exc:
        chk.require("summary json", False, str(exc))
        return chk
    chk.require("summary steps", summary.get("steps") == run["steps"], repr(summary.get("steps")))
    chk.compare("summary dt", summary.get("dt", math.nan), run["dt"], run["dt"], EXACT_TOL)
    gt = run["R"] / run["M"] * run["dt"] * run["steps"]
    chk.compare("summary gamma_t_total", summary.get("gamma_t_total", math.nan), gt,
                max(gt, 1e-300), EXACT_TOL)
    return chk


# ----------------------------------------------------------------- brackets

def bracket_table(ops: list) -> np.ndarray:
    """Leading commutators of operators a p + b q on independent factors.

    ops: (factor, a, b) with [p, q] = i on each factor, so
    [a1 p + b1 q, a2 p + b2 q] = i (a1 b2 - b1 a2) on the same factor
    and 0 across factors.
    """
    n = len(ops)
    out = np.zeros((n, n), dtype=complex)
    for i, (fi, ai, bi) in enumerate(ops):
        for j, (fj, aj, bj) in enumerate(ops):
            if i != j and fi == fj:
                out[i, j] = 1j * (ai * bj - bi * aj)
    return out


def magnetic_ops(l2: float) -> tuple[list, list]:
    ell = math.sqrt(l2)
    labels = ["rho_x", "rho_y", "center_x", "center_y"]
    return labels, [(0, ell, 0.0), (0, 0.0, ell), (1, ell, 0.0), (1, 0.0, -ell)]


def dissipative_ops(l2: float) -> tuple[list, list]:
    ell = math.sqrt(l2)
    labels = ["K_plus", "K_minus", "xi_plus", "xi_minus", "X_plus", "X_minus"]
    return labels, [(0, 1 / ell, 0.0), (0, 0.0, 1 / ell), (0, 0.0, -ell), (0, ell, 0.0),
                    (1, ell, 0.0), (1, 0.0, -ell)]


def check_algebra(text: str, kind: str, dim: int, l2: float) -> Check:
    """Leading table = i (a1 b2 - b1 a2), artifact = -(dim - 1) x leading."""
    chk = Check()
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        chk.require("algebra json", False, str(exc))
        return chk
    labels, ops = (magnetic_ops if kind == "magnetic" else dissipative_ops)(l2)
    lead = bracket_table(ops)
    chk.require("algebra kind", out.get("kind") == kind)
    chk.require("algebra dim", out.get("dim") == dim)
    chk.require("algebra labels", out.get("labels") == labels, repr(out.get("labels")))
    if chk.errors:
        return chk
    chk.compare("length_scale_sq", out["length_scale_sq"], l2, l2, EXACT_TOL)
    scale = float(np.abs(lead).max())
    # each entry relative to its own magnitude; zero entries relative to the table's
    entry_scale = np.where(np.abs(lead) > 0, np.abs(lead), scale)[..., None]
    for key, ref in (("table", lead), ("artifact", -(dim - 1) * lead)):
        got = np.asarray(out[key], dtype=float)
        ref_ri = np.stack([ref.real, ref.imag], axis=-1)
        factor = dim - 1 if key == "artifact" else 1
        chk.compare(key, got, ref_ri, np.broadcast_to(factor * entry_scale, ref_ri.shape),
                    EXACT_TOL)
    chk.compare("max_clean_deviation", out["max_clean_deviation"], 0.0, scale, EXACT_TOL)
    return chk


def check_distance_spectrum(text: str, length: float, dim: int) -> Check:
    chk = Check()
    header, data = read_csv(text)
    chk.require("spectrum header", header == ["n", "value"], repr(header))
    chk.require("spectrum rows", data.shape == (dim, 2), repr(data.shape))
    if chk.errors:
        return chk
    n = np.arange(dim)
    ref = length ** 2 * (2 * n + 1)
    chk.compare("spectrum n", data[:, 0], n, 1.0, 0.0)
    chk.compare("spectrum value", data[:, 1], ref, ref, EXACT_TOL)
    return chk


# ------------------------------------------------------------------ density

def dephased(energies, rho0, times, hbar: float = 1.0) -> np.ndarray:
    """U(t) rho0 U(t)^dagger with U = diag(exp(-i E t / hbar))."""
    u = np.exp(-1j * np.outer(times, energies) / hbar)
    return u[:, :, None] * rho0[None, :, :] * u.conj()[:, None, :]


def check_density(rhos, energies, rho0, times) -> Check:
    chk = Check()
    ref = dephased(energies, rho0, times)
    got = np.asarray(rhos)
    scale = float(np.abs(rho0).max())
    chk.compare("rho(t) real", got.real, ref.real, scale, EXACT_TOL)
    chk.compare("rho(t) imag", got.imag, ref.imag, scale, EXACT_TOL)
    return chk


def check_bohr(freqs, expected) -> Check:
    chk = Check()
    chk.compare("bohr frequencies", np.sort(np.asarray(freqs)), np.sort(expected),
                np.sort(expected), EXACT_TOL)
    return chk


# ----------------------------------------------------------------- geometry

def even_odd_inside(points, polygon, chunk: int = 1 << 16, rel_eps: float = 1e-9):
    """Even-odd ray crossing (ray towards +x) for a simple polygon.

    Returns (inside mask, ambiguous mask).  A point whose ray crosses an edge
    within rel_eps x (polygon extent) of the point itself sits on an edge up
    to rounding; any membership is accepted for it.
    """
    pts = np.asarray(points, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    eps = rel_eps * float(np.ptp(poly, axis=0).max())
    inside = np.zeros(len(pts), dtype=bool)
    ambiguous = np.zeros(len(pts), dtype=bool)
    edge_chunk = max(1, chunk // max(1, len(pts)))
    for lo in range(0, len(poly), edge_chunk):
        sl = slice(lo, lo + edge_chunk)
        ex1, ey1, ex2, ey2 = x1[sl, None], y1[sl, None], x2[sl, None], y2[sl, None]
        px, py = pts[None, :, 0], pts[None, :, 1]
        spans = (ey1 > py) != (ey2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xc = ex1 + (py - ey1) * (ex2 - ex1) / (ey2 - ey1)
        cross = spans & (xc > px)
        inside ^= (np.count_nonzero(cross, axis=0) % 2).astype(bool)
        ambiguous |= np.any(spans & (np.abs(xc - px) <= eps), axis=0)
    return inside, ambiguous


def check_count(what: str, got, inside, ambiguous, chk: Check) -> None:
    lo = int(np.count_nonzero(inside & ~ambiguous))
    hi = lo + int(np.count_nonzero(ambiguous))
    ok = isinstance(got, int) and lo <= got <= hi
    chk.require(what, ok, f"got {got!r}, expected {lo}" + (f"..{hi}" if hi > lo else ""))


def ellipse_area(n: int, a: float, b: float) -> float:
    """Area of the n-gon inscribed in an ellipse at equal parameter steps:
    the affine image of the regular n-gon, (n / 2) a b sin(2 pi / n)."""
    return 0.5 * n * a * b * math.sin(2.0 * math.pi / n)
