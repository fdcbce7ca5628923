"""Seeded workload inputs and the reference check for every step.

A workload is a list of steps.  A "cli" step is one ``ncplane.cli.main(argv)``
invocation whose outputs (stdout and --out files) the benchmark process
checks; a "lib" step calls the public density API inside the pass process
and is checked there, because its output is a large in-memory array.  All
inputs are generated here from the seed, outside the timed region, and
written to the work directory; the program sees only argv and those files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

SIZES = {
    "full": {
        "evolve_steps": 100_000, "evolve_dt": 5e-4,
        "sweep_runs": 200, "sweep_steps": 300, "sweep_dt": 0.01,
        "magnetic_dim": 28, "dissipative_dim": 24, "spectrum_dim": 1000,
        "density_d": 40, "density_samples": 4096,
        "scatter_atoms": 300_000, "scatter_vertices": 200,
        "scene_atoms": 2000, "scene_vertices": 20_000, "loop_vertices": 200_000,
    },
    "tiny": {
        "evolve_steps": 400, "evolve_dt": 5e-4,
        "sweep_runs": 6, "sweep_steps": 50, "sweep_dt": 0.01,
        "magnetic_dim": 4, "dissipative_dim": 3, "spectrum_dim": 10,
        "density_d": 6, "density_samples": 256,
        "scatter_atoms": 900, "scatter_vertices": 12,
        "scene_atoms": 50, "scene_vertices": 40, "loop_vertices": 64,
    },
}

QUARTIC = [0.0, 0.0, 0.5, 0.0, 0.25]


@dataclass
class Step:
    """One timed invocation and the check of its output."""

    label: str
    spec: dict
    outputs: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    check: Callable[[str, dict], ref.Check] | None = None


def _g(x: float) -> str:
    return repr(float(x))


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# ------------------------------------------------------------------ evolve

def _evolve_check(out_path: str, run: dict):
    def check(stdout: str, files: dict) -> ref.Check:
        chk = ref.check_trajectory(files[out_path], run)
        chk.merge(ref.check_evolve_summary(stdout, run))
        return chk
    return check


def evolve_long(rng, work: str, size: dict) -> list[Step]:
    s0 = [float(v) for v in rng.uniform(-1.0, 1.0, 4)]
    dt, steps = size["evolve_dt"], size["evolve_steps"]
    out = os.path.join(work, "evolve_long.csv")
    argv = ["evolve", "--M", "1.0", "--R", "0.2", "--potential", "harmonic", "--k", "1.0",
            "--x-plus", _g(s0[0]), "--x-minus", _g(s0[1]),
            "--v-plus", _g(s0[2]), "--v-minus", _g(s0[3]),
            "--dt", _g(dt), "--steps", str(steps), "--canonical", "--out", out]
    run = {"M": 1.0, "R": 0.2, "coeffs": [0.0, 0.0, 0.5], "linear_k": 1.0, "s0": s0,
           "dt": dt, "steps": steps, "canonical": True}
    return [Step("evolve", {"kind": "cli", "argv": argv}, [out], [], _evolve_check(out, run))]


def evolve_sweep(rng, work: str, size: dict) -> list[Step]:
    n = size["sweep_runs"]
    dt, steps = size["sweep_dt"], size["sweep_steps"]
    r_grid = np.linspace(0.05, 0.5, (n + 2) // 3)
    result = []
    for i in range(n):
        kind = ("free", "harmonic", "polynomial")[i % 3]
        r = float(r_grid[i // 3])
        s0 = [float(v) for v in rng.uniform(-1.0, 1.0, 4)]
        if kind == "polynomial" and i % 2 == 0:
            s0[1], s0[3] = s0[0], s0[2]          # on the diagonal
        potential = {"free": {"kind": "free"},
                     "harmonic": {"kind": "harmonic", "k": 1.0},
                     "polynomial": {"kind": "polynomial", "coeffs": QUARTIC}}[kind]
        canonical = not (kind == "harmonic" and i % 2 == 1)
        out = os.path.join(work, f"sweep_{i:03d}.csv")
        cfg = {"schema_version": 1,
               "params": {"M": 1.0, "R": r, "hbar": 1.0, "potential": potential},
               "initial": dict(zip(("x_plus", "x_minus", "v_plus", "v_minus"), s0)),
               "dt": dt, "steps": steps, "canonical": canonical, "out": out}
        path = _write_json(os.path.join(work, f"sweep_{i:03d}.json"), cfg)
        run = {"M": 1.0, "R": r, "s0": s0, "dt": dt, "steps": steps, "canonical": canonical,
               "coeffs": {"free": [], "harmonic": [0.0, 0.0, 0.5], "polynomial": QUARTIC}[kind],
               "linear_k": {"free": 0.0, "harmonic": 1.0, "polynomial": None}[kind]}
        result.append(Step(f"evolve-{kind}", {"kind": "cli", "argv": ["evolve", "--config", path]},
                           [out], [path], _evolve_check(out, run)))
    return result


# --------------------------------------------------------------- operators

def density_case(rng, d: int, samples: int, dt: float = 0.05, pairs: int = 6) -> dict:
    """Populations on the diagonal plus equal-magnitude coherences on a few
    disjoint level pairs whose Bohr frequencies sit on DFT bins at least 16
    bins apart, so the periodogram has exactly those peaks."""
    pairs = min(pairs, d // 2)
    bin_width = 2.0 * math.pi / (samples * dt)
    grid = np.arange(8, samples // 2 - 8, 16)
    bins = rng.choice(grid, size=pairs, replace=False)
    levels = rng.choice(d // 2, size=pairs, replace=False)
    energies = rng.uniform(0.0, 20.0, d)
    pops = rng.uniform(0.5, 1.5, d)
    pops /= pops.sum()
    rho0 = np.diag(pops).astype(complex)
    c = 0.5 * min(math.sqrt(pops[2 * j] * pops[2 * j + 1]) for j in levels)
    for j, b in zip(levels, bins):
        energies[2 * j + 1] = energies[2 * j] + b * bin_width
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rho0[2 * j, 2 * j + 1] = c * phase
        rho0[2 * j + 1, 2 * j] = c * np.conj(phase)
    freqs = [float(b) * bin_width for b in sorted(bins)]
    return {"energies": energies.tolist(), "rho0_re": rho0.real.tolist(),
            "rho0_im": rho0.imag.tolist(), "dt": dt, "samples": samples,
            "expected": freqs}


def operators(rng, work: str, size: dict) -> list[Step]:
    steps = []
    b = float(rng.uniform(0.5, 2.0))
    dim_m = size["magnetic_dim"]
    out_m = os.path.join(work, "algebra_magnetic.json")
    steps.append(Step(
        "algebra-magnetic",
        {"kind": "cli", "argv": ["algebra", "--kind", "magnetic", "--dim", str(dim_m),
                                 "--B", _g(b), "--out", out_m]},
        [out_m], [],
        lambda so, f, o=out_m, n=dim_m, l2=1.0 / b: ref.check_algebra(f[o], "magnetic", n, l2),
    ))
    r, mass, hbar = (float(v) for v in rng.uniform(0.2, 2.0, 3))
    dim_d = size["dissipative_dim"]
    out_d = os.path.join(work, "algebra_dissipative.json")
    steps.append(Step(
        "algebra-dissipative",
        {"kind": "cli", "argv": ["algebra", "--kind", "dissipative", "--dim", str(dim_d),
                                 "--R", _g(r), "--mass", _g(mass), "--hbar", _g(hbar),
                                 "--out", out_d]},
        [out_d], [],
        lambda so, f, o=out_d, n=dim_d, l2=hbar / r: ref.check_algebra(f[o], "dissipative", n, l2),
    ))
    length = float(rng.uniform(0.5, 2.0))
    dim_s = size["spectrum_dim"]
    out_s = os.path.join(work, "spectrum.csv")
    steps.append(Step(
        "spectrum-distance",
        {"kind": "cli", "argv": ["spectrum", "--kind", "distance", "--L", _g(length),
                                 "--dim", str(dim_s), "--out", out_s]},
        [out_s], [],
        lambda so, f, o=out_s, n=dim_s, ln=length: ref.check_distance_spectrum(f[o], ln, n),
    ))
    case = density_case(rng, size["density_d"], size["density_samples"])
    steps.append(Step("density", {"kind": "lib", "name": "density", **case}))
    return steps


def run_density(dd, case: dict):
    """The "density" lib step: sample evolve_density, then bohr_frequencies.

    dd is the ncplane.dissipative_dynamics module; functions are looked up
    on it at call time so a traced pass sees its wrappers."""
    energies = np.asarray(case["energies"])
    rho0 = np.asarray(case["rho0_re"]) + 1j * np.asarray(case["rho0_im"])
    dt = case["dt"]
    rhos = [dd.evolve_density(energies, rho0, k * dt) for k in range(case["samples"])]
    freqs = dd.bohr_frequencies(rhos, dt)
    return rhos, freqs


def check_density_step(case: dict, rhos, freqs) -> ref.Check:
    energies = np.asarray(case["energies"])
    rho0 = np.asarray(case["rho0_re"]) + 1j * np.asarray(case["rho0_im"])
    times = np.arange(case["samples"]) * case["dt"]
    chk = ref.check_density(rhos, energies, rho0, times)
    chk.merge(ref.check_bohr(freqs, case["expected"]))
    return chk


# -------------------------------------------------------------------- film

def star_polygon(rng, n: int, center, radius: float) -> np.ndarray:
    """Counter-clockwise simple polygon r(theta) = radius (1 + sum a_j cos(j theta + p_j))
    with sum |a_j| < 1/2, so it is star-shaped about its centre."""
    theta = 2.0 * math.pi * np.arange(n) / n
    amps = rng.uniform(-0.12, 0.12, 3)
    phases = rng.uniform(0.0, 2.0 * math.pi, 3)
    r = radius * (1.0 + sum(a * np.cos((j + 2) * theta + p)
                            for j, (a, p) in enumerate(zip(amps, phases))))
    return np.column_stack([center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)])


def _scene_check(out: str, poly, atoms, sigma: int):
    """atoms_inside against the even-odd count (made once), and 2 pi sigma N."""
    cache = {}

    def check(stdout: str, files: dict) -> ref.Check:
        chk = ref.Check()
        rep = json.loads(files[out])
        if "inside" not in cache:
            cache["inside"] = ref.even_odd_inside(atoms, poly)
        ref.check_count("atoms_inside", rep.get("atoms_inside"), *cache["inside"], chk)
        chk.require("sigma", rep.get("sigma") == sigma)
        if chk.errors:
            return chk
        phase = 2.0 * math.pi * sigma * rep["atoms_inside"]
        chk.compare("winding_phase", rep["winding_phase"], phase, max(abs(phase), 1.0),
                    ref.EXACT_TOL)
        return chk
    return check


def _vortex_check(out: str, poly, atoms, sigma: int, density: float):
    """The scene check plus the core (inside a CCW loop) and the film scale."""
    scene = _scene_check(out, poly, atoms, sigma)

    def check(stdout: str, files: dict) -> ref.Check:
        chk = scene(stdout, files)
        rep = json.loads(files[out])
        chk.require("atoms", rep.get("atoms") == len(atoms), repr(rep.get("atoms")))
        chk.require("core_winding", rep.get("core_winding") == 1, repr(rep.get("core_winding")))
        chk.require("core_inside", rep.get("core_inside") is True)
        chk.compare("circulation", rep.get("circulation", math.nan), 2.0 * math.pi * sigma,
                    2.0 * math.pi, ref.EXACT_TOL)
        ls = math.sqrt(1.0 / (2.0 * math.pi * density))
        chk.compare("length_scale", rep.get("length_scale", math.nan), ls, ls, ref.EXACT_TOL)
        return chk
    return check


def _loop_check(out: str, keys: tuple, value: float):
    def check(stdout: str, files: dict) -> ref.Check:
        chk = ref.Check()
        rep = json.loads(files[out])
        for key in keys:
            chk.compare(key, rep.get(key, math.nan), value, abs(value), ref.EXACT_TOL)
        if len(keys) > 1:
            chk.compare("difference", rep.get("difference", math.nan), 0.0, abs(value),
                        ref.EXACT_TOL)
        return chk
    return check


def film(rng, work: str, size: dict) -> list[Step]:
    steps = []
    # vortex: seeded scatter inside the CLI, many atoms, few edges
    n_atoms = size["scatter_atoms"]
    region = [-1.5, -1.5, 1.5, 1.5]
    density = n_atoms / 9.0
    scatter_seed = int(rng.integers(0, 2 ** 31 - 1))
    sigma = int(rng.choice([-1, 1]))
    center = rng.uniform(-0.2, 0.2, 2)
    poly = star_polygon(rng, size["scatter_vertices"], center, 1.0)
    core = center + rng.uniform(-0.05, 0.05, 2)
    cfg_path = _write_json(os.path.join(work, "vortex.json"), {
        "schema_version": 1,
        "scene": {"core_loop": poly.tolist(), "atoms": [], "sigma": sigma},
        "scatter": {"density": density, "seed": scatter_seed, "region": region},
    })
    atoms = np.random.default_rng(scatter_seed).uniform(region[:2], region[2:],
                                                        size=(n_atoms, 2))
    out_v = os.path.join(work, "vortex_out.json")
    steps.append(Step(
        "vortex-scatter",
        {"kind": "cli", "argv": ["vortex", "--config", cfg_path,
                                 f"--core={_g(core[0])},{_g(core[1])}", "--out", out_v]},
        [out_v], [cfg_path], _vortex_check(out_v, poly, atoms, sigma, density),
    ))
    # phase --scene: few atoms, many edges
    sigma2 = int(rng.choice([-1, 1]))
    poly2 = star_polygon(rng, size["scene_vertices"], rng.uniform(-0.2, 0.2, 2), 1.0)
    atoms2 = rng.uniform(-1.5, 1.5, size=(size["scene_atoms"], 2))
    scene_path = _write_json(os.path.join(work, "scene.json"), {
        "core_loop": poly2.tolist(), "atoms": atoms2.tolist(), "sigma": sigma2})
    out_p = os.path.join(work, "scene_out.json")
    steps.append(Step(
        "phase-scene",
        {"kind": "cli", "argv": ["phase", "--scene", scene_path, "--out", out_p]},
        [out_p], [scene_path], _scene_check(out_p, poly2, atoms2, sigma2),
    ))
    # phase --loop: a 2e5-vertex polygon inscribed in an ellipse
    n = size["loop_vertices"]
    a, b = rng.uniform(0.8, 1.5), rng.uniform(0.4, 1.0)
    cx, cy, rot = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0, math.pi)
    theta = 2.0 * math.pi * np.arange(n) / n
    ex, ey = a * np.cos(theta), b * np.sin(theta)
    xs = cx + ex * math.cos(rot) - ey * math.sin(rot)
    ys = cy + ex * math.sin(rot) + ey * math.cos(rot)
    loop_path = os.path.join(work, "loop.csv")
    _write_vertices(loop_path, xs, ys)
    area = ref.ellipse_area(n, a, b)
    length = float(rng.uniform(0.3, 1.5))
    out_l = os.path.join(work, "loop_out.json")
    steps.append(Step(
        "phase-loop",
        {"kind": "cli", "argv": ["phase", "--loop", loop_path, "--L", _g(length), "--out", out_l]},
        [out_l], [loop_path],
        _loop_check(out_l, ("phase_area", "phase_action"), area / length ** 2),
    ))
    field_b = float(rng.uniform(0.5, 3.0))
    out_ab = os.path.join(work, "loop_ab_out.json")
    steps.append(Step(
        "phase-ab",
        {"kind": "cli", "argv": ["phase", "--loop", loop_path, "--ab", "--B", _g(field_b),
                                 "--out", out_ab]},
        [out_ab], [loop_path],
        _loop_check(out_ab, ("phase_ab", "phase_area"), field_b * area),
    ))
    # phase --path1/--path2: the same polygon cut at vertices 0 and n/2 into
    # two branches; branch 1 forward then branch 2 backward is the loop
    # counter-clockwise, whose action sum(p dq) is -area
    hbar = float(rng.uniform(0.5, 2.0))
    half = n // 2
    path1, path2 = os.path.join(work, "path1.csv"), os.path.join(work, "path2.csv")
    _write_vertices(path1, xs[: half + 1], ys[: half + 1], indexed=True)
    back = np.r_[0, np.arange(n - 1, half - 1, -1)]
    _write_vertices(path2, xs[back], ys[back], indexed=True)
    out_pa = os.path.join(work, "paths_out.json")
    steps.append(Step(
        "phase-paths",
        {"kind": "cli", "argv": ["phase", "--path1", path1, "--path2", path2,
                                 "--hbar", _g(hbar), "--out", out_pa]},
        [out_pa], [path1, path2],
        _loop_check(out_pa, ("phase_action",), -area / hbar),
    ))
    return steps


def _write_vertices(path: str, xs, ys, indexed: bool = False) -> None:
    """Vertex CSV with a header: (x, y) columns, or (index, q, p) when indexed."""
    rows = zip(xs.tolist(), ys.tolist())
    with open(path, "w") as fh:
        if indexed:
            fh.write("index,q,p\n")
            fh.writelines(f"{k},{x!r},{y!r}\n" for k, (x, y) in enumerate(rows))
        else:
            fh.write("x,y\n")
            fh.writelines(f"{x!r},{y!r}\n" for x, y in rows)


GENERATORS = {
    "evolve-long": evolve_long,
    "evolve-sweep": evolve_sweep,
    "operators": operators,
    "film": film,
}


def build(name: str, seed: int, work: str, size: str = "full") -> list[Step]:
    """Generate the inputs of one workload for one seed into work."""
    rng = np.random.default_rng([seed, list(GENERATORS).index(name)])
    return GENERATORS[name](rng, work, SIZES[size])


def check_step(step: Step, stdout: str) -> ref.Check:
    """Run a cli step's reference check on its stdout and --out files."""
    try:
        files = {path: _read(path) for path in step.outputs}
    except OSError as exc:
        chk = ref.Check()
        chk.require(f"{step.label} output", False, str(exc))
        return chk
    try:
        return step.check(stdout, files)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        chk = ref.Check()
        chk.require(f"{step.label} output unreadable", False, f"{type(exc).__name__}: {exc}")
        return chk
