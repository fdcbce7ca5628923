"""Command-line front end: spectrum, evolve, phase, algebra, vortex.

Results go to stdout (or --out FILE); diagnostics go to stderr only.
Exit codes: 0 success, 2 config error, 3 I/O error, 4 diverged trajectory.
CSV output carries 17 significant digits per value.  JSON config files
must carry "schema_version": 1; identical configs produce byte-identical
output (statistical vortex scenes require an explicit scatter seed).

Config/flag cheat sheet (flags override config keys):

  spectrum  --kind distance --L 1.0 --dim 4
  spectrum  --kind landau --hbar 1.0 --omega-c 1.0 --n-max 2
  evolve    --config run.json            # params/initial/dt/steps[/canonical]
  phase     --loop loop.csv --L 0.5      # area + action routes
  phase     --path1 a.csv --path2 b.csv  # action route only
  phase     --loop loop.csv --ab --B 1.0 # flux route + area route
  phase     --scene scene.json           # vortex winding route
  algebra   --kind magnetic --dim 6 --B 2.0
  vortex    --scene scene.json --core 0.2,0.3
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import warnings

import numpy as np

from .dissipative_dynamics import (
    DissipativeParams,
    DivergenceError,
    Potential,
    TwoCoordState,
    canonical_coords,
    hamiltonian_value,
    hyperbolic_evolve,
    integrate_array,
    integrate_trajectory,  # noqa: F401  (bench/tracing.py patches it in this namespace too)
    kappa_commutator_check,
    orbit_invariant,
)
from .landau import (
    MagneticParams,
    aharonov_bohm_phase,
    cyclotron_algebra,
    landau_spectrum,
    magnetic_length,
)
from .operator_core import NcParams, distance_spectrum
from .phase_geometry import interference_phase_action, interference_phase_area, loop_action_phase
from .vortex_film import (
    circulation_integral,
    count_phase,
    film_length_scale,
    points_in_polygon,
    scene_from_dict,
    winding_number,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4

SCHEMA_VERSION = 1
CSV_BLOCK_ROWS = 4096
EVOLVE_HEADER = {
    False: "t,x_plus,x_minus,v_plus,v_minus,hamiltonian",
    True: "t,x_plus,x_minus,v_plus,v_minus,xi_plus,xi_minus,X_plus,X_minus,hamiltonian,"
          "orbit_invariant",
}


class ConfigError(ValueError):
    """Invalid configuration; mapped to exit code 2."""


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _emit_csv(header: str, table: np.ndarray, out_path: str | None) -> None:
    """Header line, then one row of %.17g values per table row.

    Rows are formatted CSV_BLOCK_ROWS at a time by one %-format each;
    "%.17g" % x gives the bytes of format(x, ".17g").
    """
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with (contextlib.nullcontext(sys.stdout) if out_path is None
          else open(out_path, "w", newline="")) as fh:
        fh.write(header + "\n")
        for lo in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[lo:lo + CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True) + "\n", out_path)


def _load_json(path: str):
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _load_config(path: str) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config {path} must set \"schema_version\": {SCHEMA_VERSION}, got {version!r}"
        )
    return data


def _csv_values(line: str) -> list[float] | None:
    try:
        return [float(c) for c in line.split(",")]
    except ValueError:
        return None


def _read_path_csv(path: str) -> np.ndarray:
    """Vertex CSV: columns (q, p) / (x, y), or (index, q, p); optional header.

    A first non-blank line that is not all numbers is a header.  Every row
    has the width of the first row, 2 or 3 columns; blank lines are skipped.
    The body goes through numpy's C parser in one call; a file that parser
    rejects is read again line by line, which names the offending line
    (or, when only whitespace-only lines were in the way, reads the rows).
    """
    with open(path) as fh:
        for skip, line in enumerate(fh):
            if line.strip():
                break
        else:
            raise ConfigError(f"{path}: no vertex rows found")
    if _csv_values(line) is None:
        skip += 1  # header row
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a header-only file warns "no data"
            rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=skip)
    except ValueError:
        rows = None
    if rows is None or rows.shape[0] == 0 or rows.shape[1] not in (2, 3):
        rows = _scan_path_csv(path, skip)
    return np.ascontiguousarray(rows[:, -2:])


def _scan_path_csv(path: str, skip: int) -> np.ndarray:
    """Line-by-line read of a vertex CSV body after its first skip lines."""
    rows: list[list[float]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno <= skip or not line.strip():
                continue
            values = _csv_values(line)
            if values is None:
                raise ConfigError(f"{path}:{lineno}: non-numeric row {line.strip()!r}")
            if not rows:
                first = lineno
                if len(values) not in (2, 3):
                    raise ConfigError(
                        f"{path}:{lineno}: expected 2 or 3 columns, got {len(values)}"
                    )
            elif len(values) != len(rows[0]):
                raise ConfigError(
                    f"{path}:{lineno}: expected {len(rows[0])} columns as on line {first}, "
                    f"got {len(values)} in {line.strip()!r}"
                )
            rows.append(values)
    if not rows:
        raise ConfigError(f"{path}: no vertex rows found")
    return np.asarray(rows, dtype=float)


def _pick(flag, cfg: dict, key: str, default=None):
    if flag is not None:
        return flag
    if key in cfg and cfg[key] is not None:
        return cfg[key]
    return default


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"missing required setting: {what}")
    return value


def _number(value, key: str) -> float:
    """A numeric setting as a float; JSON booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config \"{key}\" must be a number, got {value!r}")
    return float(value)


def _potential_from(node) -> Potential:
    if node is None:
        return Potential.free()
    if isinstance(node, Potential):
        return node
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"potential must be an object with a \"kind\" key, got {node!r}")
    kind = node["kind"]
    if kind == "free":
        return Potential.free()
    if kind == "harmonic":
        if "k" not in node:
            raise ConfigError("harmonic potential needs a stiffness \"k\"")
        return Potential.harmonic(_number(node["k"], "params.potential.k"))
    if kind == "polynomial":
        coeffs = node.get("coeffs")
        if not isinstance(coeffs, list):
            raise ConfigError(f"polynomial potential needs a \"coeffs\" list, got {coeffs!r}")
        return Potential.polynomial(
            [_number(c, f"params.potential.coeffs[{i}]") for i, c in enumerate(coeffs)]
        )
    raise ConfigError(f"unknown potential kind {kind!r} (free, harmonic, polynomial)")


# ----------------------------------------------------------------- spectrum

def run_spectrum(args) -> int:
    if args.kind == "distance":
        length = _require(args.L, "--L (length scale)")
        dim = _require(args.dim, "--dim")
        params = NcParams(L=length, hbar=args.hbar)
        values = distance_spectrum(params, dim)
    else:
        n_max = _require(args.n_max, "--n-max")
        if args.omega_c is not None and args.B is not None:
            raise ConfigError("give either --omega-c or --B, not both")
        if args.omega_c is not None:
            # with e = c = M = 1 the field strength equals the cyclotron frequency
            params = MagneticParams(B=args.omega_c, e=1.0, c=1.0, M=1.0, hbar=args.hbar)
        elif args.B is not None:
            params = MagneticParams(
                B=args.B, e=args.charge, c=args.light_speed, M=args.mass, hbar=args.hbar
            )
        else:
            raise ConfigError("landau spectrum needs --omega-c or --B")
        values = landau_spectrum(params, n_max)

    if args.format == "json":
        _emit_json({"kind": args.kind, "values": [float(v) for v in values]}, args.out)
    else:
        values = np.asarray(values, dtype=float)
        _emit_csv("n,value", np.column_stack((np.arange(len(values)), values)), args.out)
    return EXIT_OK


# ------------------------------------------------------------------- evolve

def _evolve_summary(traj, params, h, xi, dt: float) -> dict:
    """Run summary from the trajectory's columns; xi is None without
    canonical columns."""
    steps = len(traj) - 1
    summary = {
        "dt": dt,
        "steps": steps,
        "gamma_t_total": params.gamma * dt * steps,
        "max_hamiltonian_drift": float(np.abs(h - h[0]).max()) / max(1.0, abs(float(h[0]))),
    }
    if xi is not None:
        inv = orbit_invariant(xi)
        inv0 = float(inv[0])
        summary["max_orbit_invariant_drift"] = (
            float(np.abs(inv - inv0).max()) / max(1.0, abs(inv0))
        )
        if params.potential.kind == "free":
            closed = hyperbolic_evolve(xi[0], params.gamma, traj[:, 0] - traj[0, 0])
            scale = np.maximum(1.0, np.abs(closed).max(axis=1))
            summary["hyperbolic_max_deviation"] = float(
                (np.abs(xi - closed).max(axis=1) / scale).max()
            )

    _, xp, xm, vp, vm = traj.T
    diagonal = abs(xp[0] - xm[0]) <= 1e-12 and abs(vp[0] - vm[0]) <= 1e-12
    if diagonal and steps >= 2:
        x = 0.5 * (xp + xm)
        acc = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / dt**2
        vel = (x[2:] - x[:-2]) / (2.0 * dt)
        du = params.potential.derivative(x[1:-1])
        summary["classical_residual"] = float(
            np.abs(params.M * acc + params.R * vel + du).max()
        )
        summary["max_diagonal_split"] = float(np.abs(xp - xm).max())
    return summary


def run_evolve(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    pcfg = cfg.get("params", {})
    if not isinstance(pcfg, dict):
        raise ConfigError("config \"params\" must be an object")
    m = _number(_require(_pick(args.M, pcfg, "M"), "M (mass)"), "params.M")
    r = _number(_require(_pick(args.R, pcfg, "R"), "R (friction)"), "params.R")
    hbar = _number(_pick(args.hbar, pcfg, "hbar", 1.0), "params.hbar")

    if args.potential is not None:
        if args.potential == "free":
            potential = Potential.free()
        elif args.potential == "harmonic":
            potential = Potential.harmonic(_require(args.k, "--k (harmonic stiffness)"))
        else:
            coeffs = _require(args.coeffs, "--coeffs c0,c1,...")
            try:
                potential = Potential.polynomial([float(c) for c in coeffs.split(",")])
            except ValueError as exc:
                raise ConfigError(f"bad --coeffs {coeffs!r}: {exc}") from exc
    else:
        potential = _potential_from(pcfg.get("potential"))
    params = DissipativeParams(M=m, R=r, hbar=hbar, potential=potential)

    icfg = cfg.get("initial", {})
    if not isinstance(icfg, dict):
        raise ConfigError("config \"initial\" must be an object")
    initial = TwoCoordState(
        x_plus=_number(_pick(args.x_plus, icfg, "x_plus", 0.0), "initial.x_plus"),
        x_minus=_number(_pick(args.x_minus, icfg, "x_minus", 0.0), "initial.x_minus"),
        v_plus=_number(_pick(args.v_plus, icfg, "v_plus", 0.0), "initial.v_plus"),
        v_minus=_number(_pick(args.v_minus, icfg, "v_minus", 0.0), "initial.v_minus"),
        t=_number(_pick(None, icfg, "t", 0.0), "initial.t"),
    )
    dt = _number(_require(_pick(args.dt, cfg, "dt"), "dt"), "dt")
    steps = _require(_pick(args.steps, cfg, "steps"), "steps")
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise ConfigError(f"config \"steps\" must be an integer, got {steps!r}")

    canonical = args.canonical if args.canonical is not None else cfg.get("canonical")
    if canonical is not None and not isinstance(canonical, bool):
        raise ConfigError(f"config \"canonical\" must be true or false, got {canonical!r}")
    if canonical and params.R == 0:
        raise ConfigError("canonical coordinates require R > 0, but the run has R = 0")
    want_canonical = (params.R > 0) if canonical is None else bool(canonical)
    out = _pick(args.out, cfg, "out")

    traj = integrate_array(initial, params, dt, steps)
    h = hamiltonian_value(traj, params)
    xi = None
    if want_canonical:
        cc = canonical_coords(traj, params)
        xi = np.column_stack(cc.xi)
        columns = (traj, xi, cc.X_plus, cc.X_minus, h, orbit_invariant(xi))
    else:
        columns = (traj, h)
    _emit_csv(EVOLVE_HEADER[want_canonical], np.column_stack(columns), out)
    summary = _evolve_summary(traj, params, h, xi, dt)
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK


# -------------------------------------------------------------------- phase

def _loop_from(args, cfg: dict):
    if args.loop is not None:
        return _read_path_csv(args.loop)
    if cfg.get("loop_csv") is not None:
        return _read_path_csv(cfg["loop_csv"])
    if cfg.get("loop") is not None:
        return np.asarray(cfg["loop"], dtype=float)
    return None


def run_phase(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    out = _pick(args.out, cfg, "out")
    hbar = _number(_pick(args.hbar, cfg, "hbar", 1.0), "hbar")

    scene_data = None
    if args.scene is not None:
        scene_data = _load_json(args.scene)
    elif cfg.get("scene_json") is not None:
        scene_data = _load_json(cfg["scene_json"])
    elif cfg.get("scene") is not None:
        scene_data = cfg["scene"]

    p1 = args.path1 or cfg.get("path1_csv")
    p2 = args.path2 or cfg.get("path2_csv")
    loop = _loop_from(args, cfg)

    modes = sum(x is not None for x in (scene_data, p1, loop))
    if modes == 0:
        raise ConfigError("phase needs one of: --loop, --path1/--path2, --scene")
    if modes > 1:
        raise ConfigError("phase modes are mutually exclusive: give one of loop/paths/scene")

    if scene_data is not None:
        scene = scene_from_dict(scene_data)
        inside = int(np.count_nonzero(points_in_polygon(scene.atoms, scene.core_loop)))
        phase = count_phase(scene.sigma, inside)
        _emit_json({"winding_phase": phase, "atoms_inside": inside, "sigma": scene.sigma}, out)
        return EXIT_OK

    if p1 is not None or p2 is not None:
        if p1 is None or p2 is None:
            raise ConfigError("action route needs both --path1 and --path2")
        path1 = _read_path_csv(p1)
        path2 = _read_path_csv(p2)
        phase = interference_phase_action(path1, path2, hbar)
        _emit_json({"phase_action": phase}, out)
        return EXIT_OK

    use_ab = bool(args.ab or cfg.get("ab") or cfg.get("magnetic"))
    if use_ab:
        mcfg = cfg.get("magnetic", {})
        if not isinstance(mcfg, dict):
            raise ConfigError("config \"magnetic\" must be an object")
        mp = MagneticParams(
            B=_number(_require(_pick(args.B, mcfg, "B"), "B (field strength)"), "magnetic.B"),
            e=_number(_pick(args.charge, mcfg, "e", 1.0), "magnetic.e"),
            c=_number(_pick(args.light_speed, mcfg, "c", 1.0), "magnetic.c"),
            M=_number(_pick(args.mass, mcfg, "M", 1.0), "magnetic.M"),
            hbar=_number(_pick(args.hbar, mcfg, "hbar", 1.0), "magnetic.hbar"),
        )
        phase_ab = aharonov_bohm_phase(mp, loop)
        area_params = NcParams(L=magnetic_length(mp), hbar=mp.hbar)
        phase_area = interference_phase_area(loop, area_params)
        _emit_json(
            {
                "phase_ab": phase_ab,
                "phase_area": phase_area,
                "difference": phase_ab - phase_area,
            },
            out,
        )
        return EXIT_OK

    length = _number(_require(_pick(args.L, cfg, "L"), "--L (length scale)"), "L")
    params = NcParams(L=length, hbar=hbar)
    phase_area = interference_phase_area(loop, params)
    phase_action = loop_action_phase(loop, params)
    _emit_json(
        {
            "phase_area": phase_area,
            "phase_action": phase_action,
            "difference": phase_area - phase_action,
        },
        out,
    )
    return EXIT_OK


# ------------------------------------------------------------------ algebra

def _complex_table(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def run_algebra(args) -> int:
    dim = _require(args.dim, "--dim")
    if args.kind == "magnetic":
        params = MagneticParams(
            B=args.B if args.B is not None else 1.0,
            e=args.charge, c=args.light_speed, M=args.mass, hbar=args.hbar,
        )
        report = cyclotron_algebra(params, dim)
        l2 = params.L2
    else:
        if args.R is None or args.R <= 0:
            raise ConfigError("dissipative algebra needs --R > 0")
        params = DissipativeParams(M=args.mass, R=args.R, hbar=args.hbar)
        report = kappa_commutator_check(params, dim)
        l2 = params.L2
    _emit_json(
        {
            "kind": args.kind,
            "dim": report.dim,
            "length_scale_sq": l2,
            "labels": list(report.labels),
            "table": _complex_table(report.leading),
            "artifact": _complex_table(report.artifact),
            "max_clean_deviation": report.max_clean_deviation(),
        },
        args.out,
    )
    return EXIT_OK


# ------------------------------------------------------------------- vortex

def _parse_core(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--core must be \"x,y\", got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"--core must be \"x,y\" with numeric parts, got {text!r}") from exc


def run_vortex(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    out = _pick(args.out, cfg, "out")

    if args.scene is not None:
        raw = _load_json(args.scene)
    elif cfg.get("scene_json") is not None:
        raw = _load_json(cfg["scene_json"])
    elif cfg.get("scene") is not None:
        raw = cfg["scene"]
    else:
        raise ConfigError("vortex needs --scene FILE or a config with \"scene\"/\"scene_json\"")
    if not isinstance(raw, dict):
        raise ConfigError("scene must be a JSON object")

    scatter = cfg.get("scatter")
    if scatter is not None:
        if not isinstance(scatter, dict):
            raise ConfigError("config \"scatter\" must be an object")
        if np.asarray(raw.get("atoms", []), dtype=float).size:
            raise ConfigError("scatter and explicit scene atoms are mutually exclusive")
        key = "scatter.density" if "density" in scatter else "scene.density"
        density = scatter.get("density", raw.get("density"))
        if density is None:
            raise ConfigError("scatter needs a density (in scatter or scene)")
        density = _number(density, key)
        if "seed" not in scatter:
            raise ConfigError("scatter needs an integer \"seed\" for reproducibility")
        seed = scatter["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"config \"scatter.seed\" must be an integer, got {seed!r}")
        region = scatter.get("region")
        if not (isinstance(region, (list, tuple)) and len(region) == 4):
            raise ConfigError("scatter needs \"region\": [x0, y0, x1, y1]")
        x0, y0, x1, y1 = (_number(v, f"scatter.region[{i}]") for i, v in enumerate(region))
        if not (x1 > x0 and y1 > y0):
            raise ConfigError(f"degenerate scatter region {region}")
        area = (x1 - x0) * (y1 - y0)
        count = int(round(density * area))
        rng = np.random.default_rng(seed)
        raw = dict(raw)
        raw["atoms"] = rng.uniform((x0, y0), (x1, y1), size=(count, 2))
        raw.setdefault("density", density)

    scene = scene_from_dict(raw)
    inside = int(np.count_nonzero(points_in_polygon(scene.atoms, scene.core_loop)))
    report = {
        "sigma": scene.sigma,
        "atoms": int(scene.atoms.shape[0]),
        "atoms_inside": inside,
        "winding_phase": count_phase(scene.sigma, inside),
    }
    if scene.density is not None:
        report["length_scale"] = film_length_scale(scene.density)
    core = args.core if args.core is not None else cfg.get("core")
    if core is not None:
        if isinstance(core, str):
            cx, cy = _parse_core(core)
        else:
            if not (isinstance(core, (list, tuple)) and len(core) == 2):
                raise ConfigError(f"config \"core\" must be [x, y], got {core!r}")
            cx, cy = _number(core[0], "core[0]"), _number(core[1], "core[1]")
        core_winding = winding_number((cx, cy), scene.core_loop)
        report["core_winding"] = core_winding
        report["circulation"] = circulation_integral((cx, cy), scene.core_loop, scene.sigma)
        report["core_inside"] = core_winding != 0
    _emit_json(report, out)
    return EXIT_OK


# ------------------------------------------------------------------- parser

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="ncplane",
        description="Noncommutative-plane toolkit: spectra, trajectories, phases, "
        "bracket tables, vortex winding counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="distance or Landau level spectra")
    sp.add_argument("--kind", choices=("distance", "landau"), required=True)
    sp.add_argument("--L", type=float, help="length scale (distance spectrum)")
    sp.add_argument("--dim", type=int, help="truncation dimension (distance spectrum)")
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--omega-c", dest="omega_c", type=float, help="cyclotron frequency")
    sp.add_argument("--B", type=float, help="field strength (alternative to --omega-c)")
    sp.add_argument("--charge", type=float, default=1.0)
    sp.add_argument("--light-speed", dest="light_speed", type=float, default=1.0)
    sp.add_argument("--mass", type=float, default=1.0)
    sp.add_argument("--n-max", dest="n_max", type=int, help="highest level index")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.set_defaults(func=run_spectrum)

    ev = sub.add_parser("evolve", help="integrate the doubled-coordinate dynamics")
    ev.add_argument("--config", help="JSON config file (schema_version 1)")
    ev.add_argument("--M", type=float, help="mass")
    ev.add_argument("--R", type=float, help="friction constant (0 allowed)")
    ev.add_argument("--hbar", type=float)
    ev.add_argument("--potential", choices=("free", "harmonic", "polynomial"))
    ev.add_argument("--k", type=float, help="harmonic stiffness")
    ev.add_argument("--coeffs", help="polynomial coefficients c0,c1,...")
    ev.add_argument("--x-plus", dest="x_plus", type=float)
    ev.add_argument("--x-minus", dest="x_minus", type=float)
    ev.add_argument("--v-plus", dest="v_plus", type=float)
    ev.add_argument("--v-minus", dest="v_minus", type=float)
    ev.add_argument("--dt", type=float)
    ev.add_argument("--steps", type=int)
    ev.add_argument(
        "--canonical",
        action="store_true",
        default=None,
        help="include xi/X/orbit-invariant columns (requires R > 0)",
    )
    ev.add_argument("--out", help="trajectory CSV file (default: stdout)")
    ev.set_defaults(func=run_evolve)

    ph = sub.add_parser("phase", help="interference phases by area, action, flux, or winding")
    ph.add_argument("--config", help="JSON config file (schema_version 1)")
    ph.add_argument("--loop", help="loop vertex CSV")
    ph.add_argument("--L", type=float, help="length scale for the area route")
    ph.add_argument("--hbar", type=float)
    ph.add_argument("--path1", help="phase-space path CSV (action route)")
    ph.add_argument("--path2", help="phase-space path CSV (action route)")
    ph.add_argument("--ab", action="store_true", help="flux route: use field parameters")
    ph.add_argument("--B", type=float, help="field strength (flux route)")
    ph.add_argument("--charge", type=float)
    ph.add_argument("--light-speed", dest="light_speed", type=float)
    ph.add_argument("--mass", type=float)
    ph.add_argument("--scene", help="vortex scene JSON (winding route)")
    ph.add_argument("--out")
    ph.set_defaults(func=run_phase)

    al = sub.add_parser("algebra", help="pairwise commutator tables")
    al.add_argument("--kind", choices=("magnetic", "dissipative"), required=True)
    al.add_argument("--dim", type=int, help="single-factor truncation dimension")
    al.add_argument("--B", type=float, help="field strength (magnetic)")
    al.add_argument("--charge", type=float, default=1.0)
    al.add_argument("--light-speed", dest="light_speed", type=float, default=1.0)
    al.add_argument("--mass", type=float, default=1.0)
    al.add_argument("--R", type=float, help="friction constant (dissipative)")
    al.add_argument("--hbar", type=float, default=1.0)
    al.add_argument("--out")
    al.set_defaults(func=run_algebra)

    vx = sub.add_parser("vortex", help="winding phase and circulation for a vortex scene")
    vx.add_argument("--config", help="JSON config file (schema_version 1)")
    vx.add_argument("--scene", help="scene JSON file")
    vx.add_argument("--core", help="vortex position \"x,y\" for circulation")
    vx.add_argument("--out")
    vx.set_defaults(func=run_vortex)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
