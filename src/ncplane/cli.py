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
import json
import sys

import numpy as np

from .dissipative_dynamics import (
    DissipativeParams,
    DivergenceError,
    Potential,
    TwoCoordState,
    canonical_coords,
    hamiltonian_value,
    hyperbolic_evolve,
    integrate_trajectory,
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
    point_in_polygon,
    points_in_polygon,
    scene_from_dict,
    winding_number,
    winding_phase,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; mapped to exit code 2."""


def _g17(x) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


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


def _read_path_csv(path: str) -> np.ndarray:
    """Vertex CSV: columns (q, p) / (x, y), or (index, q, p); optional header."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    rows = []
    for k, line in enumerate(lines):
        cells = [c.strip() for c in line.split(",")]
        try:
            values = [float(c) for c in cells]
        except ValueError:
            if k == 0:
                continue  # header row
            raise ConfigError(f"{path}:{k + 1}: non-numeric row {line!r}")
        if len(values) == 2:
            rows.append(values)
        elif len(values) == 3:
            rows.append(values[1:])
        else:
            raise ConfigError(f"{path}:{k + 1}: expected 2 or 3 columns, got {len(values)}")
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
        return Potential.harmonic(float(node["k"]))
    if kind == "polynomial":
        if "coeffs" not in node:
            raise ConfigError("polynomial potential needs a \"coeffs\" list")
        return Potential.polynomial(node["coeffs"])
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
        lines = ["n,value"]
        lines += [f"{n},{_g17(v)}" for n, v in enumerate(values)]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ------------------------------------------------------------------- evolve

def _evolve_summary(states, params, want_canonical: bool, dt: float) -> dict:
    h0 = hamiltonian_value(states[0], params)
    h_scale = max(1.0, abs(h0))
    max_h_drift = max(abs(hamiltonian_value(s, params) - h0) for s in states) / h_scale
    summary = {
        "dt": dt,
        "steps": len(states) - 1,
        "gamma_t_total": params.gamma * dt * (len(states) - 1),
        "max_hamiltonian_drift": max_h_drift,
    }
    if want_canonical:
        xi_series = [canonical_coords(s, params).xi for s in states]
        inv0 = orbit_invariant(xi_series[0])
        inv_scale = max(1.0, abs(inv0))
        summary["max_orbit_invariant_drift"] = max(
            abs(orbit_invariant(xi) - inv0) for xi in xi_series
        ) / inv_scale
        if params.potential.kind == "free":
            t0 = states[0].t
            dev = 0.0
            for s, xi in zip(states, xi_series):
                closed = hyperbolic_evolve(xi_series[0], params.gamma, s.t - t0)
                scale = max(1.0, float(np.abs(closed).max()))
                dev = max(dev, float(np.abs(np.asarray(xi) - closed).max()) / scale)
            summary["hyperbolic_max_deviation"] = dev

    s0 = states[0]
    diagonal = abs(s0.x_plus - s0.x_minus) <= 1e-12 and abs(s0.v_plus - s0.v_minus) <= 1e-12
    if diagonal and len(states) >= 3:
        x = np.array([0.5 * (s.x_plus + s.x_minus) for s in states])
        acc = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / dt**2
        vel = (x[2:] - x[:-2]) / (2.0 * dt)
        du = np.array([params.potential.derivative(v) for v in x[1:-1]])
        summary["classical_residual"] = float(
            np.abs(params.M * acc + params.R * vel + du).max()
        )
        summary["max_diagonal_split"] = max(abs(s.x_plus - s.x_minus) for s in states)
    return summary


def run_evolve(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    pcfg = cfg.get("params", {})
    if not isinstance(pcfg, dict):
        raise ConfigError("config \"params\" must be an object")
    m = float(_require(_pick(args.M, pcfg, "M"), "M (mass)"))
    r = float(_require(_pick(args.R, pcfg, "R"), "R (friction)"))
    hbar = float(_pick(args.hbar, pcfg, "hbar", 1.0))

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
        x_plus=float(_pick(args.x_plus, icfg, "x_plus", 0.0)),
        x_minus=float(_pick(args.x_minus, icfg, "x_minus", 0.0)),
        v_plus=float(_pick(args.v_plus, icfg, "v_plus", 0.0)),
        v_minus=float(_pick(args.v_minus, icfg, "v_minus", 0.0)),
        t=float(icfg.get("t", 0.0)),
    )
    dt = float(_require(_pick(args.dt, cfg, "dt"), "dt"))
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

    states = integrate_trajectory(initial, params, dt, steps)

    if want_canonical:
        header = (
            "t,x_plus,x_minus,v_plus,v_minus,"
            "xi_plus,xi_minus,X_plus,X_minus,hamiltonian,orbit_invariant"
        )
        lines = [header]
        for s in states:
            cc = canonical_coords(s, params)
            row = (
                s.t, s.x_plus, s.x_minus, s.v_plus, s.v_minus,
                cc.xi_plus, cc.xi_minus, cc.X_plus, cc.X_minus,
                hamiltonian_value(s, params), orbit_invariant(cc.xi),
            )
            lines.append(",".join(_g17(v) for v in row))
    else:
        lines = ["t,x_plus,x_minus,v_plus,v_minus,hamiltonian"]
        for s in states:
            row = (s.t, s.x_plus, s.x_minus, s.v_plus, s.v_minus,
                   hamiltonian_value(s, params))
            lines.append(",".join(_g17(v) for v in row))
    _emit("\n".join(lines) + "\n", out)

    summary = _evolve_summary(states, params, want_canonical, dt)
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
    hbar = float(_pick(args.hbar, cfg, "hbar", 1.0))

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
        phase = winding_phase(scene)
        inside = int(np.count_nonzero(points_in_polygon(scene.atoms, scene.core_loop)))
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
            B=float(_require(_pick(args.B, mcfg, "B"), "B (field strength)")),
            e=float(_pick(args.charge, mcfg, "e", 1.0)),
            c=float(_pick(args.light_speed, mcfg, "c", 1.0)),
            M=float(_pick(args.mass, mcfg, "M", 1.0)),
            hbar=float(_pick(args.hbar, mcfg, "hbar", 1.0)),
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

    length = _require(_pick(args.L, cfg, "L"), "--L (length scale)")
    params = NcParams(L=float(length), hbar=hbar)
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
        density = scatter.get("density", raw.get("density"))
        if density is None:
            raise ConfigError("scatter needs a density (in scatter or scene)")
        if "seed" not in scatter:
            raise ConfigError("scatter needs an integer \"seed\" for reproducibility")
        region = scatter.get("region")
        if not (isinstance(region, (list, tuple)) and len(region) == 4):
            raise ConfigError("scatter needs \"region\": [x0, y0, x1, y1]")
        x0, y0, x1, y1 = (float(v) for v in region)
        if not (x1 > x0 and y1 > y0):
            raise ConfigError(f"degenerate scatter region {region}")
        area = (x1 - x0) * (y1 - y0)
        count = int(round(float(density) * area))
        rng = np.random.default_rng(int(scatter["seed"]))
        atoms = rng.uniform((x0, y0), (x1, y1), size=(count, 2))
        raw = dict(raw)
        raw["atoms"] = atoms.tolist()
        raw.setdefault("density", float(density))

    scene = scene_from_dict(raw)
    inside = int(np.count_nonzero(points_in_polygon(scene.atoms, scene.core_loop)))
    report = {
        "sigma": scene.sigma,
        "atoms": int(scene.atoms.shape[0]),
        "atoms_inside": inside,
        "winding_phase": winding_phase(scene),
    }
    if scene.density is not None:
        from .vortex_film import film_length_scale

        report["length_scale"] = film_length_scale(scene.density)
    core = args.core if args.core is not None else cfg.get("core")
    if core is not None:
        if isinstance(core, str):
            cx, cy = _parse_core(core)
        else:
            if not (isinstance(core, (list, tuple)) and len(core) == 2):
                raise ConfigError(f"config \"core\" must be [x, y], got {core!r}")
            cx, cy = float(core[0]), float(core[1])
        report["core_winding"] = winding_number((cx, cy), scene.core_loop)
        report["circulation"] = circulation_integral((cx, cy), scene.core_loop, scene.sigma)
        report["core_inside"] = point_in_polygon((cx, cy), scene.core_loop)
    _emit_json(report, out)
    return EXIT_OK


# ------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
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
