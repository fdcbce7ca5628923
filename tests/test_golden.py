"""Golden CLI outputs: `algebra` tables, `spectrum` listings, the film
commands (`vortex`, `phase`) and `evolve` trajectories with their summaries.

The algebra and spectrum goldens under tests/golden/ were recorded from the
implementation that built every bracket on dim^2 x dim^2 Kronecker matrices
and diagonalized the distance operator with a dense eigensolver.  The film
goldens (tests/golden/film.json) were recorded from the implementation that
tested every atom against every edge in a per-edge loop and parsed vertex
CSVs row by row in Python; their inputs are the fixed files under
tests/golden/film/:

* scatter.json: a `vortex` config with a seeded scatter of 18000 atoms in a
  40-vertex star loop, run with and without --core;
* scene_cw.json: a clockwise concave loop on the quarter grid, with atoms on
  that grid (ties on vertex heights and on edges) and random atoms;
* scene_double.json: a self-intersecting loop that winds twice;
* loop_header.csv (header), loop_plain.csv (no header, blank lines, spaces
  around cells), loop_index.csv (index column, blank line), path1.csv and
  path2.csv (two branches of one loop; the second has an index column and
  no header).

The evolve goldens (tests/golden/evolve.json) and the Landau spectrum
goldens (tests/golden/landau.json) were recorded from the implementation
that integrated into one state object per step and built every CSV row and
summary entry with per-row Python calls.  The evolve cases cover the free,
harmonic and quartic potentials, canonical columns on and off (by default,
by flag, and by "canonical": false in a config), starts on the diagonal
(which add `classical_residual` and `max_diagonal_split`) and off it, R = 0,
one- and two-step runs, a negative-zero velocity, and both the flag and the
--config forms; their configs are under tests/golden/evolve/.  Six more
cases, recorded from the last per-value `%.17g` writer, pin the CSV number
layout: starts scaled by 1e-6, 1e-300 and 1e150 (exponent-form cells with
two- and three-digit exponents), a v- of 123456789012345678 (`e+17` and
`e+33`/`e+35` cells), exact 17-digit ties at 1.17e15 + k/4, and integers
around 1e16 and 1e17 whose integer part ends in zeros.  Three long
runs (up to the 1e5-step harmonic --canonical run) are too big to commit:
their CSV is held by its sha256, their stdout in full.

* `algebra`: `table` and `artifact` must compare equal as parsed floats
  (so -0.0 == 0.0); `max_clean_deviation` is roundoff whose exact value
  depends on the BLAS summation order, so it is only held below
  1e-12 * max(1, max|table|).
* `spectrum`, the film commands and `evolve`: the output file (and for
  `evolve` also stdout) must match byte for byte.

The config goldens (tests/golden/config.json) were recorded from the
implementation that read every setting through its own chain of lookups
and type checks.  They drive `phase`, `vortex` and `evolve` from config
files: inline `loop`, `loop_csv`, `path1_csv`/`path2_csv`, inline `scene`
and `scene_json` (each also against a flag or a lower-ranked key), a
`magnetic` object, `"ab"`, `L` and `hbar`, a list `core`, an `"out"` key,
flags over config keys, and the `--potential` flags over a config
potential.  Each config is written at run time, with input file names
relative to tests/golden/film/ marked "@" and files in the run's
temporary directory marked "$"; stdout and the output file must match
byte for byte.

The help goldens (tests/golden/help.json) hold the `--help` text of
`ncplane` and of each of its five commands, recorded with COLUMNS=80
(argparse wraps to the terminal width); they must match byte for byte.

To record goldens again from a reference checkout (all groups by default):

    PYTHONPATH=src python tests/test_golden.py [algebra] [spectrum] [film] [evolve] [landau] \
        [config] [help]
"""

import contextlib
import copy
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from ncplane import cli
from ncplane.cli import main

GOLDEN = Path(__file__).parent / "golden"
ALGEBRA_FILE = GOLDEN / "algebra.json"
FILM_FILE = GOLDEN / "film.json"
FILM_INPUTS = GOLDEN / "film"
EVOLVE_FILE = GOLDEN / "evolve.json"
EVOLVE_INPUTS = GOLDEN / "evolve"
LANDAU_FILE = GOLDEN / "landau.json"
CONFIG_FILE = GOLDEN / "config.json"
HELP_FILE = GOLDEN / "help.json"

ALGEBRA_PARAMS = {
    "magnetic": {
        "a": [],
        "b": ["--B", "2.0", "--hbar", "1.5"],
        "c": ["--B", "0.37", "--charge", "1.3", "--light-speed", "2.0",
              "--mass", "0.8", "--hbar", "0.6"],
    },
    "dissipative": {
        "a": ["--R", "0.5"],
        "b": ["--R", "1.3", "--mass", "0.7", "--hbar", "2.0"],
        "c": ["--R", "0.2", "--mass", "1.9", "--hbar", "0.45"],
    },
}
ALGEBRA_CASES = {
    f"{kind}-{name}-dim{dim}": ["algebra", "--kind", kind, "--dim", str(dim), *extra]
    for kind, sets in ALGEBRA_PARAMS.items()
    for name, extra in sets.items()
    for dim in range(3, 13)
}
SPECTRUM_CASES = {
    f"spectrum_distance_dim{dim}.csv": ["spectrum", "--kind", "distance", "--L", length,
                                        "--dim", str(dim)]
    for dim, length in ((2, "1.0"), (10, "0.7"), (1000, "1.9"))
}

# film cases: argv with input file names relative to FILM_INPUTS marked "@"
FILM_CASES = {
    "vortex-scatter": ["vortex", "--config", "@scatter.json"],
    "vortex-scatter-core": ["vortex", "--config", "@scatter.json", "--core=0.1,-0.05"],
    "vortex-cw": ["vortex", "--scene", "@scene_cw.json"],
    "vortex-cw-core": ["vortex", "--scene", "@scene_cw.json", "--core=-0.3,0.45"],
    "vortex-double-core-center": ["vortex", "--scene", "@scene_double.json", "--core=0,0"],
    "vortex-double-core-outside": ["vortex", "--scene", "@scene_double.json",
                                   "--core=1.45,1.45"],
    "phase-scene-cw": ["phase", "--scene", "@scene_cw.json"],
    "phase-scene-double": ["phase", "--scene", "@scene_double.json"],
    "phase-loop-header": ["phase", "--loop", "@loop_header.csv", "--L", "0.7"],
    "phase-loop-plain": ["phase", "--loop", "@loop_plain.csv", "--L", "1.3", "--hbar", "0.6"],
    "phase-loop-index": ["phase", "--loop", "@loop_index.csv", "--L", "0.45"],
    "phase-ab-header": ["phase", "--loop", "@loop_header.csv", "--ab", "--B", "1.7"],
    "phase-ab-plain": ["phase", "--loop", "@loop_plain.csv", "--ab", "--B", "2.5"],
    "phase-ab-index": ["phase", "--loop", "@loop_index.csv", "--ab", "--B", "0.6",
                       "--charge", "1.3", "--light-speed", "2.0", "--mass", "0.8",
                       "--hbar", "0.9"],
    "phase-paths": ["phase", "--path1", "@path1.csv", "--path2", "@path2.csv",
                    "--hbar", "0.8"],
    "phase-paths-swapped": ["phase", "--path1", "@path2.csv", "--path2", "@path1.csv"],
}


# evolve cases: input file names relative to EVOLVE_INPUTS marked "@"
_FREE = ["--potential", "free"]
_HARMONIC = ["--potential", "harmonic", "--k", "1.0"]
EVOLVE_CASES = {
    "free-flags": ["evolve", "--M", "1.0", "--R", "0.5", *_FREE, "--x-plus", "0.3",
                   "--x-minus", "-0.2", "--v-plus", "0.9", "--v-minus", "0.4",
                   "--dt", "0.01", "--steps", "60"],
    "free-flags-diag-canonical": ["evolve", "--M", "2.0", "--R", "1.1", *_FREE,
                                  "--x-plus", "-0.4", "--x-minus", "-0.4", "--v-plus", "0.25",
                                  "--v-minus", "0.25", "--dt", "0.02", "--steps", "45",
                                  "--canonical"],
    "harmonic-flags-canonical": ["evolve", "--M", "1.0", "--R", "0.2", *_HARMONIC,
                                 "--x-plus", "0.6113", "--x-minus", "-0.2871",
                                 "--v-plus", "0.9402", "--v-minus", "-0.5516",
                                 "--dt", "5e-4", "--steps", "80", "--canonical"],
    "harmonic-flags-diag": ["evolve", "--M", "0.9", "--R", "0.3", "--potential", "harmonic",
                            "--k", "1.5", "--x-plus", "1", "--x-minus", "1",
                            "--dt", "0.01", "--steps", "65"],
    "polynomial-flags": ["evolve", "--M", "1.1", "--R", "0.25", "--potential", "polynomial",
                         "--coeffs", "0,0.2,0.5,-0.1,0.25", "--x-plus", "0.5",
                         "--x-minus", "0.1", "--v-plus", "-0.3", "--v-minus", "0.6",
                         "--dt", "0.01", "--steps", "50"],
    "r0-flags-free": ["evolve", "--M", "1.0", "--R", "0", *_FREE, "--x-plus", "0.2",
                      "--x-minus", "-0.1", "--v-plus", "-0.5", "--v-minus", "0.3",
                      "--dt", "0.05", "--steps", "30"],
    "r0-flags-free-negative-zero": ["evolve", "--M", "1.0", "--R", "0", *_FREE,
                                    "--x-plus", "-0.0", "--x-minus", "0.25",
                                    "--v-plus", "-0.0", "--v-minus", "-0.7",
                                    "--dt", "0.05", "--steps", "20"],
    "steps1-diag": ["evolve", "--M", "1.0", "--R", "0.4", *_HARMONIC, "--x-plus", "0.2",
                    "--x-minus", "0.2", "--dt", "0.1", "--steps", "1"],
    "steps2-diag": ["evolve", "--M", "1.0", "--R", "0.4", *_HARMONIC, "--x-plus", "0.2",
                    "--x-minus", "0.2", "--dt", "0.1", "--steps", "2"],
    "quartic-config-diag": ["evolve", "--config", "@quartic_diag.json"],
    "quartic-config-off": ["evolve", "--config", "@quartic_off.json"],
    "harmonic-config-no-canonical": ["evolve", "--config", "@harmonic_nocanon.json"],
    "harmonic-config-overridden": ["evolve", "--config", "@harmonic_nocanon.json",
                                   "--canonical", "--steps", "30", "--v-minus", "0.2"],
    "free-config-diag": ["evolve", "--config", "@free_diag.json"],
    "r0-config-harmonic-diag": ["evolve", "--config", "@r0_harmonic.json"],
    # the harmonic canonical run above with its start scaled by 1e-6, 1e-300 and 1e150
    "scaled-1e-6-canonical": ["evolve", "--M", "1.0", "--R", "0.2", *_HARMONIC,
                              "--x-plus", "6.113e-7", "--x-minus=-2.871e-7",
                              "--v-plus", "9.402e-7", "--v-minus=-5.516e-7",
                              "--dt", "0.05", "--steps", "40", "--canonical"],
    "scaled-1e-300-canonical": ["evolve", "--M", "1.0", "--R", "0.2", *_HARMONIC,
                                "--x-plus", "6.113e-301", "--x-minus=-2.871e-301",
                                "--v-plus", "9.402e-301", "--v-minus=-5.516e-301",
                                "--dt", "0.05", "--steps", "40", "--canonical"],
    "scaled-1e150-canonical": ["evolve", "--M", "1.0", "--R", "0.2", *_HARMONIC,
                               "--x-plus", "6.113e149", "--x-minus=-2.871e149",
                               "--v-plus", "9.402e149", "--v-minus=-5.516e149",
                               "--dt", "0.05", "--steps", "40", "--canonical"],
    "v-minus-1e17-canonical": ["evolve", "--M", "1.0", "--R", "0.3", *_FREE,
                               "--x-plus", "0.5", "--v-minus", "123456789012345678",
                               "--dt", "0.01", "--steps", "30", "--canonical"],
    # x+ = 1.17e15 + k/4 holds exact ties at 17 digits; x- crosses 1e16
    "r0-free-ties-1e15": ["evolve", "--M", "1.0", "--R", "0", *_FREE,
                          "--x-plus", "1170000000000000", "--x-minus", "9999999999999990",
                          "--v-plus", "0.25", "--v-minus", "4", "--dt", "1", "--steps", "40"],
    # integers with zeros in the integer part; x- crosses 1e17
    "r0-free-integers-1e16-1e17": ["evolve", "--M", "1.0", "--R", "0", *_FREE,
                                   "--x-plus", "14791378337711040",
                                   "--x-minus", "99999999999999900",
                                   "--v-plus", "160", "--v-minus", "16", "--dt", "1",
                                   "--steps", "20"],
}
# long runs: CSV held by sha256; the first is shaped like the benchmark's run
EVOLVE_SHA_CASES = {
    "harmonic-canonical-1e5": ["evolve", "--M", "1.0", "--R", "0.2", *_HARMONIC,
                               "--x-plus", "0.6113", "--x-minus", "-0.2871",
                               "--v-plus", "0.9402", "--v-minus", "-0.5516",
                               "--dt", "5e-4", "--steps", "100000", "--canonical"],
    "free-canonical-2e4": ["evolve", "--M", "1.0", "--R", "0.5", *_FREE, "--x-plus", "0.3",
                           "--x-minus", "-0.2", "--v-plus", "0.9", "--v-minus", "0.4",
                           "--dt", "0.001", "--steps", "20000"],
    "quartic-diag-2e4": ["evolve", "--config", "@quartic_diag.json", "--steps", "20000"],
}
LANDAU_CASES = {
    f"landau-{name}.{fmt}": ["spectrum", "--kind", "landau", *extra, "--format", fmt]
    for name, extra in (
        ("omega", ["--omega-c", "1.3", "--n-max", "6"]),
        ("omega-hbar", ["--omega-c", "0.37", "--hbar", "1.7", "--n-max", "0"]),
        ("field", ["--B", "2.5", "--charge", "1.3", "--light-speed", "2.0",
                   "--mass", "0.8", "--hbar", "0.6", "--n-max", "9"]),
    )
    for fmt in ("csv", "json")
}

# config cases: (command, config, extra argv); "@name" is a file under
# FILM_INPUTS, "$name" a file in the run's temporary directory, and the
# output is "$out" (added as --out unless the config or the argv names it)
_SCENE = {"core_loop": [[0, 0], [2, 0], [2.5, 1.5], [1, 2.25], [-0.5, 1]],
          "atoms": [[0.5, 0.5], [1, 1], [2, 1.75], [3, 3], [-0.25, 0.9], [2, 0]],
          "sigma": -1, "density": 0.75}
_LOOP = [[0, 0], [1.5, 0], [1.25, 0.875], [0.125, 1.3]]
_EVOLVE = {"params": {"M": 1.1, "R": 0.3, "hbar": 0.9,
                      "potential": {"kind": "polynomial", "coeffs": [0, 0.1, 0.5, 0, 0.2]}},
           "initial": {"x_plus": 0.4, "x_minus": -0.25, "v_plus": 0.3, "v_minus": 0.6,
                       "t": 0.5},
           "dt": 0.01, "steps": 40, "canonical": True}
CONFIG_CASES = {
    "phase-loop": ("phase", {"loop": _LOOP, "L": 0.8, "hbar": 1.3}, []),
    "phase-loop-integers": ("phase", {"loop": [[0, 0], [2, 0], [2, 1], [0, 3]], "L": 1,
                                      "hbar": 2}, []),
    "phase-loop-csv": ("phase", {"loop_csv": "@loop_header.csv", "L": 0.7}, []),
    "phase-loop-csv-over-loop": ("phase", {"loop_csv": "@loop_plain.csv", "loop": _LOOP,
                                           "L": 0.9}, []),
    "phase-loop-flag-over-keys": ("phase", {"loop_csv": "@loop_plain.csv", "loop": _LOOP,
                                            "L": 0.9, "hbar": 3.0},
                                  ["--loop", "@loop_index.csv", "--L", "1.1", "--hbar", "0.5"]),
    "phase-loop-ab-false": ("phase", {"loop": _LOOP, "ab": False, "L": 0.6}, []),
    "phase-paths": ("phase", {"path1_csv": "@path1.csv", "path2_csv": "@path2.csv",
                              "hbar": 0.8}, []),
    "phase-paths-flag-over-key": ("phase", {"path1_csv": "@path2.csv", "path2_csv": "@path2.csv"},
                                  ["--path1", "@path1.csv"]),
    "phase-scene": ("phase", {"scene": _SCENE}, []),
    "phase-scene-json": ("phase", {"scene_json": "@scene_cw.json"}, []),
    "phase-scene-json-over-scene": ("phase", {"scene_json": "@scene_double.json",
                                              "scene": _SCENE}, []),
    "phase-scene-flag-over-keys": ("phase", {"scene_json": "@scene_double.json",
                                             "scene": _SCENE}, ["--scene", "@scene_cw.json"]),
    "phase-magnetic": ("phase", {"loop_csv": "@loop_header.csv",
                                 "magnetic": {"B": 1.7, "e": 1.3, "c": 2.0, "M": 0.8,
                                              "hbar": 0.9}}, []),
    "phase-magnetic-flags": ("phase", {"loop": _LOOP, "hbar": 4.0,
                                       "magnetic": {"B": 1.7, "e": 1.3, "hbar": 0.9}},
                             ["--B", "2.25", "--mass", "0.6", "--hbar", "0.4"]),
    "phase-ab": ("phase", {"loop": _LOOP, "ab": True, "magnetic": {"B": 2}}, []),
    "phase-ab-flag-field": ("phase", {"loop_csv": "@loop_index.csv", "ab": True},
                            ["--B", "0.6", "--charge", "1.3", "--light-speed", "2.0"]),
    "phase-out-key": ("phase", {"loop": _LOOP, "L": 0.5, "out": "$out"}, []),
    "vortex-scene": ("vortex", {"scene": _SCENE}, []),
    "vortex-scene-core": ("vortex", {"scene": _SCENE, "core": [0.9, 0.8]}, []),
    "vortex-scene-core-integers": ("vortex", {"scene": _SCENE, "core": [1, 1]}, []),
    "vortex-scene-core-flag": ("vortex", {"scene": _SCENE, "core": [0.9, 0.8]}, ["--core=5,5"]),
    "vortex-scene-json": ("vortex", {"scene_json": "@scene_cw.json"}, []),
    "vortex-scene-json-core": ("vortex", {"scene_json": "@scene_double.json", "core": [0, 0]},
                               []),
    "vortex-scene-json-over-scene": ("vortex", {"scene_json": "@scene_cw.json",
                                                "scene": _SCENE, "core": [-0.3, 0.45]}, []),
    "vortex-scene-flag-over-keys": ("vortex", {"scene_json": "@scene_cw.json", "scene": _SCENE},
                                    ["--scene", "@scene_double.json", "--core=1.45,1.45"]),
    "vortex-out-key": ("vortex", {"scene": _SCENE, "core": [0.9, 0.8], "out": "$out"}, []),
    "evolve-out-key": ("evolve", {**_EVOLVE, "out": "$out"}, []),
    "evolve-flags-over-keys": ("evolve", {**_EVOLVE, "out": "$stale"},
                               ["--M", "1.3", "--R", "0.35", "--hbar", "0.7", "--x-plus", "0.2",
                                "--v-minus", "-0.1", "--dt", "0.02", "--steps", "25",
                                "--out", "$out"]),
    "evolve-potential-free": ("evolve", _EVOLVE, ["--potential", "free"]),
    "evolve-potential-harmonic": ("evolve", _EVOLVE, ["--potential", "harmonic", "--k", "1.7"]),
    "evolve-potential-polynomial": ("evolve", {**_EVOLVE, "canonical": False},
                                    ["--potential", "polynomial", "--coeffs", "0,0,0.4,-0.05,0.3"]),
}
HELP_CASES = {
    name: [*name.split()[1:], "--help"]
    for name in ("ncplane", "ncplane spectrum", "ncplane evolve", "ncplane phase",
                 "ncplane algebra", "ncplane vortex")
}


def _inputs_argv(argv, base: Path) -> list:
    return [str(base / a[1:]) if a.startswith("@") else a for a in argv]


def _film_argv(argv) -> list:
    return _inputs_argv(argv, FILM_INPUTS)


def _run(argv, out_path) -> str:
    code = main([*argv, "--out", str(out_path)])
    assert code == 0, f"{argv} exited with {code}"
    return Path(out_path).read_text()


def _run_evolve(argv, out_path) -> tuple[str, bytes]:
    """stdout and --out bytes of one evolve case."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        _run(_inputs_argv(argv, EVOLVE_INPUTS), out_path)
    return stdout.getvalue(), Path(out_path).read_bytes()


def _config_value(value, tmp_dir: Path):
    """A config value with "@" and "$" file names resolved, recursively."""
    if isinstance(value, dict):
        return {k: _config_value(v, tmp_dir) for k, v in value.items()}
    if isinstance(value, list):
        return [_config_value(v, tmp_dir) for v in value]
    if isinstance(value, str) and value[:1] in "@$":
        return str((FILM_INPUTS if value[0] == "@" else tmp_dir) / value[1:])
    return value


def _run_config(case, tmp_dir: Path) -> dict:
    """stdout and output bytes of one config case."""
    command, cfg, extra = case
    path = tmp_dir / "config.json"
    path.write_text(json.dumps({"schema_version": 1, **_config_value(cfg, tmp_dir)}))
    argv = [command, "--config", str(path), *_config_value(extra, tmp_dir)]
    if "out" not in cfg and "$out" not in extra:
        argv += ["--out", str(tmp_dir / "out")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, f"{argv} exited with {code}"
    return {"stdout": stdout.getvalue(), "out": (tmp_dir / "out").read_text()}


def _help_text(argv) -> str:
    """stdout of one --help case; the caller sets COLUMNS."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, f"{argv} exited with {code}"
    return stdout.getvalue()


def _golden_algebra() -> dict:
    return json.loads(ALGEBRA_FILE.read_text())


@pytest.mark.parametrize("name", sorted(ALGEBRA_CASES))
def test_algebra_matches_golden(name, tmp_path):
    want = json.loads(_golden_algebra()[name])
    got = json.loads(_run(ALGEBRA_CASES[name], tmp_path / "out.json"))
    assert set(got) == set(want)
    for key in ("kind", "dim", "length_scale_sq", "labels", "table", "artifact"):
        assert got[key] == want[key], key
    bound = 1e-12 * max(1.0, float(np.abs(np.asarray(got["table"])).max()))
    assert got["max_clean_deviation"] < bound


@pytest.mark.parametrize("name", sorted(SPECTRUM_CASES))
def test_distance_spectrum_matches_golden_bytes(name, tmp_path):
    out = tmp_path / name
    _run(SPECTRUM_CASES[name], out)
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(FILM_CASES))
def test_film_matches_golden_bytes(name, tmp_path):
    want = json.loads(FILM_FILE.read_text())[name]
    out = tmp_path / "out.json"
    _run(_film_argv(FILM_CASES[name]), out)
    assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("name", sorted(EVOLVE_CASES))
def test_evolve_matches_golden_bytes(name, tmp_path):
    want = json.loads(EVOLVE_FILE.read_text())[name]
    stdout, out = _run_evolve(EVOLVE_CASES[name], tmp_path / "out.csv")
    assert stdout == want["stdout"]
    assert out == want["out"].encode()


@pytest.mark.parametrize("name", sorted(EVOLVE_SHA_CASES))
def test_long_evolve_matches_golden_sha256(name, tmp_path):
    want = json.loads(EVOLVE_FILE.read_text())[name]
    stdout, out = _run_evolve(EVOLVE_SHA_CASES[name], tmp_path / "out.csv")
    assert stdout == want["stdout"]
    assert len(out) == want["out_bytes"]
    assert hashlib.sha256(out).hexdigest() == want["out_sha256"]


@pytest.mark.parametrize("name", sorted(LANDAU_CASES))
def test_landau_spectrum_matches_golden_bytes(name, tmp_path):
    want = json.loads(LANDAU_FILE.read_text())[name]
    out = tmp_path / name
    _run(LANDAU_CASES[name], out)
    assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("name", sorted(CONFIG_CASES))
def test_config_matches_golden_bytes(name, tmp_path):
    want = json.loads(CONFIG_FILE.read_text())[name]
    assert _run_config(CONFIG_CASES[name], tmp_path) == want


def _number_settings() -> dict:
    """The config cases holding each number or list setting, by (command, config path)."""
    found = {}
    for name, (command, cfg, _) in sorted(CONFIG_CASES.items()):
        kinds = {path: row.kind for row in cli._INDEX[command][0].values()
                 for path in (row.key.values() if isinstance(row.key, dict) else [row.key])}
        stack = [("", cfg)]
        while stack:
            key, node = stack.pop()
            if isinstance(node, dict):
                stack += [(f"{key}.{k}" if key else k, v) for k, v in node.items()]
            elif kinds.get(key) in ("number", "numbers", "pair", "vertices"):
                found.setdefault((command, key), []).append(name)
    return found


_NUMBER_SETTINGS = _number_settings()


@pytest.mark.parametrize("command, path", sorted(_NUMBER_SETTINGS))
def test_a_config_number_past_the_float_range_is_named(command, path, tmp_path, capsys):
    # the value, or a list's first number, becomes 10**400: a case that reads
    # the setting exits 2 with one error line naming it and writes nothing; a
    # case where a flag or a higher-ranked key shadows it keeps its golden
    goldens = json.loads(CONFIG_FILE.read_text())
    refused = 0
    for name in _NUMBER_SETTINGS[command, path]:
        _, cfg, extra = CONFIG_CASES[name]
        cfg = copy.deepcopy(cfg)
        *parents, leaf = path.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        while type(node[leaf]) is list:
            node, leaf = node[leaf], 0
        node[leaf] = 10**400
        (tmp_path / "out").unlink(missing_ok=True)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema_version": 1, **_config_value(cfg, tmp_path)}))
        argv = [command, "--config", str(config), *_config_value(extra, tmp_path)]
        if "out" not in cfg and "$out" not in extra:
            argv += ["--out", str(tmp_path / "out")]
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 0:
            assert {"stdout": out, "out": (tmp_path / "out").read_text()} == goldens[name], name
            continue
        refused += 1
        assert code == 2, (name, err)
        [line] = err.splitlines()
        assert line.startswith("error: ") and f'"{path}"' in line and ".py:" not in err, name
        assert out == "" and not (tmp_path / "out").exists(), name
    assert refused, f"no config case reads {path}"


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_matches_golden_bytes(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads(HELP_FILE.read_text())[name]
    assert _help_text(HELP_CASES[name]) == want


def record(tmp_dir: Path, groups) -> None:
    """Write the goldens of the given groups from the ncplane on sys.path."""
    GOLDEN.mkdir(exist_ok=True)
    if "algebra" in groups:
        algebra = {name: _run(argv, tmp_dir / "out.json")
                   for name, argv in ALGEBRA_CASES.items()}
        ALGEBRA_FILE.write_text(json.dumps(algebra, indent=1, sort_keys=True) + "\n")
    if "spectrum" in groups:
        for name, argv in SPECTRUM_CASES.items():
            _run(argv, GOLDEN / name)
    if "film" in groups:
        film = {name: _run(_film_argv(argv), tmp_dir / "out.json")
                for name, argv in FILM_CASES.items()}
        FILM_FILE.write_text(json.dumps(film, indent=1, sort_keys=True) + "\n")
    if "evolve" in groups:
        evolve = {}
        for name, argv in EVOLVE_CASES.items():
            stdout, out = _run_evolve(argv, tmp_dir / "out.csv")
            evolve[name] = {"stdout": stdout, "out": out.decode()}
        for name, argv in EVOLVE_SHA_CASES.items():
            stdout, out = _run_evolve(argv, tmp_dir / "out.csv")
            evolve[name] = {"stdout": stdout, "out_bytes": len(out),
                            "out_sha256": hashlib.sha256(out).hexdigest()}
        EVOLVE_FILE.write_text(json.dumps(evolve, indent=1, sort_keys=True) + "\n")
    if "landau" in groups:
        landau = {name: _run(argv, tmp_dir / name) for name, argv in LANDAU_CASES.items()}
        LANDAU_FILE.write_text(json.dumps(landau, indent=1, sort_keys=True) + "\n")
    if "config" in groups:
        config = {}
        for name, case in CONFIG_CASES.items():
            (tmp_dir / "out").unlink(missing_ok=True)
            config[name] = _run_config(case, tmp_dir)
        CONFIG_FILE.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    if "help" in groups:
        os.environ["COLUMNS"] = "80"
        help_texts = {name: _help_text(argv) for name, argv in HELP_CASES.items()}
        HELP_FILE.write_text(json.dumps(help_texts, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp), sys.argv[1:] or ("algebra", "spectrum", "film", "evolve", "landau",
                                           "config", "help"))
