"""End-to-end checks of the command line interface and its exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncplane import cli
from ncplane.cli import ConfigError, _read_path_csv, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_distance_csv(capsys):
    code, out, err = run_cli(["spectrum", "--kind", "distance", "--L", "1.0", "--dim", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    values = [float(row.split(",")[1]) for row in lines[1:]]
    np.testing.assert_allclose(values, [1.0, 3.0, 5.0, 7.0], rtol=1e-12)


def test_spectrum_landau_json(capsys):
    code, out, _ = run_cli(
        ["spectrum", "--kind", "landau", "--omega-c", "1.0", "--n-max", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [0.5, 1.5, 2.5]


def test_spectrum_rejects_tiny_dimension(capsys):
    code, _, err = run_cli(["spectrum", "--kind", "distance", "--L", "1.0", "--dim", "1"], capsys)
    assert code == 2
    assert "dim must be >= 2" in err


def test_spectrum_missing_settings(capsys):
    code, _, err = run_cli(["spectrum", "--kind", "distance", "--dim", "4"], capsys)
    assert code == 2
    assert "missing required setting" in err
    code, _, err = run_cli(["spectrum", "--kind", "landau", "--n-max", "3"], capsys)
    assert code == 2


def test_evolve_writes_trajectory_and_summary(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        [
            "evolve", "--M", "1.0", "--R", "0.2", "--potential", "harmonic", "--k", "1.0",
            "--x-plus", "1.0", "--x-minus", "1.0", "--dt", "0.005", "--steps", "200",
            "--out", str(out_csv),
        ],
        capsys,
    )
    assert code == 0
    header = out_csv.read_text().splitlines()[0].split(",")
    assert header[:5] == ["t", "x_plus", "x_minus", "v_plus", "v_minus"]
    assert "xi_plus" in header and "orbit_invariant" in header
    summary = json.loads(out)
    assert summary["steps"] == 200
    assert summary["classical_residual"] < 1e-4
    assert summary["max_diagonal_split"] == 0.0
    assert "hyperbolic_max_deviation" not in summary  # not a free potential


def test_evolve_free_run_matches_closed_form(tmp_path, capsys):
    out_csv = tmp_path / "free.csv"
    code, out, _ = run_cli(
        [
            "evolve", "--M", "1.0", "--R", "0.5", "--potential", "free",
            "--x-plus", "0.3", "--x-minus", "-0.2", "--v-plus", "0.9", "--v-minus", "0.4",
            "--dt", "0.002", "--steps", "1000", "--out", str(out_csv),
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["hyperbolic_max_deviation"] < 1e-6
    assert summary["max_orbit_invariant_drift"] < 1e-7


def test_evolve_without_friction_drops_canonical_columns(capsys):
    code, out, _ = run_cli(
        ["evolve", "--M", "1.0", "--R", "0", "--v-plus", "1.0", "--dt", "0.01", "--steps", "5"],
        capsys,
    )
    assert code == 0
    header = out.splitlines()[0]
    assert "xi_plus" not in header
    assert header.startswith("t,x_plus")


def test_evolve_canonical_needs_friction(capsys):
    code, _, err = run_cli(
        ["evolve", "--M", "1.0", "--R", "0", "--dt", "0.01", "--steps", "2", "--canonical"],
        capsys,
    )
    assert code == 2
    assert "R > 0" in err


def test_evolve_config_file(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "params": {"M": 1.0, "R": 0.4, "potential": {"kind": "harmonic", "k": 2.0}},
        "initial": {"x_plus": 0.5, "x_minus": 0.5},
        "dt": 0.01,
        "steps": 50,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["evolve", "--config", str(path), "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 0
    assert json.loads(out)["steps"] == 50
    # flags override config values
    code, out, _ = run_cli(
        ["evolve", "--config", str(path), "--steps", "10", "--out", str(tmp_path / "t2.csv")],
        capsys,
    )
    assert json.loads(out)["steps"] == 10


def test_evolve_divergence_exit_code(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "params": {"M": 1.0, "R": 0.5, "potential": {"kind": "polynomial", "coeffs": [0, 0, 0, 0, -1]}},
        "initial": {"x_plus": 1.0, "x_minus": 1.0, "v_plus": 2.0, "v_minus": 2.0},
        "dt": 0.5,
        "steps": 2000,
    }
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["evolve", "--config", str(path), "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 4
    assert "diverged" in err


COARSE_STEP_WARNING = (
    "warning: dt * gamma = 1 >= 1: fixed-step RK4 is unreliable here "
    "(recommended dt * gamma < 0.1)\n"
)


def test_evolve_coarse_step_warns_in_one_line(capsys):
    code, out, err = run_cli(["evolve", "--M", "1", "--R", "2", "--x-plus", "1", "--dt", "0.5",
                              "--steps", "2"], capsys)
    assert code == 0
    assert err == COARSE_STEP_WARNING
    row = "1,0,0,0,-0,0,1,0,0,0\n"
    assert out == (
        "t,x_plus,x_minus,v_plus,v_minus,xi_plus,xi_minus,X_plus,X_minus,hamiltonian,"
        "orbit_invariant\n" + "".join(f"{t},{row}" for t in ("0", "0.5", "1"))
        + '{"dt": 0.5, "gamma_t_total": 2.0, "hyperbolic_max_deviation": 0.0, '
        '"max_hamiltonian_drift": 0.0, "max_orbit_invariant_drift": 0.0, "steps": 2}\n'
    )


def test_evolve_coarse_step_warning_comes_before_the_divergence():
    # a fresh interpreter, so stderr is what a user sees: no source location
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "ncplane.cli", "evolve", "--M", "1", "--R", "0.5",
         "--potential", "polynomial", "--coeffs", "0,0,0,0,-1", "--x-plus", "1",
         "--x-minus", "1", "--v-plus", "2", "--v-minus", "2", "--dt", "2", "--steps", "2000"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == (
        COARSE_STEP_WARNING + "error: trajectory diverged at step 3 (t = 6): non-finite state\n"
    )


@pytest.mark.parametrize(
    "key, value",
    [("canonical", "false"), ("canonical", 1), ("steps", 3.9), ("steps", 3.0),
     ("steps", "10"), ("steps", True)],
)
def test_evolve_config_types_are_strict(tmp_path, capsys, key, value):
    cfg = {
        "schema_version": 1,
        "params": {"M": 1.0, "R": 0.4},
        "dt": 0.01,
        "steps": 5,
        key: value,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["evolve", "--config", str(path), "--out", str(tmp_path / "t.csv")],
                             capsys)
    assert code == 2
    assert f'"{key}"' in err
    assert out == ""


@pytest.mark.parametrize(
    "section, key, value",
    [("params", "M", True), ("params", "R", "0.4"), ("params", "hbar", False),
     (None, "dt", True), (None, "dt", "0.01"), ("initial", "x_plus", "0.5"),
     ("initial", "v_minus", True), ("initial", "t", [0.0]), ("potential", "k", "2.0"),
     ("potential", "k", True)],
)
def test_evolve_numeric_settings_are_strict(tmp_path, capsys, section, key, value):
    cfg = {"schema_version": 1, "params": {"M": 1.0, "R": 0.4}, "dt": 0.01, "steps": 5}
    if section is None:
        cfg[key] = value
    elif section == "potential":
        cfg["params"]["potential"] = {"kind": "harmonic", key: value}
    else:
        cfg.setdefault(section, {})[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["evolve", "--config", str(path), "--out", str(tmp_path / "t.csv")],
                             capsys)
    assert code == 2
    name = {None: key, "potential": f"params.potential.{key}"}.get(section, f"{section}.{key}")
    assert f'"{name}" must be a number' in err
    assert out == ""


@pytest.mark.parametrize(
    "coeffs, name",
    [([0, True, "0.5"], "params.potential.coeffs[1]"), ([0, 0, "0.5"], "params.potential.coeffs[2]"),
     ([None, 1.0], "params.potential.coeffs[0]"), ([0.0, [1.0]], "params.potential.coeffs[1]")],
)
def test_evolve_polynomial_coeffs_are_strict(tmp_path, capsys, coeffs, name):
    cfg = {"schema_version": 1, "dt": 0.01, "steps": 5,
           "params": {"M": 1.0, "R": 0.4, "potential": {"kind": "polynomial", "coeffs": coeffs}}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["evolve", "--config", str(path), "--out", str(tmp_path / "t.csv")],
                             capsys)
    assert code == 2
    assert f'"{name}" must be a number' in err
    assert out == ""


@pytest.mark.parametrize("coeffs", ["0,0,0.5", {"2": 0.5}, None])
def test_evolve_polynomial_coeffs_must_be_a_list(tmp_path, capsys, coeffs):
    potential = {"kind": "polynomial"}
    if coeffs is not None:
        potential["coeffs"] = coeffs
    cfg = {"schema_version": 1, "dt": 0.01, "steps": 5,
           "params": {"M": 1.0, "R": 0.4, "potential": potential}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["evolve", "--config", str(path), "--out", str(tmp_path / "t.csv")],
                             capsys)
    assert code == 2
    assert '"coeffs" list' in err
    assert out == ""


def test_evolve_csv_blocks_match_per_value_format(tmp_path, monkeypatch):
    # "%.17g" % x against format(x, ".17g"), across block edges and odd values
    values = [0.0, -0.0, 1.0, -1.5, 0.1, 1e-300, 5e-324, -2.2250738585072014e-308,
              1.7976931348623157e308, np.inf, -np.inf, np.nan, 123456789.123456789, 2.0 ** 60]
    table = np.array(values * 3).reshape(-1, 6)
    want = "a,b,c,d,e,f\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in table
    )
    for block in (1, 2, 3, 4096):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        out = tmp_path / f"t{block}.csv"
        cli._emit_csv("a,b,c,d,e,f", table, str(out))
        assert out.read_text() == want


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    # the parser is built once per process; no parsed value may leak into a later call
    assert cli.build_parser() is cli.build_parser()
    evolve = ["evolve", "--M", "1.0", "--dt", "0.01", "--steps", "3"]
    code, out, _ = run_cli([*evolve, "--R", "0.5", "--canonical", "--potential", "harmonic",
                            "--k", "2.0", "--v-plus", "0.3", "--out", str(tmp_path / "a.csv")],
                           capsys)
    assert code == 0
    assert "xi_plus" in (tmp_path / "a.csv").read_text()
    # no --canonical, --potential or --v-plus now: R = 0 is legal and the run is free
    code, out, err = run_cli([*evolve, "--R", "0", "--out", str(tmp_path / "b.csv")], capsys)
    assert code == 0, err
    rows = (tmp_path / "b.csv").read_text().splitlines()
    assert rows[0] == "t,x_plus,x_minus,v_plus,v_minus,hamiltonian"
    assert rows[-1] == "0.029999999999999999,0,0,0,0,0"
    code, out, _ = run_cli(["spectrum", "--kind", "landau", "--omega-c", "2.0", "--n-max", "1",
                            "--format", "json", "--hbar", "0.5"], capsys)
    assert json.loads(out) == {"kind": "landau", "values": [0.5, 1.5]}
    code, out, _ = run_cli(["spectrum", "--kind", "distance", "--L", "1.0", "--dim", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "n,value"  # csv again, hbar back to 1
    assert [float(r.split(",")[1]) for r in out.splitlines()[1:]] == pytest.approx([1.0, 3.0])
    code, _, err = run_cli(["spectrum", "--kind", "landau", "--n-max", "1"], capsys)
    assert code == 2
    assert "--omega-c or --B" in err


def test_evolve_config_canonical_false_drops_columns(tmp_path, capsys):
    cfg = {"schema_version": 1, "params": {"M": 1.0, "R": 0.4}, "dt": 0.01, "steps": 5,
           "canonical": False}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out_csv = tmp_path / "t.csv"
    code, out, _ = run_cli(["evolve", "--config", str(path), "--out", str(out_csv)], capsys)
    assert code == 0
    assert "xi_plus" not in out_csv.read_text().splitlines()[0]
    assert json.loads(out)["steps"] == 5


_EVOLVE_CFG = {"params": {"M": 1.0, "R": 0.4, "potential": {"kind": "harmonic", "k": 1.0}},
               "dt": 0.01, "steps": 5}
_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]


@pytest.mark.parametrize("command, cfg, name, nearest", [
    ("evolve", {**_EVOLVE_CFG, "canonicle": False}, "canonicle", "canonical"),
    ("evolve", {**_EVOLVE_CFG, "params": {"M": 1.0, "R": 0.4,
                                          "potential": {"kind": "harmonic", "kk": 1.0}}},
     "params.potential.kk", "params.potential.k"),
    ("evolve", {**_EVOLVE_CFG, "initial": {"xplus": 0.1}}, "initial.xplus", "initial.x_plus"),
    ("phase", {"loop": _SQUARE, "magnetic": {"B": 1.0, "hbarr": 2.0}}, "magnetic.hbarr",
     "magnetic.hbar"),
    ("phase", {"loop_cvs": "loop.csv", "L": 1.0}, "loop_cvs", "loop_csv"),
    ("vortex", {"scene": {"core_loop": _SQUARE, "atoms": [], "sigmaa": 1}}, "scene.sigmaa",
     "scene.sigma"),
    ("vortex", {"scene": {"core_loop": _SQUARE, "sigma": 1},
                "scatter": {"density": 1.0, "seed": 1, "region": [0, 0, 1, 1], "sead": 2}},
     "scatter.sead", "scatter.seed"),
])
def test_unknown_config_keys_are_errors(tmp_path, capsys, command, cfg, name, nearest):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, **cfg}))
    out_file = tmp_path / "out"
    code, out, err = run_cli([command, "--config", str(path), "--out", str(out_file)], capsys)
    assert code == 2
    assert out == "" and not out_file.exists()
    assert f'unknown setting "{name}"; the nearest known key is "{nearest}"' in err


@pytest.mark.parametrize("argv", [
    ["phase", "--scene", "@"], ["vortex", "--scene", "@"],
    ["vortex", "--config", "@config"], ["phase", "--config", "@config"],
])
def test_unknown_scene_file_keys_are_errors(tmp_path, capsys, argv):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"core_loop": _SQUARE, "atoms": [], "sigma": 1, "sigmaa": 1,
                                 "densty": 2.0}))
    (tmp_path / "config").write_text(json.dumps({"schema_version": 1,
                                                 "scene_json": str(scene)}))
    argv = [str(tmp_path / "config") if a == "@config" else str(scene) if a == "@" else a
            for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert 'unknown setting "scene.sigmaa"; the nearest known key is "scene.sigma"' in err


_SCATTER_CFG = {"schema_version": 1, "scene": {"core_loop": _SQUARE, "sigma": 1}}


# (argv, files to write (a str as text, else as JSON), the last line of stderr);
# "@name" in argv is the path of the file name, "{dir}" in the line their folder
@pytest.mark.parametrize("argv, files, line", [
    (["evolve", "--config", "@cfg"], {"cfg": [_EVOLVE_CFG]},
     "error: config {dir}/cfg must be a JSON object"),
    (["evolve", "--M", "1", "--R", "0.1", "--potential", "polynomial", "--coeffs", "1,x"], {},
     "ncplane evolve: error: argument --coeffs: expected numbers separated by commas, "
     "got '1,x'"),
    (["evolve", "--config", "@cfg"],
     {"cfg": {**_EVOLVE_CFG, "schema_version": 1,
              "params": {"M": 1.0, "R": 0.4, "potential": "harmonic"}}},
     "error: potential must be an object with a \"kind\" key, got 'harmonic'"),
    (["evolve", "--config", "@cfg"],
     {"cfg": {**_EVOLVE_CFG, "schema_version": 1,
              "params": {"M": 1.0, "R": 0.4, "potential": {"kind": "cubic"}}}},
     "error: unknown potential kind 'cubic' (free, harmonic, polynomial)"),
    (["spectrum", "--kind", "landau", "--omega-c", "1", "--B", "1", "--n-max", "2"], {},
     "error: give either --omega-c or --B, not both"),
    (["vortex", "--scene", "@scene"], {"scene": [_SQUARE]},
     "error: scene {dir}/scene must be a JSON object"),
    (["phase", "--path1", "@a.csv"], {"a.csv": "0,0\n1,1\n"},
     "error: action route needs both --path1 and --path2"),
    (["vortex"], {}, "error: vortex needs --scene FILE or a config with \"scene\"/\"scene_json\""),
    (["vortex", "--config", "@cfg"],
     {"cfg": {**_SCATTER_CFG, "scene": {"core_loop": _SQUARE, "sigma": 1, "atoms": [[0, 0]]},
              "scatter": {"density": 1.0, "seed": 1, "region": [0, 0, 1, 1]}}},
     "error: scatter and explicit scene atoms are mutually exclusive"),
    (["vortex", "--config", "@cfg"],
     {"cfg": {**_SCATTER_CFG, "scatter": {"seed": 1, "region": [0, 0, 1, 1]}}},
     "error: scatter needs a density (in scatter or scene)"),
    (["vortex", "--config", "@cfg"],
     {"cfg": {**_SCATTER_CFG, "scatter": {"density": 1.0, "seed": 1, "region": [0, 0, 1]}}},
     "error: scatter needs \"region\": [x0, y0, x1, y1], got [0, 0, 1]"),
    (["vortex", "--config", "@cfg"],
     {"cfg": {**_SCATTER_CFG, "scatter": {"density": 1.0, "seed": 1, "region": [1, 0, 0, 1]}}},
     "error: degenerate scatter region [1, 0, 0, 1]"),
], ids=["config-not-object", "coeffs-not-numbers", "potential-string", "potential-kind",
        "omega-c-and-B", "scene-not-object", "path1-alone", "vortex-no-scene",
        "scatter-and-atoms", "scatter-no-density", "region-3-numbers", "region-degenerate"])
def test_error_exits_print_one_named_line(tmp_path, capsys, argv, files, line):
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    out_file = tmp_path / "out"
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code, out, err = run_cli(argv + ["--out", str(out_file)], capsys)
    assert code == 2
    assert out == "" and not out_file.exists()
    assert err.splitlines()[-1] == line.replace("{dir}", str(tmp_path))


def test_missing_config_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(["evolve", "--config", str(tmp_path / "nope.json")], capsys)
    assert code == 3


def test_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["evolve", "--config", str(path)], capsys)
    assert code == 2
    assert "malformed JSON" in err


def test_config_schema_version_enforced(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema_version": 0, "dt": 0.1, "steps": 1}))
    code, _, err = run_cli(["evolve", "--config", str(path)], capsys)
    assert code == 2
    assert "schema_version" in err


def write_loop_csv(path, vertices, header=True, index_column=False):
    lines = []
    if header:
        lines.append("i,q,p" if index_column else "q,p")
    for k, (q, p) in enumerate(vertices):
        lines.append(f"{k},{q},{p}" if index_column else f"{q},{p}")
    path.write_text("\n".join(lines) + "\n")


def test_path_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\n  \nq,p\n\n0,0\n \t\n1, 0\n1 ,1\n\n")
    np.testing.assert_array_equal(_read_path_csv(str(path)), [[0, 0], [1, 0], [1, 1]])
    path.write_text("\n0,0,0\n\n1,1,0\n2,1,1\n")
    np.testing.assert_array_equal(_read_path_csv(str(path)), [[0, 0], [1, 0], [1, 1]])


@pytest.mark.parametrize(
    "text, message",
    [
        ("q,p\n0,0\n\n1,0,7\n1,1\n", r"bad\.csv:4: expected 2 columns as on line 2, got 3 in '1,0,7'"),
        ("i,q,p\n0,0,0\n1,1\n", r"bad\.csv:3: expected 3 columns as on line 2, got 2 in '1,1'"),
        ("0,0\n1,0\n\n1,x\n", r"bad\.csv:4: non-numeric row '1,x'"),
        ("q,p\n0,0\n1,0,\n", r"bad\.csv:3: non-numeric row '1,0,'"),
        ("q,p\n0,0,1,2\n1,0,1,2\n", r"bad\.csv:2: expected 2 or 3 columns, got 4"),
        ("", r"bad\.csv: no vertex rows found"),
        ("\n \n", r"bad\.csv: no vertex rows found"),
        ("q,p\n\n", r"bad\.csv: no vertex rows found"),
    ],
    ids=["ragged-3", "ragged-2", "non-numeric", "trailing-comma", "four-columns", "empty",
         "blank-only", "header-only"],
)
def test_path_csv_errors_name_the_line(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        _read_path_csv(str(path))


def test_phase_loop_csv_error_exit_code(tmp_path, capsys):
    loop = tmp_path / "loop.csv"
    loop.write_text("q,p\n0,0\n1,0\nnan?,1\n")
    code, out, err = run_cli(["phase", "--loop", str(loop), "--L", "1.0"], capsys)
    assert code == 2
    assert "loop.csv:4: non-numeric row 'nan?,1'" in err
    assert out == ""


def test_phase_loop_area_and_action(tmp_path, capsys):
    loop = tmp_path / "loop.csv"
    write_loop_csv(loop, [(0, 0), (1, 0), (1, 1), (0, 1)])
    code, out, _ = run_cli(["phase", "--loop", str(loop), "--L", "0.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["phase_area"] == pytest.approx(4.0)
    assert payload["phase_action"] == pytest.approx(4.0, rel=1e-12)
    assert payload["difference"] == pytest.approx(0.0, abs=1e-12)


def test_phase_loop_csv_with_index_column(tmp_path, capsys):
    loop = tmp_path / "loop3.csv"
    write_loop_csv(loop, [(0, 0), (1, 0), (1, 1), (0, 1)], index_column=True)
    code, out, _ = run_cli(["phase", "--loop", str(loop), "--L", "1.0"], capsys)
    assert code == 0
    assert json.loads(out)["phase_area"] == pytest.approx(1.0)


def test_phase_two_paths(tmp_path, capsys):
    p1 = tmp_path / "p1.csv"
    p2 = tmp_path / "p2.csv"
    write_loop_csv(p1, [(0, 0), (0, 1), (1, 1), (1, 0)])
    write_loop_csv(p2, [(0, 0), (1, 0)])
    code, out, _ = run_cli(["phase", "--path1", str(p1), "--path2", str(p2)], capsys)
    assert code == 0
    assert json.loads(out)["phase_action"] == pytest.approx(1.0, rel=1e-12)


def test_phase_paths_must_share_endpoints(tmp_path, capsys):
    p1 = tmp_path / "p1.csv"
    p2 = tmp_path / "p2.csv"
    write_loop_csv(p1, [(0, 0), (0, 1), (1, 1), (1, 0)])
    write_loop_csv(p2, [(0, 0), (1.001, 0)])
    code, _, err = run_cli(["phase", "--path1", str(p1), "--path2", str(p2)], capsys)
    assert code == 2
    assert "paths do not interfere" in err


def test_phase_flux_route_single_quantum(tmp_path, capsys):
    B = 2.0
    phi0 = 2 * np.pi  # e = c = hbar = 1
    side = np.sqrt(phi0 / B)
    loop = tmp_path / "flux.csv"
    write_loop_csv(loop, [(0, 0), (side, 0), (side, side), (0, side)])
    code, out, _ = run_cli(["phase", "--loop", str(loop), "--ab", "--B", str(B)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["phase_ab"] == pytest.approx(2 * np.pi, rel=1e-9)
    # the area route with L set to the magnetic length gives the same phase
    assert payload["difference"] == pytest.approx(0.0, abs=1e-9)


def test_phase_scene_mode(tmp_path, capsys):
    scene = {
        "core_loop": [[0, 0], [2, 0], [2, 2], [0, 2]],
        "atoms": [[0.5, 0.5], [1.5, 1.5], [3.0, 3.0]],
        "sigma": 1,
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code, out, _ = run_cli(["phase", "--scene", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["atoms_inside"] == 2
    assert payload["winding_phase"] == pytest.approx(4 * np.pi)


def test_phase_modes_are_exclusive(tmp_path, capsys):
    loop = tmp_path / "loop.csv"
    write_loop_csv(loop, [(0, 0), (1, 0), (1, 1)])
    code, _, err = run_cli(
        ["phase", "--loop", str(loop), "--path1", str(loop), "--path2", str(loop)], capsys
    )
    assert code == 2
    assert "mutually exclusive" in err
    code, _, err = run_cli(["phase"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "extra, name",
    [({"L": True}, "L"), ({"L": "0.5"}, "L"), ({"L": 0.5, "hbar": True}, "hbar"),
     ({"L": 0.5, "hbar": "2"}, "hbar"),
     ({"magnetic": {"B": True}}, "magnetic.B"), ({"magnetic": {"B": "1.0"}}, "magnetic.B"),
     ({"magnetic": {"B": 1.0, "e": "1"}}, "magnetic.e"),
     ({"magnetic": {"B": 1.0, "c": False}}, "magnetic.c"),
     ({"magnetic": {"B": 1.0, "M": [1.0]}}, "magnetic.M"),
     ({"magnetic": {"B": 1.0, "hbar": "0.5"}}, "magnetic.hbar")],
)
def test_phase_numeric_settings_are_strict(tmp_path, capsys, extra, name):
    cfg = {"schema_version": 1, "loop": [[0, 0], [1, 0], [1, 1]], **extra}
    path = tmp_path / "phase.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["phase", "--config", str(path)], capsys)
    assert code == 2
    assert f'"{name}" must be a number' in err
    assert out == ""


@pytest.mark.parametrize("route", ["magnetic", "scene_json"])
def test_phase_routes_without_hbar_leave_the_top_level_hbar_unread(tmp_path, capsys, route):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(
        {"core_loop": [[0, 0], [2, 0], [2, 2], [0, 2]], "atoms": [[0.5, 0.5]], "sigma": 1}))
    cfg = ({"loop": [[0, 0], [1, 0], [1, 1]], "magnetic": {"B": 1.0}} if route == "magnetic"
           else {"scene_json": str(scene)})
    path = tmp_path / "phase.json"
    path.write_text(json.dumps({"schema_version": 1, **cfg, "hbar": "x"}))
    code, out, err = run_cli(["phase", "--config", str(path)], capsys)
    assert code == 0, err
    assert json.loads(out)


def test_phase_paths_route_reads_the_top_level_hbar(tmp_path, capsys):
    write_loop_csv(tmp_path / "p1.csv", [(0, 0), (0, 1), (1, 1), (1, 0)])
    write_loop_csv(tmp_path / "p2.csv", [(0, 0), (1, 0)])
    path = tmp_path / "phase.json"
    path.write_text(json.dumps({"schema_version": 1, "path1_csv": str(tmp_path / "p1.csv"),
                                "path2_csv": str(tmp_path / "p2.csv"), "hbar": "x"}))
    code, out, err = run_cli(["phase", "--config", str(path)], capsys)
    assert code == 2
    assert err == "error: setting \"hbar\" must be a number, got 'x'\n"
    assert out == ""


def test_phase_config_numbers_still_accept_integers(tmp_path, capsys):
    path = tmp_path / "phase.json"
    path.write_text(json.dumps({"schema_version": 1, "loop": [[0, 0], [1, 0], [1, 1]],
                                "L": 1, "hbar": 2}))
    code, out, _ = run_cli(["phase", "--config", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["phase_area"] == pytest.approx(0.5)


def test_algebra_magnetic_json(capsys):
    code, out, _ = run_cli(["algebra", "--kind", "magnetic", "--dim", "4", "--B", "1.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == ["rho_x", "rho_y", "center_x", "center_y"]
    i = payload["labels"].index("rho_x")
    j = payload["labels"].index("rho_y")
    assert payload["table"][i][j] == pytest.approx([0.0, 1.0])
    assert payload["artifact"][i][j] == pytest.approx([0.0, -3.0])
    assert payload["max_clean_deviation"] < 1e-12
    assert payload["length_scale_sq"] == pytest.approx(1.0)


def test_algebra_dissipative_requires_friction(capsys):
    code, _, err = run_cli(["algebra", "--kind", "dissipative", "--dim", "4"], capsys)
    assert code == 2
    code, out, _ = run_cli(
        ["algebra", "--kind", "dissipative", "--dim", "4", "--R", "1.0"], capsys
    )
    assert code == 0
    assert "xi_plus" in json.loads(out)["labels"]


@pytest.mark.parametrize("kind", ["magnetic", "dissipative"])
@pytest.mark.parametrize("dim", ["1", "2"])
def test_algebra_small_dim_names_the_table_minimum(kind, dim, capsys):
    # the table needs dim >= 3; that check runs before the factors are built
    friction = ["--R", "0.5"] if kind == "dissipative" else []
    code, out, err = run_cli(["algebra", "--kind", kind, "--dim", dim, *friction], capsys)
    assert code == 2
    assert out == ""
    assert f"dim must be >= 3, got {dim}" in err


def test_spectrum_omega_c_names_the_field_flags_it_would_ignore(capsys):
    landau = ["spectrum", "--kind", "landau"]
    code, out, err = run_cli([*landau, "--omega-c", "2", "--charge", "5", "--mass", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "--omega-c sets e = c = M = 1 and would ignore --charge, --mass" in err
    code, out, err = run_cli([*landau, "--omega-c", "2", "--light-speed", "3", "--n-max", "1"],
                             capsys)
    assert code == 2
    assert out == ""
    assert "would ignore --light-speed;" in err
    code, _, err = run_cli([*landau, "--charge", "5", "--n-max", "1"], capsys)
    assert code == 2
    assert "landau spectrum needs --omega-c or --B" in err


@pytest.mark.parametrize("argv, route, ignored", [
    (["algebra", "--kind", "dissipative", "--dim", "3", "--R", "0.5", "--B", "7",
      "--charge", "2", "--light-speed", "3"],
     "algebra --kind dissipative", "--B, --charge, --light-speed"),
    (["spectrum", "--kind", "distance", "--L", "1", "--dim", "2", "--B", "3", "--mass", "2"],
     "spectrum --kind distance", "--B, --mass"),
    (["phase", "--loop", "@loop", "--L", "1", "--charge", "2", "--B", "3"],
     "phase --loop without --ab", "--B, --charge"),
    (["phase", "--path1", "@loop", "--path2", "@loop", "--hbar", "2", "--mass", "3"],
     "phase --path1/--path2", "--mass"),
    (["phase", "--scene", "@scene", "--hbar", "2"], "phase --scene", "--hbar"),
    # flags other than the field flags
    (["algebra", "--kind", "magnetic", "--dim", "3", "--R", "0.5"], "algebra --kind magnetic",
     "--R"),
    (["phase", "--scene", "@scene", "--L", "2"], "phase --scene", "--L"),
    (["phase", "--path1", "@loop", "--path2", "@loop", "--L", "3"], "phase --path1/--path2",
     "--L"),
    (["spectrum", "--kind", "distance", "--L", "1", "--dim", "2", "--n-max", "5",
      "--omega-c", "2"], "spectrum --kind distance", "--omega-c, --n-max"),
    (["spectrum", "--kind", "landau", "--B", "1", "--n-max", "1", "--L", "3", "--dim", "4"],
     "spectrum --kind landau", "--L, --dim"),
    (["evolve", "--M", "1", "--R", "0.2", "--potential", "free", "--k", "3", "--coeffs", "1,2",
      "--dt", "0.1", "--steps", "2"], "evolve with a free potential", "--k, --coeffs"),
    (["evolve", "--M", "1", "--R", "0.2", "--potential", "harmonic", "--k", "3", "--coeffs",
      "1,2", "--dt", "0.1", "--steps", "2"], "evolve with a harmonic potential", "--coeffs"),
    (["evolve", "--M", "1", "--R", "0.2", "--potential", "polynomial", "--k", "3", "--coeffs",
      "1,2", "--dt", "0.1", "--steps", "2"], "evolve with a polynomial potential", "--k"),
    (["phase", "--loop", "@loop", "--ab", "--B", "1", "--L", "2"],
     'phase --loop with --ab or a "magnetic" object', "--L"),
])
def test_field_flags_a_route_does_not_read_are_errors(tmp_path, capsys, argv, route, ignored):
    write_loop_csv(tmp_path / "loop", [(0, 0), (1, 0), (1, 1), (0, 1)])
    (tmp_path / "scene").write_text(json.dumps({"core_loop": [[0, 0], [1, 0], [0, 1]],
                                                "atoms": [], "sigma": 1}))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert route in err and f"does not read {ignored}\n" in err


@pytest.mark.parametrize("command", ["spectrum", "phase", "algebra"])
def test_field_flags_come_first_in_help(command, capsys):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0
    options = [line.split() for line in out.split("options:")[1].splitlines()
               if line.startswith("  -")]
    assert [words[0] for words in options[:7]] == [
        "-h,", "--B", "--charge", "--light-speed", "--mass", "--hbar", "--out"]
    assert options[1] == ["--B", "B", "field", "strength"]


def test_vortex_scene_with_core(tmp_path, capsys):
    scene = {
        "core_loop": [[0, 0], [2, 0], [2, 2], [0, 2]],
        "atoms": [[0.5, 0.5], [1.5, 1.5], [3.0, 3.0]],
        "sigma": -1,
        "density": 1.0 / (2 * np.pi),
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code, out, _ = run_cli(["vortex", "--scene", str(path), "--core", "1.0,1.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["atoms_inside"] == 2
    assert payload["winding_phase"] == pytest.approx(-4 * np.pi)
    assert payload["core_winding"] == 1
    assert payload["circulation"] == pytest.approx(-2 * np.pi)
    assert payload["length_scale"] == pytest.approx(1.0)


def test_vortex_scatter_is_seeded(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "scene": {"core_loop": [[2, 2], [6, 2], [6, 6], [2, 6]], "sigma": 1},
        "scatter": {"region": [0, 0, 10, 10], "seed": 42, "density": 2.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out1, _ = run_cli(["vortex", "--config", str(path)], capsys)
    assert code == 0
    code, out2, _ = run_cli(["vortex", "--config", str(path)], capsys)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["atoms"] == 200
    # about density * loop area = 32 atoms inside, allow wide statistical slack
    assert 10 <= payload["atoms_inside"] <= 60


def test_vortex_scatter_requires_seed(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "scene": {"core_loop": [[0, 0], [1, 0], [1, 1]], "sigma": 1},
        "scatter": {"region": [0, 0, 2, 2], "density": 1.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(["vortex", "--config", str(path)], capsys)
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("seed", [1.7, 3.0, True, "42", None])
def test_vortex_scatter_seed_must_be_an_integer(tmp_path, capsys, seed):
    cfg = {
        "schema_version": 1,
        "scene": {"core_loop": [[0, 0], [1, 0], [1, 1]], "sigma": 1},
        "scatter": {"region": [0, 0, 2, 2], "density": 1.0, "seed": seed},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["vortex", "--config", str(path)], capsys)
    assert code == 2
    assert '"scatter.seed" must be an integer' in err
    assert out == ""


@pytest.mark.parametrize(
    "scatter, scene_density, name",
    [({"density": True}, None, "scatter.density"), ({"density": "2.0"}, None, "scatter.density"),
     ({}, "2.0", "scene.density"), ({"density": 1.0, "region": [0, 0, "2", 2]}, None,
                                    "scatter.region[2]"),
     ({"density": 1.0, "region": [0, False, 2, 2]}, None, "scatter.region[1]")],
)
def test_vortex_scatter_numbers_are_strict(tmp_path, capsys, scatter, scene_density, name):
    scene = {"core_loop": [[0, 0], [1, 0], [1, 1]], "sigma": 1}
    if scene_density is not None:
        scene["density"] = scene_density
    cfg = {"schema_version": 1, "scene": scene,
           "scatter": {"region": [0, 0, 2, 2], "seed": 3, **scatter}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["vortex", "--config", str(path)], capsys)
    assert code == 2
    assert f'"{name}" must be a number' in err
    assert out == ""


@pytest.mark.parametrize("core, name", [(["0.5", 0.5], "core[0]"), ([0.5, True], "core[1]")])
def test_vortex_config_core_is_strict(tmp_path, capsys, core, name):
    cfg = {"schema_version": 1, "core": core,
           "scene": {"core_loop": [[0, 0], [1, 0], [1, 1]], "atoms": [[0.7, 0.2]], "sigma": 1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(["vortex", "--config", str(path)], capsys)
    assert code == 2
    assert f'"{name}" must be a number' in err


_TRIANGLE = [[0, 0], [1, 0], [1, 1]]


@pytest.mark.parametrize(
    "command, cfg, key",
    [("vortex", {"scene": {"core_loop": _TRIANGLE, "atoms": [], "sigma": 1}, "out": 2}, "out"),
     ("phase", {"loop_csv": 0, "L": 1.0}, "loop_csv"),
     ("evolve", {"params": {"M": 1.0, "R": 0.4}, "dt": 0.01, "steps": 5, "out": 3.5}, "out"),
     ("phase", {"loop": _TRIANGLE, "L": 1.0, "out": ["a.json"]}, "out"),
     ("phase", {"path1_csv": 1, "path2_csv": "b.csv"}, "path1_csv"),
     ("phase", {"path1_csv": "a.csv", "path2_csv": False}, "path2_csv"),
     ("phase", {"scene_json": 0}, "scene_json"),
     ("vortex", {"scene_json": {"core_loop": _TRIANGLE}}, "scene_json")],
)
def test_path_settings_must_be_strings(tmp_path, capsys, command, cfg, key):
    # a number would be taken as a file descriptor: "out": 2 wrote to stderr
    # and closed it, "loop_csv": 0 read stdin
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, **cfg}))
    code, out, err = run_cli([command, "--config", str(path)], capsys)
    assert code == 2
    assert f'"{key}" must be a path string' in err
    assert out == ""


@pytest.mark.parametrize("ab", ["false", "true", 1, 0])
def test_phase_ab_must_be_a_boolean(tmp_path, capsys, ab):
    path = tmp_path / "phase.json"
    path.write_text(json.dumps({"schema_version": 1, "loop": _TRIANGLE, "L": 1.0, "ab": ab}))
    code, out, err = run_cli(["phase", "--config", str(path), "--B", "1.0"], capsys)
    assert code == 2
    assert '"ab" must be true or false' in err
    assert out == ""


@pytest.mark.parametrize(
    "loop, name",
    [([[0, 0], [1, 0], [1, True], ["0", 1]], "loop[2][1]"),
     ([[0, 0], [1, 0], [1, 1], ["0", 1]], "loop[3][0]"),
     ([[0, 0], [1.5, 0], [1, 1], [0, None]], "loop[3][1]")],
)
def test_phase_config_loop_is_strict(tmp_path, capsys, loop, name):
    path = tmp_path / "phase.json"
    path.write_text(json.dumps({"schema_version": 1, "loop": loop, "L": 1.0}))
    code, out, err = run_cli(["phase", "--config", str(path)], capsys)
    assert code == 2
    assert f'"{name}" must be a number' in err
    assert out == ""


@pytest.mark.parametrize(
    "change, message",
    [({"sigma": True, "density": "2.5"}, '"scene.sigma" must be an integer'),
     ({"sigma": 1.0}, '"scene.sigma" must be an integer'),
     ({"density": "2.5"}, '"scene.density" must be a number'),
     ({"density": False}, '"scene.density" must be a number'),
     ({"atoms": [[0.5, 0.25], [True, 0.5]]}, '"scene.atoms[1][0]" must be a number'),
     ({"atoms": [[0.5, 0.25, 0.0]]}, '"scene.atoms[0]" must be an [x, y] pair'),
     ({"core_loop": [[0, 0], [2, 0], [2, "2"], [0, 2]]},
      '"scene.core_loop[2][1]" must be a number')],
)
@pytest.mark.parametrize("command", ["vortex", "phase"])
def test_scene_values_are_strict(tmp_path, capsys, command, change, message):
    scene = {"core_loop": [[0, 0], [2, 0], [2, 2], [0, 2]], "atoms": [[0.5, 0.5]],
             "sigma": -1, **change}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code, out, err = run_cli([command, "--scene", str(path)], capsys)
    assert code == 2
    assert message in err
    assert out == ""
    # the same scene given inline in a config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "scene": scene}))
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert message in err


def test_evolve_hamiltonian_overflow_is_a_config_error(capsys):
    code, out, err = run_cli(["evolve", "--M", "1", "--R", "0", "--potential", "free",
                              "--v-plus", "1e200", "--dt", "0.01", "--steps", "3"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "v_plus" in err and "row 0" in err
    assert out == ""


@pytest.mark.parametrize("to_file", [False, True])
def test_evolve_potential_overflow_names_the_column_and_writes_nothing(
        tmp_path, capsys, to_file):
    csv = tmp_path / "traj.csv"
    argv = ["evolve", "--M", "1", "--R", "0", "--potential", "harmonic", "--k", "1",
            "--x-plus", "1e160", "--dt", "1e-30", "--steps", "2"]
    code, out, err = run_cli(argv + (["--out", str(csv)] if to_file else []), capsys)
    assert code == 2
    assert err == "error: output column hamiltonian is not finite in row 0: inf\n"
    assert out == ""
    assert not csv.exists()


def test_evolve_summary_overflow_names_the_key_and_writes_nothing(tmp_path, capsys):
    # every column is finite, but the diagonal's second difference overflows
    csv = tmp_path / "traj.csv"
    code, out, err = run_cli(["evolve", "--M", "1", "--R", "1", "--potential", "free",
                              "--x-plus", "1.7e308", "--x-minus", "1.7e308", "--dt", "0.1",
                              "--steps", "3", "--out", str(csv)], capsys)
    assert code == 2
    assert err == "error: output field classical_residual is not finite\n"
    assert out == ""
    assert not csv.exists()


def test_evolve_hyperbolic_overflow_writes_nothing(tmp_path, capsys):
    csv = tmp_path / "traj.csv"
    code, out, err = run_cli(["evolve", "--M", "1", "--R", "1", "--potential", "free",
                              "--v-plus", "1", "--v-minus", "1", "--dt", "0.1",
                              "--steps", "8000", "--out", str(csv)], capsys)
    assert code == 2
    assert "gamma*t" in err
    assert out == ""
    assert not csv.exists()


@pytest.mark.parametrize("fmt, where", [("csv", "column value is not finite in row 0"),
                                        ("json", "field values[0] is not finite")])
def test_spectrum_overflow_is_named_not_printed(capsys, fmt, where):
    code, out, err = run_cli(["spectrum", "--kind", "distance", "--L", "1e200", "--dim", "3",
                              "--format", fmt], capsys)
    assert code == 2
    assert where in err
    assert out == ""


def test_json_output_names_a_nonfinite_key(tmp_path):
    obj = {"a": 1.0, "b": {"c": [0.5, float("-inf")]}, "d": float("nan")}
    with pytest.raises(ValueError, match=r"output field b\.c\[1\] is not finite"):
        cli._emit_json(obj, str(tmp_path / "out.json"))
    assert not (tmp_path / "out.json").exists()


def test_vortex_scatter_equals_explicit_atoms(tmp_path, capsys):
    loop = [[2, 2], [6, 2.5], [6, 6], [2, 6]]
    cfg = {
        "schema_version": 1,
        "scene": {"core_loop": loop, "sigma": -1},
        "scatter": {"region": [0, 0, 10, 10], "seed": 9, "density": 3.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, scattered, _ = run_cli(["vortex", "--config", str(path), "--core", "4,4"], capsys)
    assert code == 0
    atoms = np.random.default_rng(9).uniform((0, 0), (10, 10), size=(300, 2))
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"core_loop": loop, "atoms": atoms.tolist(), "sigma": -1,
                                 "density": 3.0}))
    code, explicit, _ = run_cli(["vortex", "--scene", str(scene), "--core", "4,4"], capsys)
    assert code == 0
    assert scattered == explicit


def test_spectrum_output_is_deterministic(tmp_path, capsys):
    argv = ["spectrum", "--kind", "distance", "--L", "1.3", "--dim", "16"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "ncplane.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "spectrum" in proc.stdout


def test_cli_import_leaves_scipy_out():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ncplane.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
