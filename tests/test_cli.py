"""End-to-end checks of the command line interface and its exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ncplane.cli import main


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
