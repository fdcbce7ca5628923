"""The benchmark's own tests: span arithmetic, checker sensitivity, smoke runs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ span arithmetic

def test_self_time_on_synthetic_tree():
    rec = tracing.Recorder()
    root = rec.span("cli.main", 0, 100)
    a = rec.span("cli.run_evolve", 10, 40, root)
    rec.span("dissipative_dynamics.integrate_trajectory", 15, 25, a)
    rec.span("dissipative_dynamics.hamiltonian_value", 25, 30, a)
    rec.span("cli._emit", 50, 70, root)
    assert tracing.self_times(rec.start, rec.end, rec.parent) == [50, 15, 10, 5, 20]
    agg = tracing.aggregate(rec)
    assert agg["cli.self_s"] == pytest.approx(85e-9)
    assert agg["dissipative_dynamics.self_s"] == pytest.approx(15e-9)
    assert agg["cli.main.calls"] == 1
    assert agg["trace.spans"] == 5


def test_self_time_counts_overlapping_children_once_and_clips():
    rec = tracing.Recorder()
    root = rec.span("p", 0, 100)
    rec.span("c1", 10, 50, root)
    rec.span("c2", 30, 60, root)      # overlaps c1 on [30, 50]
    rec.span("c3", 90, 120, root)     # sticks out of the parent
    assert tracing.self_times(rec.start, rec.end, rec.parent)[0] == 100 - 50 - 10


def test_install_patches_every_namespace_and_uninstall_restores():
    import ncplane.cli
    import ncplane.vortex_film

    original = ncplane.vortex_film.points_in_polygon
    integrate = ncplane.dissipative_dynamics.integrate_trajectory
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        assert ncplane.cli.integrate_trajectory is not integrate
        assert ncplane.cli.integrate_trajectory is ncplane.dissipative_dynamics.integrate_trajectory
        assert ncplane.cli.points_in_polygon is ncplane.vortex_film.points_in_polygon
        assert ncplane.vortex_film.points_in_polygon is not original
        scene = ncplane.vortex_film.VortexScene(
            core_loop=[[0, 0], [1, 0], [1, 1], [0, 1]], atoms=[[0.5, 0.5], [2, 2]], sigma=1)
        ncplane.vortex_film.winding_phase(scene)
    finally:
        tracing.uninstall(undo)
    assert ncplane.vortex_film.points_in_polygon is original
    agg = tracing.aggregate(rec)
    assert agg["vortex_film.points_in_polygon.calls"] == 1
    assert agg["vortex_film.winding_numbers.atom_edges"] == 2 * 4


# ------------------------------------------------------- checker sensitivity

def _run_cli(step) -> str:
    from ncplane import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(step.spec["argv"]) == 0
    return out.getvalue()


def _steps(name, tmp_path, seed=3):
    return workloads.build(name, seed, str(tmp_path), "tiny")


def _rewrite(path, transform):
    Path(path).write_text(transform(Path(path).read_text()))


def _scale_csv_value(text: str, row: int, col: int, factor: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _largest_state_col(text: str, row: int) -> int:
    values = [abs(float(v)) for v in text.splitlines()[row].split(",")[1:5]]
    return 1 + int(np.argmax(values))


@pytest.mark.parametrize("workload,index", [("evolve-long", 0), ("evolve-sweep", 1),
                                            ("evolve-sweep", 2), ("evolve-sweep", 0)])
def test_trajectory_checker_rejects_one_value_scaled(tmp_path, workload, index):
    step = _steps(workload, tmp_path)[index]
    stdout = _run_cli(step)
    assert not workloads.check_step(step, stdout).errors
    out = step.outputs[0]
    row = len(Path(out).read_text().splitlines()) // 2
    col = _largest_state_col(Path(out).read_text(), row)
    _rewrite(out, lambda t: _scale_csv_value(t, row, col, 1 + 1e-6))
    assert workloads.check_step(step, stdout).errors


def test_count_checker_rejects_atom_count_off_by_one(tmp_path):
    for step in _steps("film", tmp_path)[:2]:
        stdout = _run_cli(step)
        assert not workloads.check_step(step, stdout).errors
        out = step.outputs[0]
        rep = json.loads(Path(out).read_text())
        rep["atoms_inside"] += 1
        rep["winding_phase"] += 2 * math.pi * rep["sigma"]   # keep the phase consistent
        Path(out).write_text(json.dumps(rep))
        chk = workloads.check_step(step, stdout)
        assert any("atoms_inside" in e for e in chk.errors)


@pytest.mark.parametrize("index", [0, 1])
def test_bracket_checker_rejects_one_entry_conjugated(tmp_path, index):
    step = _steps("operators", tmp_path)[index]
    stdout = _run_cli(step)
    assert not workloads.check_step(step, stdout).errors
    out = step.outputs[0]
    rep = json.loads(Path(out).read_text())
    table = rep["table"]
    i, j = next((i, j) for i in range(len(table)) for j in range(len(table))
                if table[i][j][1] != 0.0)
    table[i][j][1] = -table[i][j][1]
    Path(out).write_text(json.dumps(rep))
    assert any(e.startswith("table") for e in workloads.check_step(step, stdout).errors)


def test_loop_and_spectrum_checkers_reject_scaled_values(tmp_path):
    steps = _steps("film", tmp_path)
    loop = steps[2]
    stdout = _run_cli(loop)
    assert not workloads.check_step(loop, stdout).errors
    rep = json.loads(Path(loop.outputs[0]).read_text())
    rep["phase_action"] *= 1 + 1e-6
    Path(loop.outputs[0]).write_text(json.dumps(rep))
    assert workloads.check_step(loop, stdout).errors

    spectrum = _steps("operators", tmp_path)[2]
    stdout = _run_cli(spectrum)
    assert not workloads.check_step(spectrum, stdout).errors
    _rewrite(spectrum.outputs[0], lambda t: _scale_csv_value(t, 3, 1, 1 + 1e-6))
    assert workloads.check_step(spectrum, stdout).errors


def test_density_checker_rejects_shifted_frequency_and_conjugated_entry():
    import ncplane.dissipative_dynamics as dd

    case = workloads.density_case(np.random.default_rng(5), 6, 256)
    rhos, freqs = workloads.run_density(dd, case)
    assert not workloads.check_density_step(case, rhos, freqs).errors
    bad = [r.copy() for r in rhos]
    i, j = np.argwhere(np.abs(np.triu(bad[7], 1)) > 0)[0]
    bad[7][i, j] = np.conj(bad[7][i, j])
    assert workloads.check_density_step(case, bad, freqs).errors
    shifted = np.array(freqs) * (1 + 1e-6)
    assert workloads.check_density_step(case, rhos, shifted).errors


def test_even_odd_reference_on_a_square():
    square = [[0, 0], [2, 0], [2, 2], [0, 2]]
    inside, ambiguous = ref.even_odd_inside([[1, 1], [3, 1], [1, -1], [2, 1]], square)
    assert inside[:3].tolist() == [True, False, False]
    assert ambiguous.tolist() == [False, False, False, True]


def test_exact_linear_states_match_closed_form_oscillator():
    # R = 0: x'' = -k x on each coordinate
    states = ref.linear_states(1.0, 0.0, 4.0, [1.0, 0.5, 0.0, 0.0], 0.01, 1000, block=64)
    t = np.arange(1001) * 0.01
    np.testing.assert_allclose(states[:, 0], np.cos(2 * t), atol=1e-12)
    np.testing.assert_allclose(states[:, 3], -np.sin(2 * t), atol=1e-12)


# ------------------------------------------------------------- smoke runs

def _bench(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload_tiny(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])


def test_traced_counts_repeat_across_seeds():
    counts = []
    for seed in (1, 2):
        proc = _bench(ROOT, "--workload", "film", "--seed", str(seed), "--seconds", "1",
                      "--trace", "1", "--size", "tiny")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".calls", ".atom_edges", ".vertices", ".steps", ".flops"))})
    assert counts[0] == counts[1]
    assert counts[0]["vortex_film.winding_numbers.atom_edges"] > 0


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "film", "--seed", "1", "--seconds", "1", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
