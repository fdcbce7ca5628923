"""evolve's CSV is derived and written in row blocks.

Only the (N, 5) trajectory and the Hamiltonian column are held for the whole
run; the canonical and orbit-invariant columns of each CSV_BLOCK_ROWS block
are derived when the block is checked and again when it is written.  The
run summary is folded over the checked blocks, as running maxima, so no
column of it is held for the whole run either.  The bytes must not depend
on the block size, and they must be those of the whole table formatted by
"%.17g".
"""

import json
import tracemalloc

import numpy as np
import pytest

from ncplane import cli
from ncplane.dissipative_dynamics import (
    DissipativeParams,
    Potential,
    TwoCoordState,
    canonical_coords,
    hamiltonian_value,
    integrate_array,
    orbit_invariant,
)


def _evolve(argv, capsys, out=None):
    code = cli.main(["evolve", *argv] + ([] if out is None else ["--out", str(out)]))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _whole_table(params, initial, dt, steps, canonical):
    """The CSV table as one array, every column of every row at once."""
    traj = integrate_array(initial, params, dt, steps)
    h = hamiltonian_value(traj, params)
    if not canonical:
        return np.column_stack((traj, h))
    cc = canonical_coords(traj, params)
    xi = np.column_stack(cc.xi)
    return np.column_stack((traj, xi, cc.X_plus, cc.X_minus, h, orbit_invariant(xi)))


_HARMONIC = (["--potential", "harmonic", "--k", "0.7"], Potential.harmonic(0.7))


@pytest.mark.parametrize("R, canonical, potential, start", [
    (0.2, True, _HARMONIC, (1.1, -0.4, 0.3, 0.0)),
    (0.0, False, _HARMONIC, (1.1, -0.4, 0.3, 0.0)),
    # a free diagonal start reaches the hyperbolic and classical-residual fields
    (0.2, True, ([], Potential.free()), (1.1, 1.1, 0.3, 0.3)),
], ids=["0.2-True", "0.0-False", "free-diagonal-canonical"])
def test_csv_and_summary_do_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch,
                                                         R, canonical, potential, start):
    flags, pot = potential
    x_plus, x_minus, v_plus, v_minus = start
    argv = ["--M", "1.3", "--R", str(R), *flags, f"--x-plus={x_plus}", f"--x-minus={x_minus}",
            f"--v-plus={v_plus}", f"--v-minus={v_minus}", "--dt", "0.01", "--steps", "1100"]
    argv += ["--canonical"] if canonical else []
    results = []
    # 1101 rows: blocks of 1 and 2 end in a one-row block
    for block in (1, 2, 3, 1024):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        path = tmp_path / f"t{block}.csv"
        code, out, err = _evolve(argv, capsys, path)
        assert code == 0, err
        results.append((path.read_bytes(), out))
    assert all(result == results[0] for result in results)
    if pot.kind == "free":
        assert {"hyperbolic_max_deviation", "classical_residual"} <= set(json.loads(results[0][1]))

    table = _whole_table(DissipativeParams(M=1.3, R=R, potential=pot), TwoCoordState(*start),
                         0.01, 1100, canonical)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    want = cli.EVOLVE_HEADER[canonical] + "\n" + row * len(table) % tuple(table.ravel().tolist())
    assert results[0][0].decode() == want


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("block", [1, 3, 1024])
def test_a_late_nonfinite_column_is_named_by_its_absolute_row(tmp_path, capsys, monkeypatch,
                                                              to_file, block):
    # at R = 1e-150 the orbit invariant xi_-^2 - xi_+^2 overflows once |v+|
    # passes ~1.3e4, about 1350 rows in; every earlier value is finite
    params = DissipativeParams(M=1.0, R=1e-150, potential=Potential.harmonic(1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        table = _whole_table(params, TwoCoordState(1e5, 0.0, 0.0, 0.0), 1e-4, 2000, True)
    row, col = np.argwhere(~np.isfinite(table))[0]
    assert row > 1024 and col >= 5

    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
    path = tmp_path / "traj.csv"
    code, out, err = _evolve(["--M", "1", "--R", "1e-150", "--potential", "harmonic", "--k", "1",
                              "--x-plus", "1e5", "--dt", "1e-4", "--steps", "2000",
                              "--canonical"], capsys, path if to_file else None)
    assert code == 2
    name = cli.EVOLVE_HEADER[True].split(",")[col]
    assert err == f"error: output column {name} is not finite in row {row}: {table[row, col]}\n"
    assert out == ""
    assert not path.exists()


def test_two_faults_are_named_by_the_earlier_one(capsys):
    # the closed form of the free run overflows near row 7098, and the orbit
    # invariant is NaN in row 10418: the summary folds over the checked blocks
    # in row order, so the earlier fault is the one named
    code, out, err = _evolve(["--M", "100", "--R", "1", "--v-plus", "1e-300", "--dt", "10",
                              "--steps", "10440"], capsys)
    assert code == 2 and out == ""
    assert err == "error: hyperbolic flow overflows float64 at gamma*t = 709.8\n"


def test_a_long_canonical_run_holds_little_beyond_its_trajectory(tmp_path, capsys, monkeypatch):
    # traced from the end of the integration on, on each route of the summary:
    # H and one block's columns, summary values and text, not whole-run copies
    # of any column; the writer phase peaks at about 37 B per step
    steps = 100_000
    integrate = cli.integrate_array

    def integrate_then_trace(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        tracemalloc.start()
        return traj

    monkeypatch.setattr(cli, "integrate_array", integrate_then_trace)
    per_step = {}
    for route, argv in {
        "harmonic-canonical": "--R 0.2 --potential harmonic --k 1 --x-plus 1 --canonical",
        "free": "--R 0.2 --x-plus 1 --v-plus 1",
        "free-diagonal": "--R 0.2 --x-plus 1 --x-minus 1",
        "R0-diagonal": "--R 0 --potential harmonic --k 1 --x-plus 1 --x-minus 1",
    }.items():
        try:
            code, out, err = _evolve(["--M", "1", *argv.split(), "--dt", "5e-4",
                                      "--steps", str(steps)], capsys, tmp_path / "traj.csv")
            per_step[route] = tracemalloc.get_traced_memory()[1] / steps
        finally:
            tracemalloc.stop()
        assert code == 0, err
    assert max(per_step.values()) <= 44, per_step
