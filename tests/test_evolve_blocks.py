"""evolve's CSV is derived and written in row blocks.

Only the (N, 5) trajectory and the Hamiltonian column are held for the whole
run; the canonical and orbit-invariant columns of each CSV_BLOCK_ROWS block
are derived when the block is checked and again when it is written.  The
bytes must not depend on the block size, and they must be those of the
whole table formatted by "%.17g".
"""

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


@pytest.mark.parametrize("R, canonical", [(0.2, True), (0.0, False)])
def test_csv_and_summary_do_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch,
                                                         R, canonical):
    argv = ["--M", "1.3", "--R", str(R), "--potential", "harmonic", "--k", "0.7",
            "--x-plus", "1.1", "--x-minus", "-0.4", "--v-plus", "0.3", "--dt", "0.01",
            "--steps", "1100"] + (["--canonical"] if canonical else [])
    results = []
    for block in (1, 2, 3, 1024):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        path = tmp_path / f"t{block}.csv"
        code, out, err = _evolve(argv, capsys, path)
        assert code == 0, err
        results.append((path.read_bytes(), out))
    assert all(result == results[0] for result in results)

    table = _whole_table(DissipativeParams(M=1.3, R=R, potential=Potential.harmonic(0.7)),
                         TwoCoordState(1.1, -0.4, 0.3, 0.0), 0.01, 1100, canonical)
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


def test_a_long_canonical_run_holds_little_beyond_its_trajectory(tmp_path, capsys, monkeypatch):
    # traced from the end of the integration on: H, the summary's xi pair and
    # one block's columns and text, not whole-run copies of every column
    steps = 100_000
    integrate = cli.integrate_array

    def integrate_then_trace(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        tracemalloc.start()
        return traj

    monkeypatch.setattr(cli, "integrate_array", integrate_then_trace)
    try:
        code, out, err = _evolve(["--M", "1", "--R", "0.2", "--potential", "harmonic", "--k", "1",
                                  "--x-plus", "1", "--dt", "5e-4", "--steps", str(steps),
                                  "--canonical"], capsys, tmp_path / "traj.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert peak / steps <= 64, f"{peak / steps:.1f} B/step"
