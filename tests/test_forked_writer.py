"""A long CSV table bound for a file is formatted by two processes.

cli._emit_csv forks once for a table of cli._FORK_BLOCKS blocks or more
written to a regular --out file, on a host with fork and two CPUs: the child
formats the back half of the blocks into an unnamed temporary file and the
parent appends it to the front half.  The bytes must be those of the
single-process writer, which every other case takes, and no call may leave
a child behind.  The block size and the threshold are made small here, so
each case runs in milliseconds.
"""

import os
import signal
import tempfile
import time
import warnings

import pytest

from ncplane import cli

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

_EVOLVE = ["evolve", "--M", "1.3", "--R", "0.2", "--potential", "harmonic", "--k", "0.7",
           "--x-plus", "1.1", "--v-minus", "0.3", "--dt", "0.01", "--canonical"]


@pytest.fixture
def forks(monkeypatch):
    """A two-CPU host with blocks of 4 rows and a threshold of 4 blocks; the
    list gets one item per fork this process makes."""
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
    monkeypatch.setattr(cli, "_FORK_BLOCKS", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    made = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    yield made
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def _run(argv, capsys, out=None):
    code = cli.main(argv + ([] if out is None else ["--out", str(out)]))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _serial(argv, capsys, monkeypatch, out):
    """The stdout and --out bytes of the single-process writer."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_FORK_BLOCKS", 10**9)
        code, stdout, err = _run(argv, capsys, out)
    assert code == 0, err
    return stdout, out.read_bytes()


# rows: 3 blocks of 4 (below the threshold), 4 (at it), 5, 7 and 9 (above
# it, odd counts), and 25 rows: 7 blocks, the last of one row
@pytest.mark.parametrize("rows", [12, 16, 20, 27, 36, 25])
@pytest.mark.parametrize("command", ["evolve", "spectrum"])
def test_the_forked_writer_writes_the_single_process_bytes(tmp_path, capsys, monkeypatch, forks,
                                                           command, rows):
    argv = (_EVOLVE + ["--steps", str(rows - 1)] if command == "evolve"
            else ["spectrum", "--kind", "distance", "--L", "1.5", "--dim", str(rows)])
    want = _serial(argv, capsys, monkeypatch, tmp_path / "serial.csv")
    code, stdout, err = _run(argv, capsys, tmp_path / "forked.csv")
    assert code == 0 and err == ""
    assert forks == [1] * (rows > 12)
    assert (stdout, (tmp_path / "forked.csv").read_bytes()) == want
    assert len(want[1].splitlines()) == rows + 1


@pytest.mark.parametrize("host", ["stdout", "one CPU", "no fork", "no temporary file"])
def test_stdout_one_cpu_no_fork_and_no_temporary_file_take_the_single_process_path(
        tmp_path, capsys, monkeypatch, forks, host):
    argv = _EVOLVE + ["--steps", "40"]
    summary, table = _serial(argv, capsys, monkeypatch, tmp_path / "serial.csv")
    out = None if host == "stdout" else tmp_path / "t.csv"
    if host == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    if host == "no fork":
        monkeypatch.delattr(os, "fork")
    if host == "no temporary file":
        def refuse(**kwargs):
            raise PermissionError("planted")

        monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
    code, stdout, err = _run(argv, capsys, out)
    assert code == 0 and err == ""
    assert forks == []
    if out is None:
        assert stdout.encode() == table + summary.encode()
    else:
        assert (stdout, out.read_bytes()) == (summary, table)


def test_a_file_that_is_not_regular_takes_the_single_process_path(capsys, forks):
    # no temporary file goes beside /dev/null
    code, stdout, err = _run(_EVOLVE + ["--steps", "40"], capsys, os.devnull)
    assert code == 0 and err == ""
    assert forks == []


def _failing_cells(monkeypatch, fail_in_child, fail_in_parent):
    parent = os.getpid()
    cells = cli._csv_cells

    def patched(x, buf):
        (fail_in_parent if os.getpid() == parent else fail_in_child)()
        return cells(x, buf)

    monkeypatch.setattr(cli, "_csv_cells", patched)


@pytest.mark.parametrize("how, status", [
    ("raises", "failed with exit status 1"),
    ("is killed", f"was killed by signal {int(signal.SIGKILL)}"),
])
def test_a_failing_child_is_one_named_error_line(tmp_path, capsys, monkeypatch, forks, how,
                                                 status):
    def fail():
        if how == "raises":
            raise RuntimeError("planted")
        os.kill(os.getpid(), signal.SIGKILL)

    _failing_cells(monkeypatch, fail, lambda: None)
    out = tmp_path / "t.csv"
    code, stdout, err = _run(_EVOLVE + ["--steps", "40"], capsys, out)
    # 41 rows: 11 blocks, the parent formats rows 0-19 and the child 20-40
    assert forks == [1]
    assert code == 3 and stdout == ""
    assert err == f"error: the process formatting rows 20 to 40 of {out} {status}\n"


def test_a_parent_whose_own_half_fails_kills_its_child(tmp_path, capsys, monkeypatch, forks):
    def fail():
        raise OSError("planted")

    _failing_cells(monkeypatch, lambda: time.sleep(60), fail)
    start = time.monotonic()
    code, stdout, err = _run(_EVOLVE + ["--steps", "40"], capsys, tmp_path / "t.csv")
    # the child would sleep for a minute if it were waited for, not killed
    assert time.monotonic() - start < 30
    assert forks == [1]
    assert (code, stdout, err) == (3, "", "error: planted\n")


def test_the_fork_warning_of_python_3_12_is_not_printed(tmp_path, capsys, monkeypatch, forks):
    # Python 3.12+ warns on a fork of a process with threads, as OpenBLAS's
    fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may "
                      "lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = _run(_EVOLVE + ["--steps", "40"], capsys, tmp_path / "t.csv")
    assert code == 0 and err == ""
