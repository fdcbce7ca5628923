"""Command-line front end: spectrum, evolve, phase, algebra, vortex.

Results go to stdout (or --out FILE); diagnostics go to stderr only.
Exit codes: 0 success, 2 config error, 3 I/O error, 4 diverged trajectory.
CSV output carries 17 significant digits per value; a NaN or infinity in
any output is an error (exit 2) that names its CSV column or JSON key.
JSON config files must carry "schema_version": 1; identical configs produce
byte-identical output (statistical vortex scenes require an explicit
scatter seed).

Each command's flags and config keys are declared once, in the settings
table _COMMANDS below: each row gives a flag, its config key, kind, default,
help and the routes that read it (README.md lists them).  A flag overrides
its config key.  A value of another kind, a config key that no route of the
command reads and a flag that the chosen route does not read are errors
that name them.  A scene or loop comes from its flag's file, else its file
key, else its inline key.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
# argparse's gettext imports locale when the first parser is built; importing
# it with the module keeps that one-time cost (~1.4 ms) out of the first command
import locale  # noqa: F401
import math
import os
import shutil
import sys
import tempfile
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
CSV_BLOCK_ROWS = 1024
# a forked child formats the back half of a table of this many blocks or more
# (_emit_csv); against one process, the writer alone took x1.45 the time at 2
# blocks, x1.07 at 4, x0.90-0.97 at 6-8 and x0.77 at 16, on 2 vCPUs
_FORK_BLOCKS = 8
EVOLVE_HEADER = {
    False: "t,x_plus,x_minus,v_plus,v_minus,hamiltonian",
    True: "t,x_plus,x_minus,v_plus,v_minus,xi_plus,xi_minus,X_plus,X_minus,hamiltonian,"
          "orbit_invariant",
}


class ConfigError(ValueError):
    """Invalid configuration; mapped to exit code 2."""


def _output(out_path: str | None):
    """stdout (left open on exit), or the file out_path as written text."""
    return (contextlib.nullcontext(sys.stdout) if out_path is None
            else open(out_path, "w", newline=""))


def _emit(text: str, out_path: str | None) -> None:
    with _output(out_path) as fh:
        fh.write(text)


# ----------------------------------------------------------------- CSV text
# A value's 17-digit decimal significand D = round(|x| 10^(16-E)) is computed
# exactly in vectorised float64 and int64 arithmetic: 10^(16-E) is held as a
# double-double (hi, lo), and |x| times it as p + lo by Dekker's TwoProduct
# (Numer. Math. 18 (1971) 224) with a Veltkamp split.  p + lo is off by less
# than 1e-14 on a significand below 1e17, so the kernel rounds every value
# whose fraction lies farther than _TIE_MARGIN from 1/2.  The rest (near-ties,
# magnitudes outside the power table's window, NaN and infinities) go through
# "%.17g" itself, in one batched format per block.
#
# A cell's text is laid out in a template of _SLOTS bytes: the sign, the 17
# digits (_INT), "0." and three "0"s (fixed form below 1), the 17 digits again
# (_FRAC), "e", both exponent signs, three exponent digits and the separator.
# A per-cell mask, looked up by (layout, last nonzero digit) and given the
# sign, keeps the bytes "%.17g" prints: the digits before the decimal point
# from _INT, those after it from _FRAC, so that the kept bytes form a few
# runs, which numpy compacts fast.  The masked bytes of a block are its text.

_TIE_MARGIN = 2.0 ** -40  # ~9e-13: about 100 times the error bound of p + lo
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's constant
_X_MIN, _X_MAX = 1e-290, 1e290  # the |x| window the kernel decides
# the exponents of the power table: E of an |x| in the window is in [-290, 289],
# np.log10's estimate of it at most one off, and the correction one step from that
_E_MIN, _E_MAX = -292, 291
_D_MIN, _D_MAX = 10**16, 10**17
_SIGN, _INT, _ZERO, _POINT, _LEAD, _FRAC, _EXP, _SEP = 0, 1, 18, 19, 20, 23, 40, 46
_SLOTS = _SEP + 1
# layouts: fixed form for E in [-4, 16] (E + 4), exponent form
# (_EXP_FORM + 2 (E < 0) + (|E| >= 100)), zero
_EXP_FORM, _ZERO_FORM = 21, 25


def _powers_of_ten() -> tuple:
    """Arrays hi, lo, hi_high, hi_low of 10^(16-E), row E - _E_MIN for each
    E from _E_MIN to _E_MAX.

    hi is 10^(16-E) correctly rounded and lo the rounded remainder, both
    from exact integers; hi_high + hi_low is hi split into 26-bit halves.
    """
    rows = []
    for E in range(_E_MIN, _E_MAX + 1):
        k = 16 - E
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int is correctly rounded
        a, b = hi.as_integer_ratio()
        lo = (num * b - a * den) / (den * b)
        mant, exp = math.frexp(hi)
        m = int(mant * 2**53)
        m_high = (m + 2**26) >> 27 << 27
        rows.append((hi, lo, math.ldexp(m_high, exp - 53), math.ldexp(m - m_high, exp - 53)))
    return tuple(np.array(column) for column in zip(*rows))


def _csv_tables() -> tuple:
    """The 4-digit groups as uint32 character quads, the index of each
    group's last nonzero digit, the 3-digit exponents, the blank template
    and the slots kept for each (layout, last nonzero digit) but the sign."""
    chars = np.arange(48, 58, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        quads[..., k] = chars.reshape((10,) + (1,) * (3 - k))
    quads = quads.reshape(10000, 4)
    nonzero = chars > 48
    last4 = np.where(nonzero, 3, np.where(nonzero[:, None], 2, np.where(
        nonzero[:, None, None], 1, np.where(nonzero[:, None, None, None], 0, -99)))).ravel()
    template = np.frombuffer(b"-" + b"0" * 17 + b"0.000" + b"0" * 17 + b"e+-000,", np.uint8)
    rows, starts = [], []
    for form in range(_ZERO_FORM + 1):
        row = bytearray(_SLOTS)
        row[_SEP] = 1
        if form < 4:  # fixed, E < 0: "0." and -E - 1 zeros
            row[_ZERO:_LEAD + 3 - form] = b"\1" * (5 - form)
            starts.append(0)
        elif form < _EXP_FORM:  # fixed, E >= 0: E + 1 digits before the point
            row[_INT:_INT + form - 3] = b"\1" * (form - 3)
            starts.append(form - 3)
        elif form < _ZERO_FORM:  # one digit before the point; e, sign, 2 or 3 digits
            exp_neg, exp_wide = divmod(form - _EXP_FORM, 2)
            row[_INT] = row[_EXP] = row[_EXP + 1 + exp_neg] = 1
            row[_SEP - 2 - exp_wide:_SEP] = b"\1" * (2 + exp_wide)
            starts.append(1)
        else:
            row[_ZERO] = 1
            starts.append(17)
        rows.append(bytes(row))
    # add the digits after the point, starts to last, and the point before them
    keep = np.frombuffer(b"".join(rows), dtype=bool).reshape(-1, 1, _SLOTS).repeat(17, axis=1)
    starts, last = np.array(starts)[:, None], np.arange(17)[:, None]
    keep[:, :, _FRAC:_EXP] = (last.T >= starts[:, :, None]) & (last.T <= last)
    keep[:, :, _POINT] |= starts <= last.T
    return quads.view(np.uint32).ravel(), last4, quads[:1000, 1:], template, keep.reshape(-1, _SLOTS)


# built at import (~0.4 and ~2 ms): built on first use, they doubled the cost of
# a process's first short CSV, such as the 2000 values of a dim-1000 spectrum
_QUADS, _LAST4, _EXP_DIGITS, _TEMPLATE, _KEEP = _csv_tables()
_POWERS = _powers_of_ten()


def _scaled(ax: np.ndarray, E: np.ndarray) -> tuple:
    """ax * 10^(16-E) as p + lo with p = fl(ax * hi) (Dekker's TwoProduct)."""
    hi, lo, hi_high, hi_low = (np.take(column, E - _E_MIN) for column in _POWERS)
    p = ax * hi
    c = _SPLIT * ax
    a_high = c - (c - ax)
    a_low = ax - a_high
    err = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    return p, err + ax * lo


def _csv_cells(x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The bytes of "%.17g" % v for each v in x, each followed by the
    separator byte of its row of buf, a (len(x), _SLOTS) template."""
    ax = np.abs(x)
    window = (ax >= _X_MIN) & (ax < _X_MAX)  # False for NaN
    ax = np.where(window, ax, 1.0)
    E = np.floor(np.log10(ax)).astype(np.int64)
    p, lo = _scaled(ax, E)
    # E from the unrounded p + lo: near a power of ten p alone rounds to 1e16 or 1e17
    low = (p < 1e16) | (p == 1e16) & (lo < 0)
    high = (p > 1e17) | (p == 1e17) & (lo >= 0)
    off = np.flatnonzero(low | high)
    if off.size:
        E[off] += high[off].astype(np.int64) - low[off]
        p[off], lo[off] = _scaled(ax[off], E[off])
    floor = np.floor(lo)
    frac = lo - floor
    D = p.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = D == _D_MAX
    D[carry] = _D_MIN
    E += carry
    # the range test keeps a significand off by a wrong first estimate of E
    # (np.log10 more than one off) out of the kernel
    decided = window & (np.abs(frac - 0.5) > _TIE_MARGIN) & (D >= _D_MIN) & (D < _D_MAX)
    D = np.where(decided, D, _D_MIN)

    lead, rest = np.divmod(D, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    digits = np.empty((len(x), 5), np.uint32)
    last = np.zeros(len(x), np.int64)
    for k, g in enumerate((*np.divmod(upper, 10**4), *np.divmod(lower, 10**4)), 1):
        digits[:, k] = _QUADS[g]
        np.maximum(last, _LAST4[g] + (4 * k - 3), out=last)
    digits = digits.view(np.uint8)[:, 3:]
    digits[:, 0] = lead + 48
    buf[:, _INT:_ZERO] = digits
    buf[:, _FRAC:_EXP] = digits

    expo = (E < -4) | (E > 16)
    form = np.where(expo, _EXP_FORM + 2 * (E < 0) + (np.abs(E) >= 100), E + 4)
    form[x == 0] = _ZERO_FORM
    if expo.any():
        buf[:, _EXP + 3:_SEP] = _EXP_DIGITS[np.abs(E)]
    mask = np.take(_KEEP, form * 17 + last, axis=0)
    mask[:, _SIGN] = np.signbit(x)

    slow = np.flatnonzero(~decided & (x != 0))
    if slow.size:
        text = ("%-24.17g" * slow.size % tuple(x[slow].tolist())).encode()
        chars = np.frombuffer(text, np.uint8).reshape(-1, 24)
        buf[slow, :24] = chars
        mask[slow, :_SEP] = False
        mask[slow, :24] = chars != ord(" ")
    out = buf[mask]
    if slow.size:
        buf[slow, :_SEP] = _TEMPLATE[:_SEP]
    return out


def _row_blocks(table) -> tuple:
    """The block size and the (first row, rows) blocks of a table, an array or
    any object with a shape that gives a row slice as an array."""
    block = max(1, min(table.shape[0], CSV_BLOCK_ROWS))
    return block, ((lo, table[lo:lo + block]) for lo in range(0, table.shape[0], block))


def _back_half_file(fh, blocks: int):
    """An unnamed temporary file beside the output file fh, for a forked
    child to format the back half of a table of blocks into; None when this
    process formats it all: for stdout or a file that is not regular, fewer
    than _FORK_BLOCKS blocks, no fork, one CPU, or no temporary file."""
    if (fh is sys.stdout or blocks < _FORK_BLOCKS or not hasattr(os, "fork")
            or len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2
            or not os.path.isfile(fh.name)):
        return None
    try:
        return tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(fh.name)))
    except OSError:
        return None


def _emit_csv(header: str, table, out_path: str | None) -> None:
    """Header line, then one row per table row, each value as "%.17g" % value
    writes it; rows are formatted CSV_BLOCK_ROWS at a time.

    Where _back_half_file gives a file, a forked child formats the back half
    of the blocks into it while this process writes the front half; this
    process then reaps the child and appends the file's bytes.
    """
    block, _ = _row_blocks(table)
    buf = np.tile(_TEMPLATE, (block, table.shape[1], 1))
    buf[:, -1, _SEP] = ord("\n")
    buf = buf.reshape(-1, _SLOTS)

    def cells(start: int, stop: int):
        """The bytes of the rows from start to stop, a block at a time."""
        for lo in range(start, stop, block):
            x = table[lo:lo + block].ravel()
            yield _csv_cells(x, buf[:len(x)])

    rows = table.shape[0]
    blocks = -(-rows // block)
    with _output(out_path) as fh:
        fh.write(header + "\n")
        back = _back_half_file(fh, blocks)
        if back is None:
            for text in cells(0, rows):
                fh.write(text.tobytes().decode("ascii"))
            return
        split = blocks // 2 * block
        fh.flush()  # the header; from here on the bytes go to fh's binary buffer
        with back:
            with warnings.catch_warnings():
                # Python 3.12+ warns that a fork of a process with threads
                # (OpenBLAS starts some) can deadlock the child on a lock one
                # of them held; this child calls no BLAS and takes no lock
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                # the child: the back half into back, then out at once, with no
                # flush of an inherited buffer and no atexit handler
                status = 1
                try:
                    for text in cells(split, rows):
                        back.write(text)
                    back.flush()
                    status = 0
                finally:
                    os._exit(status)
            try:
                for text in cells(0, split):
                    fh.buffer.write(text)
            except BaseException:
                import signal  # only on this error path

                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                raise OSError(f"the process formatting rows {split} to {rows - 1} of {out_path} "
                              + (f"failed with exit status {code}" if code > 0
                                 else f"was killed by signal {-code}"))
            back.seek(0)
            shutil.copyfileobj(back, fh.buffer, 1 << 16)  # 64 KiB at a time


def _finite_blocks(header: str, table):
    """The (first row, rows) blocks of a table, read as _emit_csv reads them,
    each checked before it is yielded: the first NaN or infinity, in
    row-major order, raises ValueError naming its column and row."""
    for lo, rows in _row_blocks(table)[1]:
        finite = np.isfinite(rows)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValueError(
                f"output column {header.split(',')[col]} is not finite in row {lo + row}: "
                f"{float(rows[row, col])}"
            )
        yield lo, rows


def _first_key(obj, found, key: str = "") -> tuple | None:
    """The qualified key and the value of the first leaf of a JSON tree for
    which found(leaf) holds, object keys taken in sorted order, or None."""
    if isinstance(obj, dict):
        children = ((f"{key}.{k}" if key else k, v) for k, v in sorted(obj.items()))
    elif isinstance(obj, list):
        children = ((f"{key}[{i}]", v) for i, v in enumerate(obj))
    else:
        return (key, obj) if found(obj) else None
    for child, value in children:
        hit = _first_key(value, found, child)
        if hit is not None:
            return hit
    return None


def _json_line(obj) -> str:
    """obj as one line of JSON with sorted keys.

    JSON has no NaN or infinity: such a value raises ValueError naming its key.
    """
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        key, _ = _first_key(obj, lambda v: isinstance(v, float) and not math.isfinite(v))
        raise ValueError(f"output field {key} is not finite") from None


def _emit_json(obj, out_path: str | None) -> None:
    _emit(_json_line(obj), out_path)


class _LongInteger(str):
    """The text of a JSON integer too long for int() to convert."""


def _parse_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _LongInteger(text)


def _integer_text(text: str) -> str:
    """An integer's text, or for one of more than 20 digits their count."""
    digits = len(text.lstrip("-"))
    return text if digits <= 20 else f"an integer of {digits} digits"


def _load_json(path: str, what: str) -> dict:
    """The JSON object in the file path; what names the file in errors."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    except ValueError:  # int()'s digit limit, met by an integer past the float range
        data = json.loads(text, parse_int=_parse_int)
        hit = isinstance(data, dict) and _first_key(data, lambda v: isinstance(v, _LongInteger))
        if hit:
            key, value = hit
            raise ConfigError(f"setting \"{key}\" in {what} {path} is {_integer_text(value)}, "
                              "beyond the float range") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return data


def _check_keys(node: dict, known: dict, where: str = "") -> None:
    """Reject the first key of node, or of a nested object, that known lacks,
    naming its qualified path and the nearest known key."""
    for key, value in node.items():
        name = f"{where}{key}"
        if key not in known:
            import difflib  # only on this error path

            nearest = difflib.get_close_matches(key, list(known), n=1, cutoff=0.0)
            raise ConfigError(f"unknown setting \"{name}\"; the nearest known key is "
                              f"\"{where}{nearest[0]}\"")
        if isinstance(known[key], dict) and isinstance(value, dict):
            _check_keys(value, known[key], f"{name}.")


def _load_config(path: str, command: str) -> dict:
    data = _load_json(path, "config")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config {path} must set \"schema_version\": {SCHEMA_VERSION}, got {version!r}"
        )
    _check_keys(data, {"schema_version": None, **_INDEX[command][1]})
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


def _floats(text: str) -> list[float]:
    """argparse type of the list flags --coeffs and --core: "c0,c1,..."."""
    try:
        return [float(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers separated by commas, got {text!r}")


_NUMBER_TYPES = {int, float}
# kind: (what a config value of that kind must be, its exact JSON types or,
# for a list kind, the kind of its items, and the argparse options of a flag)
_KINDS = {
    "number": ("a number", _NUMBER_TYPES, {"type": float}),
    "integer": ("an integer", {int}, {"type": int}),
    "boolean": ("true or false", {bool}, {"action": "store_true", "default": None}),
    "path": ("a path string", {str}, {}),
    "object": ("an object", {dict}, {}),
    "numbers": ("a list of numbers", "number", {"type": _floats}),
    "pair": ("an [x, y] pair of numbers", "number", {"type": _floats}),
    "vertices": ("a list of [x, y] pairs of numbers", "pair", {}),
}
_REQUIRED = object()


def _fits(value, kind: str) -> bool:
    """Whether a JSON value is of the kind; lists are tested by the set of
    their item types, which keeps a 2e4-vertex list cheap to check."""
    spec = _KINDS[kind][1]
    if not isinstance(spec, str):
        return type(value) in spec
    if type(value) is not list or (kind == "pair" and len(value) != 2):
        return False
    if spec == "pair":
        return (set(map(type, value)) <= {list} and set(map(len, value)) <= {2}
                and set(map(type, itertools.chain.from_iterable(value))) <= _NUMBER_TYPES)
    return set(map(type, value)) <= _NUMBER_TYPES


def _mismatch(value, name: str, kind: str) -> ConfigError:
    """The error for a value not of the kind, naming its first bad list item."""
    what, spec, _ = _KINDS[kind]
    if isinstance(spec, str) and type(value) is list and (kind != "pair" or len(value) == 2):
        for i, item in enumerate(value):
            if not _fits(item, spec):
                return _mismatch(item, f"{name}[{i}]", spec)
    return ConfigError(f"setting \"{name}\" must be {what}, got {value!r}")


# ------------------------------------------------------------------ settings
# Each command's settings in --help order, one row per flag or config key:
# the flag (None: config only), the config path (None: flag only; per route
# when a dict), the kind (a _KINDS key, or a choice flag's values), the
# default (_REQUIRED: none), the help and the routes that read it ("*": all).
# A scene's or loop's flag names a file; its config path holds it inline.

# the keys of a scene object, inline or from a file; each is read when present
_SCENE = [(None, f"scene.{key}", kind, None, None, "scene") for key, kind in (
    ("core_loop", "vertices"), ("atoms", "vertices"), ("sigma", "integer"), ("density", "number"))]
_OUT = "output file (default: stdout)"
_CONFIG = "JSON config file (schema_version 1)"
_COMMANDS = {  # command: (its help, its rows)
    "spectrum": ("distance or Landau level spectra", [
        ("--B", None, "number", None, "field strength", "landau"),
        ("--charge", None, "number", 1.0, None, "landau"),
        ("--light-speed", None, "number", 1.0, None, "landau"),
        ("--mass", None, "number", 1.0, None, "landau"),
        ("--hbar", None, "number", 1.0, None, "distance landau omega_c"),
        ("--out", None, "path", None, _OUT, "*"),
        ("--kind", None, ("distance", "landau"), _REQUIRED, None, "*"),
        ("--L", None, "number", _REQUIRED, "length scale (distance spectrum)", "distance"),
        ("--dim", None, "integer", _REQUIRED, "truncation dimension (distance spectrum)",
         "distance"),
        ("--omega-c", None, "number", None,
         "cyclotron frequency (alternative to --B; sets e = c = M = 1)", "landau omega_c"),
        ("--n-max", None, "integer", _REQUIRED, "highest level index", "landau omega_c"),
        ("--format", None, ("csv", "json"), "csv", None, "*"),
    ]),
    "evolve": ("integrate the doubled-coordinate dynamics", [
        ("--config", None, "path", None, _CONFIG, "*"),
        (None, "params", "object", None, None, "*"),
        ("--M", "params.M", "number", _REQUIRED, "mass", "*"),
        ("--R", "params.R", "number", _REQUIRED, "friction constant (0 allowed)", "*"),
        ("--hbar", "params.hbar", "number", 1.0, None, "*"),
        ("--potential", "params.potential.kind", ("free", "harmonic", "polynomial"), None, None,
         "free harmonic polynomial"),
        ("--k", "params.potential.k", "number", _REQUIRED, "harmonic stiffness", "harmonic"),
        ("--coeffs", "params.potential.coeffs", "numbers", _REQUIRED,
         "polynomial coefficients c0,c1,...", "polynomial"),
        (None, "initial", "object", None, None, "*"),
        ("--x-plus", "initial.x_plus", "number", 0.0, None, "*"),
        ("--x-minus", "initial.x_minus", "number", 0.0, None, "*"),
        ("--v-plus", "initial.v_plus", "number", 0.0, None, "*"),
        ("--v-minus", "initial.v_minus", "number", 0.0, None, "*"),
        (None, "initial.t", "number", 0.0, None, "*"),
        ("--dt", "dt", "number", _REQUIRED, None, "*"),
        ("--steps", "steps", "integer", _REQUIRED, None, "*"),
        ("--canonical", "canonical", "boolean", None,
         "include xi/X/orbit-invariant columns (requires R > 0)", "*"),
        ("--out", "out", "path", None, "trajectory CSV file (default: stdout)", "*"),
    ]),
    "phase": ("interference phases by area, action, flux, or winding", [
        ("--B", "magnetic.B", "number", _REQUIRED, "field strength", "flux"),
        ("--charge", "magnetic.e", "number", 1.0, None, "flux"),
        ("--light-speed", "magnetic.c", "number", 1.0, None, "flux"),
        ("--mass", "magnetic.M", "number", 1.0, None, "flux"),
        ("--hbar", {"paths": "hbar", "loop": "hbar", "flux": "magnetic.hbar"}, "number", 1.0,
         None, "paths loop flux"),
        ("--out", "out", "path", None, _OUT, "*"),
        ("--config", None, "path", None, _CONFIG, "*"),
        ("--loop", "loop", "vertices", None, "loop vertex CSV", "flux loop"),
        (None, "loop_csv", "path", None, None, "flux loop"),
        ("--L", "L", "number", _REQUIRED, "length scale for the area route", "loop"),
        ("--path1", "path1_csv", "path", None, "phase-space path CSV (action route)", "paths"),
        ("--path2", "path2_csv", "path", None, "phase-space path CSV (action route)", "paths"),
        ("--ab", "ab", "boolean", False, "flux route: use field parameters", "flux"),
        (None, "magnetic", "object", None, None, "flux"),
        ("--scene", "scene", "object", None, "vortex scene JSON (winding route)", "scene"),
        (None, "scene_json", "path", None, None, "scene"),
        *_SCENE,
    ]),
    "algebra": ("pairwise commutator tables", [
        ("--B", None, "number", 1.0, "field strength", "magnetic"),
        ("--charge", None, "number", 1.0, None, "magnetic"),
        ("--light-speed", None, "number", 1.0, None, "magnetic"),
        ("--mass", None, "number", 1.0, None, "magnetic dissipative"),
        ("--hbar", None, "number", 1.0, None, "magnetic dissipative"),
        ("--out", None, "path", None, _OUT, "*"),
        ("--kind", None, ("magnetic", "dissipative"), _REQUIRED, None, "*"),
        ("--dim", None, "integer", _REQUIRED, "single-factor truncation dimension", "*"),
        ("--R", None, "number", None, "friction constant (dissipative)", "dissipative"),
    ]),
    "vortex": ("winding phase and circulation for a vortex scene", [
        ("--config", None, "path", None, _CONFIG, "*"),
        ("--scene", "scene", "object", None, "scene JSON file", "scene"),
        (None, "scene_json", "path", None, None, "scene"),
        *_SCENE,
        ("--core", "core", "pair", None, "vortex position \"x,y\" for circulation", "scene"),
        (None, "scatter", "object", None, None, "scene"),
        (None, "scatter.density", "number", None, None, "scene"),
        (None, "scatter.seed", "integer", _REQUIRED, None, "scene"),
        (None, "scatter.region", "numbers", _REQUIRED, None, "scene"),
        ("--out", "out", "path", None, None, "*"),
    ]),
}
_Row = collections.namedtuple("_Row", "flag key kind default help routes")


def _index(rows: list) -> tuple:
    """A command's rows by name (a flag's dest, else the config path), each
    with the set of routes that read it, and the keys its configs may hold."""
    every = frozenset(route for *_, reads in rows for route in reads.split()) - {"*"}
    named, tree = {}, {}
    for flag, key, kind, default, help_text, reads in rows:
        name = flag[2:].replace("-", "_") if flag else key
        named[name] = _Row(flag, key, kind, default, help_text,
                           every if reads == "*" else frozenset(reads.split()))
        for path in key.values() if isinstance(key, dict) else [key] * bool(key):
            *parents, leaf = path.split(".")
            node = functools.reduce(lambda node, part: node.setdefault(part, {}), parents, tree)
            node.setdefault(leaf, {} if kind == "object" else None)  # an object holds its keys
    return named, tree


_INDEX = {command: _index(rows) for command, (_, rows) in _COMMANDS.items()}


class _Settings:
    """One command's settings, each read by its row's name: the flag when
    given, else the config key, else the default (a null config value is
    absent, and of the wrong kind for a required setting).  Errors name a
    setting by its config path, else its flag; numbers come back as floats,
    lists as float arrays."""

    def __init__(self, args):
        self.args, self.cfg, self.route = args, {}, None
        self.rows, self.keys = _INDEX[args.command]
        path = self("config") if "config" in self.rows else None
        if path:
            self.cfg = _load_config(path, args.command)

    def __call__(self, name: str, node: dict | None = None):
        """The named setting, its key read from node (default: the config)."""
        row = self.rows[name]
        value = getattr(self.args, name, None)
        if isinstance(row.kind, tuple):  # argparse checked the flag; a config value is read by hand
            return row.default if value is None else value
        path = row.key.get(self.route) if isinstance(row.key, dict) else row.key or row.flag
        key = path.rpartition(".")[2]
        node = self.cfg if node is None else node
        value = node.get(key) if value is None else value
        if value is None:
            if row.default is not _REQUIRED:
                return row.default
            if key not in node:
                raise ConfigError(f"missing required setting: {path}")
        if not _fits(value, row.kind):
            raise _mismatch(value, path, row.kind)
        try:
            if row.kind == "number":
                return float(value)
            return np.asarray(value, dtype=float) if type(value) is list else value
        except OverflowError:  # a JSON integer past the float range
            raise ConfigError(f"setting \"{path}\" is beyond the float range") from None

    def only(self, route: str, error: str) -> None:
        """Raise error % the flags given that route does not read, if any;
        later reads take the config paths of route."""
        ignored = ", ".join(row.flag for name, row in self.rows.items() if route not in row.routes
                            and getattr(self.args, name, None) is not None)
        if ignored:
            raise ConfigError(error % ignored)
        self.route = route


def _input(get: _Settings, name: str, file_key: str, read):
    """A scene or loop: read from the file that its flag, else its config
    file_key, names; else given inline under its own key; else None."""
    path = getattr(get.args, name)
    if path is None:
        path = get(file_key)
    return get(name) if path is None else read(path)


def _potential_from(get: _Settings, node) -> Potential:
    """The potential of a config "potential" node; the --potential flag (with
    the k or coeffs setting it needs) replaces the node."""
    kind = get("potential")
    if kind is not None:
        node = {}
    elif node is None:
        return Potential.free()
    elif not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"potential must be an object with a \"kind\" key, got {node!r}")
    else:
        kind = node["kind"]
    if kind == "free":
        return Potential.free()
    if kind == "harmonic":
        return Potential.harmonic(get("k", node))
    if kind == "polynomial":
        if get.args.coeffs is None and type(node.get("coeffs")) is not list:
            raise ConfigError(
                f"polynomial potential needs a \"coeffs\" list, got {node.get('coeffs')!r}"
            )
        return Potential.polynomial(get("coeffs", node))
    raise ConfigError(f"unknown potential kind {kind!r} (free, harmonic, polynomial)")


def _magnetic(get: _Settings, node: dict | None = None, B=None) -> MagneticParams:
    """Field parameters from the field settings (their keys in node, a
    config's "magnetic" object); B, when given, stands in for an absent B."""
    return MagneticParams(B=get("B", node) if B is None else B, e=get("charge", node),
                          c=get("light_speed", node), M=get("mass", node), hbar=get("hbar", node))


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where os.sysconf cannot tell."""
    try:
        return float(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def _check_memory(name: str, value, need, what: str) -> None:
    """Refuse a setting whose need bytes of what exceed physical memory,
    before anything that size is allocated."""
    memory = _physical_memory()
    if not need <= memory:
        need = need if need <= sys.float_info.max else math.inf
        raise ConfigError(f"setting \"{name}\" = {value} needs {need:.3g} bytes of {what}, "
                          f"more than the {memory:.3g} bytes of physical memory")


# ----------------------------------------------------------------- spectrum

def run_spectrum(args) -> int:
    get = _Settings(args)
    kind = get("kind")
    # peak bytes per value: 32 traced for the CSV table, 60-132 for the JSON list and text
    per_value = 40 if get("format") == "csv" else 144
    if kind == "distance":
        get.only("distance", "spectrum --kind distance does not read %s")
        params = NcParams(L=get("L"), hbar=get("hbar"))
        dim = get("dim")
        _check_memory("--dim", dim, per_value * dim, "eigenvalues")
        values = distance_spectrum(params, dim)
    else:
        get.only("landau", "spectrum --kind landau does not read %s")
        omega_c = get("omega_c")
        if omega_c is not None:
            if get("B") is not None:
                raise ConfigError("give either --omega-c or --B, not both")
            get.only("omega_c",
                     "--omega-c sets e = c = M = 1 and would ignore %s; give --B instead")
        elif get("B") is None:
            raise ConfigError("landau spectrum needs --omega-c or --B")
        n_max = get("n_max")
        _check_memory("--n-max", n_max, per_value * (n_max + 1), "levels")
        # with e = c = M = 1 the field strength equals the cyclotron frequency
        values = landau_spectrum(_magnetic(get, B=omega_c), n_max)

    out = get("out")
    if get("format") == "json":
        _emit_json({"kind": kind, "values": [float(v) for v in values]}, out)
    else:
        table = np.column_stack((np.arange(len(values)), values))
        for _ in _finite_blocks("n,value", table):
            pass
        _emit_csv("n,value", table, out)
    return EXIT_OK


# ------------------------------------------------------------------- evolve

def _evolve_summary(traj, params, table, canonical: bool, dt: float) -> dict:
    """Run summary, folded over the table's blocks as the finiteness check
    yields them: each block raises each field's running maximum.  xi is a
    block's columns 5-6 and the orbit invariant its last column; a diagonal
    start (x+ = x-, v+ = v-, each to 1e-12 of its pair) adds the classical
    residual, read from the trajectory one row past each block edge."""
    steps = len(traj) - 1
    t0, pairs = traj[0, 0], traj[0, 1:].reshape(2, 2)  # (x+, x-), (v+, v-)
    diagonal = steps >= 2 and all(abs(a - b) <= 1e-12 * max(abs(a), abs(b)) for a, b in pairs)
    h_col = 9 if canonical else 5
    top = {}  # summary field: the largest of its row values so far
    for lo, rows in _finite_blocks(EVOLVE_HEADER[canonical], table):
        if lo == 0:
            h0, xi0, inv0 = float(rows[0, h_col]), rows[0, 5:7].copy(), float(rows[0, -1])
        # a division by a positive constant keeps the order, so it commutes with max
        values = {"max_hamiltonian_drift": np.abs(rows[:, h_col] - h0) / max(1.0, abs(h0))}
        if canonical:
            values["max_orbit_invariant_drift"] = np.abs(rows[:, -1] - inv0) / max(1.0, abs(inv0))
        if canonical and params.potential.kind == "free":
            closed = hyperbolic_evolve(xi0, params.gamma, rows[:, 0] - t0)
            scale = np.maximum(1.0, np.abs(closed).max(axis=1))
            values["hyperbolic_max_deviation"] = np.abs(rows[:, 5:7] - closed).max(axis=1) / scale
        if diagonal:
            values["max_diagonal_split"] = np.abs(rows[:, 1] - rows[:, 2])
            near = traj[max(lo - 1, 0):lo + len(rows) + 1]
            if len(near) >= 3:
                x = 0.5 * (near[:, 1] + near[:, 2])
                acc = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / dt**2
                vel = (x[2:] - x[:-2]) / (2.0 * dt)
                du = params.potential.derivative(x[1:-1])
                values["classical_residual"] = np.abs(params.M * acc + params.R * vel + du)
        for name, value in values.items():  # np.maximum keeps a NaN
            top[name] = np.maximum(top.get(name, -np.inf), value.max())

    return {"dt": dt, "steps": steps, "gamma_t_total": params.gamma * dt * steps,
            **{name: float(value) for name, value in top.items()}}


class _EvolveRows:
    """evolve's CSV table, read by row slices: each slice derives its xi, X
    and orbit-invariant columns from the trajectory and H, which are all that
    is held for the whole run.

    The check, with the summary, and the writer read the same slices in
    turn; the last slice is kept, so a table of one block is derived once.
    """

    def __init__(self, traj: np.ndarray, h: np.ndarray, params, canonical: bool):
        self.shape = (len(traj), len(EVOLVE_HEADER[canonical].split(",")))
        self._traj, self._h, self._params, self._canonical = traj, h, params, canonical
        self._last = (None, None)

    def __getitem__(self, rows: slice) -> np.ndarray:
        if rows != self._last[0]:
            self._last = (rows, self._derive(self._traj[rows], self._h[rows]))
        return self._last[1]

    def _derive(self, traj: np.ndarray, h: np.ndarray) -> np.ndarray:
        if not self._canonical:
            return np.column_stack((traj, h))
        cc = canonical_coords(traj, self._params)
        xi = np.column_stack(cc.xi)
        return np.column_stack((traj, xi, cc.X_plus, cc.X_minus, h, orbit_invariant(xi)))


def run_evolve(args) -> int:
    get = _Settings(args)
    pcfg = get("params") or {}
    icfg = get("initial") or {}
    params = DissipativeParams(M=get("M", pcfg), R=get("R", pcfg), hbar=get("hbar", pcfg),
                               potential=_potential_from(get, pcfg.get("potential")))
    get.only(params.potential.kind,
             f"evolve with a {params.potential.kind} potential does not read %s")
    initial = TwoCoordState(
        x_plus=get("x_plus", icfg),
        x_minus=get("x_minus", icfg),
        v_plus=get("v_plus", icfg),
        v_minus=get("v_minus", icfg),
        t=get("initial.t", icfg),
    )
    dt = get("dt")
    steps = get("steps")
    canonical = get("canonical")
    if canonical and params.R == 0:
        raise ConfigError("canonical coordinates require R > 0, but the run has R = 0")
    want_canonical = (params.R > 0) if canonical is None else canonical
    out = get("out")

    # peak bytes per step: up to 78 traced, in the writer phase of a run with canonical columns
    _check_memory("steps", steps, 96 * (steps + 1), "trajectory")
    traj = integrate_array(initial, params, dt, steps)
    table = _EvolveRows(traj, hamiltonian_value(traj, params), params, want_canonical)
    # checked and encoded before the CSV is written, so a failing run writes nothing
    summary = _json_line(_evolve_summary(traj, params, table, want_canonical, dt))
    _emit_csv(EVOLVE_HEADER[want_canonical], table, out)
    _emit(summary, None)
    return EXIT_OK


# -------------------------------------------------------------------- phase

def _loop_from(get: _Settings):
    return _input(get, "loop", "loop_csv", _read_path_csv)


def _scene_from(get: _Settings) -> dict | None:
    """The scene's checked fields (null ones left out), or None without a scene."""
    raw = _input(get, "scene", "scene_json", lambda path: _load_json(path, "scene"))
    if raw is None:
        return None
    _check_keys(raw, get.keys["scene"], "scene.")
    fields = {key: get(f"scene.{key}", raw) for key in get.keys["scene"]
              if raw.get(key) is not None}
    if fields.get("sigma", 1) not in (1, -1):
        raise ConfigError(f"setting \"scene.sigma\" must be +1 or -1, got "
                          f"{_integer_text(str(fields['sigma']))}")
    return fields


def _winding_report(scene) -> dict:
    """sigma, the atoms inside the scene's core loop and their winding phase."""
    inside = int(np.count_nonzero(points_in_polygon(scene.atoms, scene.core_loop)))
    return {"sigma": scene.sigma, "atoms_inside": inside,
            "winding_phase": count_phase(scene.sigma, inside)}


def run_phase(args) -> int:
    get = _Settings(args)
    out = get("out")
    scene_data = _scene_from(get)
    loop = _loop_from(get)
    p1 = get("path1")
    p2 = get("path2")

    modes = sum(x is not None for x in (scene_data, p1, loop))
    if modes == 0:
        raise ConfigError("phase needs one of: --loop, --path1/--path2, --scene")
    if modes > 1:
        raise ConfigError("phase modes are mutually exclusive: give one of loop/paths/scene")

    if scene_data is not None:
        get.only("scene", "phase --scene does not read %s")
        _emit_json(_winding_report(scene_from_dict(scene_data)), out)
        return EXIT_OK

    if p1 is not None or p2 is not None:
        if p1 is None or p2 is None:
            raise ConfigError("action route needs both --path1 and --path2")
        get.only("paths", "phase --path1/--path2 does not read %s")
        hbar = get("hbar")
        path1 = _read_path_csv(p1)
        path2 = _read_path_csv(p2)
        phase = interference_phase_action(path1, path2, hbar)
        _emit_json({"phase_action": phase}, out)
        return EXIT_OK

    mcfg = get("magnetic")
    if get("ab") or mcfg:
        get.only("flux", "phase --loop with --ab or a \"magnetic\" object does not read %s")
        mp = _magnetic(get, mcfg or {})
        # the length first: its check names the field settings whose hbar c underflows
        phase_area = interference_phase_area(loop, NcParams(L=magnetic_length(mp), hbar=mp.hbar))
        phase_ab = aharonov_bohm_phase(mp, loop)
        _emit_json({"phase_ab": phase_ab, "phase_area": phase_area,
                    "difference": phase_ab - phase_area}, out)
        return EXIT_OK

    get.only("loop", "phase --loop without --ab or a \"magnetic\" object does not read %s")
    hbar = get("hbar")
    params = NcParams(L=get("L"), hbar=hbar)
    phase_area = interference_phase_area(loop, params)
    phase_action = loop_action_phase(loop, params)
    _emit_json({"phase_area": phase_area, "phase_action": phase_action,
                "difference": phase_area - phase_action}, out)
    return EXIT_OK


# ------------------------------------------------------------------ algebra

def _complex_table(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def run_algebra(args) -> int:
    get = _Settings(args)
    kind = get("kind")
    dim = get("dim")
    if kind == "magnetic":
        get.only("magnetic", "algebra --kind magnetic does not read %s")
        params = _magnetic(get)
        build = cyclotron_algebra
    else:
        get.only("dissipative", "algebra --kind dissipative does not read %s")
        R = get("R")
        if R is None or R <= 0:
            raise ConfigError("dissipative algebra needs --R > 0")
        params = DissipativeParams(M=get("mass"), R=R, hbar=get("hbar"))
        build = kappa_commutator_check
    # peak bytes per dim^2: 120 (magnetic) and 170 (dissipative) traced at dim 64
    _check_memory("--dim", dim, 192 * max(dim, 0) ** 2, "ladder matrix")
    report = build(params, dim)
    _emit_json(
        {
            "kind": kind,
            "dim": report.dim,
            "length_scale_sq": params.L2,
            "labels": list(report.labels),
            "table": _complex_table(report.leading),
            "artifact": _complex_table(report.artifact),
            "max_clean_deviation": report.max_clean_deviation(),
        },
        get("out"),
    )
    return EXIT_OK


# ------------------------------------------------------------------- vortex

def run_vortex(args) -> int:
    get = _Settings(args)
    out = get("out")
    fields = _scene_from(get)
    if fields is None:
        raise ConfigError("vortex needs --scene FILE or a config with \"scene\"/\"scene_json\"")

    scatter = get("scatter")
    if scatter is not None:
        if len(fields.get("atoms", ())):
            raise ConfigError("scatter and explicit scene atoms are mutually exclusive")
        density = get("scatter.density", scatter)
        if density is None:
            density = fields.get("density")
        if density is None:
            raise ConfigError("scatter needs a density (in scatter or scene)")
        if not (density > 0 and math.isfinite(density)):
            raise ConfigError(
                f"setting \"scatter.density\" must be a positive finite number, got {density}")
        seed = get("scatter.seed", scatter)
        region = get("scatter.region", scatter)
        if len(region) != 4:
            raise ConfigError(
                f"scatter needs \"region\": [x0, y0, x1, y1], got {scatter['region']!r}")
        # Python floats: an overflowing area is inf, with no numpy warning
        x0, y0, x1, y1 = region.tolist()
        if not (x1 > x0 and y1 > y0):
            raise ConfigError(f"degenerate scatter region {scatter['region']!r}")
        area = (x1 - x0) * (y1 - y0)
        # peak bytes per atom: 41 traced at 1e5 atoms, 28 at 4e5 (the atoms take 16)
        _check_memory("scatter.density", f"{density:g} on a region of area {area:g}",
                      48.0 * density * area, "atoms")
        count = int(round(density * area))
        rng = np.random.default_rng(seed)
        fields["atoms"] = rng.uniform((x0, y0), (x1, y1), size=(count, 2))
        fields.setdefault("density", density)

    scene = scene_from_dict(fields)
    report = _winding_report(scene)
    report["atoms"] = int(scene.atoms.shape[0])
    if scene.density is not None:
        report["length_scale"] = film_length_scale(scene.density)
    core = get("core")
    if core is not None:
        if not np.all(np.isfinite(core)):
            raise ConfigError(f"setting \"core\" must be finite, got {core.tolist()}")
        core_winding = winding_number(core, scene.core_loop)
        report["core_winding"] = core_winding
        report["circulation"] = circulation_integral(core, scene.core_loop, scene.sigma)
        report["core_inside"] = core_winding != 0
    _emit_json(report, out)
    return EXIT_OK


# ------------------------------------------------------------------- parser

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the rows of _COMMANDS, built once per process
    (parse_args leaves it unchanged); every flag defaults to None."""
    parser = argparse.ArgumentParser(
        prog="ncplane",
        description="Noncommutative-plane toolkit: spectra, trajectories, phases, "
        "bracket tables, vortex winding counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, rows) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for flag, _, kind, default, help_text, _ in rows:
            if flag:
                sp.add_argument(flag, help=help_text, **(
                    {"choices": kind, "required": default is _REQUIRED} if isinstance(kind, tuple)
                    else _KINDS[kind][2]))
        sp.set_defaults(func=globals()[f"run_{command}"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for a usage error
        return exc.code or EXIT_OK
    try:
        # a NaN or infinity is named by the checks of each command, by column
        # or key; a library warning is one stderr line, without a source location
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:  # ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a size that no check above foresaw
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
