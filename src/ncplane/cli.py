"""Command-line front end: spectrum, evolve, phase, algebra, vortex.

Results go to stdout (or --out FILE); diagnostics go to stderr only.
Exit codes: 0 success, 2 config error, 3 I/O error, 4 diverged trajectory.
CSV output carries 17 significant digits per value; a NaN or infinity in
any output is an error (exit 2) that names its CSV column or JSON key.
JSON config files must carry "schema_version": 1; identical configs produce
byte-identical output (statistical vortex scenes require an explicit
scatter seed).

Config/flag cheat sheet (flags override config keys; README.md lists every
key with its JSON type and default, and a value of another type is an error
that names its key, as is a key that none of the command's routes reads):

  spectrum  --kind distance --L 1.0 --dim 4
  spectrum  --kind landau --hbar 1.0 --omega-c 1.0 --n-max 2
  evolve    --config run.json  # params{M,R,hbar,potential}/initial/dt/steps/canonical/out
  phase     --loop loop.csv --L 0.5      # area + action routes (loop_csv, loop, L, hbar)
  phase     --path1 a.csv --path2 b.csv  # action route only (path1_csv, path2_csv)
  phase     --loop loop.csv --ab --B 1.0 # flux route + area route (ab, magnetic{B,e,c,M,hbar})
  phase     --scene scene.json           # vortex winding route (scene_json, scene)
  algebra   --kind magnetic --dim 6 --B 2.0
  vortex    --scene scene.json --core 0.2,0.3  # (scene_json, scene, core, scatter)

spectrum, phase and algebra share the field flags --B --charge --light-speed
--mass --hbar and --out; a field value is 1.0 when absent, except that spectrum
needs --B or --omega-c and phase's flux route needs B.  A flag that the
chosen route does not read is an error that names it.
A scene or loop comes from its flag, else its file key, else its inline key.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
# argparse's gettext imports locale when the first parser is built; importing
# it with the module keeps that one-time cost (~1.4 ms) out of the first command
import locale  # noqa: F401
import math
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
CSV_BLOCK_ROWS = 1024
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


def _emit_csv(header: str, table, out_path: str | None) -> None:
    """Header line, then one row per table row, each value as "%.17g" % value
    writes it; rows are formatted CSV_BLOCK_ROWS at a time."""
    block, blocks = _row_blocks(table)
    buf = np.tile(_TEMPLATE, (block, table.shape[1], 1))
    buf[:, -1, _SEP] = ord("\n")
    buf = buf.reshape(-1, _SLOTS)
    with _output(out_path) as fh:
        fh.write(header + "\n")
        for _, rows in blocks:
            x = rows.ravel()
            fh.write(_csv_cells(x, buf[:len(x)]).tobytes().decode("ascii"))


def _require_finite(header: str, table) -> None:
    """Raise ValueError naming the column and row of the first NaN or infinity,
    in row-major order; the table is read as _emit_csv reads it."""
    for lo, rows in _row_blocks(table)[1]:
        finite = np.isfinite(rows)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValueError(
                f"output column {header.split(',')[col]} is not finite in row {lo + row}: "
                f"{float(rows[row, col])}"
            )


def _nonfinite_key(obj, key: str = "") -> str | None:
    """Qualified key of the first NaN or infinity in a JSON tree, or None."""
    if isinstance(obj, dict):
        children = ((f"{key}.{k}" if key else k, v) for k, v in sorted(obj.items()))
    elif isinstance(obj, list):
        children = ((f"{key}[{i}]", v) for i, v in enumerate(obj))
    else:
        return key if isinstance(obj, float) and not math.isfinite(obj) else None
    for child, value in children:
        found = _nonfinite_key(value, child)
        if found is not None:
            return found
    return None


def _json_line(obj) -> str:
    """obj as one line of JSON with sorted keys.

    JSON has no NaN or infinity: such a value raises ValueError naming its key.
    """
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError(f"output field {_nonfinite_key(obj)} is not finite") from None


def _emit_json(obj, out_path: str | None) -> None:
    _emit(_json_line(obj), out_path)


def _load_json(path: str, what: str) -> dict:
    """The JSON object in the file path; what names the file in errors."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return data


# field flag: its MagneticParams field, also its key in a "magnetic" config object
_FIELD_FLAGS = {"B": "B", "charge": "e", "light_speed": "c", "mass": "M", "hbar": "hbar"}
# scene key: the kind of its value (see _KINDS)
_SCENE_KEYS = {"core_loop": "vertices", "atoms": "vertices", "sigma": "integer",
               "density": "number"}
# the keys a config of each command may hold, over all of its routes; a dict
# value lists the keys of an object, which are checked in turn
_CONFIG_KEYS = {
    "evolve": {
        "params": {"M": None, "R": None, "hbar": None,
                   "potential": dict.fromkeys(("kind", "k", "coeffs"))},
        "initial": dict.fromkeys(("x_plus", "x_minus", "v_plus", "v_minus", "t")),
        **dict.fromkeys(("dt", "steps", "canonical", "out")),
    },
    "phase": {
        "scene": _SCENE_KEYS,
        "magnetic": dict.fromkeys(_FIELD_FLAGS.values()),
        **dict.fromkeys(("out", "hbar", "scene_json", "loop_csv", "loop", "path1_csv",
                         "path2_csv", "ab", "L")),
    },
    "vortex": {
        "scene": _SCENE_KEYS,
        "scatter": dict.fromkeys(("density", "seed", "region")),
        **dict.fromkeys(("out", "scene_json", "core")),
    },
}


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
    _check_keys(data, {"schema_version": None, **_CONFIG_KEYS[command]})
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


_NUMBER_TYPES = {int, float}
# kind: (what a config value of that kind must be, its exact JSON types or,
# for a list kind, the kind of its items)
_KINDS = {
    "number": ("a number", _NUMBER_TYPES),
    "integer": ("an integer", {int}),
    "boolean": ("true or false", {bool}),
    "path": ("a path string", {str}),
    "object": ("an object", {dict}),
    "numbers": ("a list of numbers", "number"),
    "pair": ("an [x, y] pair of numbers", "number"),
    "vertices": ("a list of [x, y] pairs of numbers", "pair"),
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
    what, spec = _KINDS[kind]
    if isinstance(spec, str) and type(value) is list and (kind != "pair" or len(value) == 2):
        for i, item in enumerate(value):
            if not _fits(item, spec):
                return _mismatch(item, f"{name}[{i}]", spec)
    return ConfigError(f"setting \"{name}\" must be {what}, got {value!r}")


def _setting(flag, node: dict, name: str, kind: str, default=_REQUIRED):
    """One CLI setting: the flag when given, else node[key], else default,
    where key is the last dotted part of name.

    A null config value counts as absent, but is of the wrong kind for a
    required setting (no default).  Flags arrive typed from argparse and
    are checked like config values; errors name the setting by name.
    Numbers come back as floats, lists as float arrays.
    """
    key = name.rpartition(".")[2]
    value = node.get(key) if flag is None else flag
    if value is None:
        if default is not _REQUIRED:
            return default
        if key not in node:
            raise ConfigError(f"missing required setting: {name}")
    if not _fits(value, kind):
        raise _mismatch(value, name, kind)
    if kind == "number":
        return float(value)
    return np.asarray(value, dtype=float) if type(value) is list else value


def _floats(text: str) -> list[float]:
    """argparse type of the list flags --coeffs and --core: "c0,c1,..."."""
    try:
        return [float(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers separated by commas, got {text!r}")


def _input(flag, cfg: dict, file_key: str, read, key: str, kind: str):
    """A scene or loop: read from the file that its flag, else cfg[file_key],
    names; else given inline as cfg[key]; else None."""
    path = _setting(flag, cfg, file_key, "path", None)
    if path is not None:
        return read(path)
    return _setting(None, cfg, key, kind, None)


def _potential_from(node, kind=None, k=None, coeffs=None) -> Potential:
    """The potential of a config "potential" node; a kind flag (with the
    k or coeffs flag it needs) replaces the node."""
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
        return Potential.harmonic(_setting(k, node, "params.potential.k", "number"))
    if kind == "polynomial":
        if coeffs is None and type(node.get("coeffs")) is not list:
            raise ConfigError(
                f"polynomial potential needs a \"coeffs\" list, got {node.get('coeffs')!r}"
            )
        return Potential.polynomial(_setting(coeffs, node, "params.potential.coeffs", "numbers"))
    raise ConfigError(f"unknown potential kind {kind!r} (free, harmonic, polynomial)")


def _ignored(args, *reads: str) -> str:
    """The flags given on the command line that are not in reads, as text.
    --config, --out, --kind and --format are left out, as every route of
    their commands reads them; command and func are no flags."""
    return ", ".join(f"--{name.replace('_', '-')}" for name, value in vars(args).items()
                     if value is not None and name not in reads and name not in
                     ("command", "func", "config", "out", "kind", "format"))


def _reads_only(args, route: str, *reads: str) -> None:
    """Reject the flags given on the command line that route does not read."""
    ignored = _ignored(args, *reads)
    if ignored:
        raise ConfigError(f"{route} does not read {ignored}")


def _magnetic(args, node: dict, B=_REQUIRED) -> MagneticParams:
    """Field parameters: each field flag, else its key in node (a config's
    "magnetic" object), else its default (1.0; B has none unless given)."""
    return MagneticParams(**{
        key: _setting(getattr(args, flag), node, f"magnetic.{key}", "number",
                      B if key == "B" else 1.0)
        for flag, key in _FIELD_FLAGS.items()
    })


# ----------------------------------------------------------------- spectrum

def run_spectrum(args) -> int:
    if args.kind == "distance":
        _reads_only(args, "spectrum --kind distance", "L", "dim", "hbar")
        params = NcParams(L=_setting(args.L, {}, "--L", "number"),
                          hbar=_setting(args.hbar, {}, "--hbar", "number", 1.0))
        values = distance_spectrum(params, _setting(args.dim, {}, "--dim", "integer"))
    else:
        _reads_only(args, "spectrum --kind landau", *_FIELD_FLAGS, "omega_c", "n_max")
        if args.omega_c is not None:
            if args.B is not None:
                raise ConfigError("give either --omega-c or --B, not both")
            ignored = _ignored(args, "hbar", "omega_c", "n_max")
            if ignored:
                raise ConfigError(f"--omega-c sets e = c = M = 1 and would ignore {ignored}; "
                                  f"give --B instead")
        elif args.B is None:
            raise ConfigError("landau spectrum needs --omega-c or --B")
        n_max = _setting(args.n_max, {}, "--n-max", "integer")
        # with e = c = M = 1 the field strength equals the cyclotron frequency
        values = landau_spectrum(_magnetic(args, {}, B=args.omega_c), n_max)

    if args.format == "json":
        _emit_json({"kind": args.kind, "values": [float(v) for v in values]}, args.out)
    else:
        table = np.column_stack((np.arange(len(values)), values))
        _require_finite("n,value", table)
        _emit_csv("n,value", table, args.out)
    return EXIT_OK


# ------------------------------------------------------------------- evolve

def _evolve_summary(traj, params, h, canonical: bool, dt: float) -> dict:
    """Run summary from the trajectory's columns and H; the canonical
    summary derives its xi pair here, so that it is freed on return."""
    steps = len(traj) - 1
    xi = np.column_stack(canonical_coords(traj, params).xi) if canonical else None
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


class _EvolveRows:
    """evolve's CSV table, read by row slices: each slice derives its xi, X
    and orbit-invariant columns from the trajectory and H, which are all that
    is held for the whole run.

    The check and the writer read the same slices in turn, inside
    run_evolve's np.errstate; the last slice is kept, so a table of one
    block is derived once.
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
    cfg = _load_config(args.config, args.command) if args.config else {}
    pcfg = _setting(None, cfg, "params", "object", {})
    icfg = _setting(None, cfg, "initial", "object", {})
    params = DissipativeParams(
        M=_setting(args.M, pcfg, "params.M", "number"),
        R=_setting(args.R, pcfg, "params.R", "number"),
        hbar=_setting(args.hbar, pcfg, "params.hbar", "number", 1.0),
        potential=_potential_from(pcfg.get("potential"), args.potential, args.k, args.coeffs),
    )
    _reads_only(args, f"evolve with a {params.potential.kind} potential", "M", "R", "hbar",
                "potential", "x_plus", "x_minus", "v_plus", "v_minus", "dt", "steps", "canonical",
                *{"harmonic": ("k",), "polynomial": ("coeffs",)}.get(params.potential.kind, ()))
    initial = TwoCoordState(
        x_plus=_setting(args.x_plus, icfg, "initial.x_plus", "number", 0.0),
        x_minus=_setting(args.x_minus, icfg, "initial.x_minus", "number", 0.0),
        v_plus=_setting(args.v_plus, icfg, "initial.v_plus", "number", 0.0),
        v_minus=_setting(args.v_minus, icfg, "initial.v_minus", "number", 0.0),
        t=_setting(None, icfg, "initial.t", "number", 0.0),
    )
    dt = _setting(args.dt, cfg, "dt", "number")
    steps = _setting(args.steps, cfg, "steps", "integer")
    canonical = _setting(args.canonical, cfg, "canonical", "boolean", None)
    if canonical and params.R == 0:
        raise ConfigError("canonical coordinates require R > 0, but the run has R = 0")
    want_canonical = (params.R > 0) if canonical is None else canonical
    out = _setting(args.out, cfg, "out", "path", None)

    with warnings.catch_warnings():
        # the library's RuntimeWarning as one stderr line, without a source location
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        traj = integrate_array(initial, params, dt, steps)
    header = EVOLVE_HEADER[want_canonical]
    # a NaN or infinity is reported by the checks below, by column or key
    with np.errstate(over="ignore", invalid="ignore"):
        h = hamiltonian_value(traj, params)
        table = _EvolveRows(traj, h, params, want_canonical)
        _require_finite(header, table)
        # encoded before the CSV is written, so a bad summary writes nothing
        summary = _json_line(_evolve_summary(traj, params, h, want_canonical, dt))
        _emit_csv(header, table, out)
    _emit(summary, None)
    return EXIT_OK


# -------------------------------------------------------------------- phase

def _loop_from(args, cfg: dict):
    return _input(args.loop, cfg, "loop_csv", _read_path_csv, "loop", "vertices")


def _scene_from(args, cfg: dict) -> dict | None:
    """The scene's checked fields (null ones left out), or None without a scene."""
    raw = _input(args.scene, cfg, "scene_json", lambda path: _load_json(path, "scene"),
                 "scene", "object")
    if raw is None:
        return None
    _check_keys(raw, _SCENE_KEYS, "scene.")
    return {key: _setting(None, raw, f"scene.{key}", kind)
            for key, kind in _SCENE_KEYS.items() if raw.get(key) is not None}


def _winding_report(scene) -> dict:
    """sigma, the atoms inside the scene's core loop and their winding phase."""
    inside = int(np.count_nonzero(points_in_polygon(scene.atoms, scene.core_loop)))
    return {"sigma": scene.sigma, "atoms_inside": inside,
            "winding_phase": count_phase(scene.sigma, inside)}


def run_phase(args) -> int:
    cfg = _load_config(args.config, args.command) if args.config else {}
    out = _setting(args.out, cfg, "out", "path", None)
    scene_data = _scene_from(args, cfg)
    loop = _loop_from(args, cfg)
    p1 = _setting(args.path1, cfg, "path1_csv", "path", None)
    p2 = _setting(args.path2, cfg, "path2_csv", "path", None)

    modes = sum(x is not None for x in (scene_data, p1, loop))
    if modes == 0:
        raise ConfigError("phase needs one of: --loop, --path1/--path2, --scene")
    if modes > 1:
        raise ConfigError("phase modes are mutually exclusive: give one of loop/paths/scene")

    if scene_data is not None:
        _reads_only(args, "phase --scene", "scene")
        _emit_json(_winding_report(scene_from_dict(scene_data)), out)
        return EXIT_OK

    if p1 is not None or p2 is not None:
        if p1 is None or p2 is None:
            raise ConfigError("action route needs both --path1 and --path2")
        _reads_only(args, "phase --path1/--path2", "path1", "path2", "hbar")
        # the top-level hbar: read on this route and the plain loop route only
        hbar = _setting(args.hbar, cfg, "hbar", "number", 1.0)
        path1 = _read_path_csv(p1)
        path2 = _read_path_csv(p2)
        phase = interference_phase_action(path1, path2, hbar)
        _emit_json({"phase_action": phase}, out)
        return EXIT_OK

    mcfg = _setting(None, cfg, "magnetic", "object", None)
    if _setting(args.ab, cfg, "ab", "boolean", False) or mcfg:
        _reads_only(args, "phase --loop with --ab or a \"magnetic\" object", "loop", "ab",
                    *_FIELD_FLAGS)
        mp = _magnetic(args, mcfg or {})
        phase_ab = aharonov_bohm_phase(mp, loop)
        area_params = NcParams(L=magnetic_length(mp), hbar=mp.hbar)
        phase_area = interference_phase_area(loop, area_params)
        _emit_json({"phase_ab": phase_ab, "phase_area": phase_area,
                    "difference": phase_ab - phase_area}, out)
        return EXIT_OK

    _reads_only(args, "phase --loop without --ab or a \"magnetic\" object", "loop", "L", "hbar")
    hbar = _setting(args.hbar, cfg, "hbar", "number", 1.0)
    params = NcParams(L=_setting(args.L, cfg, "L", "number"), hbar=hbar)
    phase_area = interference_phase_area(loop, params)
    phase_action = loop_action_phase(loop, params)
    _emit_json({"phase_area": phase_area, "phase_action": phase_action,
                "difference": phase_area - phase_action}, out)
    return EXIT_OK


# ------------------------------------------------------------------ algebra

def _complex_table(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def run_algebra(args) -> int:
    dim = _setting(args.dim, {}, "--dim", "integer")
    if args.kind == "magnetic":
        _reads_only(args, "algebra --kind magnetic", "dim", *_FIELD_FLAGS)
        params = _magnetic(args, {}, B=1.0)
        report = cyclotron_algebra(params, dim)
    else:
        _reads_only(args, "algebra --kind dissipative", "dim", "R", "mass", "hbar")
        if args.R is None or args.R <= 0:
            raise ConfigError("dissipative algebra needs --R > 0")
        params = DissipativeParams(M=_setting(args.mass, {}, "--mass", "number", 1.0),
                                   R=args.R,
                                   hbar=_setting(args.hbar, {}, "--hbar", "number", 1.0))
        report = kappa_commutator_check(params, dim)
    _emit_json(
        {
            "kind": args.kind,
            "dim": report.dim,
            "length_scale_sq": params.L2,
            "labels": list(report.labels),
            "table": _complex_table(report.leading),
            "artifact": _complex_table(report.artifact),
            "max_clean_deviation": report.max_clean_deviation(),
        },
        args.out,
    )
    return EXIT_OK


# ------------------------------------------------------------------- vortex

def run_vortex(args) -> int:
    cfg = _load_config(args.config, args.command) if args.config else {}
    out = _setting(args.out, cfg, "out", "path", None)
    fields = _scene_from(args, cfg)
    if fields is None:
        raise ConfigError("vortex needs --scene FILE or a config with \"scene\"/\"scene_json\"")

    scatter = _setting(None, cfg, "scatter", "object", None)
    if scatter is not None:
        if len(fields.get("atoms", ())):
            raise ConfigError("scatter and explicit scene atoms are mutually exclusive")
        density = _setting(None, scatter, "scatter.density", "number", fields.get("density"))
        if density is None:
            raise ConfigError("scatter needs a density (in scatter or scene)")
        seed = _setting(None, scatter, "scatter.seed", "integer")
        region = _setting(None, scatter, "scatter.region", "numbers")
        if len(region) != 4:
            raise ConfigError(
                f"scatter needs \"region\": [x0, y0, x1, y1], got {scatter['region']!r}")
        x0, y0, x1, y1 = region
        if not (x1 > x0 and y1 > y0):
            raise ConfigError(f"degenerate scatter region {scatter['region']!r}")
        area = (x1 - x0) * (y1 - y0)
        count = int(round(density * area))
        rng = np.random.default_rng(seed)
        fields["atoms"] = rng.uniform((x0, y0), (x1, y1), size=(count, 2))
        fields.setdefault("density", density)

    scene = scene_from_dict(fields)
    report = _winding_report(scene)
    report["atoms"] = int(scene.atoms.shape[0])
    if scene.density is not None:
        report["length_scale"] = film_length_scale(scene.density)
    core = _setting(args.core, cfg, "core", "pair", None)
    if core is not None:
        core_winding = winding_number(core, scene.core_loop)
        report["core_winding"] = core_winding
        report["circulation"] = circulation_integral(core, scene.core_loop, scene.sigma)
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
    # the field flags of spectrum, phase and algebra, with no defaults here:
    # _magnetic and _setting supply them
    field = argparse.ArgumentParser(add_help=False)
    for flag in _FIELD_FLAGS:
        field.add_argument(f"--{flag.replace('_', '-')}", type=float,
                           help="field strength" if flag == "B" else None)
    field.add_argument("--out", help="output file (default: stdout)")

    sp = sub.add_parser("spectrum", parents=[field], help="distance or Landau level spectra")
    sp.add_argument("--kind", choices=("distance", "landau"), required=True)
    sp.add_argument("--L", type=float, help="length scale (distance spectrum)")
    sp.add_argument("--dim", type=int, help="truncation dimension (distance spectrum)")
    sp.add_argument("--omega-c", type=float,
                    help="cyclotron frequency (alternative to --B; sets e = c = M = 1)")
    sp.add_argument("--n-max", type=int, help="highest level index")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=run_spectrum)

    ev = sub.add_parser("evolve", help="integrate the doubled-coordinate dynamics")
    ev.add_argument("--config", help="JSON config file (schema_version 1)")
    ev.add_argument("--M", type=float, help="mass")
    ev.add_argument("--R", type=float, help="friction constant (0 allowed)")
    ev.add_argument("--hbar", type=float)
    ev.add_argument("--potential", choices=("free", "harmonic", "polynomial"))
    ev.add_argument("--k", type=float, help="harmonic stiffness")
    ev.add_argument("--coeffs", type=_floats, help="polynomial coefficients c0,c1,...")
    ev.add_argument("--x-plus", type=float)
    ev.add_argument("--x-minus", type=float)
    ev.add_argument("--v-plus", type=float)
    ev.add_argument("--v-minus", type=float)
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

    ph = sub.add_parser("phase", parents=[field],
                        help="interference phases by area, action, flux, or winding")
    ph.add_argument("--config", help="JSON config file (schema_version 1)")
    ph.add_argument("--loop", help="loop vertex CSV")
    ph.add_argument("--L", type=float, help="length scale for the area route")
    ph.add_argument("--path1", help="phase-space path CSV (action route)")
    ph.add_argument("--path2", help="phase-space path CSV (action route)")
    ph.add_argument("--ab", action="store_true", default=None,
                    help="flux route: use field parameters")
    ph.add_argument("--scene", help="vortex scene JSON (winding route)")
    ph.set_defaults(func=run_phase)

    al = sub.add_parser("algebra", parents=[field], help="pairwise commutator tables")
    al.add_argument("--kind", choices=("magnetic", "dissipative"), required=True)
    al.add_argument("--dim", type=int, help="single-factor truncation dimension")
    al.add_argument("--R", type=float, help="friction constant (dissipative)")
    al.set_defaults(func=run_algebra)

    vx = sub.add_parser("vortex", help="winding phase and circulation for a vortex scene")
    vx.add_argument("--config", help="JSON config file (schema_version 1)")
    vx.add_argument("--scene", help="scene JSON file")
    vx.add_argument("--core", type=_floats, help="vortex position \"x,y\" for circulation")
    vx.add_argument("--out")
    vx.set_defaults(func=run_vortex)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for a usage error
        return exc.code or EXIT_OK
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as exc:  # ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
