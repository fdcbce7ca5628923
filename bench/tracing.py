"""Span tracing for the benchmark's traced passes.

The benchmark wraps the public functions of each ncplane layer in spans
from the outside: every namespace that holds a reference to a wrapped
function (the defining module, ``ncplane.cli``, the package root, and any
sibling module that imported it) gets the wrapper, so calls between layers
are seen too, e.g. ``vortex_film.winding_phase`` -> ``points_in_polygon``.

A span is (name, start, end, parent) in integer nanoseconds.  Spans are
kept in memory in compact arrays and written out once the pass ends.  A
span's self time is its duration minus the part of its interval covered by
its child spans.  Counters (steps, atom x edge pairs, computed flops ...)
are recorded at the same wrappers, from argument shapes only.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# Functions wrapped per layer.  cli's per-value helpers (_g17, _pick,
# _require) stay unwrapped: they run once per CSV value, and a span each
# would cost more than the work it times; their time lands in the caller.
LAYERS = {
    "cli": (
        "main", "build_parser", "run_spectrum", "run_evolve", "run_phase",
        "run_algebra", "run_vortex", "_evolve_summary", "_emit", "_emit_json",
        "_load_json", "_load_config", "_read_path_csv", "_potential_from",
        "_loop_from", "_complex_table",
    ),
    "dissipative_dynamics": (
        "integrate_trajectory", "hamiltonian_value", "canonical_momenta",
        "canonical_coords", "hyperbolic_evolve", "orbit_invariant",
        "friction_hamiltonian", "transmission_coefficient", "doubled_operators",
        "kappa_commutator_check", "validate_density_matrix", "evolve_density",
        "bohr_frequencies", "trajectory_to_array", "eom_rhs",
    ),
    "operator_core": (
        "require_dim", "build_ladder", "commutator", "build_xy",
        "distance_spectrum", "hermiticity_defect", "commutator_table",
    ),
    "landau": (
        "magnetic_length", "landau_spectrum", "landau_hamiltonian",
        "cyclotron_operators", "cyclotron_algebra", "flux_quantization",
        "aharonov_bohm_phase",
    ),
    "vortex_film": (
        "scene_from_dict", "winding_numbers", "winding_number", "points_in_polygon",
        "point_in_polygon", "winding_phase", "film_length_scale",
        "circulation_integral",
    ),
    "phase_geometry": (
        "as_path", "signed_area", "action_integral", "interference_phase_area",
        "interference_phase_action", "to_phase_space", "loop_action_phase",
    ),
}

COMPLEX_BYTES = 16


def _rows(obj) -> int:
    """Leading length of an array-like without converting it."""
    shape = getattr(obj, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) else 1
    return len(obj)


def _count_steps(counts, args, kwargs):
    counts["dissipative_dynamics.integrate_trajectory.steps"] += int(
        kwargs.get("steps", args[3] if len(args) > 3 else 0)
    )


def _count_commutator(counts, args, kwargs):
    # complex n x n: two products of 8 n^3 flops and a 2 n^2 subtraction;
    # bytes: both operands, both products and the result, 16 B per entry
    n = _rows(args[0])
    counts["operator_core.commutator.flops"] += 16 * n ** 3 + 2 * n ** 2
    counts["operator_core.commutator.bytes"] += 5 * COMPLEX_BYTES * n * n


def _count_winding(counts, args, kwargs):
    points, polygon = args[0], args[1]
    shape = getattr(points, "shape", None)
    npts = 1 if shape is not None and len(shape) == 1 else _rows(points)
    counts["vortex_film.winding_numbers.atom_edges"] += npts * _rows(polygon)


def _count_vertices(counts, args, kwargs):
    counts["phase_geometry.vertices"] += _rows(args[0])


def _count_entry_samples(counts, args, kwargs):
    rhos = args[0]
    d = _rows(rhos[0])
    counts["dissipative_dynamics.bohr_frequencies.entry_samples"] += d * (d - 1) * _rows(rhos)


COUNTERS = {
    "dissipative_dynamics.integrate_trajectory": _count_steps,
    "operator_core.commutator": _count_commutator,
    "vortex_film.winding_numbers": _count_winding,
    "phase_geometry.signed_area": _count_vertices,
    "phase_geometry.action_integral": _count_vertices,
    "dissipative_dynamics.bohr_frequencies": _count_entry_samples,
}


class Recorder:
    """In-memory span store for one traced pass."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _nid(self, qualname: str) -> int:
        if qualname not in self.name_id:
            self.name_id[qualname] = len(self.names)
            self.names.append(qualname)
        return self.name_id[qualname]

    def wrap(self, qualname: str, fn):
        nid = self._nid(qualname)
        counter = COUNTERS.get(qualname)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.name)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1])
            rec.start.append(0)
            rec.end.append(0)
            if counter is not None:
                counter(rec.counts, args, kwargs)
            rec.stack.append(idx)
            t0 = rec.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = rec.clock()
                rec.stack.pop()
                rec.start[idx] = t0
                rec.end[idx] = t1

        return traced

    def span(self, qualname: str, start: int, end: int, parent: int = -1) -> int:
        """Append a finished span directly (for synthetic span trees in tests)."""
        idx = len(self.name)
        self.name.append(self._nid(qualname))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return idx


def install(recorder: Recorder) -> list:
    """Wrap every LAYERS function in every ncplane namespace that holds it.

    Returns the (namespace, attribute, original) triples needed to undo it.
    """
    import ncplane  # noqa: F401  (loads every submodule)

    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "ncplane" or name.startswith("ncplane."))]
    undo = []
    for layer, funcs in LAYERS.items():
        module = sys.modules[f"ncplane.{layer}"]
        for fname in funcs:
            original = getattr(module, fname)
            wrapper = recorder.wrap(f"{layer}.{fname}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        undo.append((ns, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for ns, attr, original in reversed(undo):
        setattr(ns, attr, original)


def self_times(start, end, parent) -> list[int]:
    """Self time of each span: duration minus the union of its children's
    intervals, each child clipped to the parent's interval."""
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children[p].append(i)
    out = [0] * n
    for i in range(n):
        s, e = start[i], end[i]
        covered = 0
        reach = s
        for c in sorted(children[i], key=lambda k: start[k]):
            lo = max(start[c], reach)
            hi = min(end[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[i] = (e - s) - covered
    return out


def aggregate(recorder: Recorder) -> dict[str, float]:
    """Per-function and per-layer self seconds and call counts, plus counters."""
    selfs = self_times(recorder.start, recorder.end, recorder.parent)
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for nid, st in zip(recorder.name, selfs):
        qual = recorder.names[nid]
        self_ns[qual] = self_ns.get(qual, 0) + st
        calls[qual] = calls.get(qual, 0) + 1
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for qual, ns in self_ns.items():
        out[f"{qual}.self_s"] = ns / 1e9
        out[f"{qual}.calls"] = calls[qual]
        layer = qual.split(".", 1)[0]
        out[f"{layer}.self_s"] += ns / 1e9
    out.update(recorder.counts)
    out["trace.spans"] = len(recorder.name)
    return out


def dump(recorder: Recorder, path, pass_id: int) -> None:
    """Write the spans of one pass as a compressed .npz file (names alongside)."""
    import numpy as np

    base = min(recorder.start) if len(recorder.start) else 0
    np.savez_compressed(
        path,
        names=np.array(recorder.names, dtype=str),
        name=np.frombuffer(recorder.name, dtype=np.int64).astype(np.int32),
        start_ns=np.frombuffer(recorder.start, dtype=np.int64) - base,
        end_ns=np.frombuffer(recorder.end, dtype=np.int64) - base,
        parent=np.frombuffer(recorder.parent, dtype=np.int64).astype(np.int32),
        pass_id=np.int32(pass_id),
    )
