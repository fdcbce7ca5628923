"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py PASS_JSON   (written by run.py)
       python3 worker.py --setup-only

The first thing it does is import ncplane.cli, and it reports the
CLOCK_MONOTONIC time at which that import finished, so the parent can
measure set-up from spawn to ready.  It then runs the pass's steps in
order, timing each, optionally under span tracing, and writes a result
JSON file.  Checks of library-step outputs run after the timed region.
"""

import sys
import time

import ncplane.cli  # the set-up being measured

READY = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _peak_rss_mb() -> float:
    """This process's own peak resident set.

    ru_maxrss is kept across execve, so in a process spawned from a big
    parent it reports the parent's size; VmHWM belongs to the new address
    space alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def run_pass(job: dict) -> dict:
    import ncplane.dissipative_dynamics as dd

    import tracing
    import workloads

    recorder = undo = None
    if job["trace"]:
        recorder = tracing.Recorder()
        undo = tracing.install(recorder)
    steps = job["steps"]
    results = []
    lib_outputs = {}
    gc.collect()
    pass_start = time.perf_counter()
    for spec in steps:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if spec["kind"] == "cli":
                    rc = ncplane.cli.main(spec["argv"])
                else:
                    rc = 0
                    lib_outputs[len(results)] = workloads.run_density(dd, spec)
            except Exception as exc:  # a crash is a failed invocation, not a dead pass
                rc = -1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        t1 = time.perf_counter()
        results.append({"rc": rc, "seconds": t1 - t0, "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-2000:]})
    wall = time.perf_counter() - pass_start
    peak_rss_mb = _peak_rss_mb()

    layer = None
    if recorder is not None:
        tracing.uninstall(undo)
        layer = tracing.aggregate(recorder)
        tracing.dump(recorder, job["spans_path"], job["pass_id"])
    in_bytes = out_bytes = 0
    for spec, res in zip(steps, results):
        if spec["kind"] == "cli":
            in_bytes += sum(_size(p) for p in spec.get("inputs", []))
            out_bytes += sum(_size(p) for p in spec.get("outputs", []))
            out_bytes += len(res["stdout"].encode())
    for idx, (rhos, freqs) in lib_outputs.items():
        chk = workloads.check_density_step(steps[idx], rhos, freqs)
        results[idx]["check"] = {"max_rel_err": chk.max_rel_err, "errors": chk.errors}
    return {"ready": READY, "wall_s": wall, "peak_rss_mb": peak_rss_mb, "steps": results,
            "layer": layer, "in_bytes": in_bytes, "out_bytes": out_bytes,
            "ncplane_file": ncplane.cli.__file__}


def main(argv: list[str]) -> int:
    if argv == ["--setup-only"]:
        print(json.dumps({"ready": READY, "ncplane_file": ncplane.cli.__file__}))
        return 0
    with open(argv[0]) as fh:
        job = json.load(fh)
    result = run_pass(job)
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
