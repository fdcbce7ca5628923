"""ncplane benchmark: end-to-end and per-layer metrics for four CLI workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an ncplane source checkout; the code under test is
imported from ./src.  Workloads, metric names, units and bounds are listed
in BENCHMARK.json.  Each pass runs in a fresh interpreter (bench/worker.py)
with one BLAS thread; passes repeat until about S seconds have been spent.

--trace 0 reports the end-to-end metrics of untraced passes.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the traced/untraced wall-time ratio.  Every output is
checked against a reference the benchmark computes itself (reference.py);
mismatches are printed and counted in "failed".  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Spans and
a full result record go to bench/_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BLAS_THREADS = "1"
SETUP_PROBES = 3
PASS_TIMEOUT_S = 100.0
STOP_STARTING_AFTER_S = 110.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, broken worker ...)."""


# ------------------------------------------------------------- environment

def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
    })
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ncplane").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"
    return {
        "git_commit": _git_commit(),
        "source_sha256_16": source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": f"OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS={BLAS_THREADS}",
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


# ---------------------------------------------------------------- passes

def spawn(argv: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    """Run the worker; returns (spawn time on CLOCK_MONOTONIC, result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *argv]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        raise BenchError(f"worker timed out after {timeout:g} s: {err[-2000:]}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err[-2000:]}")
    return t_spawn, subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _check_origin(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"ncplane was imported from {path}, not from {SRC}")


def setup_probe() -> float:
    t_spawn, proc = spawn(["--setup-only"], 60.0)
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    _check_origin(info["ncplane_file"])
    return info["ready"] - t_spawn


def run_pass(steps, pass_id: int, traced: bool, work: Path, out_dir: Path) -> dict:
    job = {
        "pass_id": pass_id,
        "trace": traced,
        "spans_path": str(out_dir / f"spans-pass{pass_id:02d}.npz"),
        "result_path": str(work / f"result-{pass_id}.json"),
        "steps": [{**s.spec, "inputs": s.inputs, "outputs": s.outputs} for s in steps],
    }
    job_path = work / f"pass-{pass_id}.json"
    job_path.write_text(json.dumps(job))
    t_spawn, _ = spawn([str(job_path)], PASS_TIMEOUT_S)
    result = json.loads(Path(job["result_path"]).read_text())
    _check_origin(result["ncplane_file"])
    result["setup_s"] = result["ready"] - t_spawn
    result["traced"] = traced
    return result


class Verifier:
    """Checks each step's output; identical output bytes reuse the verdict."""

    def __init__(self, steps):
        self.steps = steps
        self.cache: dict[tuple[int, str], tuple[float, list]] = {}
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.messages: list[str] = []

    def verify(self, result: dict, pass_id: int) -> None:
        import workloads

        for idx, (step, res) in enumerate(zip(self.steps, result["steps"])):
            self.attempted += 1
            if res["rc"] != 0:
                verdict = (math.inf, [f"exit code {res['rc']}: {res['stderr'].strip()}"])
            elif step.spec["kind"] == "lib":
                verdict = (res["check"]["max_rel_err"], res["check"]["errors"])
            else:
                h = hashlib.sha256(res["stdout"].encode())
                for path in step.outputs:
                    try:
                        h.update(Path(path).read_bytes())
                    except OSError:
                        h.update(b"<missing>")
                key = (idx, h.hexdigest())
                if key not in self.cache:
                    chk = workloads.check_step(step, res["stdout"])
                    self.cache[key] = (chk.max_rel_err, chk.errors)
                verdict = self.cache[key]
            err, errors = verdict
            if errors:
                self.failed += 1
                for e in errors[:5]:
                    self.messages.append(f"pass {pass_id} step {idx} ({step.label}): {e}")
            elif math.isfinite(err):
                self.max_rel_err = max(self.max_rel_err, err)


def measure(args, steps, work: Path, out_dir: Path):
    setup = []
    setup_probe()                       # compiles bytecode, warms the file cache
    for _ in range(SETUP_PROBES):
        setup.append(setup_probe())
    verifier = Verifier(steps)
    modes = [False, True] if args.trace else [False]
    need = {False: 3} if not args.trace else {False: 2, True: 2}
    passes = []
    t0 = time.monotonic()
    while True:
        traced = modes[len(passes) % len(modes)]
        result = run_pass(steps, len(passes), traced, work, out_dir)
        verifier.verify(result, len(passes))
        # ext4 flushes a file that is truncated and rewritten when it is
        # closed; removing the outputs keeps that disk write out of the
        # next pass
        for step in steps:
            for path in step.outputs:
                Path(path).unlink(missing_ok=True)
        setup.append(result["setup_s"])
        passes.append(result)
        elapsed = time.monotonic() - t0
        enough = all(sum(p["traced"] == m for p in passes) >= n for m, n in need.items())
        if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
        if elapsed > STOP_STARTING_AFTER_S:
            break
    return passes, setup, verifier


# ---------------------------------------------------------------- metrics

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(passes, setup, steps) -> tuple[dict, dict]:
    plain = [p for p in passes if not p["traced"]]
    cli_idx = [i for i, s in enumerate(steps) if s.spec["kind"] == "cli"]
    lat = [p["steps"][i]["seconds"] * 1e3 for p in plain for i in cli_idx]
    p95 = percentile(lat, 95)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "call_p50_ms": percentile(lat, 50),
        "call_p95_ms": p95,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    info = {"passes": len(plain), "call_samples": len(lat),
            "call_samples_above_p95": sum(v > p95 for v in lat),
            "setup_samples": len(setup)}
    return values, info


def per_layer(passes, names) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = []
    for p in traced:
        row = dict(p["layer"])
        row["cli.in_bytes"] = p["in_bytes"]
        row["cli.out_bytes"] = p["out_bytes"]
        for rate, work_key, time_key in (
            ("dissipative_dynamics.integrate_trajectory.steps_per_s",
             "dissipative_dynamics.integrate_trajectory.steps",
             "dissipative_dynamics.integrate_trajectory.self_s"),
            ("vortex_film.winding_numbers.atom_edges_per_s",
             "vortex_film.winding_numbers.atom_edges",
             "vortex_film.winding_numbers.self_s"),
        ):
            busy = row.get(time_key, 0.0)
            row[rate] = row.get(work_key, 0) / busy if busy > 0 else 0.0
        row["trace.traced_wall_s"] = p["wall_s"]
        rows.append(row)
    out = {name: statistics.median_low(r.get(name, 0) for r in rows) for name in names
           if name != "trace.overhead"}
    out["trace.overhead"] = (statistics.median(p["wall_s"] for p in traced)
                             / statistics.median(p["wall_s"] for p in plain))
    return out


# ------------------------------------------------------------------- main

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the benchmark's own smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncplane" / "cli.py").is_file():
        print(f"error: no ncplane source tree at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads_by_name = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in workloads_by_name:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads_by_name)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads

    env = environment(args)
    out_dir = BENCH / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    try:
        steps = workloads.build(args.workload, args.seed, str(work), args.size)
        passes, setup, verifier = measure(args, steps, work, out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, info = end_to_end(passes, setup, steps)
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = per_layer(passes, [m["name"] for m in spec["per_layer"]])
    else:
        values = e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    error_rate = verifier.failed / verifier.attempted

    print(f"workload {args.workload}: {workloads_by_name[args.workload]['why']}")
    for key, value in env.items():
        print(f"env {key} = {value}")
    print(f"passes: {len(passes)} ({sum(p['traced'] for p in passes)} traced), "
          f"cli call samples {info['call_samples']} "
          f"({info['call_samples_above_p95']} above p95), setup samples {info['setup_samples']}")
    for m in spec["end_to_end"]:
        print(f"e2e {m['name']} = {e2e[m['name']]:.6g} {m['unit']}"
              + ("" if not args.trace else "  (untraced passes of this traced run)"))
    print(f"check max_rel_err = {verifier.max_rel_err:.3g} (relative to each reference's scale)")
    print(f"check error_rate = {error_rate:.6g} ({verifier.failed} failed / "
          f"{verifier.attempted} attempted)")
    for msg in verifier.messages:
        print(f"MISMATCH {msg}")
    if args.trace:
        for m in spec["per_layer"]:
            print(f"layer {m['name']} = {values[m['name']]:.6g} {m['unit']}")

    record = {"env": env, "metrics": metrics, "end_to_end": e2e, "info": info,
              "max_rel_err": verifier.max_rel_err, "error_rate": error_rate,
              "attempted": verifier.attempted, "failed": verifier.failed,
              "mismatches": verifier.messages,
              "passes": [{**{k: v for k, v in p.items() if k != "steps"},
                          "step_seconds": [r["seconds"] for r in p["steps"]]} for p in passes]}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": verifier.failed == 0, "attempted": verifier.attempted,
                      "failed": verifier.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
