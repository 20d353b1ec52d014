"""Closed-loop benchmark of the hsparse ``certify`` and ``experiment`` commands.

Usage, from the repository root:

    python3 bench/run.py --workload certify-wide --seed 1 --seconds 20 --trace 0

One client drives ``hsparse.cli.main`` in-process and issues each command
only after the previous one returned.  The workload's command list is run in
passes until ``--seconds`` have gone by; every output is checked against
values computed by the benchmark itself.  With ``--trace 0`` the last line of
stdout carries the end-to-end metrics; with ``--trace 1`` traced and untraced
passes alternate and it carries the per-layer metrics.  The line before it is
a report: environment, host calibration, wall-clock figures, latency tail,
failures and, when traced, each layer's self time.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

# The keys of workloads.WORKLOADS; that module imports numpy, which has to
# wait until THREAD_VARS are set.
WORKLOAD_NAMES = ("certify-wide", "certify-spark", "sweep-relax", "sweep-exact")
# BLAS threads only add contention at these sizes (at most 128 x 256).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Import and input generation are repeated and their medians taken, so
# setup_s is steady.  The import is timed in fresh interpreters, each of
# which also times a fixed pure-Python loop before and after it: the import
# follows that loop's speed (spread over 30 imports 34% raw, 13% scaled),
# not the numpy kernel's.
SETUP_REPEATS = 5
IMPORT_PROBE = """
import time
def loop():
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(30000):
        total += i * i % 7
    for i in range(3000):
        table[str(i)] = i
    return time.perf_counter() - t0
before = min(loop() for _ in range(3))
t0 = time.perf_counter()
import hsparse.cli
took = time.perf_counter() - t0
after = min(loop() for _ in range(3))
print(took, (before + after) / 2 * 1e3)
"""
# About the loop's milliseconds on a quiet 2-core x86_64 host.
IMPORT_LOOP_REF_MS = 2.0
# Times are reported at a reference host speed: scaled by CALIB_REF_MS over
# the host probe's kernel time around them (see hostprobe.py).  The value is
# about the kernel's time on a quiet 2-core x86_64 host.
CALIB_REF_MS = 2.0
# A command that used this many CPU seconds per wall second ran work in
# parallel; the probe then competed with it, so only the samples taken
# before and after the command describe the host.
PARALLEL_CPU_RATIO = 1.2
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- helpers

def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it, or None."""
    ordered = sorted(values)
    below = len(ordered) - TAIL_BEYOND
    if below < 1:
        return None
    return {"percentile": 100.0 * below / len(ordered), "value": ordered[below - 1],
            "samples": len(ordered)}


def import_seconds():
    """Wall seconds a fresh interpreter spends importing hsparse (numpy
    included), and the milliseconds of its reference loop around that."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                           text=True, check=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=path))
    took, loop_ms = child.stdout.split()
    return float(took), float(loop_ms)


def blas_info(np):
    """BLAS as numpy was built with it, and as loaded at run time."""
    import ctypes
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"build": blas.get("openblas configuration",
                              f"{blas.get('name')} {blas.get('version')}"),
            "runtime": None, "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        info["runtime"] = lib.scipy_openblas_get_config64_().decode()
        info["threads"] = lib.scipy_openblas_get_num_threads64_()
    except (IndexError, OSError, AttributeError):
        pass   # not numpy's bundled OpenBLAS: the build string is all there is
    return info


def environment(np):
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "blas": blas_info(np),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- the loop

class Tally:
    """What the closed loop attempted, what failed, and how long it took."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.solves = 0
        self.successes = 0
        self.algo_rows: dict[str, list[int]] = {}    # algorithm -> [rows, successes]
        # One entry per command issued: traced, ops, label, start and end
        # (perf_counter), parallel; after the run also seconds (wall, without
        # the probe's own time) and calib_ms (probe kernel time around it).
        self.samples: list[dict] = []
        self.passes = 0

    def fail(self, ops: int, why: str, wrong_output: bool) -> None:
        self.failed += ops
        self.correct = self.correct and not wrong_output
        if len(self.problems) < 20:
            self.problems.append(why)


def scale(sample: dict) -> float:
    """Factor taking a command's wall time to the reference host speed."""
    return CALIB_REF_MS / sample["calib_ms"]


def cpu_seconds() -> float:
    """CPU time of this process, its threads and its reaped children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def run_command(cli, command, recorder):
    """Issue one command; returns (exit code or exception text, start, end, CPU s)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            if recorder is None:
                code = cli.main(command.argv)
            else:
                code = recorder.call("cli.main", cli.main, command.argv)
        except Exception as exc:   # the op failed; the loop goes on
            code = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        cpu = cpu_seconds() - cpu0
    return code, t0, t1, cpu


def remove_outputs(plan):
    for command in plan.commands:
        for path in (command.out, command.out + ".csv", command.out + ".json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def check(wl, plan, command, tally, first_sweep) -> list[str]:
    """Output errors of one command; tallies the sweep's solve outcomes."""
    try:
        if plan.kind == "certify":
            return wl.check_certify(command)
        out = wl.read_sweep(command)
        errors = wl.check_sweep(command, out, first_sweep.get(id(command)))
        first_sweep.setdefault(id(command), out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]
    for row in out.rows:
        counts = tally.algo_rows.setdefault(row["algorithm"], [0, 0])
        ok = row["success"] == "true"
        counts[0] += 1
        counts[1] += ok
        tally.successes += ok
    return errors


def run_pass(cli, wl, plan, tally, recorder, first_sweep) -> None:
    remove_outputs(plan)
    for command in plan.commands:
        if recorder is not None:
            recorder.op_id = len(tally.samples)
        code, t0, t1, cpu = run_command(cli, command, recorder)
        tally.samples.append({"traced": recorder is not None, "ops": command.ops,
                              "label": command.dictionary.label, "start": t0, "end": t1,
                              "parallel": cpu > PARALLEL_CPU_RATIO * (t1 - t0)})
        tally.attempted += command.ops
        tally.solves += command.solves
        errors = check(wl, plan, command, tally, first_sweep)
        label = command.dictionary.label
        if errors:
            tally.fail(command.ops, f"{label}: " + "; ".join(errors), wrong_output=True)
        elif code != 0:
            tally.fail(command.ops, f"{label}: exit {code}", wrong_output=False)
    tally.passes += 1


def measure(cli, wl, plan, seconds, recorder) -> Tally:
    """Closed loop over passes; with a recorder, traced and untraced passes alternate."""
    tally = Tally()
    first_sweep = {}
    started = time.perf_counter()
    while True:
        traced = recorder is not None and tally.passes % 2 == 1
        if traced:
            recorder.install()
        try:
            run_pass(cli, wl, plan, tally, recorder if traced else None, first_sweep)
        finally:
            if traced:
                recorder.uninstall()
        done = time.perf_counter() - started >= seconds
        if done and (recorder is None or tally.passes >= 2):
            return tally


def settle(tally, probe) -> None:
    """Give every command its wall seconds and the host speed while it ran.

    Runs after the loop, when the samples following the last command exist.
    """
    for c in tally.samples:
        c["seconds"] = c["end"] - c["start"] - probe.inside(c["start"], c["end"])
        c["calib_ms"] = probe.kernel_ms(c["start"], c["end"], outside_only=c["parallel"])


# ---------------------------------------------------------------- metrics

def rate(samples, scaled=True):
    """Ops per second of command time, at reference speed or wall clock."""
    busy = sum(c["seconds"] * (scale(c) if scaled else 1.0) for c in samples)
    return sum(c["ops"] for c in samples) / busy


def op_latencies(samples, scaled=True):
    """Per command: milliseconds per op."""
    return [c["seconds"] * 1e3 / c["ops"] * (scale(c) if scaled else 1.0) for c in samples]


def end_to_end(plan, tally, setup_s):
    if plan.kind == "certify":
        success = (tally.attempted - tally.failed) / tally.attempted
    else:
        success = tally.successes / tally.solves
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(rate(tally.samples), "1/s"),
        "op_p50_ms": metric(statistics.median(op_latencies(tally.samples)), "ms"),
        "success_ratio": metric(success, "ratio"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def solver_stats(rows, stuck_status):
    """Per-solve time, work and status figures; zeros for a solver not run."""
    ms = [r[0] for r in rows]
    work = [r[1] for r in rows]
    stuck = sum(r[2] == stuck_status for r in rows)
    t = tail(ms)
    return {"ms_p50": statistics.median(ms) if ms else 0.0,
            "ms_tail": t["value"] if t else max(ms, default=0.0), "tail": t,
            "work_p50": statistics.median(work) if work else 0,
            "work_max": max(work, default=0),
            "stuck_ratio": stuck / len(rows) if rows else 0.0}


def per_layer(recorder, tally, probe):
    """Per-layer metrics from the spans of the traced passes.

    Times are per op of the workload (per solve for the solver figures);
    each span loses the probe's time inside it and is scaled to the
    reference host speed like its command.
    """
    traced = [c for c in tally.samples if c["traced"]]
    untraced = [c for c in tally.samples if not c["traced"]]
    ops = sum(c["ops"] for c in traced)
    calib_ms = statistics.median(c["calib_ms"] for c in traced)
    durations = [(end - start - probe.inside(start, end)) * scale(tally.samples[op])
                 for start, end, op in zip(recorder.start, recorder.end, recorder.op)]
    own = recorder.self_times(durations)

    total = {}       # name -> summed duration of outermost spans
    calls = {}
    self_by_name = {}
    solves = {}      # solver span name -> [(ms, iterations, status)]
    payload_sum = {}
    for idx, dur in enumerate(durations):
        name = recorder.names[recorder.name_id[idx]]
        self_by_name[name] = self_by_name.get(name, 0.0) + own[idx]
        if not recorder.outermost(idx):
            continue
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        extra = recorder.payload.get(idx)
        if name.startswith("recovery."):
            solves.setdefault(name, []).append((dur * 1e3, *extra))
        elif extra is not None:
            payload_sum[name] = payload_sum.get(name, 0) + extra

    def per_op_ms(seconds):
        return metric(seconds * 1e3 / ops, "ms/op")

    m = {
        "cli.self_ms": per_op_ms(self_by_name.get("cli.main", 0.0)),
        "io.load_ms": per_op_ms(total.get("io.load", 0.0)),
        "io.write_ms": per_op_ms(total.get("io.write", 0.0)),
        "io.bytes_read": metric(payload_sum.get("io.load", 0) / ops, "bytes/op"),
        "io.bytes_written": metric(payload_sum.get("io.write", 0) / ops, "bytes/op"),
        "models.build_ms": per_op_ms(total.get("models.build", 0.0)),
        "experiments.plant_ms": per_op_ms(total.get("experiments.plant", 0.0)),
        "experiments.write_outputs_ms": per_op_ms(total.get("experiments.write_outputs", 0.0)),
        "experiments.self_ms": per_op_ms(self_by_name.get("experiments.sweep", 0.0)),
        "coherence.report_ms": per_op_ms(total.get("coherence.report", 0.0)),
        "coherence.mu_h_ms": per_op_ms(total.get("coherence.mu_h", 0.0)),
        "coherence.block_family_ms": per_op_ms(total.get("coherence.block_family", 0.0)),
        "coherence.spark_ms": per_op_ms(total.get("coherence.spark", 0.0)),
        "coherence.spark_calls": metric(calls.get("coherence.spark", 0) / ops, "calls/op"),
        "blocks.cross_norm_ms": per_op_ms(total.get("blocks.cross_norm", 0.0)),
        "blocks.cross_norm_calls": metric(calls.get("blocks.cross_norm", 0) / ops, "calls/op"),
        "blocks.lstsq_ms": per_op_ms(total.get("blocks.lstsq", 0.0)),
        "blocks.lstsq_calls": metric(calls.get("blocks.lstsq", 0) / ops, "calls/op"),
    }
    bp = solver_stats(solves.get("recovery.bp", []), "max-iterations")
    p0 = solver_stats(solves.get("recovery.p0", []), "non-unique")
    omp = solver_stats(solves.get("recovery.omp", []), "max-iterations")
    m.update({
        "recovery.bp.solve_ms_p50": metric(bp["ms_p50"], "ms"),
        "recovery.bp.solve_ms_tail": metric(bp["ms_tail"], "ms"),
        "recovery.bp.iters_p50": metric(bp["work_p50"], "count"),
        "recovery.bp.iters_max": metric(bp["work_max"], "count"),
        "recovery.bp.max_iter_ratio": metric(bp["stuck_ratio"], "ratio"),
        "recovery.p0.solve_ms_p50": metric(p0["ms_p50"], "ms"),
        "recovery.p0.solve_ms_tail": metric(p0["ms_tail"], "ms"),
        "recovery.p0.fits_p50": metric(p0["work_p50"], "count"),
        "recovery.p0.fits_max": metric(p0["work_max"], "count"),
        "recovery.p0.non_unique_ratio": metric(p0["stuck_ratio"], "ratio"),
        "recovery.omp.solve_ms_p50": metric(omp["ms_p50"], "ms"),
        "recovery.omp.iters_max": metric(omp["work_max"], "count"),
    })
    for algo in ("bp", "omp", "p0"):
        rows, ok = tally.algo_rows.get(algo, (0, 0))
        m[f"recovery.{algo}.success_ratio"] = metric(ok / rows if rows else 0.0, "ratio")
    m["calib_ms"] = metric(calib_ms, "ms")
    m["trace_overhead_ratio"] = metric(rate(traced) / rate(untraced), "ratio")

    root = total["cli.main"]
    layers = {}
    for name, seconds in self_by_name.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds

    def table(sums):
        return {name: {"ms_per_op": s * 1e3 / ops, "share": s / root}
                for name, s in sorted(sums.items(), key=lambda kv: -kv[1])}

    report = {"traced_ops": ops, "spans": len(recorder),
              "layer_self": table(layers), "span_self": table(self_by_name),
              "span_total": table(total),
              "solve_tails_ms": {"bp": bp["tail"], "p0": p0["tail"], "omp": omp["tail"]}}
    return m, report


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "hsparse" / "__init__.py").is_file():
        print(f"error: hsparse sources not found under {SRC}", file=sys.stderr)
        return 2

    import numpy as np
    sys.path.insert(0, str(SRC))
    import hsparse.cli as cli

    import hostprobe
    import spans
    import workloads as wl

    probe = hostprobe.HostProbe(np)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        gens = []   # wall seconds, probe kernel ms around
        for _ in range(SETUP_REPEATS):
            before = probe.timed_ms()
            t0 = time.perf_counter()
            plan = wl.WORKLOADS[args.workload](args.seed, workdir)
            took = time.perf_counter() - t0
            gens.append((took, (before + probe.timed_ms()) / 2))
        wl.compute_references(plan)

        recorder = spans.SpanRecorder() if args.trace else None
        probe.start()
        tally = measure(cli, wl, plan, args.seconds, recorder)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    settle(tally, probe)
    setup_s = (statistics.median(s * IMPORT_LOOP_REF_MS / ms for s, ms in imports)
               + statistics.median(s * CALIB_REF_MS / ms for s, ms in gens))

    wall_ms = op_latencies(tally.samples, scaled=False)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one client", "environment": environment(np),
        "calib_ms": {"reference": CALIB_REF_MS, "start": tally.samples[0]["calib_ms"],
                     "end": tally.samples[-1]["calib_ms"],
                     "samples": len(probe.took),
                     "parallel_commands": sum(c["parallel"] for c in tally.samples),
                     "per_command": [c["calib_ms"] for c in tally.samples]},
        "setup": {"import_wall_s": [s for s, _ in imports],
                  "import_loop_ms": [ms for _, ms in imports],
                  "generate_wall_s": [s for s, _ in gens],
                  "generate_calib_ms": [ms for _, ms in gens]},
        "passes": tally.passes,
        "wall": {"ops_per_s": rate(tally.samples, scaled=False),
                 "op_p50_ms": statistics.median(wall_ms), "op_tail_ms": tail(wall_ms),
                 "command_ms": [c["seconds"] * 1e3 for c in tally.samples],
                 "command_p50_ms": {
                     label: statistics.median(c["seconds"] * 1e3 for c in tally.samples
                                              if c["label"] == label)
                     for label in dict.fromkeys(c["label"] for c in tally.samples)}},
        "op_tail_ms": tail(op_latencies(tally.samples)),
        "failed_ratio": tally.failed / tally.attempted, "problems": tally.problems,
    }
    if args.trace:
        metrics, report["trace_report"] = per_layer(recorder, tally, probe)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        recorder.write(str(spans_path))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(plan, tally, setup_s)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
