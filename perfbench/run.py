"""emotionforge benchmark: one seeded workload per run, untraced or traced.

    python3 perfbench/run.py --workload {train,stream,prep} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]

Run it from the root of a checkout; it imports the package from ``src/``
there. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured for
``--seconds`` seconds; with ``--trace 1`` they are the per-layer metrics of
one fixed job run with every emotionforge layer wrapped in a span, plus the
tracing overhead against the same job run untraced. Lines above it, each
starting with ``#``, record the machine and give every figure under the
workload's own name with its unit. Inputs and outputs live in ``bench-out/``
under the checkout; the traced run leaves its spans there.

Exit codes: 0 when every output check passed, 1 when one failed, 2 when the
package cannot be found or imported (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# (name, unit, better): every workload reports all of these. Per workload,
# "main" and "second" are:
#   train   training samples/s through train_loop, held-out samples/s in evaluate_dataset
#   stream  frames/s, and 1000 / p95 frame ms (the p95 frame time as a rate)
#   prep    source images/s through `align`, source images/s through `augment`
END_TO_END = [("setup_s", "s", "lower"),
              ("main_items_per_s", "items/s", "higher"),
              ("second_items_per_s", "items/s", "higher"),
              ("peak_rss_mb", "MB", "lower")]


def _positive_int(text: str | None) -> int | None:
    return int(text) if text and text.isdigit() and int(text) > 0 else None


def cap_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use.

    Must run before numpy is imported. EMOTION_FORGE_THREADS, when set, picks
    a lower cap and fans out to the same four variables the CLI sets; a
    variable already set lower is kept.
    """
    nproc = len(os.sched_getaffinity(0))
    cap = min(_positive_int(os.environ.get("EMOTION_FORGE_THREADS")) or nproc, nproc)
    os.environ["EMOTION_FORGE_THREADS"] = str(cap)
    for var in THREAD_VARS:
        os.environ[var] = str(min(_positive_int(os.environ.get(var)) or cap, cap))
    return cap


def machine() -> dict:
    import platform

    import numpy

    info = {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in ("EMOTION_FORGE_THREADS",) + THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in f
                                if ln.startswith("model name")), platform.machine())
    except OSError:
        info["cpu"] = platform.machine()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds: float, setup_repeats: int) -> tuple[dict, list, list, list]:
    """Untraced: set up ``setup_repeats`` times, then repeat the job for ``seconds``.

    Every job is checked; the figures come from every job but the first.
    """
    wl.prepare()
    setup_s = []
    for _ in range(setup_repeats):
        state, took = wl.timed_setup()
        setup_s.append(took)
    jobs = []
    start = time.perf_counter()
    while len(jobs) < 2 or time.perf_counter() - start < seconds:
        jobs.append(wl.job(state))
    failures = [msg for j in jobs for msg in j.failures]
    for j in jobs[1:]:
        if j.fingerprint != jobs[0].fingerprint:
            failures.append("a rerun of the same job gave different outputs")
            j.failed = j.ops
    # The first job warms caches and allocators: it is checked, not timed.
    e2e = wl.end_to_end(jobs[1:])
    metrics = {"setup_s": statistics.median(setup_s),
               "main_items_per_s": e2e["main_items_per_s"],
               "second_items_per_s": e2e["second_items_per_s"],
               "peak_rss_mb": peak_rss_mb()}
    own = [("setup_s", metrics["setup_s"], "s"), *e2e["own"],
           ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
           ("jobs", len(jobs), "count"), ("setup_repeats", setup_repeats, "count")]
    return {name: (metrics[name], unit) for name, unit, _ in END_TO_END}, own, jobs, failures


def traced(wl, trace_path: str) -> tuple[dict, list, list, list]:
    """One job untraced, then the same job traced; outputs must match bit for bit."""
    from tracing import Tracer

    wl.prepare()
    state, setup_u = wl.timed_setup()
    ref = wl.job(state)
    rss_u = peak_rss_mb()

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter_ns()
        state, setup_t = wl.timed_setup()
        job = wl.job(state, tracer)
        wall_ns = time.perf_counter_ns() - t0
    finally:
        tracer.restore()
    rss_t = peak_rss_mb()

    failures = ref.failures + job.failures
    if job.fingerprint != ref.fingerprint:
        failures.append("traced outputs differ from untraced outputs")
        job.failed = job.ops
    e2e_u = wl.end_to_end([ref])
    e2e_t = wl.end_to_end([job])
    metrics = tracer.per_layer_metrics(wall_ns, job.steps, job.skip_ratio)
    overhead = {
        "trace_overhead.main_items_per_s":
            (100.0 * (e2e_u["main_items_per_s"] / e2e_t["main_items_per_s"] - 1), "%"),
        "trace_overhead.second_items_per_s":
            (100.0 * (e2e_u["second_items_per_s"] / e2e_t["second_items_per_s"] - 1), "%"),
        "trace_overhead.setup_s": (100.0 * (setup_t / setup_u - 1), "%"),
        "trace_overhead.peak_rss_mb": (rss_t - rss_u, "MB"),
    }
    metrics.update(overhead)

    table = tracer.layer_table()
    own = [(f"{name}.self_ms", row["self_ms"], "ms") for name, row in table.items()]
    own += [(f"{name}.ms_p50", row["ms_p50"], "ms") for name, row in table.items()]
    own += [(name, value, unit) for name, (value, unit) in overhead.items()]
    summary = {"workload": wl.name, "seed": wl.seed, "wall_ms": wall_ns / 1e6,
               "untraced": {k: v for k, v in e2e_u.items() if k != "own"},
               "traced": {k: v for k, v in e2e_t.items() if k != "own"},
               "setup_s": {"untraced": setup_u, "traced": setup_t}}
    tracer.write(trace_path, summary)
    _print_layer_table(table, wall_ns)
    return metrics, own, [ref, job], failures


def _print_layer_table(table: dict, wall_ns: int) -> None:
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_ns"])
    print(f"{'span':42s} {'calls':>7s} {'self ms':>10s} {'self %':>7s} {'p50 ms':>9s}",
          file=sys.stderr)
    for name, row in rows:
        print(f"{name:42s} {row['calls']:7d} {row['self_ms']:10.3f} "
              f"{100.0 * row['self_ns'] / wall_ns:7.2f} {row['ms_p50']:9.3f}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "stream", "prep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for a smoke test of the harness")
    args = parser.parse_args(argv)

    cap_threads()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "emotionforge", "__init__.py")):
        print(f"error: no emotionforge package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import emotionforge: {exc}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, "bench-out")
    work_dir = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    sizes = workloads.SIZES[args.size]
    wl = workloads.WORKLOADS[args.workload](work_dir, args.seed, sizes)
    print("# machine " + json.dumps(machine()))
    try:
        if args.trace:
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            metrics, own, jobs, failures = traced(wl, trace_path)
            print(f"# spans written to {os.path.relpath(trace_path, ROOT)}")
        else:
            repeats = wl.setup_repeats if args.size == "full" else 1
            metrics, own, jobs, failures = measure(wl, args.seconds, repeats)
    except Exception:  # the program under test failed: report it, print no figures
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(j.ops for j in jobs)
    failed = sum(j.failed for j in jobs)
    for msg in failures[:20]:
        print(f"# check failed: {msg}")
    for name, value, unit in own:
        print(f"# {args.workload} {name} = {value!r} {unit}")
    print(f"# {args.workload} error_rate = {failed / attempted!r} ratio "
          f"({failed} failed of {attempted} attempted)")
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
