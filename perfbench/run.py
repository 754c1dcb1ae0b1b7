"""Run the repository benchmark: ``python3 perfbench/run.py --workload W --seed N``.

Prints the environment as one JSON line, then -- as the last line of
standard output -- one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``, measured untraced; with
``--trace 1`` they are its per-layer metrics, from one untraced and one
traced pass over the same work, and the traced pass's spans are written as
a Chrome trace under ``.perfbench/``.  Without ``--workload`` every
workload runs, each in its own fresh process.  The exit code is 0 only when
every operation succeeded and every answer passed its checks.

See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench"


def _bootstrap() -> None:
    """Make ``repro`` (under ``src/``) and ``perfbench`` importable."""
    for entry in (ROOT / "src", ROOT):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))


# ----------------------------------------------------------------- environment
def _blas() -> dict:
    """BLAS library, version and thread count, without changing any setting."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    blas = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    for library in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(library))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                blas["threads"] = int(getter())
                return blas
    return blas


def _filesystem(path: Path) -> str | None:
    """Type of the filesystem holding ``path`` (longest mount-point prefix)."""
    target = str(path.resolve())
    best, kind = "", None
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        return None
    return kind


def _git_describe() -> str | None:
    """``git describe`` of the checkout itself; ``None`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def environment(seed: int, workload: str, scratch: Path) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "workload": workload,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "thread_env": {key: os.environ[key] for key in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scratch": str(scratch.relative_to(ROOT)),
        "scratch_filesystem": _filesystem(scratch),
        "git_describe": _git_describe(),
    }


# --------------------------------------------------------------------- metrics
def _ms(samples, q: float) -> float:
    from perfbench.layers import reported_percentile

    return reported_percentile(samples, q) * 1e3


def _ops_per_s(run) -> float:
    """Operations completed in the timed window over the window's length."""
    return sum(len(samples) for samples in run.latencies.values()) / run.busy_s


def end_to_end(run) -> dict:
    return {
        "setup_s": statistics.median(run.setup_s),
        "ops_per_s": _ops_per_s(run),
        "query_p50_ms": _ms(run.latencies["query"], 50),
        "query_p90_ms": _ms(run.latencies["query"], 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "disk_bytes_per_record": run.disk_bytes_per_record,
    }


def per_layer(base, traced) -> dict:
    from perfbench import layers

    figures = layers.span_figures(traced.spans,
                                  wal_fsync_s=traced.registry["resilience.wal_fsync_s"])
    figures.update(traced.registry)
    pool = traced.pool
    lookups = pool["hits"] + pool["misses"]
    figures.update({
        "colstore.pool_hits": pool["hits"],
        "colstore.pool_misses": pool["misses"],
        "colstore.pool_evictions": pool["evictions"],
        "colstore.pool_miss_ratio": pool["misses"] / lookups if lookups else 0.0,
        "resilience.wal_bytes_per_update": (
            traced.wal_bytes / traced.wal_updates if traced.wal_updates else 0.0),
        "obs.overhead_ratio": _ops_per_s(base) / _ops_per_s(traced) - 1.0,
    })
    updates = base.latencies["insert"] + base.latencies["delete"]
    for q in (50, 90):
        figures[f"serve.update_p{q}_ms"] = _ms(updates, q) if updates else 0.0
    return figures


# ------------------------------------------------------------------------ runs
def _stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process ``multiprocessing`` starts
    to track shared memory; the shm store's segments (all closed by now)
    registered with it, and the benchmark leaves no process behind."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def run_one(workload: str, seed: int, seconds: float, trace: bool, *, size=None) -> dict:
    """One workload in this process; returns the result object (and writes the trace)."""
    from repro.obs.trace import write_chrome_trace

    from perfbench.workloads import WORKLOADS

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    scratch = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(seed, workload, scratch)
        options = {} if size is None else {"size": size}
        bench = WORKLOADS[workload](seed, seconds, scratch, **options)
        if trace:
            # The same work untraced first, for the overhead ratio and the
            # update latencies; the traced pass's answers are the ones checked.
            base = bench.run(traced=False, check=False)
            traced = bench.run(traced=True)
            figures = per_layer(base, traced)
            runs, wanted = (base, traced), spec["per_layer"]
            write_chrome_trace(WORK / f"trace-{workload}-seed{seed}.json", traced.spans,
                               metadata={"environment": env, "notes": traced.notes})
        else:
            run = bench.run(traced=False)
            figures = end_to_end(run)
            runs, wanted = (run,), spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        _stop_resource_tracker()
    for run in runs:
        run.notes["window_s"] = run.busy_s
    print(json.dumps({"environment": env, "notes": [run.notes for run in runs],
                      "problems": [p for run in runs for p in run.problems]}))
    failed = sum(run.failed for run in runs)
    return {
        "correct": failed == 0,
        "attempted": sum(run.attempted for run in runs),
        "failed": failed,
        "metrics": {metric["name"]: {"value": figures[metric["name"]], "unit": metric["unit"]}
                    for metric in wanted},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a fresh process (so ``peak_rss_mb`` is its own)."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (entry["name"] for entry in spec["workloads"]):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{workload} exited with {done.returncode}")
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"   {name:<34} {metric['value']:>14.6g} {metric['unit']}")
            merged["metrics"][f"{workload}.{name}"] = metric
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="nominal length of the timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"])
    _bootstrap()
    if args.workload is None:
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
