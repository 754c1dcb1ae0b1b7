"""Kernel micro-benchmarks: vectorized kernels vs the per-record loop paths.

Each case times a kernel from :mod:`repro.kernels` against the per-record
reference implementation it replaced (kept in the package as ``*_loop``
oracles), checks that both produce identical output, and reports the
speedup.  Two cases additionally compare against the seed's one-shot
``(n, n, d)`` / ``(v, n, n)`` broadcasts, which the per-dimension kernels
also beat.

The run doubles as the CI perf gate: it fails (exit code 1) when any kernel
is slower than its loop reference, or when the dominance-matrix kernel
misses the required 5x at n=2000.  Results are written to
``BENCH_kernels.json`` via :func:`repro.bench.reporting.write_bench_json`.

Usage::

    python benchmarks/bench_kernels.py [--smoke] [--output BENCH_kernels.json]
"""

import argparse
import sys
from pathlib import Path

# Make the shared benchmark helpers importable no matter where the
# benchmark is launched from (pytest, CI smoke step, or repo root).
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np
from conftest import best_time, emit_metrics_artifact, print_rows

from repro import obs
from repro.bench.reporting import write_bench_json
from repro.bench.workloads import query_workload, random_region
from repro.core.rsa import RSA
from repro.datasets.synthetic import synthetic_dataset
from repro.geometry.linear_programming import minimize
from repro.kernels import (
    dominance_counts,
    dominance_counts_loop,
    dominance_matrix,
    dominance_matrix_loop,
    dominators_mask,
    dominators_mask_loop,
    evaluate_halfspaces,
    evaluate_halfspaces_loop,
    halfspace_coefficients,
    r_dominance_matrix,
    r_dominance_matrix_loop,
    r_dominators_mask,
    r_dominators_mask_loop,
    vertex_scores,
)

#: Required speedup of the dominance-matrix kernel over the loop path at
#: n=2000 (the PR's acceptance bar); every other case must simply not lose.
REQUIRED_DOMINANCE_SPEEDUP = 5.0

#: Workload sizes.  The dominance-matrix gate runs at n=2000 in both modes;
#: smoke trims repetitions and the informational extras.
SETTINGS = {
    "default": {
        "repeats": 3,
        "dominance_n": 2000,
        "dominance_d": 4,
        "mask_probes": 32,
        "halfspace_m": 3000,
        "halfspace_v": 16,
        "r_loop_n": 400,
        "broadcast_cases": True,
        "rsa_case": True,
        "seed": 11,
    },
    "smoke": {
        "repeats": 2,
        "dominance_n": 2000,
        "dominance_d": 4,
        "mask_probes": 16,
        "halfspace_m": 1500,
        "halfspace_v": 12,
        "r_loop_n": 256,
        "broadcast_cases": False,
        "rsa_case": False,
        "seed": 11,
    },
}


def compare(case, baseline, kernel, repeats, identical, **extra):
    """Time ``baseline`` vs ``kernel`` and build one benchmark row."""
    loop_seconds, loop_result = best_time(baseline, repeats)
    kernel_seconds, kernel_result = best_time(kernel, repeats)
    return {
        "case": case,
        **extra,
        "loop_seconds": round(loop_seconds, 5),
        "kernel_seconds": round(kernel_seconds, 5),
        "speedup": round(loop_seconds / kernel_seconds, 2),
        "identical": bool(identical(loop_result, kernel_result)),
    }


def lp_values_match(first, second, tol=1e-7):
    """Whether two LP result batches agree (status, and value when optimal)."""
    for one, two in zip(first, second):
        if one.is_optimal != two.is_optimal:
            return False
        if one.is_optimal and abs(one.value - two.value) > tol:
            return False
    return True


def dominance_broadcast(values, tol=1e-9):
    """The seed's one-shot ``(n, n, d)`` broadcast (pre-kernel vectorized path)."""
    geq = np.all(values[:, None, :] >= values[None, :, :] - tol, axis=2)
    gt = np.any(values[:, None, :] > values[None, :, :] + tol, axis=2)
    matrix = geq & gt
    np.fill_diagonal(matrix, False)
    return matrix


def r_dominance_broadcast(scores, tol=1e-9):
    """The seed's ``(v, n, n)`` difference-tensor broadcast (pre-kernel path)."""
    diff = scores[:, :, None] - scores[:, None, :]
    matrix = np.all(diff >= -tol, axis=0) & np.any(diff > tol, axis=0)
    np.fill_diagonal(matrix, False)
    return matrix


def run_benchmark(setting):
    """Run every case; returns ``(rows, gates)``."""
    rng = np.random.default_rng(setting["seed"])
    repeats = setting["repeats"]
    n, d = setting["dominance_n"], setting["dominance_d"]
    values = rng.random((n, d))
    rows = []

    rows.append(
        compare(
            "dominance_matrix",
            lambda: dominance_matrix_loop(values),
            lambda: dominance_matrix(values),
            repeats,
            np.array_equal,
            n=n,
            d=d,
        )
    )
    rows.append(
        compare(
            "dominance_counts",
            lambda: dominance_counts_loop(values),
            lambda: dominance_counts(values),
            repeats,
            np.array_equal,
            n=n,
            d=d,
        )
    )

    # The BBS traversal's batch masks: many rows (an expanded node's entries,
    # or the live frontier a new member sweeps) against a few members.
    probes = rng.random((setting["mask_probes"], d))
    rows.append(
        compare(
            "dominators_mask",
            lambda: dominators_mask_loop(values, probes),
            lambda: dominators_mask(values, probes),
            repeats,
            np.array_equal,
            n=n,
            d=setting["mask_probes"],
        )
    )

    m, v = setting["halfspace_m"], setting["halfspace_v"]
    normals, offsets = halfspace_coefficients(rng.random(d), rng.random((m, d)))
    points = rng.random((v, d - 1)) * 0.2
    rows.append(
        compare(
            "halfspace_eval",
            lambda: evaluate_halfspaces_loop(normals, offsets, points),
            lambda: evaluate_halfspaces(normals, offsets, points),
            repeats,
            lambda a, b: np.allclose(a, b, rtol=1e-12, atol=1e-14),
            n=m,
            d=v,
        )
    )

    vertices = rng.random((8, d - 1)) * 0.2
    row_scores = vertex_scores(values, vertices)
    probe_scores = vertex_scores(probes, vertices)
    rows.append(
        compare(
            "r_dominators_mask",
            lambda: r_dominators_mask_loop(row_scores, probe_scores),
            lambda: r_dominators_mask(row_scores, probe_scores),
            repeats,
            np.array_equal,
            n=n,
            d=setting["mask_probes"],
        )
    )

    r_n = setting["r_loop_n"]
    scores = vertex_scores(values[:r_n], vertices)
    rows.append(
        compare(
            "r_dominance_matrix",
            lambda: r_dominance_matrix_loop(scores),
            lambda: r_dominance_matrix(scores),
            repeats,
            np.array_equal,
            n=r_n,
            d=vertices.shape[0],
        )
    )

    # Cell-sized bounded LPs: the scipy round-trip vs the exact
    # vertex-enumeration fast path the arrangement machinery now uses.
    region = random_region(d, 0.1, rng)
    lp_a, lp_b = region.constraints
    extra_a = rng.normal(size=(6, d - 1))
    extra_b = extra_a @ region.pivot + np.abs(rng.normal(size=6)) * 0.05
    lp_a = np.vstack([lp_a, extra_a])
    lp_b = np.concatenate([lp_b, extra_b])
    objectives = rng.normal(size=(24, d - 1))

    def solve_lps(**kwargs):
        return [minimize(objective, lp_a, lp_b, **kwargs) for objective in objectives]

    rows.append(
        compare(
            "bounded_lp_minimize",
            lambda: solve_lps(),
            lambda: solve_lps(assume_bounded=True),
            repeats,
            lp_values_match,
            n=lp_a.shape[0],
            d=objectives.shape[0],
        )
    )

    if setting["broadcast_cases"]:
        rows.append(
            compare(
                "dominance_matrix_vs_broadcast",
                lambda: dominance_broadcast(values),
                lambda: dominance_matrix(values),
                repeats,
                np.array_equal,
                n=n,
                d=d,
            )
        )
        wide_scores = vertex_scores(values[:1500], vertices)
        rows.append(
            compare(
                "r_dominance_vs_broadcast",
                lambda: r_dominance_broadcast(wide_scores),
                lambda: r_dominance_matrix(wide_scores),
                repeats,
                np.array_equal,
                n=1500,
                d=vertices.shape[0],
            )
        )

    if setting["rsa_case"]:
        data = synthetic_dataset("IND", 1500, 3, seed=setting["seed"])
        specs = query_workload(3, 4, 0.06, 3, seed=setting["seed"])

        def run_rsa():
            return [RSA(data.values, spec.region, spec.k).run() for spec in specs]

        elapsed, results = best_time(run_rsa, repeats)
        rows.append(
            {
                "case": "rsa_end_to_end",
                "n": 1500,
                "d": 3,
                "loop_seconds": None,
                "kernel_seconds": round(elapsed / len(specs), 5),
                "speedup": None,
                "identical": all(len(result) > 0 for result in results),
            }
        )

    gated = [row for row in rows if row["loop_seconds"] is not None]
    dominance_row = rows[0]
    gates = {
        "all_outputs_identical": all(row["identical"] for row in rows),
        "no_kernel_slower_than_loop": all(row["speedup"] >= 1.0 for row in gated),
        "dominance_matrix_required_speedup": REQUIRED_DOMINANCE_SPEEDUP,
        "dominance_matrix_speedup": dominance_row["speedup"],
        "dominance_matrix_n": dominance_row["n"],
    }
    gates["passed"] = (
        gates["all_outputs_identical"]
        and gates["no_kernel_slower_than_loop"]
        and dominance_row["speedup"] >= REQUIRED_DOMINANCE_SPEEDUP
    )
    return rows, gates


def test_kernel_perf_gate():
    """Pytest entry point: smoke-sized run asserting the perf gate."""
    rows, gates = run_benchmark(SETTINGS["smoke"])
    print_rows("Kernel micro-benchmarks — loop path vs vectorized kernels", rows)
    assert gates["all_outputs_identical"]
    assert gates["passed"], gates


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small, CI-sized workload")
    parser.add_argument(
        "--output",
        default="BENCH_kernels.json",
        help="path of the BENCH JSON artifact (default: %(default)s)",
    )
    parser.add_argument(
        "--required-speedup",
        type=float,
        default=REQUIRED_DOMINANCE_SPEEDUP,
        help="fail when the dominance-matrix kernel falls below this factor",
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "default"
    obs.REGISTRY.reset()
    with obs.activated():
        rows, gates = run_benchmark(SETTINGS[mode])
    gates["dominance_matrix_required_speedup"] = args.required_speedup
    gates["passed"] = (
        gates["all_outputs_identical"]
        and gates["no_kernel_slower_than_loop"]
        and gates["dominance_matrix_speedup"] >= args.required_speedup
    )
    print_rows("Kernel micro-benchmarks — loop path vs vectorized kernels", rows)
    write_bench_json(args.output, "kernels", rows, gates=gates, meta={"mode": mode})
    print(f"\nwrote {args.output}")
    print(f"wrote {emit_metrics_artifact(args.output, 'kernels', mode)}")
    if not gates["passed"]:
        print(f"FAIL: kernel perf gate not met: {gates}", file=sys.stderr)
        return 1
    print(
        f"dominance-matrix kernel speedup {gates['dominance_matrix_speedup']}x "
        f"(required: {args.required_speedup}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
