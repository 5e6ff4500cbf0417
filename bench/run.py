"""Benchmark of the deflated-newton CLI on the paper's fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json from passes whose only hook is a
timestamp at each LU factorization; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the pass times, error rate, event counts and provenance.
The run exits with code 3 when a count that must repeat drifts between
passes, and with code 2 when the package sources are not found.  See
README.md for the workloads and the metric map.
"""

import os

# Aggarwal discovery rides on rounding noise: pin every BLAS pool to one
# thread before numpy is imported anywhere in this process or its children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "deflated_newton"
MODULES = (
    "cli", "continuation", "solver", "deflation", "reformulate", "problems", "linalg", "obstacle1d",
)
SETUP_SAMPLES = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
EXIT_NO_SOURCES = 2
EXIT_COUNT_DRIFT = 3

SOLVE_STATUSES = (
    "converged", "max-iterations", "singular-jacobian", "diverged",
    "deflated-root-hit", "line-search-failed",
)
BEAM_MESHES = (64, 128, 256, 512, 1024)


def import_package() -> dict:
    """Import the package modules from this checkout's ``src`` directory."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"bench: package sources not found under {PACKAGE_DIR}", file=sys.stderr)
        raise SystemExit(EXIT_NO_SOURCES)
    sys.path.insert(0, str(SRC))
    pkg = {name: importlib.import_module(f"deflated_newton.{name}") for name in MODULES}
    if Path(pkg["cli"].__file__).resolve().parent != PACKAGE_DIR:
        print(f"bench: imported {pkg['cli'].__file__}, not the checkout", file=sys.stderr)
        raise SystemExit(EXIT_NO_SOURCES)
    return pkg


import workloads  # noqa: E402
from trace_layers import Tracer, patched, targets  # noqa: E402
from workloads import CountDrift, QuietClock  # noqa: E402


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Seconds a fresh interpreter takes to import the CLI module, per sample."""
    code = (
        "import time; t = time.perf_counter(); import deflated_newton.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def one_pass(pkg, commands, out_dir, checker, missing, tracer=None, clock=None):
    """One checked pass: traced with ``tracer``, cut into steps with ``clock``."""
    workloads.clear_caches(pkg)  # before patching, which hides cache_clear
    main = pkg["cli"].main
    if tracer is not None:
        with patched(targets(tracer, pkg), missing):
            result = workloads.run_pass(tracer.wrap("cli.main", main), commands, out_dir)
    elif clock is not None:
        with patched([(pkg["solver"], "lu_factor", clock.marking)], missing):
            result = workloads.run_pass(main, commands, out_dir, clock)
    else:
        result = workloads.run_pass(main, commands, out_dir)
    checker.check(commands, result)
    for problem in result.problems:
        print(f"bench: failed pass: {problem}", file=sys.stderr)
    return result


def layer_values(tracer: Tracer, result) -> tuple[dict, dict]:
    """Per-layer (counts, times) of one traced pass, under their metric names."""
    calls, total, own, c = tracer.calls, tracer.total, tracer.self_time, tracer.counts
    counts = {
        "solver.solves": c["solver.solves"],
        "solver.iters": c["solver.iters"],
        "solver.iters_failed": c["solver.iters_failed"],
        "solver.residual_evals": c["solver.residual_evals"],
        "linalg.lu_singular": c["linalg.lu_singular"],
        "reformulate.F_evals": calls["problems.F"],
        "continuation.deflated_solves": c["continuation.deflated_solves"],
        "continuation.deflated_iters": c["continuation.deflated_iters"],
        "continuation.polish.calls": calls["continuation.polish"],
        "continuation.polish.iters": c["continuation.polish.iters"],
        "cli.json_bytes": result.json_bytes,
    }
    for status in SOLVE_STATUSES:
        counts[f"solver.exit.{status}"] = c[f"solver.exit.{status}"]
    times = {
        "solver.self_s": own["solver.solve"],
        "problems.F.s": total["problems.F"],
        "problems.jac.s": total["problems.jac"],
        "obstacle1d.prolong.s": total["obstacle1d.prolong"],
        "obstacle1d.discretization.s": total["obstacle1d.discretization"],
        "continuation.deflated_search.self_s": own["continuation.deflated_search"],
        "cli.self_s": total["cli.main"] - sum(
            total[f"cli.{name}"]
            for name in ("deflated_search", "continue_parameter", "path_follow")
        ),
    }
    for layer in (
        "linalg.lu_factor.dense", "linalg.lu_factor.banded", "linalg.lu_solve",
        "linalg.rank_one_solve", "linalg.banded_matvec", "reformulate.residual",
        "reformulate.derivative", "deflation.factor", "deflation.gradient", "deflation.norm",
        "obstacle1d.residual", "obstacle1d.derivative",
    ):
        counts[f"{layer}.calls"] = calls[layer]
        times[f"{layer}.s"] = total[layer]
    for elements in BEAM_MESHES:
        seconds, iters = tracer.solve_by_size.get(2 * elements, (0.0, 0))
        times[f"obstacle1d.ms_per_iter.{elements}"] = 1000.0 * seconds / iters if iters else 0.0
    counts.update(result.events)
    return counts, times


def _share(num, den) -> float:
    return num / den if den else 0.0


def derived(counts: dict) -> dict:
    """Ratios and event tallies reported as per-layer metrics."""
    iters = counts["solver.iters"]
    factors = counts["linalg.lu_factor.dense.calls"] + counts["linalg.lu_factor.banded.calls"]
    return {
        "solver.useful_iter_share": _share(iters - counts["solver.iters_failed"], iters),
        "solver.evals_per_iter": _share(counts["solver.residual_evals"], iters),
        "linalg.lu_singular_share": _share(counts["linalg.lu_singular"], factors),
        "reformulate.F_evals_per_iter": _share(counts["reformulate.F_evals"], iters),
        "continuation.root_yield": _share(
            counts.get("events.root-found", 0), counts.get("events.deflated-solve", 0)
        ),
        "continuation.branch_resolved": counts.get("events.branch-resolved", 0),
        "continuation.branch_lost": counts.get("events.branch-lost", 0)
        + counts.get("events.branch-collision", 0),
        "continuation.rejected": counts.get("events.rejected-unverified", 0)
        + counts.get("events.rejected-duplicate", 0),
    }


def require_equal(label: str, first: dict, other: dict) -> None:
    if first != other:
        keys = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
        diff = ", ".join(f"{k}: {first.get(k)} != {other.get(k)}" for k in keys)
        raise CountDrift(f"{label}: {diff}")


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{deps.get('name')} {deps.get('version')}"

    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, report)."""
    pkg = import_package()
    checker = workloads.Checker(pkg, workloads.load_reference())
    spec = workloads.WORKLOADS[workload]
    rng = random.Random(seed)

    def commands():
        # The seed only orders the problems of an mcp-search pass; the
        # starting guesses are the registry's, never perturbed (README.md).
        return rng.sample(spec, len(spec)) if workload == "mcp-search" else spec

    setup = [] if trace else measure_setup()
    clock = None if trace else QuietClock()
    untraced, traced, missing = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(one_pass(pkg, commands(), out_dir, checker, missing, clock=clock))
        if trace:
            tracer = Tracer()
            result = one_pass(pkg, commands(), out_dir, checker, missing, tracer=tracer)
            traced.append((result, *layer_values(tracer, result)))
        enough = len(traced) >= MIN_TRACED_PASSES if trace else len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() >= deadline:
            break
    passes = untraced + [t[0] for t in traced]

    events = passes[0].events
    for i, result in enumerate(passes[1:], start=1):
        require_equal(f"event counts, pass 0 vs pass {i}", events, result.events)

    failed = sum(not p.ok for p in passes)
    wall = [p.seconds for p in untraced]
    report = {
        "workload": workload,
        "trace": int(trace),
        "passes": len(passes),
        "timed_passes": len(wall),
        "wall_median_s": statistics.median(wall),
        "wall_min_s": min(wall),
        "wall_samples_s": wall,
        "names_not_found": sorted(set(missing)),
        "error_rate": failed / len(passes),
        "roots_per_pass": [p.roots for p in passes],
        "events": dict(sorted(events.items())),
        "provenance": provenance(seed),
    }
    if trace:
        metrics = traced_metrics(traced, wall)
        report["traced_passes"] = len(traced)
    else:
        metrics = {
            "wall_quiet_s": clock.total(),
            "setup_s": statistics.median(setup),
            "roots": min(p.roots for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["setup_s_samples"] = setup
    line = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    return line, report


def traced_metrics(traced: list, untraced_wall: list[float]) -> dict:
    """Per-layer metrics from ``(result, counts, times)`` of each traced pass.

    Counts are those of the first traced pass, times are medians.
    """
    first_counts = traced[0][1]
    for i, (_, counts, _) in enumerate(traced[1:], start=1):
        require_equal(f"traced counts, pass 0 vs pass {i}", first_counts, counts)
    require_equal(
        "deflated solves, wrappers vs events",
        {
            "solves": first_counts["continuation.deflated_solves"],
            "iters": first_counts["continuation.deflated_iters"],
        },
        {
            "solves": first_counts.get("events.deflated-solve", 0),
            "iters": first_counts.get("events.deflated_iters", 0),
        },
    )
    times = {name: statistics.median(t[2][name] for t in traced) for name in traced[0][2]}
    traced_wall = min(t[0].seconds for t in traced)
    metrics = {k: v for k, v in first_counts.items() if not k.startswith("events.")}
    metrics.update(times)
    metrics.update(derived(first_counts))
    metrics["trace.wall_min_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - min(untraced_wall)
    return metrics


def manifest_metrics(trace: bool) -> list[dict]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return manifest["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_out-") as out:
        try:
            line, report = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(out))
        except CountDrift as drift:
            print(f"bench: counts differ between passes: {drift}", file=sys.stderr)
            return EXIT_COUNT_DRIFT
    values = line["metrics"]
    line["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in manifest_metrics(bool(args.trace))
    }
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
