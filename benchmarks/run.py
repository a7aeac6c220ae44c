"""Benchmark for buildtuner: closed-loop workloads with checked outputs.

Run from the root of a checkout, which needs ``src/buildtuner``:

    python3 benchmarks/run.py --workload adapt-exhaustive --seed 1 --seconds 36 --trace 0

The seed makes the inputs.  With ``--trace 0`` nothing is patched and the
end-to-end metrics are measured in rounds, each of set-up probes and one
whole pass, until ``--seconds`` are spent; each is reported as a median.  With
``--trace 1`` one untraced pass is followed by one traced pass, whose spans
give the per-layer metrics.  Every pass's outputs are hashed and every
check runs outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the workload's own metrics, the sample counts and the provenance.
``--smoke`` runs the same workload and checks at a tiny size.
"""
from __future__ import annotations

import os

# One caller, one process: keep native libraries to a single thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src" / "buildtuner"
WORK = ROOT / ".bench_work"

# Every round probes set-up at least once, and a cheap one more often (up to
# MAX_ROUND_PROBES within ROUND_PROBE_S), before it runs one pass.
MAX_ROUND_PROBES = 20
ROUND_PROBE_S = 1.0
MIN_PASSES = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "builds_per_s": "1/s", "peak_rss_mb": "MB"}


# Spans whose call count is a per-layer metric.
COUNTED_CALLS = ("configspace.config_digest", "surrogate.score", "surrogate.refit_incremental",
                 "sampler.run", "dataset.DatasetOracle.evaluate",
                 "buildsim.SyntheticOracle.evaluate")

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in tracing.SPAN_NAMES},
    **{f"{name}.calls": "count" for name in COUNTED_CALLS},
    "surrogate.score.rows": "count",
    "surrogate.rows_per_selection": "count",
    "sampler.selections": "count",
    "buildsim.units": "count",
    "buildsim.dedup_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_pct": "%",
}


def source_digest() -> str:
    """Digest of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*SOURCE.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def output_digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(outputs[name]).digest())
    return h.hexdigest()


def compare_with_earlier_runs(key: str, digest: str, check) -> None:
    """Outputs of one seed and one source tree must match across processes."""
    path = WORK / "output_digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    check(known.get(key, digest) == digest,
          f"outputs differ from an earlier run with the same seed and source ({key})")
    known[key] = digest
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)


def latest_trace_overhead(workload: str, source: str) -> float | None:
    """Overhead of the latest traced run of this workload on the same sources."""
    runs = (WORK / "results").glob(f"{workload}-s*-trace1.json")
    for path in sorted(runs, key=os.path.getmtime, reverse=True):
        saved = json.loads(path.read_text())["provenance"]
        if saved["source_digest"] == source:
            return saved["trace_overhead_s"]
    return None


def attempt(step, errors: list[str]):
    """Run step after a full collection, so each starts from the same heap.

    A step that raises counts as a failed operation: its traceback is kept
    and None is returned.
    """
    gc.collect()
    try:
        return step()
    except Exception:
        errors.append(traceback.format_exc())
        return None


def measure_untraced(workload, seconds: float, errors: list[str]):
    """Rounds of set-up probes and one pass, for the given seconds.

    Nothing is patched.  Set-up is probed in every round, not only at the
    start, so that its samples meet the host's speed drift as the passes do.
    """
    deadline = perf_counter() + seconds
    setups, passes, rounds = [], [], []
    # Memory is read after the first pass, so that it does not depend on how
    # many passes the time allowed.
    first_peak = None
    while len(passes) < MIN_PASSES or perf_counter() + statistics.median(rounds) <= deadline:
        began = perf_counter()
        probes = []
        while not probes or (len(probes) < MAX_ROUND_PROBES
                             and perf_counter() - began < ROUND_PROBE_S):
            probes.append(attempt(workload.probe_setup, errors))
        p = None if None in probes else attempt(workload.run_pass, errors)
        if p is None:
            break
        setups += probes + [p.setup_s]
        passes.append(p)
        rounds.append(perf_counter() - began)
        if first_peak is None:
            first_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not passes:
        return passes, None
    return passes, {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "builds_per_s": statistics.median(p.builds / p.build_s for p in passes),
        "peak_rss_mb": first_peak,
        "setup_samples": len(setups),
    }


def measure_traced(workload, spans_path: Path, errors: list[str], check):
    """One untraced pass, then one traced pass that gives the per-layer metrics.

    The traced pass also checks the builds a pass credits against the
    requests the program made, as counted at its oracle boundary.
    """
    base = attempt(workload.run_pass, errors)
    if base is None:
        return [], None
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        began = perf_counter()
        traced = attempt(workload.run_pass, errors)
    if traced is None:
        return [base], None
    wall = traced.wall_s
    counts = tracer.counts
    made = {**tracer.calls, **counts}[workload.BUILDS_COUNTED_BY]
    check(made == traced.builds, f"the pass credits {traced.builds} builds, but the program "
                                 f"made {made} ({workload.BUILDS_COUNTED_BY})")
    values = {f"{name}.self_s": float(tracer.self_s[name]) for name in tracing.SPAN_NAMES}
    values.update({f"{name}.calls": tracer.calls[name] for name in COUNTED_CALLS})
    values.update({
        "surrogate.score.rows": counts["surrogate.score.rows"],
        "sampler.selections": counts["sampler.selections"],
        "surrogate.rows_per_selection": (
            counts["surrogate.score.rows"] / counts["sampler.selections"]
            if counts["sampler.selections"] else 0.0),
        "buildsim.units": counts["buildsim.units"],
        "buildsim.dedup_ratio": (
            counts["buildsim.dag_units"] / counts["buildsim.dag_unshared_units"]
            if counts["buildsim.dag_unshared_units"] else 0.0),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - base.wall_s,
        "trace.uncovered_pct": 100.0 * (wall - tracer.root_s) / wall,
    })
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(str(spans_path), began)
    return [base, traced], values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every check, no warm-up")
    args = parser.parse_args(argv)

    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no buildtuner sources at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import buildtuner
    if Path(buildtuner.__file__).resolve().parent != SOURCE:
        print(f"error: imported buildtuner from {buildtuner.__file__}, not {SOURCE}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"
    source = source_digest()
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_digest": source,
    }
    smoke = "-smoke" if args.smoke else ""
    results = WORK / "results"

    check = Checks()
    errors: list[str] = []
    scratch = WORK / f"run-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        if not args.smoke:
            # Imports, lazy set-up and allocator warm-up, on the tiny inputs.
            cls(str(scratch / "warmup"), args.seed, "smoke").run_pass()
        workload = cls(str(scratch / "run"), args.seed, size)
        if args.trace:
            # One spans file per workload and size: the latest traced run.
            passes, values = measure_traced(
                workload, results / f"{args.workload}{smoke}.spans.tsv", errors, check)
        else:
            passes, values = measure_untraced(workload, args.seconds, errors)

        # Checks run outside the timed region, on the first pass; every
        # later pass, and every earlier run of this seed, must match it.
        for p in passes[:1]:
            try:
                workload.check(p, check)
            except Exception:
                errors.append(traceback.format_exc())
        digests = [output_digest(p.outputs) for p in passes]
        check(len(set(digests)) <= 1, "outputs differ between passes of one seed")
        if digests:
            compare_with_earlier_runs(f"{args.workload}|{size}|{args.seed}|{source}",
                                      digests[0], check)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for message in errors:
        print(message, file=sys.stderr, end="")
    if values is None:
        print("error: no pass completed, so there is nothing to report", file=sys.stderr)
        return 1
    for message in check.messages:
        print(f"check failed: {message}", file=sys.stderr)

    attempted = check.attempted + len(errors) + sum(p.builds for p in passes)
    failed = check.failed + len(errors)
    own = {"error_rate": (failed / attempted, "ratio")}
    if args.trace:
        units = PER_LAYER
        provenance["trace_overhead_s"] = values["trace.overhead_s"]
    else:
        units = END_TO_END
        provenance["trace_overhead_s"] = latest_trace_overhead(args.workload, source)
        own.update({name: (values[name], unit) for name, unit in units.items()})
        own.update(workload.report(passes))
    report = {
        "provenance": provenance,
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in own.items()},
        "samples": {
            "passes": len(passes),
            "setup": values.get("setup_samples"),
            "pass_wall_s": [p.wall_s for p in passes],
            "checks": check.attempted,
        },
        "failures": check.messages[:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-trace{args.trace}{smoke}.json").write_text(
        json.dumps({**report, "result": result}, indent=1))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
