"""The ellspec benchmark: one workload, one seed, one single-threaded process.

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from a checkout: the program is imported from ``src/`` next to this
directory, and the run fails if it is not there.  The run passes over a
fixed batch of the workload, closed-loop, until ``--seconds`` have gone;
every time is scaled to a reference host speed, and each operation's
latency is its median over the passes.  With ``--trace 0`` the end-to-end
metrics are printed.  With ``--trace 1`` the same passes run untraced,
then the start of the batch runs again with every layer wrapped, and the
per-layer metrics are printed.  Every answer is checked against a sympy oracle and
the built-in golden suite after the timed section; the last line of
standard output is one JSON object, and the exit code is 1 when any
check failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Each unit of the batch runs once per pass, and every pass starts from a
# fresh import of ellspec, so no cache of the program outlives a pass.
# Passes continue while the next one should end within --seconds, and
# there are at least MIN_PASSES of them; a unit's time is its median over
# the passes.
MIN_PASSES = 3
# Units per pass for each second of --seconds, sized so that a pass takes
# about a fifth of the run at seed speed on a 2-vCPU Xeon VM.
UNITS_PER_SECOND = {"certify": 22, "sweep": 6.5, "twist": 1 / 3}
# Set-up (a fresh import of ellspec plus input generation) is repeated
# before every pass and its median reported, because one set-up is a few
# milliseconds.
SETUP_PER_PASS = 3
# Every time is scaled to a reference host speed (see hostspeed.py),
# because the host's speed swings by tens of percent within a run.

import workloads  # noqa: E402  (this directory is on sys.path as the script's own)
from hostspeed import Sampler  # noqa: E402
from tracing import Tracer, metric_specs  # noqa: E402

OPS_PER_UNIT = {"certify": 1, "sweep": 1, "twist": len(workloads.TWIST_CHAIN)}
# The traced run replays a fixed number of units from the start of the
# batch, so its per-layer counts repeat exactly for a given seed.
TRACE_UNITS = {"certify": 200, "sweep": 48, "twist": 4}


def import_ellspec():
    """Import ellspec from this checkout's src/, discarding any earlier
    import so that each set-up pays for a fresh one."""
    for name in [m for m in sys.modules if m == "ellspec" or m.startswith("ellspec.")]:
        del sys.modules[name]
    ell = importlib.import_module("ellspec")
    if not Path(ell.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"ellspec was imported from {ell.__file__}, not from {SRC}")
    return ell


def setup(workload: str, seed: int, sampler: Sampler, times: list[float]):
    """Set up SETUP_PER_PASS times, appending each scaled time to `times`;
    the last import and inputs are the ones used."""
    for _ in range(SETUP_PER_PASS):
        gc.collect()
        start = time.perf_counter()
        ell = import_ellspec()
        data = workloads.inputs(workload, seed)
        end = time.perf_counter()
        times.append((end - start) * sampler.scale(start, end))
    return ell, data


def batch_size(workload: str, seconds: float, available: int) -> int:
    return max(1, min(available, round(UNITS_PER_SECOND[workload] * seconds)))


def run_unit(fn, args, ops_per_unit: int, between=lambda: None):
    """(operation latencies, record, error or None) of one unit."""
    start = time.perf_counter()
    try:
        latencies, record = fn(*args, between)
    except Exception as exc:  # an operation that raises is counted as failed
        latencies = [time.perf_counter() - start] * ops_per_unit
        record = {"raised": True, "signature": ("raised", type(exc).__name__)}
        return latencies, record, f"{type(exc).__name__}: {exc}"
    return latencies, record, None


class Run:
    """Outcome of the passes over one batch of units."""

    def __init__(self, count: int):
        self.count = count
        self.passes = 0
        self.ops = 0  # operations executed, over all passes
        self.failed = 0
        self.samples: list[list[list[float]]] = [[] for _ in range(count)]  # unit, pass, operation
        self.records: dict[int, dict] = {}
        self.errors: list[str] = []
        self.setup_times: list[float] = []
        self.elapsed = 0.0

    def latencies(self) -> list[float]:
        """Scaled latency of every operation of the batch, its median over
        the passes."""
        return [statistics.median(op) for unit in self.samples for op in zip(*unit)]


def run_passes(workload: str, seed: int, seconds: float, ops_per_unit: int, sampler: Sampler):
    """Pass over the batch for `seconds`, and at least MIN_PASSES times.  Returns the run and the units of the last
    pass, bound to the ellspec import that is still loaded."""
    run = None
    setup_times = []
    marks = []  # end of each operation of the current unit, as it reports them

    def between():
        marks.append(time.perf_counter())

    start = pass_start = time.perf_counter()
    # A further pass starts only if it should end within `seconds`.
    while run is None or run.passes < MIN_PASSES or 2 * time.perf_counter() - pass_start - start <= seconds:
        pass_start = time.perf_counter()
        ell, data = setup(workload, seed, sampler, setup_times)
        units = workloads.UNITS[workload](ell, data)
        if run is None:
            run = Run(batch_size(workload, seconds, len(units)))
            run.setup_times = setup_times
        units = units[: run.count]
        gc.collect()
        intervals = []
        for i, (fn, args) in enumerate(units):
            marks.clear()
            latencies, record, error = run_unit(fn, args, ops_per_unit, between)
            ends = marks + [time.perf_counter()] * (len(latencies) - len(marks))
            intervals.append([(end - x, end) for x, end in zip(latencies, ends)])
            run.ops += ops_per_unit
            if error is not None:
                run.failed += ops_per_unit
                run.errors.append(f"unit {i} raised {error}")
            elif i in run.records and run.records[i]["signature"] != record["signature"]:
                run.errors.append(f"unit {i} gave a different answer when repeated")
            run.records.setdefault(i, record)
        for i, ops in enumerate(intervals):
            run.samples[i].append([(end - begin) * sampler.scale(begin, end) for begin, end in ops])
        run.passes += 1
    run.elapsed = time.perf_counter() - start
    return run, units


def run_traced(units, ops_per_unit: int) -> tuple[float, dict]:
    """Run the units once in order: (elapsed time, {unit index: record})."""
    gc.collect()
    records = {}
    start = time.perf_counter()
    for i, (fn, args) in enumerate(units):
        records[i] = run_unit(fn, args, ops_per_unit)[1]
    return time.perf_counter() - start, records


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are fewer than 11 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def t0_tried(records) -> int:
    """Candidates tried, counted from outside: the position of the hit in
    the documented order, or the whole budget when exhausted."""
    order = {t0: k for k, t0 in enumerate(workloads.t0_candidates(*workloads.SWEEP_BUDGET))}
    return sum(len(order) if r.get("t0") is None else order[r["t0"]] + 1 for r in records)


def environment(args, run: Run, traced_units: int) -> dict:
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "gc_enabled": gc.isenabled(),
        "passes": run.passes,
        "elapsed_s": round(run.elapsed, 3),
    }
    if args.trace:
        env["traced_units"] = traced_units
    key = {"certify": "requests", "sweep": "searches", "twist": "members"}[args.workload]
    env["batch"] = {key: run.count}
    if args.workload == "sweep":
        env["batch"]["budget"] = list(workloads.SWEEP_BUDGET)
    elif args.workload == "twist":
        env["batch"]["sums_per_member"] = len(workloads.TWIST_CHAIN)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.UNITS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "ellspec" / "__init__.py").is_file():
        print(f"error: no ellspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = args.workload
    ops_per_unit = OPS_PER_UNIT[w]
    with Sampler() as sampler:
        run, units = run_passes(w, args.seed, args.seconds, ops_per_unit, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = list(run.errors)
    failed = run.failed
    traced_units = min(TRACE_UNITS[w], run.count)
    print("# env " + json.dumps(environment(args, run, traced_units), sort_keys=True))

    layer_metrics = None
    if args.trace:
        # The same units untraced right before, so that both see much the
        # same host speed.
        untraced_elapsed = run_traced(units[:traced_units], ops_per_unit)[0]
        tracer = Tracer()
        tracer.install()
        try:
            traced_elapsed, traced_records = run_traced(units[:traced_units], ops_per_unit)
        finally:
            tracer.uninstall()
        for i, record in traced_records.items():
            if record["signature"] != run.records[i]["signature"]:
                errors.append(f"unit {i}: traced answer differs from the untraced one")
                failed += 1
        layer_metrics = tracer.metrics(traced_elapsed / untraced_elapsed)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{w}-seed{args.seed}.spans")

    import oracle  # sympy is imported only after the timed section

    data = workloads.inputs(w, args.seed)
    executed = {i: r for i, r in run.records.items() if "raised" not in r}
    wrong = oracle.CHECKS[w](data, executed)
    errors += wrong
    failed += len(wrong)

    from ellspec.golden import run_golden_suite

    golden = run_golden_suite()
    golden_failed = [g.name for g in golden if not g.passed]
    errors += [f"golden check failed: {name}" for name in golden_failed]
    failed += len(golden_failed)
    attempted = run.ops + len(golden)

    latencies = run.latencies()
    total = sum(latencies)
    tail_value, tail_pct = tail(latencies)
    end_to_end = {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "ops_per_s": (len(latencies) / total, "1/s"),
        "p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "tail_ms": (tail_value * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    each = f"each its median over {run.passes} passes"
    notes = {
        "setup_s": f"median of {len(run.setup_times)} set-ups",
        "ops_per_s": f"{len(latencies)} operations in {total:.2f} s, {each}",
        "p50_ms": f"{len(latencies)} operations, {each}",
        "tail_ms": f"p{tail_pct:.2f} of {len(latencies)} operations, {10 if len(latencies) > 10 else 0} beyond",
        "peak_rss_mb": "ru_maxrss after the timed section",
    }
    for name, (value, unit) in end_to_end.items():
        print(f"{w:8s} {name:14s} {value:14.6f} {unit:5s} {notes[name]}")
    if w == "sweep":
        tried = t0_tried(run.records[i] for i in range(run.count))
        print(f"{w:8s} {'t0_per_s':14s} {tried / total:14.6f} {'1/s':5s} {tried} candidates")
    print(f"{w:8s} {'host_speed':14s} {sampler.speed():14.6f} {'ratio':5s} reference probe time over the run's median, {len(sampler.took)} probes")
    print(f"{w:8s} {'error_ratio':14s} {failed / attempted:14.6f} {'ratio':5s} {failed}/{attempted} (golden {len(golden) - len(golden_failed)}/{len(golden)})")
    for message in errors[:20]:
        print(f"# error: {message}")

    if layer_metrics is None:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    else:
        units_by_name = {spec["name"]: spec["unit"] for spec in metric_specs()}
        metrics = {name: {"value": value, "unit": units_by_name[name]} for name, value in layer_metrics.items()}
        for name, value in layer_metrics.items():
            print(f"{w:8s} {name:40s} {value}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": environment(args, run, traced_units), "setup_times": run.setup_times,
                    "errors": errors, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
