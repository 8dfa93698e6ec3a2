"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload streaming_replay --seed 7 \\
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``streaming_replay`` -- the seed's Purley campaign at scale 1.0 through
  the batched ``ReplayEngine`` with a zero-score model: feature kernels.
* ``fleet_ops`` -- the three-platform ``fleet_ops`` scenario: lightgbm fits
  in set-up, then merged ``FleetReplayEngine`` passes with policy and cost.
* ``serving`` -- the Purley scale-0.25 record stream drained through
  ``AsyncScoringService`` over ``OnlinePredictionService``.

``fleet_ops`` and ``serving`` always replay the seed-7 campaign with
100-tree models trained from ``--seed`` (see ``workloads.CAMPAIGN_SEED``).

``--trace 0`` sets the workload up once, repeats passes of work for
``--seconds`` and prints the end-to-end metrics; ``setup_s`` and the rates
(the median pass rate) are scaled to a nominal host speed (see
:mod:`hostspeed`; the rate units are ``nominal-events/s`` and
``nominal-rows/s``), and the ``# measured`` comment lines give them as
measured.  ``--trace 1`` sets up under a :class:`layers.LayerTrace`, runs
untraced passes and then one traced pass (their time ratio is
``obs.trace_overhead_frac``) and prints the per-layer metrics; the serving
workload also runs its open-loop rate ladder there.  Every metric is
printed by name with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Output checks run
untimed after the timed phase, and any failure makes the exit code 1.
``perfbench/layer_map.json`` says which end-to-end metric each layer
metric should move, on which workload.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` ("unknown" outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB here)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Reference samples taken before the first unit and after every unit.
REFERENCE_SAMPLES = 4


def timed_passes(workload, seconds: float):
    """Repeat passes of work until ``seconds`` have passed (at least one).

    Returns the passes (each a list of units) and the host-speed reference
    samples: one group before the first unit and one after every unit, so
    unit ``i`` lies between groups ``i`` and ``i + 1``.
    """
    from hostspeed import reference_samples

    groups = [reference_samples(REFERENCE_SAMPLES)]

    def pause():
        groups.append(reference_samples(REFERENCE_SAMPLES))

    passes, start = [], time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_units(pause))
        pause()
    return passes, groups


def host_factors(groups) -> list:
    """Per unit: how much slower than nominal the host ran around it.

    The median of the reference samples before and after the unit, over
    the nominal reference time.
    """
    from hostspeed import REFERENCE_NOMINAL_S

    return [
        statistics.median(before + after) / REFERENCE_NOMINAL_S
        for before, after in zip(groups, groups[1:])
    ]


def describe_passes(passes, groups) -> str:
    """Unit seconds over their host factor, where one was measured."""
    factors = iter(host_factors(groups))
    return " | ".join(
        " ".join(
            f"{u.seconds:.3f}s/{factor:.3f}"
            if (factor := next(factors, None)) is not None
            else f"{u.seconds:.3f}s"
            for u in units
        )
        for units in passes
    )


def pass_seconds(units) -> float:
    return sum(u.seconds for u in units)


def scaled_seconds(passes, groups) -> list:
    """Each pass's time at the nominal host speed, unit by unit."""
    factors = iter(host_factors(groups))
    return [sum(u.seconds / next(factors) for u in units) for units in passes]


def median_rate(passes, attr: str, groups=None) -> float:
    """Median pass rate of ``attr``, at the nominal host speed if
    reference ``groups`` are given, else as measured."""
    seconds = (
        scaled_seconds(passes, groups) if groups is not None
        else [pass_seconds(units) for units in passes]
    )
    return statistics.median(
        sum(getattr(u, attr) for u in units) / total
        for units, total in zip(passes, seconds)
    )


#: End-to-end rate metrics: the unit attribute each counts, and the unit
#: of the rate as measured, before scaling to the nominal host.
RATES = {
    "events_per_s": ("events", "events/s"),
    "scored_rows_per_s": ("scored", "rows/s"),
}


def run_untraced(workload, seconds: float):
    """End-to-end metrics, and the unscaled ones as ``(value, unit)``.

    Set-up is scaled like a unit of work: by the reference samples taken
    just before and just after it.
    """
    from hostspeed import reference_samples

    before = reference_samples(REFERENCE_SAMPLES)
    start = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - start
    passes, groups = timed_passes(workload, seconds)
    (factor,) = host_factors([before, groups[0]])
    metrics = {
        "setup_s": setup_s / factor,
        "peak_rss_mb": peak_rss_mb(),
    }
    unscaled = {"setup_s": (setup_s, "s")}
    for name, (attr, unit) in RATES.items():
        metrics[name] = median_rate(passes, attr, groups)
        unscaled[name] = (median_rate(passes, attr), unit)
    return metrics, passes, groups, unscaled


def run_traced(workload, seconds: float):
    from hostspeed import reference_samples
    from layers import LayerTrace

    trace = LayerTrace(workload.model_classes)
    with trace:
        workload.setup()
    passes, groups = timed_passes(workload, seconds)
    base = statistics.median(scaled_seconds(passes, groups))
    # One traced pass, so layer totals are set-up plus one pass of work
    # however many untraced passes fit in the time.
    with trace:
        traced = workload.run_units()
    passes.append(traced)
    groups.append(reference_samples(REFERENCE_SAMPLES))
    metrics = trace.metrics()
    (factor,) = host_factors(groups[-2:])
    metrics["obs.trace_overhead_frac"] = (
        pass_seconds(traced) / factor / base - 1.0
    )
    # Drop the spans first: the serving ladder measures latency, and
    # collector passes over tens of thousands of live spans stall it.
    del trace
    gc.collect()
    extra, failures = workload.traced_metrics(passes)
    metrics.update(extra)
    return metrics, passes, groups, failures


def environment(args, workload) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": workload.default_scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"perfbench: {SPEC} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    # One process per workload: BLAS/OpenMP pools stay within the cores.
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(os.cpu_count() or 1))
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        measured, passes, groups, failures = run_traced(
            workload, args.seconds
        )
        unscaled = {}
        declared = spec["per_layer"]
    else:
        measured, passes, groups, unscaled = run_untraced(
            workload, args.seconds
        )
        failures = []
        declared = spec["end_to_end"]
    units = [unit for units in passes for unit in units]
    failures += workload.check(units)
    attempted = sum(u.events for u in units)
    failed = sum(u.failed for u in units)
    # Layers a workload never calls read 0; anything measured must be
    # declared, so a renamed metric cannot silently drop out.
    metrics = {
        entry["name"]: {
            "value": measured.pop(entry["name"], 0.0),
            "unit": entry["unit"],
        }
        for entry in declared
    }
    if measured:
        raise RuntimeError(
            f"metrics not declared in BENCHMARK.json: {sorted(measured)}"
        )
    print("# env " + json.dumps(environment(args, workload), sort_keys=True))
    print("# passes " + describe_passes(passes, groups))
    for name, (value, unit) in unscaled.items():
        print(f"# measured {name} {value!r} {unit}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
