"""Run one benchmark workload, or all of them, and print the metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload rush_hour --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run repeats rounds (a fresh set-up plus one full replay of the seeded
input) until ``--seconds`` of set-up and replay time have passed and the
latency sample supports a p99.  With ``--trace 0`` it reports the
end-to-end metrics, timed with tracing off; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics
of the traced ones, plus the tracing overhead against the untraced ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload untraced and traced, each in its
own process (so peak memory is per workload), and prints every report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import ROOT, ensure_src_on_path  # noqa: E402

#: Rounds an untraced run times at least (each operation's latency is
#: the median over them, see ``stats.typical_mean``).
MIN_ROUNDS = 3
#: Untraced and traced rounds a traced run makes at least, each.
MIN_TRACED_ROUNDS = 2
#: Set-ups timed per untraced run; ``setup_s`` is their median.
MIN_SETUPS = 15
#: Set-up-only repetitions after each untraced round, so that the timed
#: set-ups spread over the whole run instead of one stretch of it.
SETUPS_PER_ROUND = 2
#: Latency samples a p99 needs (ten beyond it).
P99_SAMPLES = 1000
#: A run stops extending for samples at this multiple of ``--seconds``.
MAX_STRETCH = 4.0


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """The benchmark's command line."""
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run a benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        help="rush_hour, churn_durable, hotspot_wire or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="set-up plus replay time one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("default", "tiny"),
                        default="default")
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, trace: bool, workdir: str):
    """Run rounds until the time budget and sample counts are met.

    The first round is the verification round: it runs the linear-scan
    oracle beside every query, which disturbs the timings, so its timings
    are not used.  Later rounds compare against its memoised answers.
    Every round, and every set-up-only repetition, starts after a full
    garbage collection, outside the timed interval, so none pays for the
    garbage of the one before.  An untraced run times
    :data:`SETUPS_PER_ROUND` extra set-ups after each round and tops them
    up to :data:`MIN_SETUPS` at the end.

    Returns ``(warmup_round, plain_rounds, traced_rounds,
    traced_snapshots, setups)``; ``setups`` are the timed set-up seconds.
    """
    from perfbench import report, tracing
    from perfbench.workloads import OracleMemo

    oracle = OracleMemo()
    warmup = workload.run_round(workdir, oracle)
    oracle.filled = True
    plain: List = []
    traced: List = []
    snapshots: List[Dict[str, object]] = []
    tracer = tracing.Tracer() if trace else None
    setups: List[float] = []
    spent = 0.0

    def setup_only() -> float:
        gc.collect()
        setups.append(workload.setup_only(workdir))
        return setups[-1]

    while True:
        gc.collect()
        if tracer is not None and len(traced) < len(plain):
            tracer.reset()
            patches = tracing.install(tracer)
            try:
                result = workload.run_round(workdir, oracle)
            finally:
                patches.undo()
            traced.append(result)
            snapshots.append(report.snapshot(tracer, result))
        else:
            result = workload.run_round(workdir, oracle)
            plain.append(result)
            setups.append(result.setup_s)
            if not trace:
                spent += sum(setup_only() for _ in range(SETUPS_PER_ROUND))
        spent += result.setup_s + result.replay_s
        if trace:
            minimum = min(len(plain), len(traced)) >= MIN_TRACED_ROUNDS
        else:
            minimum = len(plain) >= MIN_ROUNDS
        samples = sum(len(r.query_ms) for r in plain) >= P99_SAMPLES
        if minimum and (spent >= seconds * MAX_STRETCH
                        or (spent >= seconds and (samples or trace))):
            break
    while not trace and len(setups) < MIN_SETUPS:
        setup_only()
    return warmup, plain, traced, snapshots, setups


def _consistent(rounds: Sequence) -> Tuple[bool, List[str]]:
    """Whether every round repeated the first one's deterministic outputs."""
    problems: List[str] = []
    first = rounds[0]
    for index, result in enumerate(rounds[1:], start=2):
        if result.digest != first.digest:
            problems.append(f"round {index}: per-operation outcomes differ "
                            f"from round 1")
        if result.det != first.det or result.facts != first.facts:
            problems.append(f"round {index}: deterministic metrics differ "
                            f"from round 1")
    return not problems, problems


def run_one(args: argparse.Namespace
            ) -> Tuple[List[str], Dict[str, object], Dict[str, object]]:
    """Measure one workload.

    Returns the report lines, the JSON result and the details the
    benchmark's tests read: every end-to-end value by name, every
    per-layer value (traced runs), and ``missing``, the JSON metrics this
    run's samples could not support.
    """
    from perfbench import report
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    workdir = os.path.join(ROOT, ".perfbench-work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        warmup, plain, traced, snapshots, setups = measure(
            workload, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    rounds = [warmup] + plain + traced
    consistent, problems = _consistent(rounds)
    attempted = sum(result.attempted for result in rounds)
    failed = sum(result.failed for result in rounds)
    problems.extend(message for result in rounds for message in result.errors)

    e2e = report.end_to_end(workload, plain, rounds, setups, _peak_rss_mb())
    _, rate_rows = report.max_rate(plain)
    lines = report.render_end_to_end(args.workload, args.seed, e2e,
                                     rate_rows)
    lines.append(f"  rounds: 1 verification (untimed), {len(plain)} "
                 f"untraced, {len(traced)} traced; set-ups timed: "
                 f"{len(setups)}")
    details: Dict[str, object] = {
        "end_to_end": {metric.name: metric.value for metric in e2e},
        "layers": {}, "missing": []}
    if args.trace:
        values, json_metrics, counts_repeat = report.per_layer(
            snapshots, [result.request_s for result in plain])
        consistent = consistent and counts_repeat
        details["layers"] = values
        lines.extend(report.render_breakdown(args.workload, args.seed,
                                             snapshots, values,
                                             counts_repeat))
        units = dict(report.PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in json_metrics.items()}
    else:
        by_name = {metric.name: metric for metric in e2e}
        metrics = {}
        for name, unit in report.END_TO_END:
            metric = by_name.get(name)
            if metric is None or metric.value is None:
                details["missing"].append(name)  # type: ignore[union-attr]
                problems.append(f"{name}: not supported by this run's "
                                f"samples")
                continue
            metrics[name] = {"value": metric.value, "unit": unit}
    for message in problems:
        lines.append(f"  PROBLEM: {message}")
    payload = {"correct": consistent and failed == 0,
               "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, payload, details


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, one process each."""
    from perfbench.workloads import WORKLOADS

    script = os.path.abspath(__file__)
    healthy = True
    summary: List[str] = []
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, script, "--workload", name,
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace), "--scale", args.scale]
            completed = subprocess.run(command, capture_output=True,
                                       text=True, check=False)
            output = completed.stdout.rstrip("\n").split("\n")
            print("\n".join(output[:-1]))
            if completed.returncode != 0:
                sys.stderr.write(completed.stderr)
                healthy = False
                summary.append(f"  {name} trace={trace}: exit "
                               f"{completed.returncode}")
                continue
            result = json.loads(output[-1])
            healthy = healthy and bool(result["correct"])
            summary.append(
                f"  {name} trace={trace}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"error_frac={result['failed'] / result['attempted']:.4g}")
    print("== summary ==")
    print("\n".join(summary))
    return 0 if healthy else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = parse_args(argv)
    try:
        ensure_src_on_path()
        from perfbench.workloads import WORKLOADS
    except (FileNotFoundError, ImportError) as error:
        sys.stderr.write(f"perfbench: {error}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)} or all\n")
        return 2
    lines, payload, details = run_one(args)
    print("\n".join(lines))
    if details["missing"]:
        # The JSON line must carry every metric; a run whose samples
        # cannot support one prints no result.
        return 1
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
