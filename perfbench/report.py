"""Metric assembly and the printed report of one benchmark run.

End-to-end metrics come from the untraced rounds; per-layer metrics from
the traced rounds (see :mod:`perfbench.tracing`).  :data:`END_TO_END` and
:data:`PER_LAYER` are the metrics the last JSON line carries; they match
``BENCHMARK.json`` (the benchmark's tests check that).  The printed
report carries every metric the design names, with ``n/a`` where the
workload has no such operation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import stats
from perfbench.tracing import Tracer
from perfbench.workloads import LATENCY_LIMIT_MS, STATED_RATE, RoundResult

#: End-to-end metrics in the JSON line: ``(name, unit)``.  Every one is
#: defined and non-zero on every workload.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("query_mean_ms", "ms"),
    ("op_mean_ms", "ms"),
    ("uplink_bytes_per_query", "B"),
    ("downlink_bytes_per_query", "B"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer metrics in the JSON line of a traced run: ``(name, unit)``.
#: A layer time that is structurally zero on some workload (a predicted
#: bypass) is carried as its share of the round's request time
#: (``*_share``, see :attr:`RoundResult.request_s`); the seconds are in
#: the printed table.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("setup.tree_s", "s"),
    ("setup.partition_trees_s", "s"),
    ("setup.traces_s", "s"),
    ("setup.shards_share", "fraction"),
    ("setup.store_share", "fraction"),
    ("core.client.calls", "count"),
    ("core.client.busy_share", "fraction"),
    ("core.client.local_frac", "fraction"),
    ("core.cache.inserts", "count"),
    ("core.cache.insert_busy_share", "fraction"),
    ("core.cache.evictions", "count"),
    ("core.server.calls", "count"),
    ("core.server.busy_s", "s"),
    ("core.server.busy_share.join", "fraction"),
    ("core.server.busy_s.range", "s"),
    ("core.server.busy_s.knn", "s"),
    ("core.server.busy_s.snapshot", "s"),
    ("core.server.pages", "count"),
    ("core.server.snapshot_elements", "count"),
    ("core.server.deliveries", "count"),
    ("sharding.router.calls", "count"),
    ("sharding.router.busy_share", "fraction"),
    ("sharding.router.self_share", "fraction"),
    ("sharding.router.shards_visited", "count"),
    ("sharding.router.shards_pruned", "count"),
    ("sharding.router.shards_skipped", "count"),
    ("sharding.router.result_cache.hit_rate", "fraction"),
    ("sharding.router.result_cache.probes", "count"),
    ("updates.sync.calls", "count"),
    ("updates.sync.busy_share", "fraction"),
    ("updates.sync.refreshed_items", "count"),
    ("updates.sync.invalidated_items", "count"),
    ("updates.sync.bytes", "B"),
    ("updates.apply.calls", "count"),
    ("updates.apply.busy_share", "fraction"),
    ("updates.apply.self_share", "fraction"),
    ("updates.apply.applied", "count"),
    ("storage.wal.commits", "count"),
    ("storage.wal.busy_share", "fraction"),
    ("storage.wal.bytes", "B"),
    ("storage.paged.file_reads", "count"),
    ("storage.paged.buffer_hits", "count"),
    ("net.client.calls", "count"),
    ("net.client.self_share", "fraction"),
    ("net.codec.busy_share", "fraction"),
    ("net.wire_bytes", "B"),
    ("net.retries", "count"),
    ("trace.overhead_frac", "fraction"),
)


# --------------------------------------------------------------------------- #
# end to end
# --------------------------------------------------------------------------- #
class Metric:
    """One reported value with its unit and sample count."""

    __slots__ = ("name", "value", "unit", "count", "note")

    def __init__(self, name: str, value: Optional[float], unit: str,
                 count: Optional[int] = None, note: str = "") -> None:
        self.name = name
        self.value = value
        self.unit = unit
        self.count = count
        self.note = note


def _latency_metrics(prefix: str, per_round: Sequence[Sequence[float]],
                     note: str = "") -> List[Metric]:
    """Mean, p50, p90 and tail of one latency kind over the timed rounds.

    The mean is :func:`stats.typical_mean` over the rounds, so a stall of
    the host that hit an operation in a minority of the rounds does not
    move it; the percentiles pool every round's sample.
    """
    block = stats.latency_block(stats.flatten(per_round))
    count = int(block["count"])  # type: ignore[call-overload]
    metrics = [Metric(f"{prefix}_mean_ms", stats.typical_mean(per_round),
                      "ms", count, note),
               Metric(f"{prefix}_p50_ms", block["p50"], "ms", count, note),
               Metric(f"{prefix}_p90_ms", block["p90"], "ms", count, note)]
    label = block["tail_label"] or "p99"
    if label in ("p50", "p90"):
        return metrics
    metrics.append(Metric(f"{prefix}_{label}_ms", block["tail"], "ms", count,
                          note))
    return metrics


def max_rate(rounds: Sequence[RoundResult]) -> Tuple[Optional[float],
                                                     List[Dict[str, object]]]:
    """Highest offered rate meeting the latency limit without backlog.

    Samples of one rate are pooled over the rounds.  A rate meets the
    limit when its supported tail percentile is within
    :data:`LATENCY_LIMIT_MS`, no request failed, and no round flagged a
    growing backlog.
    """
    rows: List[Dict[str, object]] = []
    best: Optional[float] = None
    if not rounds or not rounds[0].rates:
        return None, rows
    for position, first in enumerate(rounds[0].rates):
        blocks = [result.rates[position] for result in rounds]
        latencies = stats.flatten([block["ms"] for block in blocks])
        lags = stats.flatten([block["lag_ms"] for block in blocks])
        block = stats.latency_block(latencies)
        failed = sum(int(b["failed"]) for b in blocks)
        backlog = any(b["backlog"] for b in blocks)
        tail = block["tail"]
        meets = (tail is not None and tail <= LATENCY_LIMIT_MS
                 and not failed and not backlog)
        rate = float(first["rate_qps"])  # type: ignore[arg-type]
        if meets and (best is None or rate > best):
            best = rate
        rows.append({"rate_qps": rate, "count": block["count"],
                     "p50_ms": block["p50"], "tail_label": block["tail_label"],
                     "tail_ms": tail, "failed": failed,
                     "limit_misses": failed + sum(
                         1 for value in latencies
                         if value > LATENCY_LIMIT_MS),
                     "lag_p99_ms": stats.latency_block(lags)["tail"],
                     "backlog": backlog, "meets_limit": meets})
    return best, rows


def end_to_end(workload, rounds: Sequence[RoundResult],
               checked: Sequence[RoundResult], setups: Sequence[float],
               peak_rss_mb: float) -> List[Metric]:
    """Every end-to-end metric of the design, ``None`` where n/a.

    Timings come from the timed ``rounds``; ``error_frac`` counts every
    round whose results were ``checked``, the verification round included.
    """
    attempted = sum(result.attempted for result in checked)
    failed = sum(result.failed for result in checked)
    det = rounds[0].det
    metrics = [Metric("setup_s", stats.median(setups), "s", len(setups))]
    if workload.closed_loop:
        rates = [result.queries / result.replay_s for result in rounds]
        metrics.append(Metric("throughput_qps", stats.median(rates),
                              "queries/s", len(rates)))
        metrics.append(Metric("max_rate_qps", None, "queries/s"))
        metrics.extend(_latency_metrics(
            "query", [result.query_ms for result in rounds]))
    else:
        best, _ = max_rate(rounds)
        metrics.append(Metric("throughput_qps", None, "queries/s"))
        metrics.append(Metric("max_rate_qps", best, "queries/s",
                              len(rounds[0].rates),
                              f"limit {LATENCY_LIMIT_MS:g} ms"))
        metrics.extend(_latency_metrics(
            "query", [result.query_ms for result in rounds],
            f"at {STATED_RATE:g} queries/s"))
    operations = [result.query_ms + result.update_ms for result in rounds]
    metrics.append(Metric("op_mean_ms", stats.typical_mean(operations), "ms",
                          sum(len(sample) for sample in operations)))
    if any(result.update_ms for result in rounds):
        metrics.extend(_latency_metrics(
            "update", [result.update_ms for result in rounds]))
    else:
        for name in ("update_mean_ms", "update_p50_ms", "update_p90_ms",
                     "update_p99_ms"):
            metrics.append(Metric(name, None, "ms"))
    metrics.append(Metric("error_frac", failed / attempted if attempted
                          else 0.0, "fraction", attempted))
    metrics.append(Metric("peak_rss_mb", peak_rss_mb, "MiB", 1))
    queries = rounds[0].queries
    for name, unit in (("uplink_bytes_per_query", "B"),
                       ("downlink_bytes_per_query", "B"),
                       ("response_time_s", "s"),
                       ("cache_hit_rate", "fraction")):
        metrics.append(Metric(name, det.get(name), unit,
                              queries if name in det else None))
    return metrics


# --------------------------------------------------------------------------- #
# per layer
# --------------------------------------------------------------------------- #
def snapshot(tracer: Tracer, result: RoundResult) -> Dict[str, object]:
    """Everything the per-layer metrics need from one traced round."""
    table = tracer.aggregate()
    spans = {key: (value.calls, value.busy_s, value.self_s, value.wait_s)
             for key, value in table.items()}
    if ("net.client", None) in spans:
        # A client request waits for the open-loop generator: its wait is
        # the send lateness against the schedule, at every offered rate.
        calls, busy, own, _ = spans[("net.client", None)]
        lateness = sum(sum(block["lag_ms"]) for block in result.rates)
        spans[("net.client", None)] = (calls, busy, own, lateness / 1000.0)
    return {
        "spans": spans,
        "counts": dict(tracer.counts),
        "facts": dict(result.facts),
        "replay_s": result.replay_s,
        "request_s": result.request_s,
        "setup_s": result.setup_s,
        "lag_ms": list(result.lag_ms),
    }


def layer_values(snap: Dict[str, object]) -> Dict[str, float]:
    """Every per-layer value of the design, from one traced round."""
    spans: Dict = snap["spans"]  # type: ignore[assignment]
    counts: Dict[str, float] = snap["counts"]  # type: ignore[assignment]
    facts: Dict[str, float] = snap["facts"]  # type: ignore[assignment]

    def field(name: str, index: int, kind: Optional[str] = None) -> float:
        entry = spans.get((name, kind))
        return float(entry[index]) if entry else 0.0

    def calls(name: str) -> float:
        return field(name, 0)

    def busy(name: str, kind: Optional[str] = None) -> float:
        return field(name, 1, kind)

    def own(name: str, kind: Optional[str] = None) -> float:
        return field(name, 2, kind)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    lag = stats.latency_block(snap["lag_ms"])  # type: ignore[arg-type]
    consults = facts.get("sharding.router.result_cache.consults", 0.0)
    return {
        "setup.tree_s": own("setup.tree"),
        "setup.partition_trees_s": own("setup.partition_trees"),
        "setup.traces_s": own("setup.traces"),
        "setup.shards_s": own("setup.shards"),
        "setup.store_s": own("setup.store"),
        "core.client.calls": calls("core.client"),
        "core.client.busy_s": busy("core.client"),
        "core.client.local_frac": ratio(counts.get("core.client.complete",
                                                   0.0), calls("core.client")),
        "core.cache.inserts": calls("core.cache.insert"),
        "core.cache.insert_busy_s": busy("core.cache.insert"),
        "core.cache.evictions": calls("core.cache.evict"),
        "core.server.calls": calls("core.server"),
        "core.server.busy_s": busy("core.server"),
        "core.server.busy_s.join": own("core.server", "join"),
        "core.server.busy_s.range": own("core.server", "range"),
        "core.server.busy_s.knn": own("core.server", "knn"),
        "core.server.busy_s.snapshot": busy("core.server.snapshot"),
        "core.server.pages": counts.get("core.server.pages", 0.0),
        "core.server.snapshot_elements": counts.get(
            "core.server.snapshot_elements", 0.0),
        "core.server.deliveries": counts.get("core.server.deliveries", 0.0),
        "sharding.router.calls": calls("sharding.router"),
        "sharding.router.busy_s": busy("sharding.router"),
        "sharding.router.self_s": own("sharding.router"),
        "sharding.router.shards_visited": facts.get(
            "sharding.router.shards_visited", 0.0),
        "sharding.router.shards_pruned": facts.get(
            "sharding.router.shards_pruned", 0.0),
        "sharding.router.shards_skipped": facts.get(
            "sharding.router.shards_skipped", 0.0),
        "sharding.router.result_cache.hit_rate": ratio(
            facts.get("sharding.router.result_cache.hits", 0.0), consults),
        "sharding.router.result_cache.probes": facts.get(
            "sharding.router.result_cache.probes", 0.0),
        "updates.sync.calls": calls("updates.sync"),
        "updates.sync.busy_s": busy("updates.sync"),
        "updates.sync.refreshed_items": counts.get(
            "updates.sync.refreshed_items", 0.0),
        "updates.sync.invalidated_items": counts.get(
            "updates.sync.invalidated_items", 0.0),
        "updates.sync.bytes": counts.get("updates.sync.bytes", 0.0),
        "updates.apply.calls": calls("updates.apply"),
        "updates.apply.busy_s": busy("updates.apply"),
        "updates.apply.self_s": own("updates.apply"),
        "updates.apply.applied": counts.get("updates.apply.applied", 0.0),
        "storage.wal.commits": calls("storage.wal"),
        "storage.wal.busy_s": busy("storage.wal"),
        "storage.wal.bytes": facts.get("storage.wal.bytes", 0.0),
        "storage.paged.file_reads": facts.get("storage.paged.file_reads", 0.0),
        "storage.paged.buffer_hits": facts.get("storage.paged.buffer_hits",
                                               0.0),
        "net.client.calls": calls("net.client"),
        "net.client.busy_s": busy("net.client"),
        "net.client.self_s": own("net.client"),
        "net.codec.busy_s": busy("net.codec"),
        "net.wire_bytes": facts.get("net.wire_bytes", 0.0),
        "net.retries": facts.get("net.retries", 0.0),
        "net.generator_lag_ms": float(lag["tail"] or 0.0),
    }


#: Layer values that are measured times, or derived from them (shares,
#: tracing overhead); every other layer value is a count, or a ratio of
#: counts, that repeats exactly from round to round.
_TIMED_SUFFIXES = ("_s", "_ms", ".join", ".range", ".knn", ".snapshot",
                   "_share", "overhead_frac")


def is_timing(name: str) -> bool:
    """Whether layer value ``name`` is (derived from) a measured time."""
    return name.endswith(_TIMED_SUFFIXES)


def per_layer(traced: Sequence[Dict[str, object]],
              plain_request_s: Sequence[float]
              ) -> Tuple[Dict[str, float], Dict[str, float], bool]:
    """``(values, json_metrics, counts_repeat)`` over the traced rounds.

    Timings are medians over the traced rounds, shares are taken against
    the median request time (or set-up time), and counts come from the
    first traced round; ``counts_repeat`` says whether every traced round
    produced the same counts.  The tracing overhead compares the median
    request time of the traced rounds with that of the untraced ones
    (``plain_request_s``): both rounds do identical work, and on the open
    loop, unlike the replay time, it grows with the cost of each request.
    """
    rounds = [layer_values(snap) for snap in traced]
    values: Dict[str, float] = {}
    for name in rounds[0]:
        if is_timing(name):
            values[name] = stats.median([row[name] for row in rounds])
        else:
            values[name] = rounds[0][name]
    counts_repeat = all(row[name] == rounds[0][name]
                        for row in rounds for name in row
                        if not is_timing(name))
    replay = stats.median([float(snap["replay_s"]) for snap in traced])
    request = stats.median([float(snap["request_s"]) for snap in traced])
    setup = stats.median([float(snap["setup_s"]) for snap in traced])
    values["replay_s"] = replay
    values["request_s"] = request
    values["setup_s"] = setup
    values["trace.overhead_frac"] = (request / stats.median(plain_request_s)
                                     - 1.0)

    def share(name: str, base: float) -> float:
        return values[name] / base if base else 0.0

    derived = {
        "setup.shards_share": share("setup.shards_s", setup),
        "setup.store_share": share("setup.store_s", setup),
        "core.client.busy_share": share("core.client.busy_s", request),
        "core.cache.insert_busy_share": share("core.cache.insert_busy_s",
                                              request),
        "core.server.busy_share.join": share("core.server.busy_s.join",
                                             request),
        "sharding.router.busy_share": share("sharding.router.busy_s",
                                            request),
        "sharding.router.self_share": share("sharding.router.self_s",
                                            request),
        "updates.sync.busy_share": share("updates.sync.busy_s", request),
        "updates.apply.busy_share": share("updates.apply.busy_s", request),
        "updates.apply.self_share": share("updates.apply.self_s", request),
        "storage.wal.busy_share": share("storage.wal.busy_s", request),
        "net.client.self_share": share("net.client.self_s", request),
        "net.codec.busy_share": share("net.codec.busy_s", request),
    }
    values.update(derived)
    json_metrics = {name: values[name] for name, _ in PER_LAYER}
    return values, json_metrics, counts_repeat


# --------------------------------------------------------------------------- #
# printing
# --------------------------------------------------------------------------- #
def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if value == int(value) and abs(value) < 1e12:
        return f"{int(value)}"
    return f"{value:.6g}"


def render_end_to_end(name: str, seed: int, metrics: Sequence[Metric],
                      rate_rows: Sequence[Dict[str, object]]) -> List[str]:
    """The end-to-end block: one line per metric with unit and count."""
    lines = [f"== {name} (seed {seed}): end-to-end, tracing off =="]
    for metric in metrics:
        count = f"n={metric.count}" if metric.count is not None else ""
        note = f"  ({metric.note})" if metric.note else ""
        lines.append(f"  {metric.name:<26} {_fmt(metric.value):>14} "
                     f"{metric.unit:<10} {count}{note}")
    if rate_rows:
        lines.append(f"  offered rates (limit: tail <= "
                     f"{LATENCY_LIMIT_MS:g} ms, no failures, no backlog):")
        for row in rate_rows:
            verdict = ("meets" if row["meets_limit"]
                       else "backlog" if row["backlog"] else "misses")
            lines.append(
                f"    {_fmt(row['rate_qps']):>6} q/s  n={row['count']:<5} "
                f"p50 {_fmt(row['p50_ms'])} ms  "
                f"{row['tail_label'] or 'tail'} {_fmt(row['tail_ms'])} ms  "
                f"lag p99 {_fmt(row['lag_p99_ms'])} ms  "
                f"misses {row['limit_misses']}  {verdict}")
    return lines


#: Rows of the breakdown table: ``(layer, span name, kind)``.
_TABLE_ROWS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("setup", "setup.tree", None),
    ("setup", "setup.partition_trees", None),
    ("setup", "setup.traces", None),
    ("setup", "setup.shards", None),
    ("setup", "setup.store", None),
    ("core.client", "core.client", None),
    ("core.cache", "core.cache.insert", None),
    ("core.cache", "core.cache.evict", None),
    ("core.server", "core.server", None),
    ("core.server", "core.server", "join"),
    ("core.server", "core.server", "range"),
    ("core.server", "core.server", "knn"),
    ("core.server", "core.server.snapshot", None),
    ("sharding.router", "sharding.router", None),
    ("updates.protocol", "updates.sync", None),
    ("updates.applier", "updates.apply", None),
    ("storage", "storage.wal", None),
    ("net", "net.client", None),
    ("net", "net.codec", None),
)

def render_breakdown(name: str, seed: int, traced: Sequence[Dict[str, object]],
                     values: Dict[str, float], counts_repeat: bool
                     ) -> List[str]:
    """The per-layer table of the first traced round, plus ratios."""
    snap = traced[0]
    spans: Dict = snap["spans"]  # type: ignore[assignment]
    replay = float(snap["replay_s"])  # type: ignore[arg-type]
    request = float(snap["request_s"])  # type: ignore[arg-type]
    setup = float(snap["setup_s"])  # type: ignore[arg-type]
    lines = [f"== {name} (seed {seed}): per-layer breakdown, traced round "
             f"1 of {len(traced)} (replay {replay:.4f} s, request time "
             f"{request:.4f} s, set-up {setup:.4f} s) ==",
             f"  {'layer':<17} {'span':<27} {'calls':>8} {'busy_s':>9} "
             f"{'self_s':>9} {'wait_s':>9} {'share':>7}"]
    for layer, span, kind in _TABLE_ROWS:
        calls, busy, own, wait = spans.get((span, kind), (0, 0.0, 0.0, 0.0))
        label = f"{span}[{kind}]" if kind else span
        base = setup if layer == "setup" else request
        share = busy / base if base else 0.0
        lines.append(f"  {layer:<17} {label:<27} {calls:>8} {busy:>9.4f} "
                     f"{own:>9.4f} {wait:>9.4f} {share:>7.1%}")
    lines.append("  (share: busy time over the round's request time, the "
                 "time a request was in flight: the replay time of a closed "
                 "loop, the summed send-to-answer times of an open loop; "
                 "set-up rows over set-up time; wait: time a cross-thread "
                 "span waited after its parent handed off)")
    counts: Dict[str, float] = snap["counts"]  # type: ignore[assignment]
    facts: Dict[str, float] = snap["facts"]  # type: ignore[assignment]
    client_calls = spans.get(("core.client", None), (0,))[0]
    consults = facts.get("sharding.router.result_cache.consults", 0.0)
    lines.append(f"  core.client.local_frac = "
                 f"{_fmt(counts.get('core.client.complete', 0.0))} complete / "
                 f"{client_calls} calls")
    lines.append(f"  sharding.router.result_cache.hit_rate = "
                 f"{_fmt(facts.get('sharding.router.result_cache.hits', 0.0))}"
                 f" hits / {_fmt(consults)} consults")
    lines.append("  per-layer values (timings: median of traced rounds):")
    for key in sorted(values):
        lines.append(f"    {key:<42} {_fmt(values[key])}")
    lines.append(f"  tracing overhead: traced request time "
                 f"{values['request_s']:.4f} s vs untraced, overhead_frac "
                 f"{values['trace.overhead_frac']:+.3f}")
    if not counts_repeat:
        lines.append("  WARNING: per-layer counts differ between traced "
                     "rounds")
    return lines
