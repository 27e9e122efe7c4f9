"""The benchmark's own tests, at the tiny scale.

Run with ``python -m pytest perfbench -q`` from the checkout root.  They
check that a tiny run of every workload prints every named metric, that
a planted wrong result shows up in ``error_frac`` while a kNN answer
that breaks a distance tie differently from the oracle does not, that
the seed-deterministic outputs repeat for one seed and change with the
seed, that ``BENCHMARK.json`` matches what the runner prints, that the
runner refuses to measure a directory without the program, and that the
traced spans nest and subtract as designed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

from perfbench import ROOT, ensure_src_on_path

ensure_src_on_path()

from perfbench import report, run, tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, OracleMemo, RoundResult)

WORKLOAD_NAMES = sorted(WORKLOADS)

#: Every end-to-end metric the design names (tails may carry the name of
#: the highest percentile a tiny sample supports).
NAMED = ("setup_s", "throughput_qps", "max_rate_qps", "query_p50_ms",
         "update_p50_ms", "error_frac", "peak_rss_mb",
         "uplink_bytes_per_query", "downlink_bytes_per_query",
         "response_time_s", "cache_hit_rate")

#: Seed-deterministic end-to-end values.
DETERMINISTIC = ("uplink_bytes_per_query", "downlink_bytes_per_query",
                 "response_time_s", "cache_hit_rate")


def _tiny(workload: str, seed: int = 1, trace: int = 0):
    args = run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0.2", "--trace", str(trace),
                           "--scale", "tiny"])
    return run.run_one(args)


def _counts(layers):
    return {name: value for name, value in layers.items()
            if not report.is_timing(name)}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_named_metric(workload):
    lines, payload, details = _tiny(workload)
    text = "\n".join(lines)
    for name in NAMED:
        assert f"  {name} " in text, f"{name} missing from the report"
    assert "query_p" in text and "update_p" in text
    assert payload["correct"] is True
    assert payload["failed"] == 0
    assert payload["attempted"] >= 1
    assert details["end_to_end"]["error_frac"] == 0.0
    for name, _ in report.END_TO_END:
        assert name in payload["metrics"] or name in details["missing"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_traced_run_prints_every_layer_metric(workload):
    lines, payload, details = _tiny(workload, trace=1)
    assert payload["correct"] is True
    assert set(payload["metrics"]) == {name for name, _ in report.PER_LAYER}
    text = "\n".join(lines)
    assert "per-layer breakdown" in text and "tracing overhead" in text
    layers = details["layers"]
    bypassed = {
        "rush_hour": ("sharding.router.calls", "net.client.calls",
                      "updates.sync.calls", "updates.apply.calls",
                      "storage.wal.commits"),
        "churn_durable": ("sharding.router.calls", "net.client.calls"),
        "hotspot_wire": ("core.client.calls", "core.cache.inserts",
                         "core.server.busy_s.join", "updates.apply.calls",
                         "storage.wal.commits"),
    }[workload]
    for name in bypassed:
        assert layers[name] == 0, f"{name} should be bypassed on {workload}"
    assert layers["core.server.calls"] > 0


@pytest.mark.parametrize("workload", ["rush_hour", "hotspot_wire"])
def test_planted_wrong_result_raises_error_frac(workload, monkeypatch):
    from repro.core.server import ServerQueryProcessor

    original = ServerQueryProcessor.execute

    def drop_one_delivery(self, *args, **kwargs):
        response = original(self, *args, **kwargs)
        if response.deliveries:
            response.deliveries.pop()
        return response

    monkeypatch.setattr(ServerQueryProcessor, "execute", drop_one_delivery)
    _, payload, details = _tiny(workload)
    assert payload["failed"] > 0
    assert payload["correct"] is False
    assert details["end_to_end"]["error_frac"] > 0


def test_knn_check_accepts_any_object_tied_at_the_kth_distance():
    from repro.geometry import Point, Rect
    from repro.rtree.entry import ObjectRecord
    from repro.workload.queries import KNNQuery

    objects = {1: ObjectRecord(1, Rect(0.0, 0.0, 0.2, 0.2), 1),
               2: ObjectRecord(2, Rect(0.1, 0.1, 0.3, 0.3), 1),
               3: ObjectRecord(3, Rect(0.8, 0.8, 0.9, 0.9), 1)}
    # The point lies inside the MBRs of 1 and 2: both are at MINDIST 0.
    query = KNNQuery(point=Point(0.15, 0.15), k=1)
    result = RoundResult(setup_s=0.0)
    memo = OracleMemo()
    memo.check(result, 0, query, {2}, objects, 3)
    memo.check(result, 0, query, {1}, objects, 3)
    assert result.failed == 0
    memo.check(result, 0, query, {3}, objects, 3)
    memo.check(result, 0, query, {1, 2}, objects, 3)
    memo.check(result, 0, query, set(), objects, 3)
    assert result.failed == 3
    two = KNNQuery(point=Point(0.15, 0.15), k=2)
    memo.check(result, 1, two, {1, 3}, objects, 3)
    assert result.failed == 4


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_seed_determinism(workload):
    _, _, first = _tiny(workload, seed=3, trace=1)
    _, _, again = _tiny(workload, seed=3, trace=1)
    _, _, other = _tiny(workload, seed=4, trace=1)

    def deterministic(details):
        values = {name: details["end_to_end"][name] for name in DETERMINISTIC}
        values.update(_counts(details["layers"]))
        return values

    assert deterministic(first) == deterministic(again)
    assert deterministic(first) != deterministic(other)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        report.PER_LAYER)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rush_hour",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        check=False)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_server_spans_nest_under_the_client_request(tmp_path):
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        WORKLOADS["hotspot_wire"](1, "tiny").run_round(str(tmp_path),
                                                       OracleMemo())
    finally:
        patches.undo()
    names = {span.name for span in tracer.spans}
    assert {"net.client", "net.codec", "sharding.router",
            "core.server"} <= names
    routers = [span for span in tracer.spans if span.name == "sharding.router"]
    assert routers
    for span in routers:
        assert span.parent is not None and span.parent.name == "net.client"
        assert span.thread != span.parent.thread
        assert span.request == span.parent.request


def test_self_time_excludes_children_across_threads():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    request = tracer.open("net.client")          # t=0
    tracer.inflight = request
    encode = tracer.open("net.codec")            # t=1
    tracer.close(encode)                         # t=2

    def server_side():
        span = tracer.open("sharding.router")    # t=3
        tracer.close(span)                       # t=4

    worker = threading.Thread(target=server_side)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.inflight = None
    tracer.close(request)                        # t=5
    table = tracer.aggregate()
    router = table[("sharding.router", None)]
    assert router.calls == 1 and router.wait_s == 1.0
    client = table[("net.client", None)]
    assert client.busy_s == 5.0 and client.self_s == 3.0
    assert {span.request for span in tracer.spans} == {request.request}


def test_install_and_undo_restore_the_program():
    from repro.core.server import ServerQueryProcessor
    from repro.sim import runner

    before = (ServerQueryProcessor.__dict__["execute"], runner.build_tree)
    patches = tracing.install(tracing.Tracer())
    assert ServerQueryProcessor.__dict__["execute"] is not before[0]
    assert runner.build_tree is not before[1]
    patches.undo()
    assert (ServerQueryProcessor.__dict__["execute"],
            runner.build_tree) == before
