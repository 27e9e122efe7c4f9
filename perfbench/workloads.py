"""The three workloads: inputs from a seed, set-up, and one replay round.

Every workload turns ``--seed`` into its generated inputs (fleet, update
stream, hotspot sites) and then drives the program only through its
public entry points.  One *round* sets a deployment up from scratch and
replays the whole input once, so every round of a run does identical
work: the seed-deterministic metrics must repeat exactly from round to
round, and a run repeats rounds to collect enough timing samples.

``rush_hour``
    The default city fleet against one in-process server on an in-memory
    tree; closed loop, one query in flight, events in arrival order.
``churn_durable``
    The same fleet shape under a Zipf insert/delete/modify stream with
    ``versioned`` consistency, served from a disk page store whose
    write-ahead log fsyncs every committed batch; closed loop, updates
    interleaved by arrival time.
``hotspot_wire``
    Cold one-shot range and kNN windows around a few hotspot sites, sent
    over a UNIX socket to a ``ReproServer`` fronting a grid-sharded router
    with the partition-result cache; open loop at fixed offered rates.

Every query's result ids are checked against the linear-scan oracle over
the object set live at that moment, outside the timed interval.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cost_model import CostAccumulator, QueryCost
from repro.geometry import Point, Rect
from repro.net.client import ClientPool, Endpoint, RemoteSessionClient
from repro.net.server import ReproServer, ServerThread
from repro.sharding import PartitionResultCache
from repro.sharding import state as sharding_state
from repro.sim import fleet as fleet_mod
from repro.sim import runner
from repro.sim.config import SimulationConfig
from repro.storage import paged
from repro.storage.wal import wal_path
from repro.updates import DatasetUpdater
from repro.updates.oracle import oracle_results
from repro.workload.queries import KNNQuery, Query, RangeQuery

clock = time.perf_counter

#: Workload sizes.  ``default`` is what the benchmark measures; ``tiny``
#: exists for the benchmark's own tests.
SCALES: Dict[str, Dict[str, Dict[str, float]]] = {
    "default": {
        "rush_hour": {"clients": 48, "queries": 40, "objects": 4000},
        "churn_durable": {"clients": 24, "queries": 40, "objects": 2000,
                          "update_rate": 0.4},
        "hotspot_wire": {"objects": 4000, "shards": 6, "sites": 12,
                         "grid": 48},
    },
    "tiny": {
        "rush_hour": {"clients": 4, "queries": 8, "objects": 600},
        "churn_durable": {"clients": 4, "queries": 8, "objects": 600,
                          "update_rate": 0.2},
        "hotspot_wire": {"objects": 600, "shards": 3, "sites": 4,
                         "grid": 16},
    },
}

#: ``hotspot_wire`` offered rates: ``(queries/s, seconds of schedule)``,
#: in the order they run.  The latency metrics are reported at
#: :data:`STATED_RATE`.
RATE_LADDER: Dict[str, Tuple[Tuple[float, float], ...]] = {
    "default": ((100.0, 0.5), (200.0, 3.0), (400.0, 0.75), (800.0, 0.5),
                (1600.0, 0.25)),
    "tiny": ((100.0, 0.2), (200.0, 0.3), (1600.0, 0.05)),
}
STATED_RATE = 200.0
#: ``hotspot_wire`` latency limit on the tail percentile, in ms.
LATENCY_LIMIT_MS = 25.0


@dataclass
class RoundResult:
    """What one set-up plus one full replay measured."""

    setup_s: float
    replay_s: float = 0.0
    #: Per-query latency in ms (closed loop), or at the stated rate (open).
    query_ms: List[float] = field(default_factory=list)
    #: Per-update latency in ms (updater call, WAL commit included).
    update_ms: List[float] = field(default_factory=list)
    queries: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Seed-deterministic end-to-end values (bytes, Eq. 1, hit rate).
    det: Dict[str, float] = field(default_factory=dict)
    #: Program-side counters read at the end of the round.
    facts: Dict[str, float] = field(default_factory=dict)
    #: Digest of every per-operation deterministic outcome of the round.
    digest: str = ""
    #: ``hotspot_wire``: one block per offered rate.
    rates: List[Dict[str, object]] = field(default_factory=list)
    #: ``hotspot_wire``: send lateness at the stated rate, in ms.
    lag_ms: List[float] = field(default_factory=list)
    #: ``hotspot_wire``: time from each send to its answer, every rate, ms.
    service_ms: List[float] = field(default_factory=list)

    @property
    def request_s(self) -> float:
        """Seconds the driver had a request in flight.

        A closed loop always has one, so this is the replay time; an open
        loop's replay time is set by its send schedule, so this is the sum
        of its requests' send-to-answer times.  It is the base of the
        per-layer shares and of the tracing overhead.
        """
        if self.service_ms:
            return sum(self.service_ms) / 1000.0
        return self.replay_s

    def fail(self, message: str) -> None:
        """Count one raised, refused or wrong operation."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class OracleMemo:
    """Oracle answers by operation position, shared by a run's rounds.

    Every round replays the identical input from an identical start state,
    so the object set live before operation *i* is the same in every
    round; the linear scan runs once per position, in the verification
    round, beside the operation.  Once that round is over (``filled``),
    later rounds only record what each query returned and check it after
    their timed replay.  The live object count is kept with each answer
    and checked, as a guard on that premise.

    A kNN answer is not unique when several objects tie at the k-th
    nearest distance: a query point inside two overlapping object MBRs is
    at MINDIST 0 from both.  The oracle breaks such ties by object id, the
    R-tree by traversal order.  So a kNN result is correct when it holds
    ``k`` ids, every object nearer than the oracle's k-th distance, and
    otherwise only objects at that distance.  Those tie sets cost another
    scan, so they are worked out only for a kNN answer that differs from
    the oracle's ids while the live set is at hand (the verification
    round); a later round must repeat an accepted answer.  Range and join
    answers are unique and must equal the oracle's ids.
    """

    def __init__(self) -> None:
        #: position -> [live count, oracle ids, kNN tie sets or None].
        self._answers: Dict[int, List] = {}
        #: True once the verification round has stored every answer.
        self.filled = False

    def check(self, result: "RoundResult", position: int, query: Query,
              got, objects, live_count: int) -> None:
        """Count a failure when ``got`` is not a correct answer.

        ``live_count`` is the number of objects live when the query ran;
        ``objects`` is that live set, or ``None`` once the verification
        round has stored what later rounds need.
        """
        entry = self._answers.get(position)
        if entry is None:
            if self.filled:
                raise AssertionError(
                    f"operation {position}: no oracle answer from the "
                    f"verification round")
            entry = [live_count, set(oracle_results(objects, query)), None]
            self._answers[position] = entry
        elif entry[0] != live_count:
            raise AssertionError(
                f"operation {position}: live object count {live_count} "
                f"differs from the first round's {entry[0]}")
        ids = set(got)
        if ids == entry[1]:
            return
        if (entry[2] is None and objects is not None
                and isinstance(query, KNNQuery)):
            entry[2] = _knn_ties(objects, query, entry[1])
        if entry[2] is None or len(ids) != len(entry[1]) or not (
                entry[2][0] <= ids <= entry[2][1]):
            result.fail(f"query {position}: result ids differ from the "
                        f"oracle")


def _knn_ties(objects, query: KNNQuery,
              expected: Set[int]) -> Tuple[Set[int], Set[int]]:
    """Ids nearer than the oracle's k-th distance, and those at most at it."""
    distances = {object_id: record.mbr.min_dist_to_point(query.point)
                 for object_id, record in objects.items()}
    kth = max((distances[object_id] for object_id in expected), default=0.0)
    nearer = {object_id for object_id, distance in distances.items()
              if distance < kth}
    return nearer, {object_id for object_id, distance in distances.items()
                    if distance <= kth}


def _digest(rows: Sequence[Tuple]) -> str:
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()


def _paper_metrics(costs: Sequence[QueryCost]) -> Dict[str, float]:
    accumulator = CostAccumulator(costs=list(costs))
    return {
        "uplink_bytes_per_query": accumulator.mean_uplink_bytes(),
        "downlink_bytes_per_query": accumulator.mean_downlink_bytes(),
        "response_time_s": accumulator.mean_response_time(),
        "cache_hit_rate": accumulator.cache_hit_rate(),
    }


def _cost_row(cost: QueryCost) -> Tuple:
    # Deterministic fields only: QueryCost also carries measured CPU time.
    return (cost.uplink_bytes, cost.downlink_bytes, cost.result_bytes,
            cost.response_time, cost.server_page_reads)


class Workload:
    """One named workload; subclasses implement :meth:`run_round`."""

    name = ""
    why = ""
    closed_loop = True

    def __init__(self, seed: int, scale: str = "default") -> None:
        self.seed = seed
        self.scale = scale
        self.params = SCALES[scale][self.name]

    def run_round(self, workdir: str, oracle: OracleMemo) -> RoundResult:
        """Set a deployment up, replay the whole input once, tear down."""
        raise NotImplementedError

    def setup_only(self, workdir: str) -> float:
        """Time one set-up (and tear it down) without replaying."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# closed-loop fleets
# --------------------------------------------------------------------------- #
def _fleet_base(params: Dict[str, float], seed: int) -> SimulationConfig:
    """The fleet's base configuration for benchmark seed ``seed``.

    The city is fixed: the dataset is the repository's standard seed-7 NE
    set and the clients' mobility seeds are the ``default_fleet`` ones.
    The benchmark seed moves the base workload seed, so every client asks
    a different query stream along the same routes.  Varying the routes
    as well spread a 24-client fleet's per-query bytes over a third of
    their median across seeds, wider than any bound the benchmark could
    set.
    """
    config = SimulationConfig.scaled(query_count=int(params["queries"]),
                                     object_count=int(params["objects"]))
    return config.with_overrides(
        workload_seed=config.workload_seed + 104729 * seed)


def _replay_query(result: RoundResult, session, position: int, record,
                  objects, oracle: OracleMemo, costs: List[QueryCost],
                  returned: List[Tuple]) -> None:
    """Run one query; check it now (verification round) or record it.

    In timed rounds the query's ids go to ``returned`` and are checked by
    :func:`_check_returned` after the replay interval has been taken.
    """
    result.attempted += 1
    result.queries += 1
    start = clock()
    try:
        cost = session.process(record)
    except Exception as error:  # counted and reported, never fatal
        result.query_ms.append((clock() - start) * 1000.0)
        result.fail(f"query {position}: {type(error).__name__}: {error}")
        return
    result.query_ms.append((clock() - start) * 1000.0)
    costs.append(cost)
    if oracle.filled:
        returned.append((position, record.query, session.last_result_ids,
                         len(objects)))
    else:
        oracle.check(result, position, record.query,
                     session.last_result_ids, objects, len(objects))


def _check_returned(result: RoundResult, oracle: OracleMemo,
                    returned: Sequence[Tuple]) -> None:
    for position, query, got, live_count in returned:
        oracle.check(result, position, query, got, None, live_count)


class RushHour(Workload):
    """``default_fleet`` against one in-process server, in memory."""

    name = "rush_hour"
    why = ("the paper's own path: client cache, then server R-tree "
           "traversal, joins and snapshot building; router, net, updates "
           "and WAL idle")

    def __init__(self, seed: int, scale: str = "default") -> None:
        super().__init__(seed, scale)
        self.fleet = fleet_mod.default_fleet(
            int(self.params["clients"]), base=_fleet_base(self.params, seed))

    def _setup(self):
        start = clock()
        shared = runner.build_shared_state(self.fleet.base)
        specs = self.fleet.client_specs()
        events = fleet_mod.build_fleet_events(specs)
        sessions = fleet_mod.make_fleet_sessions(shared, specs)
        return clock() - start, shared, events, sessions

    def setup_only(self, workdir: str) -> float:
        elapsed, shared, _, _ = self._setup()
        shared.tree.store.close()
        return elapsed

    def run_round(self, workdir: str, oracle: OracleMemo) -> RoundResult:
        setup_s, shared, events, sessions = self._setup()
        result = RoundResult(setup_s=setup_s)
        costs: List[QueryCost] = []
        returned: List[Tuple] = []
        try:
            start = clock()
            for position, (_, client_id, record) in enumerate(events):
                _replay_query(result, sessions[client_id], position, record,
                              shared.tree.objects, oracle, costs, returned)
            result.replay_s = clock() - start
        finally:
            shared.tree.store.close()
        _check_returned(result, oracle, returned)
        result.det = _paper_metrics(costs)
        result.digest = _digest([_cost_row(cost) for cost in costs])
        return result


class ChurnDurable(Workload):
    """A dynamic fleet on a durable disk store (WAL fsync per batch)."""

    name = "churn_durable"
    why = ("writes beside reads: updater, WAL fsync per batch, versioned "
           "sync and invalidation; shows read-path gains that cost the "
           "write path")

    def __init__(self, seed: int, scale: str = "default") -> None:
        super().__init__(seed, scale)
        static = fleet_mod.default_fleet(
            int(self.params["clients"]), base=_fleet_base(self.params, seed))
        self.fleet = dataclasses.replace(
            static, update_rate=float(self.params["update_rate"]),
            consistency="versioned", update_seed=4242 + 7919 * seed)

    def _setup(self, workdir: str):
        store = os.path.join(workdir, "churn.rpro")
        for path in (store, wal_path(store)):
            if os.path.exists(path):
                os.remove(path)
        start = clock()
        paged.save_tree(runner.build_tree(self.fleet.base), store)
        shared = runner.build_shared_state(self.fleet.base, store_path=store,
                                           store_writable=True,
                                           store_durable=True)
        try:
            updater = DatasetUpdater(shared.tree, shared.server,
                                     ground_truth=shared.ground_truth)
            specs = self.fleet.client_specs()
            sessions = fleet_mod.make_dynamic_sessions(self.fleet, shared,
                                                       specs, updater)
            events = fleet_mod.build_dynamic_events(self.fleet, specs)
        except BaseException:
            shared.tree.store.close()
            raise
        return clock() - start, store, shared, updater, sessions, events

    def setup_only(self, workdir: str) -> float:
        elapsed, _, shared, _, _, _ = self._setup(workdir)
        shared.tree.store.close()
        return elapsed

    def run_round(self, workdir: str, oracle: OracleMemo) -> RoundResult:
        setup_s, store, shared, updater, sessions, events = self._setup(
            workdir)
        result = RoundResult(setup_s=setup_s)
        costs: List[QueryCost] = []
        applied: List[bool] = []
        returned: List[Tuple] = []
        try:
            start = clock()
            for position, (kind, _, client_id, payload) in enumerate(events):
                if kind == "query":
                    _replay_query(result, sessions[client_id], position,
                                  payload, shared.tree.objects, oracle, costs,
                                  returned)
                    continue
                result.attempted += 1
                begin = clock()
                try:
                    applied.append(updater.apply(payload))
                except Exception as error:  # counted and reported
                    result.fail(f"update {position}: "
                                f"{type(error).__name__}: {error}")
                result.update_ms.append((clock() - begin) * 1000.0)
            result.replay_s = clock() - start
            io = shared.tree.store.io_stats()
            summary = updater.summary()
        finally:
            shared.tree.store.close()
        _check_returned(result, oracle, returned)
        result.facts = {
            "storage.wal.bytes": float(os.path.getsize(wal_path(store))),
            "storage.paged.file_reads": float(io["file_reads"]),
            "storage.paged.buffer_hits": float(io["buffer_hits"]),
            "updates.wal_commits": float(summary["wal_commits"]),
        }
        result.det = _paper_metrics(costs)
        result.digest = _digest([_cost_row(cost) for cost in costs]
                                + [tuple(applied), tuple(sorted(
                                    summary.items()))])
        return result


# --------------------------------------------------------------------------- #
# open loop over the wire
# --------------------------------------------------------------------------- #
def hotspot_queries(seed: int, count: int, sites: int) -> List[Query]:
    """Zipf-skewed range and kNN windows around ``sites`` hotspot sites.

    The ``hotspot_cache`` generator shape (repeated windows with small
    jitter around a few popular places), with kNN points mixed in and no
    joins.
    """
    # The hotspot sites are fixed places of the city; the seed draws the
    # stream of requests around them.
    place_rng = random.Random(4099)
    places = [(place_rng.random(), place_rng.random()) for _ in range(sites)]
    rng = random.Random(4099 + 7919 * seed)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(sites)]
    half, jitter = 0.015, 0.005
    queries: List[Query] = []
    for _ in range(count):
        site_x, site_y = rng.choices(places, weights)[0]
        x = min(1.0, max(0.0, site_x + rng.uniform(-jitter, jitter)))
        y = min(1.0, max(0.0, site_y + rng.uniform(-jitter, jitter)))
        if rng.random() < 0.7:
            queries.append(RangeQuery(window=Rect(
                max(0.0, x - half), max(0.0, y - half),
                min(1.0, x + half), min(1.0, y + half))))
        else:
            queries.append(KNNQuery(point=Point(x, y), k=rng.randint(1, 5)))
    return queries


def _backlogged(lags_ms: Sequence[float], rate: float) -> bool:
    """True when send lateness keeps growing through a rate's schedule.

    The final quarter's median lateness must stay within two send
    intervals; beyond that the generator is falling further behind.
    """
    if len(lags_ms) < 8:
        return False
    quarter = sorted(lags_ms[-(len(lags_ms) // 4):])
    return quarter[len(quarter) // 2] > 2.0 * 1000.0 / rate


class HotspotWire(Workload):
    """Cold hotspot windows over a UNIX socket to a sharded router."""

    name = "hotspot_wire"
    why = ("independent cold users in an open loop: router planning, shard "
           "skipping, result cache, codec and socket; joins, client cache, "
           "updater and WAL idle")
    closed_loop = False

    def __init__(self, seed: int, scale: str = "default") -> None:
        super().__init__(seed, scale)
        self.ladder = RATE_LADDER[scale]
        self.count = sum(int(rate * seconds) for rate, seconds in self.ladder)
        self.base = SimulationConfig.scaled(
            query_count=1, object_count=int(self.params["objects"]))

    def _setup(self, workdir: str):
        socket_path = os.path.relpath(os.path.join(workdir, "hotspot.sock"))
        start = clock()
        queries = hotspot_queries(self.seed, self.count,
                                  int(self.params["sites"]))
        state = sharding_state.build_sharded_state(
            self.base, int(self.params["shards"]), "grid")
        thread = None
        try:
            state.router.attach_result_cache(
                PartitionResultCache(grid=int(self.params["grid"])))
            server = ReproServer(state.router, state.size_model)
            thread = ServerThread(server, "uds", path=socket_path)
            thread.start()
            endpoint = Endpoint("uds", path=socket_path)
            client = RemoteSessionClient(
                endpoint, state.size_model,
                pool=ClientPool(endpoint, state.size_model,
                                client_name="perfbench", capacity=1))
            client.pool.release(client.pool.get())  # HELLO handshake
        except BaseException:
            if thread is not None:
                thread.stop()
            state.close()
            raise
        return clock() - start, queries, state, thread, client

    @staticmethod
    def _teardown(state, thread, client) -> None:
        try:
            client.close()
        finally:
            try:
                thread.stop()
            finally:
                state.close()

    def setup_only(self, workdir: str) -> float:
        elapsed, _, state, thread, client = self._setup(workdir)
        self._teardown(state, thread, client)
        return elapsed

    def run_round(self, workdir: str, oracle: OracleMemo) -> RoundResult:
        setup_s, queries, state, thread, client = self._setup(workdir)
        result = RoundResult(setup_s=setup_s)
        answers: List[Optional[Tuple]] = []
        try:
            begin = clock()
            position = 0
            for rate, seconds in self.ladder:
                count = int(rate * seconds)
                block = self._run_rate(client, queries[position:
                                                       position + count],
                                       rate, result, answers,
                                       state.size_model)
                position += count
                result.rates.append(block)
                if rate == STATED_RATE:
                    result.query_ms.extend(block["ms"])
                    result.lag_ms.extend(block["lag_ms"])
            result.replay_s = clock() - begin
            wire_out, wire_in = client.pool.wire_totals()
            summary = state.shard_summary("grid")
            objects = dict(state.view.objects.items())
        finally:
            self._teardown(state, thread, client)
        rows: List[Tuple] = []
        for index, (query, answer) in enumerate(zip(queries, answers)):
            if answer is None:
                continue
            ids, downlink, pages = answer
            oracle.check(result, index, query, ids, objects, len(objects))
            rows.append((query.descriptor_bytes(state.size_model), downlink,
                         pages))
        consults = summary["cache_hits"] + summary["cache_misses"]
        result.facts = {
            "sharding.router.shards_visited": float(summary["total_routed"]),
            "sharding.router.shards_pruned": float(summary["total_pruned"]),
            "sharding.router.shards_skipped": float(summary["total_skipped"]),
            "sharding.router.result_cache.consults": float(consults),
            "sharding.router.result_cache.hits": float(summary["cache_hits"]),
            "sharding.router.result_cache.probes": float(
                summary["cache_probes"]),
            "net.wire_bytes": float(wire_out + wire_in),
            "net.retries": float(client.retries),
        }
        uplink = [row[0] for row in rows]
        downlink = [row[1] for row in rows]
        result.det = {
            "uplink_bytes_per_query": sum(uplink) / len(uplink) if rows
            else 0.0,
            "downlink_bytes_per_query": sum(downlink) / len(downlink)
            if rows else 0.0,
        }
        result.digest = _digest(rows)
        return result

    def _run_rate(self, client: RemoteSessionClient,
                  queries: Sequence[Query], rate: float,
                  result: RoundResult, answers: List[Optional[Tuple]],
                  size_model) -> Dict[str, object]:
        """Send ``queries`` on a fixed schedule; time each from its due time.

        One generator, one connection, one request in flight: a slow
        response delays every later send, and that lateness is part of
        the later requests' latency.  Each answer goes to ``answers`` as
        ``(result ids, downlink bytes, pages)``, read once the request is
        timed (``None`` for a refused or raised request); the responses
        themselves are not kept, so they do not count in peak memory.
        """
        latencies: List[float] = []
        lags: List[float] = []
        failed = 0
        interval = 1.0 / rate
        origin = clock() + interval
        for index, query in enumerate(queries):
            due = origin + index * interval
            # Wait by yielding rather than sleeping: a sleeping generator
            # lets its virtual CPU halt, and the wake-up delay would be
            # charged to the program as send lateness.  time.sleep(0)
            # still releases the interpreter lock to the server thread.
            while clock() < due:
                time.sleep(0)
            sent = clock()
            result.attempted += 1
            result.queries += 1
            try:
                response = client.execute(query)
            except Exception as error:  # refused or raised: counted, reported
                answered = clock()
                failed += 1
                answers.append(None)
                result.fail(f"{type(error).__name__}: {error}")
            else:
                answered = clock()
                answers.append((response.result_object_ids(),
                                response.downlink_bytes(size_model),
                                response.accessed_node_count))
            latencies.append((answered - due) * 1000.0)
            lags.append(max(0.0, sent - due) * 1000.0)
            result.service_ms.append((answered - sent) * 1000.0)
        return {"rate_qps": rate, "failed": failed,
                "backlog": _backlogged(lags, rate),
                "ms": latencies, "lag_ms": lags}


WORKLOADS = {cls.name: cls for cls in (RushHour, ChurnDurable, HotspotWire)}
