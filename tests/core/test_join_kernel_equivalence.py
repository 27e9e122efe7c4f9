"""The per-object descent join kernels equal the pair-stack reference.

``tests/core/join_reference.py`` keeps the server and client join
traversals exactly as they were before the descent kernels replaced them.
Every case here runs both on the same input and asserts, per query:

* server: results (with dict insertion order and parent values), the
  recorder's node keys in first-touch order with ``bases``, ``expanded``
  and ``full_access``, and ``examined``;
* client: the ``frontier`` list in order, ``saved_objects`` in insertion
  order, the node/object touch counts and ``examined_elements``.

Inputs are random trees, windows and thresholds, remainder frontiers
harvested from real client executions, and stale frontiers: the harvested
ones replayed after an update batch deleted objects and freed pages, plus
hand-made unknown super codes and duplicate or overlapping pairs.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.client import ClientQueryProcessor
from repro.core.items import FrontierTarget
from repro.core.server import ServerQueryProcessor
from repro.core.supporting_index import SupportingIndexPolicy
from repro.datasets import generate_ne_like
from repro.geometry import Rect
from repro.rtree import SizeModel, bulk_load_str
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_environment
from repro.sim.sessions import make_session
from repro.updates.applier import DatasetUpdater
from repro.updates.stream import UpdateEvent
from repro.workload.generator import QueryMix
from repro.workload.queries import JoinQuery

from tests.conftest import make_records
from tests.core.join_reference import reference_execute_join, reference_process_join


POLICIES = {
    "adaptive0": lambda: SupportingIndexPolicy.adaptive(initial_depth=0),
    "adaptive2": lambda: SupportingIndexPolicy.adaptive(initial_depth=2),
    "compact": SupportingIndexPolicy.compact,
    "full": SupportingIndexPolicy.full,
}


def server_outcome(kernel, server, query, frontier, policy):
    recorder = {}
    results, examined = kernel(server, query, list(frontier), recorder, policy)
    records = [(node_id, sorted(record.bases), sorted(record.expanded), record.full_access)
               for node_id, record in recorder.items()]
    return list(results.items()), records, examined


def assert_server_equal(server, query, frontier, policy):
    new = server_outcome(ServerQueryProcessor._process_join, server, query, frontier, policy)
    ref = server_outcome(reference_process_join, server, query, frontier, policy)
    assert new == ref
    return new


def client_outcome(kernel, client, query):
    touched = []
    cache = client.cache
    cache.touch = touched.append  # record without mutating the cache
    try:
        execution = kernel(client, query)
    finally:
        del cache.touch
    return (execution.frontier, list(execution.saved_objects.items()),
            Counter(touched), execution.examined_elements)


def assert_client_equal(client, query):
    new = client_outcome(ClientQueryProcessor._execute_join, client, query)
    ref = client_outcome(reference_execute_join, client, query)
    assert new == ref
    return new


def random_join(rng, spread=1.0):
    side = rng.uniform(0.05, 0.6) * spread
    x, y = rng.uniform(0, spread - side), rng.uniform(0, spread - side)
    return JoinQuery(window=Rect(x, y, x + side, y + side),
                     threshold=rng.choice([0.0, 0.001, 0.004, 0.01, 0.03]))


# --------------------------------------------------------------------------- #
# random trees, windows and thresholds
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_server_kernel_random_trees(seed, policy_name):
    rng = random.Random(seed)
    records = (make_records(rng.randint(1, 400), seed=seed) if seed % 2
               else generate_ne_like(rng.randint(50, 400), seed=seed))
    tree = bulk_load_str(records, size_model=SizeModel(page_bytes=rng.choice([256, 512])))
    server = ServerQueryProcessor(tree)
    policy = POLICIES[policy_name]()
    nonempty = 0
    for _ in range(8):
        query = random_join(rng)
        results, _, examined = assert_server_equal(
            server, query, server._default_frontier(query), policy)
        nonempty += bool(results)
        assert examined >= 1
    assert seed or nonempty  # the generator does produce joining pairs


# --------------------------------------------------------------------------- #
# frontiers harvested from real client executions
# --------------------------------------------------------------------------- #
def harvest(model, cache_fraction, seed):
    """Replay a join-heavy trace, checking both kernels on every join.

    Returns the server and the harvested ``(query, frontier, policy)``
    remainders.
    """
    config = SimulationConfig(object_count=700, query_count=70, page_bytes=512,
                              window_area=4e-3, join_distance=0.01,
                              query_mix=QueryMix(range_=1.0, knn=1.0, join=2.0),
                              cache_fraction=cache_fraction, workload_seed=seed,
                              mobility_seed=seed + 100)
    environment = build_environment(config)
    server = environment.server
    session = make_session(model, environment.tree, config, server=server,
                           ground_truth=environment.ground_truth)
    client = session.client
    harvested = []
    counts = Counter()

    def checked_execute_join(query):
        frontier, saved, touched, _ = assert_client_equal(client, query)
        counts["client"] += 1
        counts["frontier"] += bool(frontier)
        counts["saved"] += bool(saved)
        counts["touched"] += bool(touched)
        return ClientQueryProcessor._execute_join(client, query)

    def checked_process_join(query, frontier, recorder, policy):
        assert_server_equal(server, query, frontier, policy)
        harvested.append((query, list(frontier), policy))
        return ServerQueryProcessor._process_join(server, query, frontier, recorder, policy)

    client._execute_join = checked_execute_join
    server._process_join = checked_process_join
    try:
        for record in environment.trace:
            session.process(record)
    finally:
        del client._execute_join
        del server._process_join
    return server, harvested, counts


@pytest.mark.parametrize("model,cache_fraction,seed", [
    ("APRO", 0.05, 1), ("CPRO", 0.02, 2), ("FPRO", 0.05, 3), ("APRO", 0.005, 4),
])
def test_kernels_on_harvested_remainders(model, cache_fraction, seed):
    _, harvested, counts = harvest(model, cache_fraction, seed)
    # The trace exercised every client-side outcome: remainders, locally
    # answered pairs and hit accounting.
    assert counts["client"] >= 10
    assert counts["frontier"] and counts["saved"] and counts["touched"]
    assert len(harvested) >= 5
    assert any(len(frontier) > 1 for _, frontier, _ in harvested)


@pytest.mark.parametrize("seed", [5, 6])
def test_server_kernel_on_stale_remainders(seed):
    server, harvested, _ = harvest("APRO", 0.05, seed)
    tree = server.tree
    rng = random.Random(seed)
    updater = DatasetUpdater(tree, server)
    victims = rng.sample(sorted(tree.objects), len(tree.objects) * 2 // 3)
    pages_before = {node.node_id for node in tree.all_nodes()}
    events = [UpdateEvent(index=i, arrival_time=0.0, kind="delete", object_id=object_id)
              for i, object_id in enumerate(victims)]
    events += [UpdateEvent(index=len(events) + i, arrival_time=0.0, kind="insert",
                           object_id=10_000 + i, mbr=Rect(x, y, x + 0.002, y + 0.002),
                           size_bytes=100)
               for i, (x, y) in enumerate((rng.random() * 0.99, rng.random() * 0.99)
                                          for _ in range(40))]
    assert updater.apply_batch(events) == len(events)
    freed = pages_before - {node.node_id for node in tree.all_nodes()}
    assert freed  # the batch freed pages the harvested frontiers still name
    stale_objects = stale_nodes = 0
    for query, frontier, policy in harvested:
        for item in frontier:
            for target in item:
                if target.object_id is not None:
                    stale_objects += target.object_id not in tree.objects
                else:
                    stale_nodes += target.node_id not in tree.store
        assert_server_equal(server, query, frontier, policy)
    assert stale_objects and stale_nodes


def test_server_kernel_on_hand_made_stale_and_overlapping_pairs():
    records = make_records(300, seed=11)
    tree = bulk_load_str(records, size_model=SizeModel(page_bytes=256))
    server = ServerQueryProcessor(tree)
    root = tree.root
    child_entry = root.entries[0]
    child = tree.node(child_entry.child_id)
    leaf = child
    while not leaf.is_leaf:
        leaf = tree.node(leaf.entries[0].child_id)
    leaf_entry = leaf.entries[0]
    obj = FrontierTarget.for_object(leaf_entry.object_id, leaf_entry.mbr,
                                    parent_node_id=leaf.node_id)
    other = leaf.entries[-1]
    obj2 = FrontierTarget.for_object(other.object_id, other.mbr, parent_node_id=None)
    obj2_owned = FrontierTarget.for_object(other.object_id, other.mbr,
                                           parent_node_id=leaf.node_id)
    near_leaf, near = min(((node, entry) for node in tree.all_nodes()
                           if node.is_leaf and node.node_id != leaf.node_id
                           for entry in node.entries),
                          key=lambda pair: pair[1].mbr.min_dist_to_rect(other.mbr))
    near_t = FrontierTarget.for_object(near.object_id, near.mbr,
                                       parent_node_id=near_leaf.node_id)
    root_t = FrontierTarget.for_node(tree.root_id, root.mbr())
    child_t = FrontierTarget.for_node(child.node_id, child_entry.mbr)
    leaf_t = FrontierTarget.for_node(leaf.node_id, leaf.mbr())
    bogus_super = FrontierTarget.for_super(child.node_id, "0110101101", child_entry.mbr)
    real_super = FrontierTarget.for_super(child.node_id, "0", child_entry.mbr)
    dead_object = FrontierTarget.for_object(99_999, leaf_entry.mbr, parent_node_id=leaf.node_id)
    dead_page = FrontierTarget.for_node(123_456, root.mbr())
    frontiers = [
        # duplicate and overlapping pairs: a node, its child and its leaf,
        # each paired with the same object, in both orders
        [(root_t, obj), (child_t, obj), (obj, leaf_t), (root_t, obj), (leaf_t, obj)],
        [(child_t, child_t), (root_t, child_t), (child_t, root_t), (root_t, root_t)],
        # unknown super code falls back to the whole node ("")
        [(bogus_super, obj), (bogus_super, bogus_super), (real_super, child_t)],
        # object pairs, including one object paired with itself
        [(obj, obj2), (obj2, obj), (obj, obj), (obj,), (leaf_t,)],
        # obj2 first met with its owning leaf as parent, then as a frontier
        # object without one: the first parent stays
        [(root_t, obj2), (obj2, near_t), (obj2_owned, obj), (leaf_t, obj2_owned)],
        # stale sides drop the whole pair
        [(dead_object, obj), (dead_page, root_t), (root_t, obj2), (dead_object,)],
    ]
    for policy_factory in POLICIES.values():
        for threshold in (0.0, 0.02, 0.2):
            query = JoinQuery(window=Rect(0.0, 0.0, 1.0, 1.0), threshold=threshold)
            for frontier in frontiers:
                assert_server_equal(server, query, frontier, policy_factory())
            narrow = JoinQuery(window=leaf_entry.mbr, threshold=threshold)
            for frontier in frontiers:
                assert_server_equal(server, narrow, frontier, policy_factory())
