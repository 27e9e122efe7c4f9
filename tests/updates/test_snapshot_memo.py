"""Lifetime of the per-partition-tree snapshot memo under churn.

The server memoises each partition-tree element's cache entry on the
node's :class:`PartitionTree`.  The dataset updater drops a mutated node's
tree, so the memo must go with it: the next snapshot of that node carries
the new MBRs and codes.  Within one tree's life the memoised entries are
shared by every snapshot.  A memo held by the query processor (keyed by
node and code) would survive the mutation and ship stale entries, which
the first test catches.
"""

from __future__ import annotations

import random

import pytest

from repro.core.server import ServerQueryProcessor
from repro.core.supporting_index import SupportingIndexPolicy
from repro.geometry import Rect
from repro.rtree import SizeModel, bulk_load_str
from repro.rtree.entry import ObjectRecord
from repro.updates import DatasetUpdater
from repro.updates.stream import UpdateEvent
from repro.workload.queries import RangeQuery

POLICIES = [SupportingIndexPolicy.full, SupportingIndexPolicy.compact,
            lambda: SupportingIndexPolicy.adaptive(initial_depth=2)]


def _system():
    rng = random.Random(17)
    records = []
    for object_id in range(80):
        x, y = rng.random() * 0.9, rng.random() * 0.9
        records.append(ObjectRecord(object_id, Rect(x, y, x + 0.004, y + 0.004), 1000))
    tree = bulk_load_str(records, size_model=SizeModel(page_bytes=256))
    server = ServerQueryProcessor(tree)
    return tree, server, DatasetUpdater(tree, server)


def _snapshot_of(server, node_id, window, policy):
    response = server.execute(RangeQuery(window=window), policy=policy)
    return next(snapshot for snapshot in response.index_snapshots
                if snapshot.node_id == node_id)


def _shape(snapshot):
    return [(e.code, e.mbr, e.child_id, e.object_id) for e in snapshot.elements]


@pytest.mark.parametrize("make_policy", POLICIES)
def test_snapshot_after_mutation_carries_new_mbrs_and_codes(make_policy):
    tree, server, updater = _system()
    policy = make_policy()
    leaf = max((node for node in tree.all_nodes() if node.is_leaf),
               key=lambda node: len(node.entries))
    leaf_id, window = leaf.node_id, leaf.mbr()
    moved = leaf.entries[0].object_id
    before = _snapshot_of(server, leaf_id, window, policy)
    assert any(e.object_id == moved for e in before.elements)

    # Move one of the leaf's objects to the far corner: the leaf loses an
    # entry, its MBR and partition-tree codes change, and the page survives.
    assert updater.apply(UpdateEvent(index=0, arrival_time=1.0, kind="modify",
                                     object_id=moved,
                                     mbr=Rect(0.99, 0.99, 0.995, 0.995),
                                     size_bytes=1000))
    assert leaf_id in tree.store
    assert all(entry.object_id != moved for entry in tree.store.peek(leaf_id).entries)

    after = _snapshot_of(server, leaf_id, window, policy)
    fresh = _snapshot_of(ServerQueryProcessor(tree), leaf_id, window, policy)
    assert _shape(after) == _shape(fresh)
    assert _shape(after) != _shape(before)
    assert all(e.object_id != moved for e in after.elements)


@pytest.mark.parametrize("make_policy", POLICIES)
def test_memoised_entries_are_shared_within_one_tree_life(make_policy):
    tree, server, updater = _system()
    policy = make_policy()
    leaf = next(node for node in tree.all_nodes() if node.is_leaf)
    first = _snapshot_of(server, leaf.node_id, leaf.mbr(), policy)
    second = _snapshot_of(server, leaf.node_id, leaf.mbr(), policy)
    assert first.elements is not second.elements
    assert len(first.elements) == len(second.elements)
    assert all(a is b for a, b in zip(first.elements, second.elements))

    # A batch that leaves this leaf alone keeps its tree, and the memo.
    far = [node for node in tree.all_nodes()
           if node.is_leaf and not node.mbr().intersects(leaf.mbr())]
    victim = far[-1].entries[0].object_id
    assert updater.apply(UpdateEvent(index=0, arrival_time=1.0, kind="delete",
                                     object_id=victim))
    assert leaf.node_id in server.partition_trees
    third = _snapshot_of(server, leaf.node_id, leaf.mbr(), policy)
    assert all(a is b for a, b in zip(first.elements, third.elements))
