"""The linear-scan kNN oracle's tie-break, pinned on a point inside
overlapping object MBRs (where ties at MINDIST 0 are the rule, not a
measure-zero accident)."""

from __future__ import annotations

from repro.geometry import Point, Rect
from repro.rtree import SizeModel, bulk_load_str
from repro.rtree.entry import ObjectRecord
from repro.rtree.knn import knn_search
from repro.updates.oracle import oracle_knn
from repro.workload.queries import KNNQuery

POINT = Point(0.5, 0.5)


def overlapping_objects():
    """Six MBRs containing POINT, three tied at MINDIST 0.1 (ids out of
    order), and far filler."""
    records = [ObjectRecord(object_id, Rect(0.5 - s, 0.5 - s, 0.5 + s, 0.5 + s), 100)
               for object_id, s in ((41, 0.01), (7, 0.02), (23, 0.03), (3, 0.04),
                                    (88, 0.05), (15, 0.06))]
    records += [ObjectRecord(object_id, Rect(0.6, 0.5 - s, 0.61, 0.5 + s), 100)
                for object_id, s in ((9, 0.01), (2, 0.02), (5, 0.03))]
    records += [ObjectRecord(100 + i, Rect(i / 40, 0.9, i / 40 + 0.01, 0.91), 100)
                for i in range(30)]
    return {record.object_id: record for record in records}


def test_knn_ties_at_mindist_zero_break_by_object_id():
    objects = overlapping_objects()
    assert oracle_knn(objects, KNNQuery(POINT, 1)) == [3]
    assert oracle_knn(objects, KNNQuery(POINT, 4)) == [3, 7, 15, 23]
    assert oracle_knn(objects, KNNQuery(POINT, 6)) == [3, 7, 15, 23, 41, 88]


def test_knn_ties_at_the_kth_distance_break_by_object_id():
    objects = overlapping_objects()
    # Six objects at MINDIST 0, then three tied at 0.1 (ids 2, 5, 9).
    assert oracle_knn(objects, KNNQuery(POINT, 7)) == [2, 3, 7, 15, 23, 41, 88]
    assert oracle_knn(objects, KNNQuery(POINT, 8)) == [2, 3, 5, 7, 15, 23, 41, 88]


def test_rtree_answer_is_equally_near_but_may_differ_in_ids():
    objects = overlapping_objects()
    tree = bulk_load_str(list(objects.values()), size_model=SizeModel(page_bytes=256))
    for k in (1, 4, 7):
        got = [object_id for object_id, _ in knn_search(tree, POINT, k)]
        expected = oracle_knn(objects, KNNQuery(POINT, k))
        assert len(got) == k
        assert sorted(objects[i].mbr.min_dist_to_point(POINT) for i in got) == \
            sorted(objects[i].mbr.min_dist_to_point(POINT) for i in expected)
