"""Naive linear-scan query oracles over the *current* object set.

The property-based differential harness needs an answer key that shares no
code with the system under test: no R-tree, no partition trees, no cache —
just a full scan of the object table as it exists right now.  Each oracle
mirrors the semantics of the corresponding query processor:

* range — every object whose MBR intersects the window;
* kNN — the ``k`` objects with smallest MINDIST from their MBR to the query
  point, ties broken by object id.  Ties are not rare: a query point inside
  several overlapping object MBRs is at MINDIST 0 from all of them, and the
  R-tree traversal may then pick a different (equally near) subset;
* join — every object inside the window participating in at least one pair
  within the distance threshold.
"""

from __future__ import annotations

from typing import Dict, List

from repro.rtree.entry import ObjectRecord
from repro.workload.queries import JoinQuery, KNNQuery, Query, RangeQuery


def oracle_range(objects: Dict[int, ObjectRecord], query: RangeQuery) -> List[int]:
    """Ids of every object intersecting the range window (sorted)."""
    window = query.window
    return sorted(object_id for object_id, record in objects.items()
                  if record.mbr.intersects(window))


def oracle_knn(objects: Dict[int, ObjectRecord], query: KNNQuery) -> List[int]:
    """Ids of the ``k`` nearest objects by MBR MINDIST (sorted).

    Objects are ranked by ``(MINDIST, object id)``: among objects tied at
    the ``k``-th distance the smallest ids are kept.
    """
    ranked = sorted(objects.values(),
                    key=lambda record: (record.mbr.min_dist_to_point(query.point),
                                        record.object_id))
    return sorted(record.object_id for record in ranked[:query.k])


def oracle_join(objects: Dict[int, ObjectRecord], query: JoinQuery) -> List[int]:
    """Ids of objects participating in a qualifying join pair (sorted)."""
    window, threshold = query.window, query.threshold
    candidates = [record for record in objects.values()
                  if record.mbr.intersects(window)]
    participating = set()
    for i, left in enumerate(candidates):
        for right in candidates[i + 1:]:
            if left.mbr.min_dist_to_rect(right.mbr) <= threshold:
                participating.add(left.object_id)
                participating.add(right.object_id)
    return sorted(participating)


def oracle_results(objects: Dict[int, ObjectRecord], query: Query) -> List[int]:
    """Linear-scan ground truth for any supported query type."""
    if isinstance(query, RangeQuery):
        return oracle_range(objects, query)
    if isinstance(query, KNNQuery):
        return oracle_knn(objects, query)
    if isinstance(query, JoinQuery):
        return oracle_join(objects, query)
    raise TypeError(f"unsupported query type {type(query)!r}")
