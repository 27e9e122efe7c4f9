"""Client-side query processing over the proactive cache (Algorithm 1).

The processor walks the *cached* portion of the R-tree exactly like the
server would walk the real tree.  Whenever it pops an entry whose node or
object is not cached (or a super entry it cannot expand), the entry becomes a
*missing entry* and is set aside; when no progress can be made with what is
cached, the missing entries form the frontier of the remainder query.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro._compat import DATACLASS_SLOTS
from repro.core.cache import ProactiveCache
from repro.core.items import (
    CachedObject,
    CacheEntry,
    FrontierTarget,
    TargetKind,
    item_key_for_node,
    item_key_for_object,
)
from repro.core.remainder import FrontierItem, RemainderQuery, near
from repro.geometry import Point, Rect
from repro.obs import instrument as obs
from repro.obs.instrument import perf_clock
from repro.workload.queries import JoinQuery, KNNQuery, Query, QueryType, RangeQuery


@dataclass(**DATACLASS_SLOTS)
class ClientExecution:
    """Outcome of the first (local) processing stage of a query."""

    query: Query
    saved_objects: Dict[int, CachedObject] = field(default_factory=dict)
    frontier: List[FrontierItem] = field(default_factory=list)
    k_remaining: Optional[int] = None
    blocked_cached_objects: int = 0
    examined_elements: int = 0
    cpu_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        """True when the query was fully answered from the cache."""
        if self.frontier:
            return False
        return self.k_remaining in (None, 0)

    def remainder(self, reported_fmr: Optional[float] = None) -> Optional[RemainderQuery]:
        """Build the remainder query, or ``None`` when the cache sufficed."""
        if self.complete:
            return None
        return RemainderQuery(query=self.query, frontier=list(self.frontier),
                              k_remaining=self.k_remaining, reported_fmr=reported_fmr)


class ClientQueryProcessor:
    """Executes spatial queries against the proactive cache.

    Parameters
    ----------
    cache:
        The client's proactive cache.
    root_id / root_mbr:
        Static catalogue information about the server's R-tree root (the
        client learns this once when it connects; it is a handful of bytes).
    """

    def __init__(self, cache: ProactiveCache, root_id: int, root_mbr: Rect) -> None:
        self.cache = cache
        self.root_id = root_id
        self.root_mbr = root_mbr

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def execute(self, query: Query) -> ClientExecution:
        """Run Algorithm 1 for ``query`` and return the local execution state."""
        start = perf_clock()
        if isinstance(query, RangeQuery):
            execution = self._execute_range(query)
        elif isinstance(query, KNNQuery):
            execution = self._execute_knn(query)
        elif isinstance(query, JoinQuery):
            execution = self._execute_join(query)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported query type: {type(query)!r}")
        execution.cpu_seconds = perf_clock() - start
        return execution

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _touch_node(self, node_id: int) -> None:
        self.cache.touch(item_key_for_node(node_id))

    def _touch_object(self, object_id: int) -> None:
        self.cache.touch(item_key_for_object(object_id))

    # ------------------------------------------------------------------ #
    # range queries
    # ------------------------------------------------------------------ #
    def _execute_range(self, query: RangeQuery) -> ClientExecution:
        execution = ClientExecution(query=query)
        window = query.window
        if not self.root_mbr.intersects(window):
            return execution

        stack: List[Tuple[str, object]] = [("node", (self.root_id, self.root_mbr))]
        while stack:
            kind, payload = stack.pop()
            execution.examined_elements += 1
            if kind == "node":
                node_id, mbr = payload
                snapshot = self.cache.get_node(node_id)
                if snapshot is None:
                    execution.frontier.append(
                        (FrontierTarget.for_node(node_id, mbr),))
                    continue
                self._touch_node(node_id)
                for element in snapshot.entries():
                    if element.mbr.intersects(window):
                        stack.append(("entry", (element, node_id)))
            else:
                element, owner = payload
                if element.is_super:
                    execution.frontier.append(
                        (FrontierTarget.for_super(owner, element.code, element.mbr),))
                elif element.is_node_entry:
                    stack.append(("node", (element.child_id, element.mbr)))
                else:
                    cached = self.cache.get_object(element.object_id)
                    if cached is None:
                        execution.frontier.append(
                            (FrontierTarget.for_object(element.object_id, element.mbr,
                                                       parent_node_id=owner),))
                    else:
                        self._touch_object(element.object_id)
                        execution.saved_objects[element.object_id] = cached
        return execution

    # ------------------------------------------------------------------ #
    # kNN queries
    # ------------------------------------------------------------------ #
    def _execute_knn(self, query: KNNQuery) -> ClientExecution:
        execution = ClientExecution(query=query)
        point = query.point
        k = query.k

        counter = itertools.count()
        heap: List[Tuple[float, int, str, object]] = []

        def push(kind: str, payload: object, priority: float) -> None:
            heapq.heappush(heap, (priority, next(counter), kind, payload))

        push("node", (self.root_id, self.root_mbr),
             self.root_mbr.min_dist_to_point(point))

        confirmed: Dict[int, CachedObject] = {}
        pending: List[Tuple[float, FrontierTarget]] = []
        missing_nonleaf = 0
        missing_leaf = 0

        while heap and len(confirmed) + missing_leaf < k:
            priority, _, kind, payload = heapq.heappop(heap)
            execution.examined_elements += 1
            if kind == "node":
                node_id, mbr = payload
                snapshot = self.cache.get_node(node_id)
                if snapshot is None:
                    pending.append((priority, FrontierTarget.for_node(node_id, mbr, priority)))
                    missing_nonleaf += 1
                    continue
                self._touch_node(node_id)
                for element in snapshot.entries():
                    element_priority = element.mbr.min_dist_to_point(point)
                    if element.is_super:
                        push("super", (element, node_id), element_priority)
                    elif element.is_node_entry:
                        push("node", (element.child_id, element.mbr), element_priority)
                    else:
                        push("object", (element, node_id), element_priority)
            elif kind == "super":
                element, owner = payload
                pending.append((priority,
                                FrontierTarget.for_super(owner, element.code,
                                                         element.mbr, priority)))
                missing_nonleaf += 1
            else:  # object
                element, owner = payload
                cached = self.cache.get_object(element.object_id)
                if cached is not None and missing_nonleaf == 0:
                    self._touch_object(element.object_id)
                    confirmed[element.object_id] = cached
                    continue
                # A cached object popped behind a missing node cannot be
                # locally confirmed, but its payload needs no re-download:
                # ship it as a confirmation-only frontier target.
                pending.append((priority,
                                FrontierTarget.for_object(element.object_id, element.mbr,
                                                          parent_node_id=owner,
                                                          priority=priority,
                                                          confirm_only=cached is not None)))
                if cached is None:
                    missing_leaf += 1
                else:
                    execution.blocked_cached_objects += 1

        execution.saved_objects = confirmed
        if len(confirmed) >= k:
            return execution
        if not pending and not heap:
            # Nothing was ever set aside (no super entry, missing node or
            # unconfirmed object), so the cached view covered the whole tree:
            # fewer than k objects exist and the local answer is provably
            # complete.  Had anything been set aside it would sit in
            # ``pending`` and execution would fall through to the
            # frontier-building path below, which does contact the server.
            execution.k_remaining = None
            return execution

        # Build and prune the frontier: keep candidates up to the (k - m)-th
        # leaf (object) element in distance order; coarser elements beyond it
        # cannot contain closer objects (paper Example 3.1).
        candidates: List[Tuple[float, FrontierTarget]] = list(pending)
        while heap:
            priority, _, kind, payload = heapq.heappop(heap)
            if kind == "node":
                node_id, mbr = payload
                candidates.append((priority, FrontierTarget.for_node(node_id, mbr, priority)))
            elif kind == "super":
                element, owner = payload
                candidates.append((priority,
                                   FrontierTarget.for_super(owner, element.code,
                                                            element.mbr, priority)))
            else:
                element, owner = payload
                candidates.append((priority,
                                   FrontierTarget.for_object(
                                       element.object_id, element.mbr,
                                       parent_node_id=owner, priority=priority,
                                       confirm_only=self.cache.has_object(element.object_id))))
        candidates.sort(key=lambda item: item[0])
        needed = k - len(confirmed)
        cutoff = None
        object_count = 0
        for priority, target in candidates:
            if target.kind is TargetKind.OBJECT:
                object_count += 1
                if object_count == needed:
                    cutoff = priority
                    break
        kept = [target for priority, target in candidates
                if cutoff is None or priority <= cutoff + 1e-12]
        execution.frontier = [(target,) for target in kept]
        execution.k_remaining = needed
        return execution

    # ------------------------------------------------------------------ #
    # distance self-join queries
    # ------------------------------------------------------------------ #
    def _execute_join(self, query: JoinQuery) -> ClientExecution:
        execution = ClientExecution(query=query)
        window = query.window
        if not self.root_mbr.intersects(window):
            return execution
        threshold_sq = query.threshold * query.threshold
        cache = self.cache
        frontier = execution.frontier
        saved = execution.saved_objects
        examined = 0
        NODE, SUPER, OBJECT = 0, 1, 2
        # A side is a flat tuple (kind, id, aux, min_x, min_y, max_x, max_y,
        # mbr, payload): aux is a super entry's code, an object's owning
        # leaf, and None for a node.  Joins only touch the cache, never
        # insert or evict, so whether a side resolves locally is fixed for
        # the whole join: an object side carries its cached payload (None
        # when missing), and a node's expansion is memoised (None when the
        # node is not cached) keeping only the children that meet the
        # window.  The hit-accounting touch still lands once per expansion.
        expansions: Dict[int, Optional[List[Tuple]]] = {}

        def expand(node_id: int) -> Optional[List[Tuple]]:
            if node_id in expansions:
                return expansions[node_id]
            snapshot = cache.get_node(node_id)
            children: Optional[List[Tuple]] = None
            if snapshot is not None:
                children = []
                side: Tuple
                for element in snapshot.entries():
                    mbr = element.mbr
                    if not mbr.intersects(window):
                        continue
                    payload = None
                    if element.is_super:
                        side = (SUPER, node_id, element.code)
                    elif element.is_node_entry:
                        side = (NODE, element.child_id, None)
                    else:
                        side = (OBJECT, element.object_id, node_id)
                        payload = cache.get_object(element.object_id)
                    children.append(side + (mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y,
                                            mbr, payload))
            expansions[node_id] = children
            return children

        def to_target(side: Tuple) -> FrontierTarget:
            if side[0] == NODE:
                return FrontierTarget.for_node(side[1], side[7])
            if side[0] == SUPER:
                return FrontierTarget.for_super(side[1], side[2], side[7])
            return FrontierTarget.for_object(side[1], side[7], parent_node_id=side[2],
                                             confirm_only=side[8] is not None)

        # Seen keys differ in shape per pair kind: (lo_id, hi_id) for two
        # objects, (id, aux, object_id) for a node or super entry and an
        # object, a sorted pair of (kind, id, aux) triples otherwise.
        seen: Set[Tuple] = set()
        key: Tuple
        children: Optional[List[Tuple]]
        root = self.root_mbr
        root_side = (NODE, self.root_id, None, root.min_x, root.min_y, root.max_x,
                     root.max_y, root, None)
        # The root pair meets the window (checked above) at MINDIST 0; every
        # later pair is pushed only after passing the pair predicate.
        stack: List[Tuple[Tuple, Tuple]] = [(root_side, root_side)]
        while stack:
            side_a, side_b = stack.pop()
            examined += 1
            if side_a[0] != OBJECT:
                key_a, key_b = side_a[:3], side_b[:3]
                key = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
                if key in seen:
                    continue
                seen.add(key)
                children = None
                if side_a[0] == NODE and side_b[0] == NODE and cache.has_node(side_b[1]):
                    children = expand(side_a[1])
                if children is None:
                    # A pair is a missing pair as soon as either side is
                    # missing (Algorithm 1, footnote 3): it goes into the
                    # frontier untouched.
                    frontier.append((to_target(side_a), to_target(side_b)))
                    continue
                self._touch_node(side_a[1])
                stack.extend([(child, side_b) for child in near(children, side_b, threshold_sq)])
                continue

            # An object o and a node N (side_b of a pushed pair is a node).
            # Every pair below (o, N) is (descendant of N, o) and, stacked
            # LIFO, would come off before anything beneath it: so they run
            # here as one depth-first descent for o, in that same order.
            obj, node = side_a, side_b
            object_id, held = obj[1], obj[8]
            key = (node[1], node[2], object_id)
            if key in seen:
                continue
            seen.add(key)
            children = expand(node[1]) if held is not None else None
            if children is None:
                frontier.append((to_target(obj), to_target(node)))
                continue
            self._touch_node(node[1])
            descent = near(children, obj, threshold_sq)
            while descent:
                side = descent.pop()
                examined += 1
                side_id, kind = side[1], side[0]
                if kind == OBJECT:
                    key = ((side_id, object_id) if side_id <= object_id
                           else (object_id, side_id))
                    if key in seen:
                        continue
                    seen.add(key)
                    if side_id == object_id:
                        continue
                    if side[8] is not None:
                        self._touch_object(side_id)
                        self._touch_object(object_id)
                        saved[side_id] = side[8]
                        saved[object_id] = held
                        continue
                else:
                    key = (side_id, side[2], object_id)
                    if key in seen:
                        continue
                    seen.add(key)
                    children = expand(side_id) if kind == NODE else None
                    if children is not None:
                        self._touch_node(side_id)
                        descent.extend(near(children, obj, threshold_sq))
                        continue
                frontier.append((to_target(side), to_target(obj)))
        execution.examined_elements = examined
        return execution
