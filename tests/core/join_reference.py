"""Reference copies of the pair-stack distance-join kernels.

These are the server (``ServerQueryProcessor._process_join``) and client
(``ClientQueryProcessor._execute_join``) join traversals as they stood
before the per-object descent kernels replaced them, kept verbatim as
module-level functions taking the processor as ``self``.  They exist only
so that ``test_join_kernel_equivalence.py`` can assert, query by query,
that the production kernels produce identical results, recorder
bookkeeping, frontiers, touches and ``examined`` counts.  Do not optimise
them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.client import ClientExecution
from repro.core.items import FrontierTarget, TargetKind
from repro.core.remainder import FrontierItem
from repro.core.server import _AccessRecord
from repro.core.supporting_index import SupportingIndexPolicy
from repro.geometry import Rect
from repro.rtree.partition_tree import SuperEntry
from repro.workload.queries import JoinQuery


def reference_process_join(self, query: JoinQuery, frontier: List[FrontierItem],
                           recorder: Dict[int, _AccessRecord],
                           policy: SupportingIndexPolicy) -> Tuple[Dict[int, Optional[int]], int]:
    # The shard router keeps a shard-aware twin of this traversal
    # (repro.sharding.router.ShardRouter._scatter_join); a semantic
    # change here must be mirrored there.
    window = query.window
    threshold = query.threshold
    results: Dict[int, Optional[int]] = {}
    examined = 0

    def target_to_side(target: FrontierTarget) -> Tuple:
        if target.kind is TargetKind.OBJECT:
            return ("object", target.object_id, target.mbr, target.parent_node_id)
        if target.kind is TargetKind.NODE:
            return ("node", target.node_id, "", target.mbr)
        return ("node", target.node_id, target.code, target.mbr)

    def side_mbr(side: Tuple) -> Rect:
        return side[3] if side[0] == "node" else side[2]

    def side_key(side: Tuple) -> Tuple:
        if side[0] == "node":
            return ("n", side[1], side[2])
        return ("o", side[1])

    # This predicate runs once per candidate pair — the hottest loop of
    # the whole server — so the window test and the MINDIST comparison
    # are inlined on hoisted coordinates and squared distances.
    w_min_x, w_min_y = window.min_x, window.min_y
    w_max_x, w_max_y = window.max_x, window.max_y
    threshold_sq = threshold * threshold

    def qualifies(a: Tuple, b: Tuple) -> bool:
        mbr_a = a[3] if a[0] == "node" else a[2]
        mbr_b = b[3] if b[0] == "node" else b[2]
        if (mbr_a.min_x > w_max_x or mbr_a.max_x < w_min_x
                or mbr_a.min_y > w_max_y or mbr_a.max_y < w_min_y):
            return False
        if (mbr_b.min_x > w_max_x or mbr_b.max_x < w_min_x
                or mbr_b.min_y > w_max_y or mbr_b.max_y < w_min_y):
            return False
        dx = mbr_a.min_x - mbr_b.max_x
        if dx < 0.0:
            dx = mbr_b.min_x - mbr_a.max_x
            if dx < 0.0:
                dx = 0.0
        dy = mbr_a.min_y - mbr_b.max_y
        if dy < 0.0:
            dy = mbr_b.min_y - mbr_a.max_y
            if dy < 0.0:
                dy = 0.0
        return dx * dx + dy * dy <= threshold_sq

    # A node side is expanded once per pair it appears in; the expansion
    # is deterministic and the recorder bookkeeping inside _start_node is
    # idempotent, so repeated expansions of the same (node, base) within
    # this query are served from a memo.
    expand_cache: Dict[Tuple[int, str], List[Tuple]] = {}

    def expand(side: Tuple) -> List[Tuple]:
        cache_key = (side[1], side[2])
        cached = expand_cache.get(cache_key)
        if cached is not None:
            return cached
        node_id, base = cache_key
        sides: List[Tuple] = []
        for owner, element in self._start_node(node_id, base, recorder, policy):
            if isinstance(element, SuperEntry):
                sides.append(("node", owner, element.code, element.mbr))
            elif element.is_leaf_entry:
                sides.append(("object", element.object_id, element.mbr, owner))
            else:
                sides.append(("node", element.child_id, "", element.mbr))
        expand_cache[cache_key] = sides
        return sides

    # Stack entries are (side_a, side_b, prequalified).  Children are
    # only pushed after passing the pair predicate, so re-evaluating it
    # on pop would always succeed — the flag skips that redundant check
    # while `examined` still counts every popped pair, exactly as before.
    def side_alive(side: Tuple) -> bool:
        # Pairs naming since-deleted objects or freed pages (stale
        # client state) are unanswerable; drop them.
        if side[0] == "object":
            return side[1] in self.tree.objects
        return side[1] in self.tree.store

    stack: List[Tuple[Tuple, Tuple, bool]] = []
    for item in frontier:
        sides = [target_to_side(target) for target in item]
        if not all(side_alive(side) for side in sides):
            continue
        if len(sides) == 2:
            stack.append((sides[0], sides[1], False))
        else:
            stack.append((sides[0], sides[0], False))
    seen: Set[Tuple] = set()

    while stack:
        side_a, side_b, prequalified = stack.pop()
        examined += 1
        if not prequalified and not qualifies(side_a, side_b):
            continue
        key_a, key_b = side_key(side_a), side_key(side_b)
        pair_key = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
        if pair_key in seen:
            continue
        seen.add(pair_key)

        a_is_object = side_a[0] == "object"
        b_is_object = side_b[0] == "object"
        if a_is_object and b_is_object:
            if side_a[1] == side_b[1]:
                continue
            for side in (side_a, side_b):
                if side[1] not in results:
                    results[side[1]] = side[3]
            continue
        if not a_is_object:
            children, other = expand(side_a), side_b
        else:
            children, other = expand(side_b), side_a
        # Inline child-vs-other predicate: `other` survived the pair
        # check above, so only the child's window test and the mutual
        # MINDIST remain.
        o_mbr = other[3] if other[0] == "node" else other[2]
        o_min_x, o_min_y = o_mbr.min_x, o_mbr.min_y
        o_max_x, o_max_y = o_mbr.max_x, o_mbr.max_y
        push = stack.append
        for child in children:
            c_mbr = child[3] if child[0] == "node" else child[2]
            if (c_mbr.min_x > w_max_x or c_mbr.max_x < w_min_x
                    or c_mbr.min_y > w_max_y or c_mbr.max_y < w_min_y):
                continue
            dx = c_mbr.min_x - o_max_x
            if dx < 0.0:
                dx = o_min_x - c_mbr.max_x
                if dx < 0.0:
                    dx = 0.0
            dy = c_mbr.min_y - o_max_y
            if dy < 0.0:
                dy = o_min_y - c_mbr.max_y
                if dy < 0.0:
                    dy = 0.0
            if dx * dx + dy * dy <= threshold_sq:
                push((child, other, True))
    return results, examined


def reference_execute_join(self, query: JoinQuery) -> ClientExecution:
    execution = ClientExecution(query=query)
    window = query.window
    threshold = query.threshold
    if not self.root_mbr.intersects(window):
        return execution

    root_side = ("node", self.root_id, self.root_mbr)
    stack: List[Tuple[Tuple, Tuple, bool]] = [(root_side, root_side, False)]
    seen_pairs: Set[Tuple] = set()
    result_pairs: Set[Tuple[int, int]] = set()

    def side_key(side: Tuple) -> Tuple:
        kind = side[0]
        if kind == "node":
            return ("n", side[1])
        if kind == "super":
            return ("s", side[1], side[2])
        return ("o", side[1])

    def side_mbr(side: Tuple) -> Rect:
        return side[-1] if side[0] != "object" else side[2]

    # Same inlining as the server's join predicate: one call per
    # candidate pair, hoisted window coords, squared MINDIST.
    w_min_x, w_min_y = window.min_x, window.min_y
    w_max_x, w_max_y = window.max_x, window.max_y
    threshold_sq = threshold * threshold

    def qualifies(a: Tuple, b: Tuple) -> bool:
        mbr_a = a[2] if a[0] == "object" else a[-1]
        mbr_b = b[2] if b[0] == "object" else b[-1]
        if (mbr_a.min_x > w_max_x or mbr_a.max_x < w_min_x
                or mbr_a.min_y > w_max_y or mbr_a.max_y < w_min_y):
            return False
        if (mbr_b.min_x > w_max_x or mbr_b.max_x < w_min_x
                or mbr_b.min_y > w_max_y or mbr_b.max_y < w_min_y):
            return False
        dx = mbr_a.min_x - mbr_b.max_x
        if dx < 0.0:
            dx = mbr_b.min_x - mbr_a.max_x
            if dx < 0.0:
                dx = 0.0
        dy = mbr_a.min_y - mbr_b.max_y
        if dy < 0.0:
            dy = mbr_b.min_y - mbr_a.max_y
            if dy < 0.0:
                dy = 0.0
        return dx * dx + dy * dy <= threshold_sq

    # Memoised per query: a cached node's side list never changes while
    # the join runs (joins only touch, never insert or evict), but the
    # hit-accounting touch must still land once per expansion, exactly
    # as the unmemoised walk performed it.
    expand_cache: Dict[int, Optional[List[Tuple]]] = {}

    def expand(side: Tuple) -> Optional[List[Tuple]]:
        """Expand a node side into child sides; None when not possible locally."""
        kind = side[0]
        if kind != "node":
            return None
        node_id = side[1]
        if node_id in expand_cache:
            cached = expand_cache[node_id]
            if cached is not None:
                self._touch_node(node_id)
            return cached
        snapshot = self.cache.get_node(node_id)
        if snapshot is None:
            expand_cache[node_id] = None
            return None
        self._touch_node(node_id)
        sides: List[Tuple] = []
        for element in snapshot.entries():
            if element.is_super:
                sides.append(("super", node_id, element.code, element.mbr))
            elif element.is_node_entry:
                sides.append(("node", element.child_id, element.mbr))
            else:
                sides.append(("object", element.object_id, element.mbr, node_id))
        expand_cache[node_id] = sides
        return sides

    def to_target(side: Tuple) -> FrontierTarget:
        kind = side[0]
        if kind == "node":
            return FrontierTarget.for_node(side[1], side[2])
        if kind == "super":
            return FrontierTarget.for_super(side[1], side[2], side[3])
        return FrontierTarget.for_object(side[1], side[2], parent_node_id=side[3],
                                         confirm_only=self.cache.has_object(side[1]))

    def resolvable(side: Tuple) -> bool:
        kind = side[0]
        if kind == "super":
            return False
        if kind == "node":
            return self.cache.has_node(side[1])
        return self.cache.has_object(side[1])

    while stack:
        side_a, side_b, prequalified = stack.pop()
        execution.examined_elements += 1
        if not prequalified and not qualifies(side_a, side_b):
            continue
        key_a, key_b = side_key(side_a), side_key(side_b)
        pair_key = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
        if pair_key in seen_pairs:
            continue
        seen_pairs.add(pair_key)

        # A pair is a missing pair as soon as either entry is missing
        # (Algorithm 1, footnote 3): it goes into the frontier untouched.
        if not (resolvable(side_a) and resolvable(side_b)):
            if side_a[0] == "object" and side_b[0] == "object" and side_a[1] == side_b[1]:
                continue
            execution.frontier.append((to_target(side_a), to_target(side_b)))
            continue

        a_is_object = side_a[0] == "object"
        b_is_object = side_b[0] == "object"
        if a_is_object and b_is_object:
            id_a, id_b = side_a[1], side_b[1]
            if id_a == id_b:
                continue
            cached_a = self.cache.get_object(id_a)
            cached_b = self.cache.get_object(id_b)
            self._touch_object(id_a)
            self._touch_object(id_b)
            result_pairs.add(tuple(sorted((id_a, id_b))))
            execution.saved_objects[id_a] = cached_a
            execution.saved_objects[id_b] = cached_b
            continue

        # Both sides resolvable and at least one is a node: expand one side
        # and pair its children with the other side.
        if not a_is_object:
            expanded, other = expand(side_a), side_b
        else:
            expanded, other = expand(side_b), side_a
        if expanded is None:  # pragma: no cover - defensive (resolvable node)
            execution.frontier.append((to_target(side_a), to_target(side_b)))
            continue
        # Inline child-vs-other predicate (same shape as the server's):
        # `other` already passed the window test as part of this pair.
        o_mbr = other[2] if other[0] == "object" else other[-1]
        o_min_x, o_min_y = o_mbr.min_x, o_mbr.min_y
        o_max_x, o_max_y = o_mbr.max_x, o_mbr.max_y
        push = stack.append
        for child in expanded:
            c_mbr = child[2] if child[0] == "object" else child[-1]
            if (c_mbr.min_x > w_max_x or c_mbr.max_x < w_min_x
                    or c_mbr.min_y > w_max_y or c_mbr.max_y < w_min_y):
                continue
            dx = c_mbr.min_x - o_max_x
            if dx < 0.0:
                dx = o_min_x - c_mbr.max_x
                if dx < 0.0:
                    dx = 0.0
            dy = c_mbr.min_y - o_max_y
            if dy < 0.0:
                dy = o_min_y - c_mbr.max_y
                if dy < 0.0:
                    dy = 0.0
            if dx * dx + dy * dy <= threshold_sq:
                push((child, other, True))
    return execution
