"""The remainder query ``Qr = {Q, H}`` shipped from client to server."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro._compat import DATACLASS_SLOTS
from repro.core.items import FrontierTarget
from repro.rtree.sizes import SizeModel
from repro.workload.queries import Query


FrontierItem = Tuple[FrontierTarget, ...]


def near(sides: Sequence[Tuple], other: Tuple, threshold_sq: float) -> List[Tuple]:
    """The join sides within the threshold distance of ``other``.

    Both join kernels (server and client) hold a side as a flat tuple with
    its MBR's ``min_x, min_y, max_x, max_y`` at positions 3 to 6; a side is
    kept when the squared MINDIST of the two MBRs is at most
    ``threshold_sq``.
    """
    o_min_x, o_min_y, o_max_x, o_max_y = other[3:7]
    kept = []
    for side in sides:
        dx = side[3] - o_max_x
        if dx < 0.0:
            dx = o_min_x - side[5]
            if dx < 0.0:
                dx = 0.0
        dy = side[4] - o_max_y
        if dy < 0.0:
            dy = o_min_y - side[6]
            if dy < 0.0:
                dy = 0.0
        if dx * dx + dy * dy <= threshold_sq:
            kept.append(side)
    return kept


@dataclass(**DATACLASS_SLOTS)
class RemainderQuery:
    """The execution state handed over to the server (paper Section 3.3).

    ``frontier`` holds the missing entries of the client's priority queue: a
    tuple of one target per item for range / kNN queries and a pair of
    targets for join queries.  ``k_remaining`` carries the ``k − m`` of a
    partially answered kNN query.
    """

    query: Query
    frontier: List[FrontierItem] = field(default_factory=list)
    k_remaining: Optional[int] = None
    reported_fmr: Optional[float] = None

    @property
    def is_empty(self) -> bool:
        """True when nothing needs to be asked of the server."""
        return not self.frontier and self.k_remaining in (None, 0)

    def target_count(self) -> int:
        """Number of frontier targets (pairs count twice)."""
        return sum(len(item) for item in self.frontier)

    def size_bytes(self, size_model: SizeModel) -> int:
        """Uplink footprint: the query descriptor plus the shipped frontier."""
        total = self.query.descriptor_bytes(size_model)
        total += self.target_count() * size_model.frontier_entry_bytes()
        if self.k_remaining is not None:
            total += size_model.coordinate_bytes
        if self.reported_fmr is not None:
            total += size_model.coordinate_bytes
        return total
