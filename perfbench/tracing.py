"""Spans and counts at the layer boundaries, recorded from outside ``src/``.

The traced run wraps the public calls into each layer of the program (the
layer names are the repository's module names, see :data:`BOUNDARIES`)
with a span: name, start, end and the span that caused it.  Spans of one
request share a request id.  A span's *self* time is its duration minus
the time its child spans cover; counts are taken at the same boundaries,
from the arguments and results of the wrapped call.

Spans nest per thread.  A span opened on a thread with no open span (the
network server's event-loop thread) is parented to the in-flight client
request, so with one request in flight the server-side work nests under
the client call that caused it.  Such a cross-thread child also records
how long it waited since its parent last handed work off (transport and
queueing time).

Wrapping is installed for the traced rounds only and removed afterwards:
:class:`Patches` swaps the attributes and restores the originals, so the
untraced rounds run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Clock = Callable[[], float]


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("name", "kind", "start", "end", "parent", "request",
                 "thread", "child_s", "last_child_end", "wait_s")

    def __init__(self, name: str, kind: Optional[str], start: float,
                 parent: Optional["Span"], request: int, thread: int) -> None:
        self.name = name
        self.kind = kind
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        #: Seconds of this span's interval covered by its child spans.
        self.child_s = 0.0
        #: End of the latest child closed so far (hand-off point).
        self.last_child_end = start
        #: Seconds a cross-thread span waited after its parent's hand-off.
        self.wait_s = 0.0

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part covered by child spans."""
        return max(0.0, self.duration - self.child_s)


class LayerStats:
    """Calls, busy, self and wait seconds of one (span name, kind)."""

    __slots__ = ("calls", "busy_s", "self_s", "wait_s")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.wait_s = 0.0


class Tracer:
    """Collects spans and counts for one traced round."""

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = 0
        #: The open client request other threads' spans nest under.
        self.inflight: Optional[Span] = None
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        """Forget the spans and counts of the previous round."""
        self.spans = []
        self.counts = defaultdict(float)
        self.inflight = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, kind: Optional[str] = None) -> Span:
        """Start a span under the thread's open span (or the in-flight one)."""
        stack = self._stack()
        parent = stack[-1] if stack else self.inflight
        now = self.clock()
        if parent is not None:
            request = parent.request
        else:
            with self._lock:
                self._requests += 1
                request = self._requests
        span = Span(name, kind, now, parent, request, threading.get_ident())
        if not stack and parent is not None:
            span.wait_s = max(0.0, now - parent.last_child_end)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """End ``span`` and charge its duration to its parent."""
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        parent = span.parent
        if parent is not None:
            with self._lock:
                parent.child_s += span.duration
                parent.last_child_end = max(parent.last_child_end, span.end)
        self.spans.append(span)

    def count(self, key: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a boundary counter."""
        with self._lock:
            self.counts[key] += amount

    def aggregate(self) -> Dict[Tuple[str, Optional[str]], LayerStats]:
        """Per (name, kind) totals over the round's spans.

        Every span is also added under ``(name, None)`` so a layer's total
        is available next to its per-kind split.
        """
        table: Dict[Tuple[str, Optional[str]], LayerStats] = defaultdict(
            LayerStats)
        for span in self.spans:
            keys = [(span.name, None)]
            if span.kind is not None:
                keys.append((span.name, span.kind))
            for key in keys:
                stats = table[key]
                stats.calls += 1
                stats.busy_s += span.duration
                stats.self_s += span.self_s
                stats.wait_s += span.wait_s
        return table


def traced(tracer: Tracer, name: str, original: Callable[..., Any],
           kind_of: Optional[Callable[[tuple], Optional[str]]] = None,
           after: Optional[Callable[[Tracer, tuple, Any], None]] = None,
           inflight: bool = False) -> Callable[..., Any]:
    """Wrap ``original`` in a span named ``name``.

    ``kind_of(args)`` labels the span (for example by query type);
    ``after(tracer, args, result)`` takes counts from the call's result;
    ``inflight`` marks the span as the request other threads nest under.
    """

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.open(name, kind_of(args) if kind_of else None)
        if inflight:
            tracer.inflight = span
        try:
            result = original(*args, **kwargs)
        finally:
            if inflight:
                tracer.inflight = None
            tracer.close(span)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


class Patches:
    """Attribute swaps that install the tracing wrappers, and their undo."""

    #: Module prefixes searched for name bindings of a wrapped function.
    PREFIXES = ("repro", "perfbench")

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def method(self, owner: object, attr: str,
               make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``owner.attr`` (a class attribute) with ``make(original)``."""
        original = owner.__dict__[attr]  # type: ignore[attr-defined]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def function(self, module: str, attr: str,
                 make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace a module function everywhere it is bound by name.

        Modules that imported the function with ``from ... import`` hold
        their own reference, so every loaded ``repro``/``perfbench`` module
        binding the same object is rebound to one shared wrapper.
        """
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith(self.PREFIXES):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def undo(self) -> None:
        """Restore every swapped attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# the boundaries: one entry per wrapped public call
# --------------------------------------------------------------------------- #
def _query_kind(args: tuple) -> Optional[str]:
    return args[1].query_type.value


def _after_server(tracer: Tracer, args: tuple, response: Any) -> None:
    tracer.count("core.server.pages", response.accessed_node_count)
    tracer.count("core.server.snapshot_elements",
                 sum(len(snapshot.elements)
                     for snapshot in response.index_snapshots))
    tracer.count("core.server.deliveries", len(response.deliveries))


def _after_client(tracer: Tracer, args: tuple, execution: Any) -> None:
    tracer.count("core.client.complete", 1.0 if execution.complete else 0.0)


def _after_sync(tracer: Tracer, args: tuple, report: Any) -> None:
    tracer.count("updates.sync.refreshed_items", report.refreshed_items)
    tracer.count("updates.sync.invalidated_items", report.dropped_items)
    tracer.count("updates.sync.bytes",
                 report.uplink_bytes + report.downlink_bytes)


def _after_apply(tracer: Tracer, args: tuple, applied: Any) -> None:
    tracer.count("updates.apply.applied", 1.0 if applied else 0.0)


#: ``(kind, owner, attribute, span name, extras)``: ``kind`` is ``method``
#: (owner is ``module:Class``) or ``function`` (owner is a module).
BOUNDARIES: Tuple[Tuple[str, str, str, str, Dict[str, Any]], ...] = (
    # setup
    ("function", "repro.sim.runner", "build_tree", "setup.tree", {}),
    ("function", "repro.sharding.state", "dataset_records", "setup.tree", {}),
    ("function", "repro.sharding.shard", "build_shards", "setup.tree", {}),
    ("function", "repro.rtree.partition_tree", "build_partition_trees",
     "setup.partition_trees", {}),
    ("function", "repro.sim.runner", "generate_trace", "setup.traces", {}),
    ("function", "perfbench.workloads", "hotspot_queries", "setup.traces", {}),
    ("function", "repro.sharding.state", "build_sharded_state",
     "setup.shards", {}),
    ("function", "repro.storage.paged", "save_tree", "setup.store", {}),
    ("function", "repro.storage.paged", "load_tree", "setup.store", {}),
    # core
    ("method", "repro.core.client:ClientQueryProcessor", "execute",
     "core.client", {"after": _after_client}),
    ("method", "repro.core.cache:ProactiveCache", "insert_node_snapshot",
     "core.cache.insert", {}),
    ("method", "repro.core.cache:ProactiveCache", "insert_object",
     "core.cache.insert", {}),
    ("method", "repro.core.cache:ProactiveCache", "evict",
     "core.cache.evict", {}),
    ("method", "repro.core.server:ServerQueryProcessor", "execute",
     "core.server", {"kind_of": _query_kind, "after": _after_server}),
    # Snapshot building has no public entry point of its own; this one
    # private boundary splits it out of the server's execute span.
    ("method", "repro.core.server:ServerQueryProcessor", "_build_snapshots",
     "core.server.snapshot", {}),
    # sharding
    ("method", "repro.sharding.router:ShardRouter", "execute",
     "sharding.router", {}),
    # updates
    ("method", "repro.updates.protocol:VersionedProtocol", "sync",
     "updates.sync", {"after": _after_sync}),
    ("method", "repro.updates.protocol:TTLProtocol", "sync",
     "updates.sync", {"after": _after_sync}),
    ("method", "repro.updates.applier:DatasetUpdater", "apply",
     "updates.apply", {"after": _after_apply}),
    ("method", "repro.sharding.updater:ShardedUpdater", "apply",
     "updates.apply", {"after": _after_apply}),
    # storage
    ("method", "repro.storage.paged:PagedFileBackend", "commit_record",
     "storage.wal", {}),
    # net
    ("method", "repro.net.client:RemoteSessionClient", "execute",
     "net.client", {"inflight": True}),
    ("function", "repro.net.codec", "encode_query_request", "net.codec", {}),
    ("function", "repro.net.codec", "decode_query_request", "net.codec", {}),
    ("function", "repro.net.codec", "encode_response", "net.codec", {}),
    ("function", "repro.net.codec", "decode_response", "net.codec", {}),
)


def install(tracer: Tracer) -> Patches:
    """Wrap every boundary in :data:`BOUNDARIES`; undo with ``.undo()``."""
    import importlib

    patches = Patches()
    for kind, owner, attr, name, extras in BOUNDARIES:
        make = functools.partial(_make_wrapper, tracer, name, extras)
        if kind == "method":
            module_name, class_name = owner.split(":")
            cls = getattr(importlib.import_module(module_name), class_name)
            patches.method(cls, attr, make)
        else:
            importlib.import_module(owner)
            patches.function(owner, attr, make)
    return patches


def _make_wrapper(tracer: Tracer, name: str, extras: Dict[str, Any],
                  original: Callable[..., Any]) -> Callable[..., Any]:
    return traced(tracer, name, original, **extras)
