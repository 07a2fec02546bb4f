"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, around the public call
into each layer of the program: the module attributes the program's
callers actually resolve are swapped for timing wrappers while a traced
op runs (:func:`patched`), and restored afterwards, so untraced ops run
the program's code unchanged.  Each span records its name, layer, start,
end, parent and op id.  A layer's self time is its spans' durations
minus the part of each span its child spans cover; whatever the op's
root span does not hand to a child is the op's un-attributed remainder.

A stage call the artifact store served (its result says so) is charged
to the ``store`` layer in full, not to the stage's own layer: on a hit
the stage did no computing, only a lookup and a read.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Layer of an op's root span: time no layer call covers.
UNATTRIBUTED = "unattributed"


@dataclass
class Span:
    """One timed interval (``time.perf_counter`` seconds)."""

    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    attrs: dict = field(default_factory=dict)
    #: Position in :attr:`Tracer.spans`.
    index: int = -1

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; thread-safe, one stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pid = os.getpid()
        #: ``time.time() - time.perf_counter()``: places the service's
        #: POSIX job timestamps on the span clock.
        self.wall_offset = time.time() - time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_op(self) -> bool:
        """Whether this thread (of the tracing process) is inside an op."""
        return os.getpid() == self.pid and bool(self._stack())

    def _append(self, rec: Span) -> int:
        with self._lock:
            rec.index = len(self.spans)
            self.spans.append(rec)
            return rec.index

    @contextmanager
    def span(self, name: str, layer: str, op: int | None = None, **attrs):
        """Time the enclosed block as a child of this thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        rec = Span(name, layer, time.perf_counter(), parent=parent, op=op, attrs=attrs)
        stack.append(self._append(rec))
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, layer: str, start: float, end: float, parent: Span) -> Span:
        """Record an interval measured elsewhere (clipped to ``parent``)."""
        start = min(max(start, parent.start), parent.end)
        end = min(max(end, start), parent.end)
        rec = Span(name, layer, start, end, parent=parent.index, op=parent.op)
        self._append(rec)
        return rec

    def records(self) -> list[dict]:
        """The spans as JSON-safe dicts (the traced run's output file)."""
        return [
            {
                "name": s.name,
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def op_breakdowns(spans: list[Span]) -> list[dict]:
    """Per op (root span): wall, per-layer self time and span attributes.

    Returns one dict per root span: ``op``, ``kind`` and ``attrs`` (the
    root's ``kind`` attribute and all its attributes), ``wall``, ``layers`` (layer -> self seconds),
    ``unattributed`` (the root's own self time), ``residual`` (wall minus
    the self times; zero when every child lies inside its parent and
    siblings do not overlap) and ``spans`` (the op's spans).
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)

    def self_time(i: int) -> float:
        s = spans[i]
        covered = _union_length(
            [
                (max(spans[c].start, s.start), min(spans[c].end, s.end))
                for c in children[i]
                if spans[c].end > s.start and spans[c].start < s.end
            ]
        )
        return s.seconds - covered

    out = []
    for root, rs in enumerate(spans):
        if rs.parent is not None:
            continue
        layers: dict[str, float] = defaultdict(float)
        members = []
        todo = [root]
        while todo:
            i = todo.pop()
            members.append(spans[i])
            todo.extend(children[i])
            if i != root:
                layers[spans[i].layer] += self_time(i)
        unattributed = self_time(root)
        out.append(
            {
                "op": rs.op,
                "kind": rs.attrs.get("kind"),
                "attrs": rs.attrs,
                "wall": rs.seconds,
                "layers": dict(layers),
                "unattributed": unattributed,
                "residual": rs.seconds - unattributed - sum(layers.values()),
                "spans": members,
            }
        )
    return out


# -- wrapping the program's layer calls ---------------------------------------


def _bedpost_hit(result) -> bool:
    return bool(result.served_from_store)


def _memo_hit(out) -> bool:
    return bool(out[1])


def _observe_bedpost(rec, result) -> None:
    if not result.served_from_store:
        rec.attrs["voxels"] = int(result.n_voxels)


def _observe_tracking(rec, result) -> None:
    rec.attrs["steps"] = int(result.run.total_steps)


def _observe_connectome(rec, result) -> None:
    rec.attrs["streamlines"] = int(result.n_streamlines)


def _observe_lookup(rec, entry) -> None:
    rec.attrs["hit"] = entry is not None


def _observe_publish(rec, entry) -> None:
    rec.attrs["bytes"] = int(entry.total_bytes)


#: (module, attribute, span name, layer, served-from-store test, observer).
#: The attribute is the one the program's callers resolve at call time:
#: ``runners`` imported ``bedpost`` by name; ``memo`` imported
#: ``probabilistic_streamlining`` by name; the stage runners import the
#: memoizers and ``memoized_connectome`` looks up ``compute_connectome``
#: in its own module when it runs.
LAYER_CALLS = (
    ("repro.pipeline.runners", "bedpost", "mcmc.bedpost", "mcmc",
     _bedpost_hit, _observe_bedpost),
    ("repro.pipeline.memo", "memoized_streamlining",
     "tracking.memoized_streamlining", "tracking", _memo_hit, None),
    ("repro.pipeline.memo", "probabilistic_streamlining",
     "tracking.probabilistic_streamlining", "tracking", None, _observe_tracking),
    ("repro.pipeline.connectome", "memoized_connectome",
     "connectome.memoized_connectome", "connectome", _memo_hit, None),
    ("repro.pipeline.connectome", "compute_connectome",
     "connectome.compute_connectome", "connectome", None, _observe_connectome),
    ("repro.store.artifact_store:ArtifactStore", "lookup", "store.lookup",
     "store", None, _observe_lookup),
    ("repro.store.artifact_store:ArtifactStore", "publish", "store.publish",
     "store", None, _observe_publish),
)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrap(tracer: Tracer, fn, name: str, layer: str, served, observe):
    def wrapper(*args, **kwargs):
        if not tracer.in_op():
            return fn(*args, **kwargs)
        with tracer.span(name, layer) as rec:
            out = fn(*args, **kwargs)
        if served is not None and served(out):
            rec.layer = "store"
        if observe is not None:
            observe(rec, out)
        return out

    return wrapper


@contextmanager
def patched(tracer: Tracer):
    """Swap every :data:`LAYER_CALLS` attribute for a timing wrapper."""
    originals = []
    try:
        for target, attr, name, layer, served, observe in LAYER_CALLS:
            obj = _resolve(target)
            fn = getattr(obj, attr)
            originals.append((obj, attr, fn))
            setattr(obj, attr, _wrap(tracer, fn, name, layer, served, observe))
        yield
    finally:
        for obj, attr, fn in reversed(originals):
            setattr(obj, attr, fn)
