"""The benchmark's metrics, computed from a run's ops and spans.

Every timing is a median or a percentile over ops; the one rate,
``ops_per_s``, is ops completed over the run's window.  Per-layer
numbers come from the traced ops only: a layer's ``self_s`` is the
median over traced compute ops of that layer's self time in the op, a
count is the median per op, and a ``*_per_s`` rate is the count summed
over traced compute ops divided by the layer's summed self time.
"""

from __future__ import annotations

import resource

import numpy as np

from e2ebench.spans import op_breakdowns

#: End-to-end metric -> unit: the gated metrics every workload reports.
END_TO_END = {
    "setup_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

#: Whole-op numbers every run also prints, ungated: on this host they
#: did not repeat within a tenth between runs (see README.md), so they
#: are reported without a bound, and as ``run.*`` per-layer metrics.
UNGATED = {
    "op_p50_s": "s",
    "hit_p50_s": "s",
    "ops_per_s": "1/s",
}

#: Layers whose self time the traced run reports, in report order.
LAYERS = ("mcmc", "tracking", "connectome", "store", "pipeline", "service")

#: Per-layer metric -> unit.  Every workload reports all of them; a
#: layer a workload bypasses reads 0.
PER_LAYER = {
    **{f"run.{name}": unit for name, unit in UNGATED.items()},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "mcmc.voxels": "count",
    "tracking.steps": "count",
    "tracking.steps_per_s": "1/s",
    "connectome.streamlines": "count",
    "connectome.streamlines_per_s": "1/s",
    "store.lookup_s": "s",
    "store.publish_s": "s",
    "store.hits": "count",
    "store.hit_ratio": "ratio",
    "store.bytes_written": "bytes",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.handoff_s": "s",
    "service.result_s": "s",
    "service.cache_hits": "count",
    "service.coalesced": "count",
    "service.rejected": "count",
    "trace.op_p50_s": "s",
    "trace.untraced_op_p50_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.ops": "count",
    "trace.max_residual_s": "s",
}

#: Largest per-op |wall - sum of self times - remainder| accepted.
RECONCILE_TOLERANCE_S = 1e-6


def median(values) -> float:
    """Median of ``values``; 0 for an empty list."""
    return float(np.median(values)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def whole_op(ops, setup_times, window_s, tail_percentile) -> dict:
    """``name -> (value, unit, detail)`` for the end-to-end and ungated metrics.

    Failed ops are counted by the caller and left out of every timing.
    """
    ops = [op for op in ops if op.error is None]
    compute = [op.seconds for op in ops if op.kind == "compute"]
    hits = [op.seconds for op in ops if op.kind == "hit"]
    tail = float(np.percentile(compute, tail_percentile)) if compute else 0.0
    values = {
        "setup_s": (median(setup_times), f"median of {len(setup_times)} cold set-ups"),
        "op_p50_s": (median(compute), f"n={len(compute)} compute ops"),
        "op_tail_s": (tail, f"p{tail_percentile} of n={len(compute)} compute ops"),
        "hit_p50_s": (median(hits), f"n={len(hits)} hit ops"),
        "ops_per_s": (
            len(ops) / window_s if window_s > 0 else 0.0,
            f"{len(ops)} ops in {window_s:.2f} s",
        ),
        "peak_rss_mb": (peak_rss_mb(), "this process"),
    }
    units = {**END_TO_END, **UNGATED}
    return {name: (v, units[name], d) for name, (v, d) in values.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(spans, ops, counters: dict, measured: dict) -> tuple[dict, list[dict]]:
    """``(name -> (value, unit, detail), breakdowns)`` of a traced run.

    ``measured`` is the run's :func:`whole_op` result; its ungated
    numbers are reported as ``run.*``.
    """
    breakdowns = op_breakdowns(spans)
    compute = [b for b in breakdowns if b["kind"] == "compute"]

    def layer_self(layer):
        return [b["layers"].get(layer, 0.0) for b in compute]

    def count(key):
        return [b["attrs"].get("counts", {}).get(key, 0) for b in compute]

    def span_seconds(name):
        return [s.seconds for b in breakdowns for s in b["spans"] if s.name == name]

    traced = [op.seconds for op in ops if op.kind == "compute" and op.traced]
    untraced = [op.seconds for op in ops if op.kind == "compute" and not op.traced]
    n = len(compute)
    values = {
        **{f"run.{name}": (measured[name][0], measured[name][2]) for name in UNGATED},
        **{f"{layer}.self_s": (median(layer_self(layer)), f"median of {n} ops")
           for layer in LAYERS},
        "mcmc.voxels": (median(count("mcmc.voxels")), "per op"),
        "tracking.steps": (median(count("tracking.steps")), "per op"),
        "tracking.steps_per_s": (
            _ratio(sum(count("tracking.steps")), sum(layer_self("tracking"))),
            "steps / tracking self time",
        ),
        "connectome.streamlines": (median(count("connectome.streamlines")), "per op"),
        "connectome.streamlines_per_s": (
            _ratio(sum(count("connectome.streamlines")), sum(layer_self("connectome"))),
            "streamlines / connectome self time",
        ),
        "store.lookup_s": (median(count("store.lookup_s")), "per op"),
        "store.publish_s": (median(count("store.publish_s")), "per op"),
        "store.hits": (median(count("store.hits")), "per op"),
        "store.hit_ratio": (
            _ratio(sum(count("store.hits")), sum(count("store.lookups"))),
            f"{sum(count('store.hits'))} hits / {sum(count('store.lookups'))} lookups",
        ),
        "store.bytes_written": (median(count("store.bytes_written")), "per op"),
        "service.submit_s": (median(span_seconds("service.submit")), "all traced ops"),
        "service.queue_wait_s": (
            median([b["attrs"].get("queue_wait", 0.0) for b in compute]),
            "started_s - created_s",
        ),
        "service.handoff_s": (
            median([b["attrs"].get("handoff", 0.0) for b in compute]),
            "job run - child stage walls",
        ),
        "service.result_s": (median(span_seconds("service.result")), "all traced ops"),
        **{name: (counters[name], "all ops") for name in
           ("service.cache_hits", "service.coalesced", "service.rejected")},
        "trace.op_p50_s": (median(traced), f"n={len(traced)} traced compute ops"),
        "trace.untraced_op_p50_s": (
            median(untraced), f"n={len(untraced)} untraced compute ops"
        ),
        "trace.overhead_s": (median(traced) - median(untraced), "traced - untraced p50"),
        "trace.unattributed_s": (
            median([b["unattributed"] for b in compute]), "median per op"
        ),
        "trace.ops": (len(breakdowns), "traced ops, hits included"),
        "trace.max_residual_s": (
            max((abs(b["residual"]) for b in breakdowns), default=0.0),
            "max |wall - self times - remainder|",
        ),
    }
    return {name: (v, PER_LAYER[name], d) for name, (v, d) in values.items()}, breakdowns
