"""Correctness checks the benchmark applies to every op and every run.

Each check raises :class:`CheckFailed` with a reason; the workloads
catch it per op, so a wrong output is counted as a failed op (never as
a fast one) and the run continues.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry import deterministic_sections

STAGES = ("sampling", "tracking", "connectome")


class CheckFailed(Exception):
    """An op's or a run's output is wrong."""


def require(condition: bool, reason: str) -> None:
    """Raise :class:`CheckFailed` with ``reason`` unless ``condition``."""
    if not condition:
        raise CheckFailed(reason)


def check_connectome(conn) -> None:
    """A symmetric int64 count matrix whose upper triangle sums to the
    number of counted streamlines."""
    counts = conn.counts
    require(
        isinstance(counts, np.ndarray)
        and counts.ndim == 2
        and counts.shape[0] == counts.shape[1],
        f"counts is not a square matrix: {getattr(counts, 'shape', None)}",
    )
    require(counts.dtype == np.int64, f"counts dtype {counts.dtype} != int64")
    require(np.array_equal(counts, counts.T), "counts matrix is not symmetric")
    upper = int(np.triu(counts).sum())
    require(
        upper == conn.n_streamlines,
        f"upper-triangle sum {upper} != n_streamlines {conn.n_streamlines}",
    )


def check_hits(cache: dict, expected: dict[str, bool]) -> None:
    """Each named stage was (or was not) served from the store.

    ``cache`` is a run's cache section (``WorkflowResult.cache`` or a
    manifest's ``cache``).
    """
    for stage, hit in expected.items():
        got = cache.get(f"{stage}_hit")
        require(got is hit, f"{stage}: expected store {'hit' if hit else 'miss'}, got {got}")


def check_store_entries(store, expected: dict[str, int]) -> None:
    """The store holds exactly ``expected[stage]`` entries per stage."""
    held: dict[str, int] = {}
    for row in store.ls():
        held[row["stage"]] = held.get(row["stage"], 0) + 1
    for stage, n in expected.items():
        require(
            held.get(stage, 0) == n,
            f"store holds {held.get(stage, 0)} {stage} entries, expected {n}",
        )


def check_same_manifest(first: dict, again: dict, what: str) -> None:
    """Two manifests agree on their deterministic sections."""
    require(
        deterministic_sections(first) == deterministic_sections(again),
        f"{what}: deterministic manifest sections differ",
    )
