"""Stage 3 driver: ROI-atlas connectome over the tracked streamlines.

The tracking stage records the voxel each streamline ended in
(:attr:`~repro.tracking.executor.TrackingRunResult.ends`).  This stage
builds the named parcellation and folds those endpoints into a
symmetric ROI count matrix plus its JSON graph export — the muscip
``generate_connectome(fibers, roi)`` shape: already-tracked fibers
folded over a label volume, with no tracking of its own.
:func:`memoized_connectome` runs it through the artifact store under
the connectome stage hash, so an atlas sweep over one tracked dataset
reuses stages 1-2 and recomputes only this fold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.config.stages import CONNECTOME
from repro.connectome.atlas import Atlas, build_atlas
from repro.connectome.matrix import connectome_graph
from repro.errors import ConfigurationError, TrackingError
from repro.pipeline.memo import run_memoized
from repro.telemetry import get_registry
from repro.utils.voxels import endpoint_voxel_index

__all__ = ["ConnectomeResult", "compute_connectome", "memoized_connectome"]


@dataclass
class ConnectomeResult:
    """Stage-3 output.

    Attributes
    ----------
    atlas:
        The parcellation the matrix is defined over.
    counts:
        ``(n_rois, n_rois)`` symmetric int64 endpoint-pair counts.
    n_streamlines:
        Streamlines that passed the ``min_steps`` filter (all samples).
    graph:
        The JSON-safe graph document (nodes, weighted edges).
    """

    atlas: Atlas
    counts: np.ndarray
    n_streamlines: int
    graph: dict


def _endpoint_pairs(tracking, grid_shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-(sample, seed) endpoint voxel pairs and their step counts.

    A unidirectional run pairs each seed's voxel with the streamline's
    end voxel.  A bidirectional run launched every seed twice (``+``
    sense first, then ``-``), so each (sample, seed) counts once, as the
    pair (forward end, backward end) with the two passes' summed length.
    """
    seeds = np.asarray(tracking.seeds, dtype=np.float64)
    ends, lengths = tracking.run.ends, tracking.run.lengths
    n_seeds = seeds.shape[0]
    if ends.shape[1] == 2 * n_seeds:
        return (
            ends[:, :n_seeds],
            ends[:, n_seeds:],
            lengths[:, :n_seeds] + lengths[:, n_seeds:],
        )
    if ends.shape[1] != n_seeds:
        raise TrackingError(
            f"tracking result has {ends.shape[1]} launches for {n_seeds} "
            "seeds; expected one or two per seed"
        )
    seed_vox = np.broadcast_to(endpoint_voxel_index(seeds, grid_shape), ends.shape)
    return seed_vox, ends, lengths


def compute_connectome(
    tracking,
    grid_shape: tuple[int, int, int],
    atlas_name: str,
    min_steps: int = 0,
    normalize: str = "count",
) -> ConnectomeResult:
    """Fold one tracking result's endpoints into an ROI connectome.

    Parameters
    ----------
    tracking:
        The tracking stage's
        :class:`~repro.tracking.probtrack.ProbtrackResult` (its ``seeds``
        and ``run.ends`` / ``run.lengths``).
    grid_shape:
        The tracked volume's ``(nx, ny, nz)``; the atlas is built over it.
    atlas_name:
        The parcellation (see :func:`~repro.connectome.atlas.build_atlas`).
    min_steps:
        Streamlines with fewer steps are not counted.
    normalize:
        Graph edge weights: ``"count"`` or ``"fraction"``.

    Pure integer arithmetic: a pair ``(a, b)`` with ``a != b`` increments
    both ``[a, b]`` and ``[b, a]``; a self-connection increments the
    diagonal once, so the upper triangle sums to ``n_streamlines``.
    """
    if min_steps < 0:
        raise ConfigurationError(f"min_steps must be >= 0, got {min_steps}")
    grid_shape = tuple(int(s) for s in grid_shape)
    atlas = build_atlas(atlas_name, grid_shape)
    a_vox, b_vox, steps = _endpoint_pairs(tracking, grid_shape)
    keep = steps >= min_steps
    labels = atlas.labels.reshape(-1).astype(np.int64)
    n = atlas.n_rois
    pairs = np.bincount(
        labels[a_vox[keep]] * n + labels[b_vox[keep]], minlength=n * n
    ).reshape(n, n)
    counts = (pairs + pairs.T - np.diag(np.diag(pairs))).astype(np.int64)
    n_counted = int(keep.sum())
    get_registry().count("connectome.streamlines_counted", n_counted)
    graph = connectome_graph(
        counts, atlas, normalize=normalize, n_streamlines=n_counted
    )
    return ConnectomeResult(
        atlas=atlas, counts=counts, n_streamlines=n_counted, graph=graph
    )


def _serialize(tmp_dir, result: ConnectomeResult) -> None:
    """Write one connectome result's payload files into ``tmp_dir``."""
    np.savez_compressed(
        tmp_dir / "connectome.npz",
        counts=result.counts,
        labels=result.atlas.labels,
    )
    (tmp_dir / "graph.json").write_text(
        json.dumps(result.graph, sort_keys=True)
    )


def _rehydrate(entry) -> ConnectomeResult:
    """Rebuild a bit-identical :class:`ConnectomeResult` from an entry."""
    blob = np.load(entry.file("connectome.npz"))
    graph = json.loads(entry.file("graph.json").read_text())
    atlas = Atlas(
        name=graph["atlas"],
        labels=np.ascontiguousarray(blob["labels"]),
        n_rois=int(graph["n_rois"]),
    )
    return ConnectomeResult(
        atlas=atlas,
        counts=blob["counts"],
        n_streamlines=int(graph["n_streamlines"]),
        graph=graph,
    )


def memoized_connectome(
    tracking,
    grid_shape: tuple[int, int, int],
    key: str,
    store,
    atlas_name: str,
    use_cache: bool = True,
    **compute_kwargs,
) -> tuple[ConnectomeResult, bool, object]:
    """Run (or serve) the connectome stage through the artifact store.

    ``key`` is the connectome stage hash (spec subtree + input
    fingerprints); remaining keyword arguments go to
    :func:`compute_connectome`.  Returns ``(result, hit, entry)`` like
    every stage memoizer.
    """
    return run_memoized(
        store,
        CONNECTOME.name,
        key,
        compute=lambda: compute_connectome(
            tracking, grid_shape, atlas_name, **compute_kwargs
        ),
        serialize=_serialize,
        rehydrate=_rehydrate,
        meta=lambda result: {
            "atlas": atlas_name,
            "n_rois": int(result.atlas.n_rois),
            "n_streamlines": int(result.n_streamlines),
        },
        use_cache=use_cache,
    )
