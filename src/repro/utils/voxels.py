"""Flat voxel indexing — the one place the row-major index math lives.

Every consumer of the ``(ix * ny + iy) * nz + iz`` convention (streamline
visit extraction, the batch kernel's visit emission, connectivity rows,
NIfTI volume indexing, the packed-field gather) routes through these
helpers so the convention cannot silently drift between copies.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "flat_voxel_index",
    "in_bounds_mask",
    "clip_to_grid",
    "endpoint_voxel_index",
]


def flat_voxel_index(
    i: np.ndarray, j: np.ndarray, k: np.ndarray, shape3: tuple[int, int, int]
) -> np.ndarray:
    """Row-major flat index for integer voxel coordinates.

    No bounds handling: callers either clip first (:func:`clip_to_grid`)
    or filter with :func:`in_bounds_mask`.  Accepts scalars or arrays.
    """
    _, ny, nz = shape3
    return (i * ny + j) * nz + k


def in_bounds_mask(ijk: np.ndarray, shape3: tuple[int, int, int]) -> np.ndarray:
    """Boolean mask of rows of ``(..., 3)`` integer coords inside the grid."""
    nx, ny, nz = shape3
    i, j, k = ijk[..., 0], ijk[..., 1], ijk[..., 2]
    return (
        (i >= 0) & (i < nx)
        & (j >= 0) & (j < ny)
        & (k >= 0) & (k < nz)
    )


def clip_to_grid(ijk: np.ndarray, shape3: tuple[int, int, int]) -> np.ndarray:
    """Integer coords clamped to the grid (``CLAMP_TO_EDGE`` semantics)."""
    nx, ny, nz = shape3
    return np.clip(ijk, 0, np.array([nx - 1, ny - 1, nz - 1]))


def endpoint_voxel_index(
    points: np.ndarray, shape3: tuple[int, int, int]
) -> np.ndarray:
    """Flat index of the voxel owning each continuous ``(n, 3)`` position.

    The endpoint binning rule shared by the tracker's recorded ends and
    the atlas lookup: round half up (``floor(p + 0.5)``), then clip to
    the grid, so a position exactly on a boundary still maps to the edge
    voxel.  Streamline *visits* use ``rint`` instead, which rounds
    halves to even, so the two rules differ at ``.5``.
    """
    ijk = np.floor(np.asarray(points, dtype=np.float64) + 0.5).astype(np.int64)
    ijk = clip_to_grid(ijk, shape3)
    return flat_voxel_index(ijk[..., 0], ijk[..., 1], ijk[..., 2], shape3)
