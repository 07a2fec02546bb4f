"""Named ROI parcellations over the tracked volume's voxel grid.

The connectome stage needs a parcellation — a label per voxel — to map
streamline endpoints onto graph nodes.  Real studies load a subject
atlas volume; the phantom pipeline builds deterministic geometric ones
from a name so the whole stage stays content-addressable: the atlas
*name* participates in the stage hash (``connectome.atlas``), and the
label volume is a pure function of name + grid shape.

Names (validated by :data:`repro.config.spec.ATLAS_NAME_RE`):

``octant``
    2 x 2 x 2 midpoint split — 8 ROIs, the classic hemisphere/lobe toy.
``slabs<k>``
    ``k`` equal-width slabs along the x axis.
``grid<k>``
    ``k^3`` cells, ``k`` per axis.

Every builder covers the full grid (no background label), so every
in-bounds endpoint maps to a node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.spec import ATLAS_NAME_RE
from repro.errors import ConfigurationError
from repro.utils.voxels import endpoint_voxel_index

__all__ = ["Atlas", "build_atlas"]


@dataclass(frozen=True)
class Atlas:
    """One parcellation: a dense int32 label volume plus its node count.

    ``labels[x, y, z]`` is the ROI index in ``[0, n_rois)`` owning that
    voxel; ROI indices are the connectome matrix's row/column ids.
    """

    name: str
    labels: np.ndarray
    n_rois: int

    def roi_sizes(self) -> np.ndarray:
        """Voxels per ROI, ``(n_rois,)`` int64."""
        return np.bincount(self.labels.ravel(), minlength=self.n_rois).astype(
            np.int64
        )

    def label_at(self, points: np.ndarray) -> np.ndarray:
        """ROI index under each continuous voxel coordinate, ``(n,)``.

        Points are binned by :func:`~repro.utils.voxels.endpoint_voxel_index`
        (round half up, clipped to the grid), so an endpoint that stopped
        exactly on the boundary still maps to the edge ROI instead of
        falling off the atlas.  This is the endpoint rule, not the
        tracker's visit rule (``rint``, halves to even).
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ConfigurationError(f"points must be (n, 3), got {pts.shape}")
        return self.labels.reshape(-1)[endpoint_voxel_index(pts, self.labels.shape)]


def _axis_bins(extent: int, k: int) -> np.ndarray:
    """Cell index along one axis: ``extent`` voxels into ``k`` equal bins."""
    edges = np.linspace(0, extent, k + 1)
    return np.clip(np.searchsorted(edges, np.arange(extent), "right") - 1, 0, k - 1)


def _grid_labels(shape: tuple[int, int, int], kx: int, ky: int, kz: int) -> np.ndarray:
    """Dense labels for a ``kx x ky x kz`` axis-aligned cell split."""
    bx = _axis_bins(shape[0], kx)
    by = _axis_bins(shape[1], ky)
    bz = _axis_bins(shape[2], kz)
    labels = (
        bx[:, None, None] * (ky * kz) + by[None, :, None] * kz + bz[None, None, :]
    )
    return np.ascontiguousarray(labels, dtype=np.int32)


def build_atlas(name: str, shape: tuple[int, int, int]) -> Atlas:
    """Build the named parcellation over a ``(nx, ny, nz)`` voxel grid.

    Deterministic: same name + shape always yields the identical label
    volume, which is what lets the stage hash carry only the name.

    Raises
    ------
    ConfigurationError
        On ``"none"`` (the disabled sentinel is not a buildable atlas),
        an unknown name, or a parcellation finer than the grid.
    """
    if not isinstance(name, str) or not ATLAS_NAME_RE.match(name):
        raise ConfigurationError(
            f"unknown atlas {name!r}: expected 'octant', 'slabs<k>', or 'grid<k>'"
        )
    if name == "none":
        raise ConfigurationError(
            "atlas 'none' disables the connectome stage; nothing to build"
        )
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or any(s < 1 for s in shape):
        raise ConfigurationError(f"atlas grid shape must be 3 positive dims, got {shape}")
    if name == "octant":
        kx = ky = kz = 2
    elif name.startswith("slabs"):
        kx, ky, kz = int(name[len("slabs"):]), 1, 1
    else:
        kx = ky = kz = int(name[len("grid"):])
    if kx > shape[0] or ky > shape[1] or kz > shape[2]:
        raise ConfigurationError(
            f"atlas {name!r} needs at least ({kx}, {ky}, {kz}) voxels, "
            f"grid is {shape}"
        )
    return Atlas(name=name, labels=_grid_labels(shape, kx, ky, kz), n_rois=kx * ky * kz)
