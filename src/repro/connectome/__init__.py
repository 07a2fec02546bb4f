"""Connectome workloads: ROI atlases, endpoint matrices, graph export.

The third pipeline stage (see :data:`repro.config.stages.CONNECTOME`):
parcellate the tracked volume with a named atlas, map every streamline's
endpoint pair onto ROI labels, and accumulate a symmetric connectivity
matrix plus its JSON graph export.  The fold over the tracking stage's
recorded end voxels is memoized and orchestrated by
:mod:`repro.pipeline.connectome`; :func:`endpoint_connectome` is the
same count over explicit streamline geometry.
"""

from repro.connectome.atlas import Atlas, build_atlas
from repro.connectome.matrix import connectome_graph, endpoint_connectome

__all__ = [
    "Atlas",
    "build_atlas",
    "endpoint_connectome",
    "connectome_graph",
]
