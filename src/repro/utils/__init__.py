"""Shared utilities: geometry and validation helpers.

Process-level parallelism lives in :mod:`repro.runtime` (stage-generic
shards with supervision); the old ``utils.parallel`` chunked-map
helpers it superseded are gone, and timing goes through
:mod:`repro.telemetry`.
"""

from repro.utils.geometry import (
    angle_between,
    cartesian_to_spherical,
    fibonacci_sphere,
    normalize,
    random_unit_vectors,
    rotation_between,
    rotation_matrix,
    spherical_to_cartesian,
)
from repro.utils.validation import (
    check_array,
    check_in_range,
    check_positive,
    check_probability,
    check_shape,
    check_unit_vector,
)

__all__ = [
    "angle_between",
    "cartesian_to_spherical",
    "fibonacci_sphere",
    "normalize",
    "random_unit_vectors",
    "rotation_between",
    "rotation_matrix",
    "spherical_to_cartesian",
    "check_array",
    "check_in_range",
    "check_positive",
    "check_probability",
    "check_shape",
    "check_unit_vector",
]
