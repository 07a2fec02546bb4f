"""Unit tests for repro.utils.validation helpers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError, ReproError
from repro.utils import (
    check_array,
    check_in_range,
    check_positive,
    check_probability,
    check_shape,
    check_unit_vector,
)


class TestChecks:
    def test_check_positive_accepts(self):
        assert check_positive("x", 1.5) == 1.5
        assert check_positive("x", 0.0, strict=False) == 0.0

    def test_check_positive_rejects(self):
        with pytest.raises(ConfigurationError, match="x"):
            check_positive("x", 0.0)
        with pytest.raises(ConfigurationError):
            check_positive("x", -1.0, strict=False)

    def test_check_in_range(self):
        assert check_in_range("y", 0.5, 0, 1) == 0.5
        assert check_in_range("y", 0.0, 0, 1) == 0.0
        with pytest.raises(ConfigurationError, match="y"):
            check_in_range("y", 0.0, 0, 1, inclusive=False)
        with pytest.raises(ConfigurationError):
            check_in_range("y", 2.0, 0, 1)

    def test_check_probability(self):
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.01)

    def test_check_array_ndim(self):
        arr = check_array("a", [[1.0, 2.0]], ndim=2)
        assert arr.shape == (1, 2)
        with pytest.raises(DataError, match="ndim"):
            check_array("a", [1.0], ndim=2)

    def test_check_array_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            check_array("a", [np.nan], finite=True)

    def test_check_array_dtype_cast(self):
        arr = check_array("a", [1, 2], dtype=np.float64)
        assert arr.dtype == np.float64

    def test_check_shape_wildcards(self):
        arr = check_shape("s", np.zeros((4, 3)), (None, 3))
        assert arr.shape == (4, 3)
        with pytest.raises(DataError):
            check_shape("s", np.zeros((4, 2)), (None, 3))
        with pytest.raises(DataError):
            check_shape("s", np.zeros(4), (None, 3))

    def test_check_unit_vector(self):
        check_unit_vector("v", np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(DataError, match="unit"):
            check_unit_vector("v", np.array([[0.0, 0.0, 2.0]]))
        with pytest.raises(DataError):
            check_unit_vector("v", np.array([[0.0, 1.0]]))

    def test_errors_share_base(self):
        assert issubclass(ConfigurationError, ReproError)
        assert issubclass(DataError, ReproError)
        # Library errors remain catchable as stdlib categories too.
        assert issubclass(ConfigurationError, ValueError)

