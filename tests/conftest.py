import numpy as np
import pytest


@pytest.fixture
def make_window():
    """A (tau, C) window from a values array (1-D becomes a single channel)."""

    def _make(values):
        values = np.asarray(values, dtype=float)
        return values[:, None] if values.ndim == 1 else values

    return _make
