"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from varorder import linalg, states, structure


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the matrices handed to ``varorder.linalg._eigh``, from every module
    that calls it."""
    calls = []
    eigh = linalg._eigh

    def counted(matrix):
        calls.append(np.shape(matrix))
        return eigh(matrix)

    for module in (linalg, states, structure):
        monkeypatch.setattr(module, "_eigh", counted)
    return calls
