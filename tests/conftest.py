import numpy as np
import pytest
import scipy.linalg


@pytest.fixture
def pinned_logm(monkeypatch):
    """Make ``scipy.linalg.logm`` return one result per input matrix.

    SciPy's ``logm`` is not bit-reproducible: on about 1% of sampled
    GL(3) and SL(3) elements, identical calls differ in the last bit.
    Tests that compare two evaluation paths bit for bit pin it, so they
    test the paths and not SciPy.
    """
    logm = scipy.linalg.logm
    results = {}

    def pinned(matrix):
        key = np.ascontiguousarray(matrix).tobytes()
        if key not in results:
            results[key] = logm(matrix)
        return results[key].copy()

    monkeypatch.setattr(scipy.linalg, "logm", pinned)
