"""Fixtures shared across the test modules."""

import numpy as np
import pytest


@pytest.fixture
def eigensolves(monkeypatch):
    """(solver name, copy of the input) for every call of numpy's Hermitian
    eigensolvers, of its SVD, of its QR and of its Cholesky, so that a pinned
    tally cannot hide work moved into another factorization."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "qr", "cholesky"):
        original = getattr(np.linalg, name)

        def counted(h, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.array(h)))
            return _original(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
