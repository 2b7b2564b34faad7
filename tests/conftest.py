import pytest
from hypothesis import settings

from polykahan import linalg

# Every run draws the same examples, so a tier-1 result is reproducible.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")

BAREISS = linalg._bareiss_nullspace  # the reference basis for linalg.nullspace


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Count the calls of nullspace's Bareiss path, by their ncols."""
    calls = []

    def counting(mat, ncols):
        calls.append(ncols)
        return BAREISS(mat, ncols)

    monkeypatch.setattr(linalg, "_bareiss_nullspace", counting)
    return calls
