"""Fixtures shared across the test packages."""

import pytest

from repro.solver import highs


@pytest.fixture(scope="class")
def linprog_only():
    """Send every LP through ``scipy.optimize.linprog`` for a test class.

    This is the path every LP takes when the native HiGHS binding is
    unusable (scipy < 1.15).  Class-scoped so hypothesis tests may use
    it; apply with ``@pytest.mark.usefixtures("linprog_only")``.
    """
    saved = highs.BINDING
    highs.BINDING = None
    try:
        yield
    finally:
        highs.BINDING = saved


@pytest.fixture
def lp_backend():
    """The ``SolveStats.backend`` an LP solve reports right now."""
    return "highs" if highs.BINDING is not None else "linprog"
