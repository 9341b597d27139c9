import sys

import numpy as np
import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria PASS/FAIL lines after the run."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "ACCEPTANCE_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def wishart():
    """Factory for dense random density matrices: G G^dagger / tr, G complex Gaussian."""

    def make(rng, n):
        dim = 2**n
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = g @ g.conj().T
        mat = (mat + mat.conj().T) / 2
        return mat / np.trace(mat).real

    return make
