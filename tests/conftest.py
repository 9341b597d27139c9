import sys

import numpy as np
import pytest

from rotbell import DeterministicStrategy, ResponseFunction


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria PASS/FAIL lines after the run."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "ACCEPTANCE_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def dense(noisy):
    """The dense matrix V|psi><psi| + (1-V) 1/2^N of a NoisyPureState."""
    amp, v = noisy.state.amplitudes, noisy.visibility
    return v * np.outer(amp, amp.conj()) + (1.0 - v) / amp.size * np.eye(amp.size)


def strategy_view(points, flips, signs):
    """The DeterministicStrategy that one draw row (one entry per party) holds."""
    return DeterministicStrategy(
        ResponseFunction(p[:f], s) for p, f, s in zip(points, flips, signs)
    )


def ensemble_view(draw, trial=0):
    """(weight, strategy) for each live row of trial ``trial`` of a
    ``_TrialDraw``; a dead row scores zero and holds no responses."""
    return [
        (float(draw.weights[r]), strategy_view(draw.points[i], draw.flips[r], draw.signs[i]))
        for i, r in enumerate(draw.live)
        if draw.owner[r] == trial
    ]


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
