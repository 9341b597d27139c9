"""Deterministic response functions and their two-dimensional Fourier content.

A response function is a periodic sign function on [0, 2*pi): one party's
predetermined +/-1 answer as a function of its setting angle.  Only its
overlaps with cos and sin matter for correlation inner products, so the
projection onto the span of cos(a)/sqrt(pi) and sin(a)/sqrt(pi) is the
whole story; it is computed in closed form.  A trapezoid rule on uniform
periodic nodes provides an independent numerical route to the same inner
products, exact for trigonometric polynomials of low per-axis degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, DomainError
from .states import _check_party_count

_TWO_PI = 2.0 * math.pi

#: Largest possible projection norm of a +/-1-valued response.
PROJECTION_NORM_BOUND = 4.0 / math.sqrt(math.pi)


@dataclass(frozen=True)
class ResponseFunction:
    """Piecewise-constant sign function on [0, 2*pi).

    The value on [0, first breakpoint) is ``leading_sign`` and flips at
    every breakpoint; an even breakpoint count keeps the periodic
    extension consistent.  A breakpoint at exactly 0 means the flip
    happens at the start of the period, i.e. ``leading_sign`` is the
    left-limit value there.
    """

    breakpoints: tuple[float, ...]
    leading_sign: int

    def __init__(self, breakpoints: Sequence[float] = (), leading_sign: int = 1):
        bps = tuple(float(b) for b in breakpoints)
        if len(bps) % 2 != 0:
            raise DomainError(f"breakpoint count must be even, got {len(bps)}")
        if any(not 0.0 <= b < _TWO_PI for b in bps):
            raise DomainError("breakpoints must lie in [0, 2*pi)")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise DomainError("breakpoints must be strictly increasing")
        if leading_sign not in (1, -1):  # compared, not truncated: 1.5 is no sign
            raise DomainError(f"leading_sign must be +1 or -1, got {leading_sign}")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "leading_sign", int(leading_sign))

    def __call__(self, alpha):
        """Evaluate at one angle or a numpy array of angles; returns +/-1."""
        a = np.asarray(alpha, dtype=float) % _TWO_PI
        crossings = np.searchsorted(self.breakpoints, a, side="right")
        out = self.leading_sign * np.where(crossings % 2 == 0, 1.0, -1.0)
        return out if out.ndim else float(out)


def sign_overlaps(breakpoints, flips, signs) -> np.ndarray:
    """Cos/sin overlaps of many sign functions at once, shape (..., 2).

    Each function is one row of ``breakpoints`` (last axis, sorted) whose
    first ``flips`` entries are its breakpoints; the rest is padding and
    is never read.  ``signs`` holds the leading signs.  Integrating
    piecewise telescopes to the breakpoint terms alone,
    a = 2s * sum_k (-1)^k sin(t_k) and b = -2s * sum_k (-1)^k cos(t_k),
    so constants project to exactly zero.
    """
    points = np.asarray(breakpoints, dtype=float)
    lead, width = points.shape[:-1], points.shape[-1]
    used = np.flatnonzero(np.arange(width) < np.reshape(flips, (-1, 1)))
    rows, column = np.divmod(used, width)
    t = points.reshape(-1)[used]
    alt = 1.0 - 2.0 * (column & 1)
    count = math.prod(lead)
    a = np.bincount(rows, alt * np.sin(t), minlength=count)
    b = np.bincount(rows, alt * np.cos(t), minlength=count)
    scale = 2.0 * np.reshape(signs, -1)
    return np.stack([scale * a, -scale * b], axis=-1).reshape(lead + (2,))


def project(response: ResponseFunction) -> np.ndarray:
    """Closed-form cos/sin overlaps (a, b) of a sign function, shape (2,).

    ``hypot(a, b) / sqrt(pi)`` is the length of the projection onto the
    orthonormal pair cos/sqrt(pi), sin/sqrt(pi); see ``sign_overlaps``.
    """
    bps = response.breakpoints
    return sign_overlaps(bps, len(bps), response.leading_sign)


def saturating_response(psi: float) -> ResponseFunction:
    """The sign function aligned with direction ``psi``: sgn(cos(a - psi)).

    Its overlaps are 4 * (cos psi, sin psi), so its projection norm attains
    the bound 4/sqrt(pi).
    """
    b1 = float(psi + math.pi / 2.0) % _TWO_PI
    b2 = float(psi + 3.0 * math.pi / 2.0) % _TWO_PI
    # sgn cos is -1 on [b1, b2) unless that interval wraps past 2*pi
    return ResponseFunction(sorted((b1, b2)), 1 if b1 < b2 else -1)


def quadrature_inner_product(
    f: Callable[..., np.ndarray],
    g: Callable[..., np.ndarray],
    n_parties: int,
    nodes_per_axis: int = 64,
    *,
    max_evaluations: int = 10**8,
) -> float:
    """Trapezoid approximation of the integral of f*g over [0, 2*pi]^N.

    Uniform periodic nodes make the rule exact (up to roundoff) for
    trigonometric-polynomial integrands of per-axis degree below
    ``nodes_per_axis`` / 2.  Each integrand is a callable taking N
    broadcastable angle arrays; the full grid is guarded by
    ``max_evaluations``.
    """
    _check_party_count(n_parties)
    if nodes_per_axis < 8:
        raise DomainError(f"nodes_per_axis must be >= 8, got {nodes_per_axis}")
    if nodes_per_axis**n_parties > max_evaluations:
        raise BudgetError(
            f"{nodes_per_axis}^{n_parties} grid nodes exceed the budget of "
            f"{max_evaluations}; raise max_evaluations"
        )
    nodes = _TWO_PI * np.arange(nodes_per_axis) / nodes_per_axis
    grids = np.meshgrid(*([nodes] * n_parties), indexing="ij", sparse=True)
    weight = _TWO_PI / nodes_per_axis
    return weight**n_parties * float(np.sum(np.asarray(f(*grids)) * np.asarray(g(*grids))))
