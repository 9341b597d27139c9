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
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, DomainError, _check_count, _check_party_count

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
        # compared, not truncated: 1.5 is no sign, and neither is a bool
        if isinstance(leading_sign, (bool, np.bool_)) or leading_sign not in (1, -1):
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

    Each function is one row of ``breakpoints`` (last axis, sorted, of
    even width) whose first ``flips`` entries are its breakpoints; the
    rest is padding and is never read.  ``signs`` holds the leading signs.
    Counts are even (``ResponseFunction`` rejects odd ones; the sampler
    draws 2k), so integrating piecewise telescopes to chords of consecutive
    pairs t0 < t1: e^{i t0} - e^{i t1} = -2i sin(h) e^{im}, m = (t0 + t1)/2,
    h = (t1 - t0)/2, and (a, b) = -4s * sum_pairs sin(h) (cos m, sin m), so
    constants project to exactly zero.  e^{im} = ((1 - tau^2) + 2i tau) /
    (1 + tau^2) with tau = tan(m/2), finite as m/2 lies in [0, pi) (at most
    about 1.6e16, at m = pi, where it still gives (-1, sin m)): one tan and
    one sin per pair, the pairs taken by one boolean gather.
    """
    points = np.asarray(breakpoints, dtype=float)
    lead, width = points.shape[:-1], points.shape[-1]
    count = math.prod(lead)
    pairs = np.reshape(flips, -1) // 2
    used = np.tri(width // 2 + 1, width // 2, -1, dtype=bool).take(pairs, axis=0)  # k < pairs
    t0, t1 = np.compress(used.reshape(-1), points.reshape(used.size, 2), axis=0).T
    tau = np.tan(0.25 * (t0 + t1))
    half = np.sin(0.5 * (t1 - t0))
    tau_sq = tau * tau
    half /= 1.0 + tau_sq
    rows = np.repeat(np.arange(count), pairs)
    a = np.bincount(rows, half * (1.0 - tau_sq), minlength=count)
    b = np.bincount(rows, half * (2.0 * tau), minlength=count)
    scale = -4.0 * np.reshape(signs, -1)
    return np.stack([scale * a, scale * b], axis=-1).reshape(lead + (2,))


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
    _check_count("nodes_per_axis", nodes_per_axis, 8)
    budget = max_evaluations  # an int or a float such as 1e8; a bool, a string or NaN is none
    if isinstance(budget, bool) or not isinstance(budget, numbers.Real) or not budget > 0:
        raise DomainError(f"max_evaluations must be a number > 0, got {budget!r}")
    if nodes_per_axis**n_parties > max_evaluations:
        raise BudgetError(
            f"{nodes_per_axis}^{n_parties} grid nodes exceed the budget of "
            f"{max_evaluations}; raise max_evaluations"
        )
    nodes = _TWO_PI * np.arange(nodes_per_axis) / nodes_per_axis
    grids = np.meshgrid(*([nodes] * n_parties), indexing="ij", sparse=True)
    weight = _TWO_PI / nodes_per_axis
    return weight**n_parties * float(np.sum(np.asarray(f(*grids)) * np.asarray(g(*grids))))
