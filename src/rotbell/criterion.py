"""Top-level criterion: when rotational invariance excludes local models.

A measured planar tensor admits a local realistic explanation of its
full rotationally invariant correlation function only if the function's
squared norm pi^N * sum(T^2) stays within the generalized Bell bound
4^N * T_max.  For noisy GHZ states both sides are closed-form in the
visibility, giving an exclusion threshold that, from four parties on,
drops below the two-setting modelability threshold: a window where the
measured data alone is locally modelable but no single model covers all
settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationTensor
from .errors import DomainError, _check_count, _check_party_count
from .lhv import _two_setting_holds
from .states import MAX_STATE_PARTIES
from .tensor_analysis import OptimizerConfig, sum_of_squares, t_max

REGION_LOCAL = "LOCAL"
REGION_PARADOX = "PARADOX"
REGION_NONLOCAL = "NONLOCAL"


@dataclass(frozen=True)
class CriterionReport:
    """Both sides of the exclusion test for one tensor.

    ``lhs`` is the squared norm of the correlation function, ``rhs`` the
    generalized Bell bound; ``violated`` means no local realistic model
    can reproduce the full correlation function.  ``two_setting_model``
    reports whether the measured values alone are modelable, and
    ``certified`` carries the T_max certificate (see ``TMaxResult``).
    """

    n_parties: int
    lhs: float
    rhs: float
    violated: bool
    two_setting_model: bool
    margin: float
    sum_sq: float
    certified: bool


@dataclass(frozen=True)
class GhzThresholds:
    """Visibility thresholds for the noisy GHZ family.

    ``v_ri`` = 2*(2/pi)^N is the exclusion onset under rotational
    invariance; ``v_two_setting`` = 2^(-(N-1)/2) bounds two-setting
    modelability.  A nonempty gap (v_ri < v_two_setting) is the window
    where models of the measured data exist but cannot be consistent; it
    is decided on v_ri / v_two_setting = sqrt(2) * (2*sqrt(2)/pi)^N < 1,
    which holds exactly from N = 4 on, also where both thresholds underflow.
    """

    n_parties: int
    v_ri: float
    v_two_setting: float
    gap_nonempty: bool


@dataclass(frozen=True)
class ScanPoint:
    """One visibility on a scan grid with its report and region label."""

    visibility: float
    report: CriterionReport
    region: str


def _report(n: int, sum_sq: float, top_value: float, certified: bool) -> CriterionReport:
    """Both sides of the exclusion test for an N-party tensor, given its sum of
    squares and T_max; the sum of squares also gives two-setting modelability."""
    lhs = np.pi**n * sum_sq
    rhs = 4.0**n * top_value
    return CriterionReport(
        n_parties=n,
        lhs=lhs,
        rhs=rhs,
        violated=lhs > rhs,
        two_setting_model=_two_setting_holds(sum_sq),
        margin=lhs - rhs,
        sum_sq=sum_sq,
        certified=certified,
    )


def ri_criterion(
    tensor: CorrelationTensor, config: OptimizerConfig | None = None
) -> CriterionReport:
    """Evaluate the rotational-invariance exclusion test for a tensor."""
    top = t_max(tensor, config)
    return _report(tensor.n_parties, sum_of_squares(tensor), top.value, top.certified)


def ghz_thresholds(n_parties: int) -> GhzThresholds:
    """Closed-form visibility thresholds for N-party noisy GHZ states."""
    _check_party_count(n_parties)
    v_ri = 2.0 * (2.0 / np.pi) ** n_parties
    v_two_setting = 2.0 ** (-(n_parties - 1) / 2.0)
    ratio = 2.0**0.5 * (2.0**1.5 / np.pi) ** n_parties  # underflows to 0, the side of N >= 4
    return GhzThresholds(n_parties, v_ri, v_two_setting, ratio < 1.0)


def classify(report: CriterionReport) -> str:
    """Region label: LOCAL if not violated, else PARADOX when the
    measured data is still two-setting modelable, else NONLOCAL."""
    if not report.violated:
        return REGION_LOCAL
    return REGION_PARADOX if report.two_setting_model else REGION_NONLOCAL


def ghz_scan(n_parties: int, v_min: float, v_max: float, steps: int) -> list[ScanPoint]:
    """Evaluate the criterion on a uniform visibility grid.

    ``steps`` is the number of grid points (numpy.linspace semantics:
    both endpoints included for steps >= 2, just v_min for steps = 1).
    Rows take the closed form, with no tensor: GHZ(N, V)'s correlation function
    is V cos(a_1 + ... + a_N), so T_max = V, certified, and sum_sq = V*V * 2^(N-1),
    as TestGhzScan in tests/test_criterion.py pins.
    """
    if not 0.0 <= v_min <= v_max <= 1.0:
        raise DomainError(
            f"need 0 <= v_min <= v_max <= 1, got v_min={v_min}, v_max={v_max}"
        )
    _check_count("steps", steps)
    if steps > np.iinfo(np.intp).max // 8:  # past intp.max bytes numpy raises ValueError
        raise DomainError(f"steps={steps} is more than numpy can address")
    _check_party_count(n_parties, MAX_STATE_PARTIES)
    unit_sq = 2.0 ** (n_parties - 1)
    points = []
    for v in np.linspace(v_min, v_max, steps).tolist():
        report = _report(n_parties, v * v * unit_sq, v, True)
        points.append(ScanPoint(v, report, classify(report)))
    return points
