"""Independent numpy references the benchmark checks rotbell's outputs against.

None of these call rotbell, so a wrong answer in the package cannot make
its own check pass, and the traced call counts stay the program's own.
"""

from __future__ import annotations

import math

import numpy as np

TENSOR_TOL = 1e-12
TMAX_TOL = 1e-9
REL_TOL = 1e-12
RATIO_LOW = 1.0 - 1e-9
RATIO_HIGH = 1.0 + 1e-8

# sigma_x |b> = |~b>, sigma_y |b> = i(-1)^b |~b>: row = planar index, column = bit.
_PLANAR_PHASE = np.array([[1.0, 1.0], [1.0j, -1.0j]])


def ghz_tensor(n: int, visibility: float) -> np.ndarray:
    """Closed-form planar tensor of GHZ with white noise or dephasing."""
    k = np.indices((2,) * n).sum(axis=0)
    return np.where(k % 2 == 0, visibility * (-1.0) ** (k // 2), 0.0)


def tensor_from_antidiagonal(w: np.ndarray, n: int) -> np.ndarray:
    """Planar tensor from w[b] = rho[b, ~b], party 1 the most significant bit.

    Every x/y Pauli product maps |b> to a phase times |~b>, so only the
    anti-diagonal of rho contributes: T_i = sum_b w[b] prod_j m[i_j, b_j].
    """
    t = np.asarray(w, dtype=complex).reshape((2,) * n)
    for axis in range(n):
        t = np.moveaxis(np.tensordot(_PLANAR_PHASE, t, axes=([1], [axis])), 0, axis)
    return t.real


def pure_antidiagonal(amplitudes: np.ndarray, visibility: float) -> np.ndarray:
    """Anti-diagonal of V|psi><psi| + (1-V) 1/2^N; the noise term has none."""
    return visibility * amplitudes * np.conj(amplitudes[::-1])


def contraction(values: np.ndarray, directions: np.ndarray) -> float:
    out = np.asarray(values, dtype=float)
    for vec in reversed(list(directions)):
        out = out @ vec
    return float(out)


def expected_region(v: float, v_ri: float, v_two: float) -> str:
    if v <= v_ri:
        return "LOCAL"
    return "PARADOX" if v <= v_two else "NONLOCAL"


def tensor_problems(values: np.ndarray, reference: np.ndarray, label: str) -> list[str]:
    err = float(np.max(np.abs(np.asarray(values) - reference)))
    return [] if err <= TENSOR_TOL else [f"{label}: tensor differs from reference by {err:.3g}"]


def verdict_problems(values: np.ndarray, report, region: str) -> list[str]:
    """Check a CriterionReport against bounds computed from the tensor alone.

    max|T_i| <= T_max <= sqrt(sum T^2), so the verdict is forced wherever
    pi^N sum T^2 lies outside [4^N max|T_i|, 4^N sqrt(sum T^2)].
    """
    n = np.ndim(values)
    sum_sq = float(np.sum(np.square(values)))
    low, high = float(np.max(np.abs(values))), math.sqrt(sum_sq)
    lhs = math.pi**n * sum_sq
    tmax = report.rhs / 4.0**n
    problems = []
    if not math.isclose(report.lhs, lhs, rel_tol=REL_TOL, abs_tol=1e-300):
        problems.append(f"lhs {report.lhs!r} != pi^N sum T^2 = {lhs!r}")
    if not math.isclose(report.sum_sq, sum_sq, rel_tol=REL_TOL, abs_tol=1e-300):
        problems.append(f"sum_sq {report.sum_sq!r} != {sum_sq!r}")
    if not low - REL_TOL <= tmax <= high + REL_TOL:
        problems.append(f"T_max {tmax!r} outside [{low!r}, {high!r}]")
    if report.violated != (report.lhs > report.rhs):
        problems.append("violated disagrees with lhs > rhs")
    if lhs > 4.0**n * high * (1 + 1e-9) and not report.violated:
        problems.append("not violated although lhs exceeds the Frobenius bound")
    if lhs < 4.0**n * low * (1 - 1e-9) and report.violated:
        problems.append("violated although lhs is below the largest-entry bound")
    if abs(sum_sq - 1.0) > 1e-9 and report.two_setting_model != (sum_sq <= 1.0):
        problems.append(f"two_setting_model {report.two_setting_model} for sum T^2 = {sum_sq!r}")
    wanted = "LOCAL" if not report.violated else ("PARADOX" if report.two_setting_model else "NONLOCAL")
    if region != wanted:
        problems.append(f"region {region} != {wanted}")
    return problems


def tmax_problems(values: np.ndarray, result, expected_value: float) -> list[str]:
    """A TMaxResult's value is attained at its maximizer and matches a known value."""
    problems = []
    at_max = contraction(values, result.maximizer)
    if abs(result.value - at_max) > TENSOR_TOL:
        problems.append(f"T_max {result.value!r} != contraction at maximizer {at_max!r}")
    norms = np.linalg.norm(result.maximizer, axis=1)
    if np.max(np.abs(norms - 1.0)) > TENSOR_TOL:
        problems.append("maximizer directions are not unit vectors")
    if abs(result.value - expected_value) > TMAX_TOL:
        problems.append(f"T_max {result.value!r} != expected {expected_value!r}")
    return problems
