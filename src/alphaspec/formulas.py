"""Closed-form spectral radii for the k-cut family and derived comparisons."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import _check_alpha

__all__ = [
    "lambda_knkm",
    "knkm_quadratic",
    "knkm_quotient_entries",
    "second_max_radius",
    "max_vertex_conn_radius",
    "compare_m_extremes",
    "MExtremesComparison",
]


def _check_knkm_params(n: int, k: int, m: int) -> None:
    if k < 1 or m < 1 or n - k - m < 1:
        raise ValueError(f"need k >= 1, m >= 1 and n-k-m >= 1, got n={n}, k={k}, m={m}")


def lambda_knkm(n: int, k: int, m: int, alpha: float) -> float:
    """Spectral radius of the k-cut family member K(n, k, m)."""
    _check_knkm_params(n, k, m)
    a = _check_alpha(alpha)
    rad = (
        (1 - a) ** 2 * n * n
        + (6 * a - 2 * a * a - 4) * m * n
        + (2 - a) ** 2 * m * m
        + 4 * (1 - a) * k * m
    )
    return (n - 2 - a * m + a * n + math.sqrt(rad)) / 2.0


def knkm_quadratic(n: int, k: int, m: int, alpha: float) -> tuple[float, float]:
    """(b, c) with lambda_knkm the largest root of x^2 - b x + c = 0."""
    _check_knkm_params(n, k, m)
    a = _check_alpha(alpha)
    b = a * n + n - a * m - 2
    c = (
        a * n * n
        - a * n
        - 2 * a * n * m
        - m * m
        + a * k * m
        + a * m
        + a * m * m
        - n
        + m * n
        + 1
        - k * m
    )
    return float(b), float(c)


def knkm_quotient_entries(n: int, k: int, m: int, alpha: float) -> np.ndarray:
    """3x3 equitable quotient of A_alpha(K(n,k,m)) w.r.t. the blocks (V1, S, V2)."""
    _check_knkm_params(n, k, m)
    a = _check_alpha(alpha)
    w = n - k - m
    return np.array(
        [
            [a * (n - m) + m - 1, (1 - a) * k, (1 - a) * w],
            [(1 - a) * m, a * (n - k) + k - 1, (1 - a) * w],
            [0.0, (1 - a) * k, w - 1 + a * k],
        ],
        dtype=np.float64,
    )


def second_max_radius(n: int, alpha: float) -> float:
    """Second-largest radius over strongly connected digraphs of order n.

    Attained by the complete digraph minus one arc, i.e. K(n, n-2, 1).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    a = _check_alpha(alpha)
    rad = (1 - a) ** 2 * n * n + 2 * a * (1 - a) * n + a * a + 4 * a - 4
    return (n + a * n - 2 - a + math.sqrt(rad)) / 2.0


def max_vertex_conn_radius(n: int, k: int, alpha: float) -> float:
    """Maximum radius over strongly connected digraphs with vertex connectivity k.

    Kept in the split form the extremal statement takes: one closed form
    for alpha = 0 (attained at both m = 1 and m = n-k-1) and one for
    0 < alpha < 1 (attained only at m = n-k-1).
    """
    if not 1 <= k <= n - 2:
        raise ValueError(f"need 1 <= k <= n-2, got n={n}, k={k}")
    a = _check_alpha(alpha)
    if a == 0.0:
        return (n - 2 + math.sqrt(n * n - 4 * n + 4 * k + 4)) / 2.0
    rad = (
        n * n
        + (2 * a - 4 - 2 * a * k) * n
        + a * a
        + a * a * k * k
        - 4 * a
        + 2 * a * a * k
        - 4 * a * k
        + 4 * k
        + 4
    )
    return (n - 2 + a + a * k + math.sqrt(rad)) / 2.0


@dataclass(frozen=True)
class MExtremesComparison:
    n: int
    k: int
    alpha: float
    value_m_one: float
    value_m_max: float
    verdict: str  # "m=1" | "m=n-k-1" | "tie"


TIE_THRESHOLD = 1e-9


def compare_m_extremes(n: int, k: int, alpha: float) -> MExtremesComparison:
    """Which of m = 1 and m = n-k-1 maximises lambda_knkm (ties within 1e-9)."""
    lo = lambda_knkm(n, k, 1, alpha)
    hi = lambda_knkm(n, k, n - k - 1, alpha)
    if abs(hi - lo) <= TIE_THRESHOLD:
        verdict = "tie"
    elif hi > lo:
        verdict = "m=n-k-1"
    else:
        verdict = "m=1"
    return MExtremesComparison(
        n=n, k=k, alpha=float(alpha), value_m_one=lo, value_m_max=hi, verdict=verdict
    )
