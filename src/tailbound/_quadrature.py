"""Adaptive Gauss-Kronrod quadrature on finite intervals.

A 15-point Kronrod rule with its embedded 7-point Gauss rule supplies both
the panel estimate and an error estimate; refinement bisects whichever panel
currently carries the largest error until the summed error meets the target.
The node and weight tables are the standard 15-point values; a unit test
confirms them by integrating polynomials the rule must reproduce exactly.
"""

from __future__ import annotations

import heapq
from typing import Callable

from .errors import NumericalError

__all__ = ["gauss_kronrod_15", "adaptive_quad"]

# Abscissae of the 15-point Kronrod rule on [-1, 1] (nonnegative half).
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)

# Kronrod weights matching _XGK.
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)

# Weights of the embedded 7-point Gauss rule (odd-index abscissae of _XGK).
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def gauss_kronrod_15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Kronrod panel over [a, b]: returns (estimate, error_estimate).

    The error estimate is the difference between the Kronrod and embedded
    Gauss results, inflated by the usual (200 |K - G|)^{3/2} sharpening for
    smooth integrands, floored at the raw difference.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    f_center = f(center)
    kron = _WGK[7] * f_center
    gauss = _WG[3] * f_center
    for i in range(7):
        dx = half * _XGK[i]
        fsum = f(center - dx) + f(center + dx)
        kron += _WGK[i] * fsum
        if i % 2 == 1:
            gauss += _WG[i // 2] * fsum
    kron *= half
    gauss *= half
    diff = abs(kron - gauss)
    scale = abs(half) * 2.0
    if diff > 0.0 and scale > 0.0:
        sharpened = diff * min(1.0, (200.0 * diff / max(abs(kron), 1e-300)) ** 0.5)
        err = max(diff * 1e-2, min(diff, sharpened))
    else:
        err = diff
    return kron, max(err, abs(kron) * 1e-16)


def adaptive_quad(f: Callable[[float], float], a: float, b: float,
                  rel: float = 1e-10, abs_tol: float = 1e-300,
                  max_panels: int = 4000) -> tuple[float, float]:
    """Globally adaptive integral of f over [a, b].

    Returns (value, error_bound).  Panels are kept in a heap ordered by
    error; each refinement step bisects the worst one.  Convergence is
    declared when the total error drops below max(abs_tol, rel * |value|).
    Raises NumericalError, carrying the best estimate, if the panel budget
    is exhausted first.
    """
    if a == b:
        return 0.0, 0.0
    val, err = gauss_kronrod_15(f, a, b)
    # heap entries: (-err, insertion counter, a, b, val, err)
    counter = 0
    heap = [(-err, counter, a, b, val, err)]
    total_val, total_err = val, err
    panels = 1
    while total_err > max(abs_tol, rel * abs(total_val)) and panels < max_panels:
        neg, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        lval, lerr = gauss_kronrod_15(f, pa, mid)
        rval, rerr = gauss_kronrod_15(f, mid, pb)
        total_val += lval + rval - pval
        total_err += lerr + rerr - perr
        counter += 1
        heapq.heappush(heap, (-lerr, counter, pa, mid, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, mid, pb, rval, rerr))
        panels += 1
    if total_err > max(abs_tol, rel * abs(total_val)):
        raise NumericalError(
            f"adaptive quadrature used {panels} panels without reaching "
            f"target (err {total_err:.3e})",
            estimate=total_val, err_estimate=total_err)
    return total_val, total_err
