"""One-dimensional golden-section minimization on a bracket.

Used for the axis rate minimization I1 (ratecurves.compute_I1_detail),
whose objective is unimodal on the bracket supplied, so golden section is
reliable and derivative-free.
"""

from __future__ import annotations

import math

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-10,
                       max_iter: int = 200) -> tuple[float, float]:
    """Minimize f on [lo, hi]; returns (argmin, min value).

    Shrinks the bracket by the golden ratio each step until its width is
    below tol or max_iter is hit; the better interior probe is returned.
    Endpoints are also probed so boundary minima are not missed.
    """
    if hi < lo:
        lo, hi = hi, lo
    a, b = lo, hi
    h = b - a
    c = a + INVPHI2 * h
    d = a + INVPHI * h
    fc = f(c)
    fd = f(d)
    for _ in range(max_iter):
        if h <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INVPHI * h
            fd = f(d)
    xin, fin = (c, fc) if fc <= fd else (d, fd)
    for xe in (lo, hi):
        fe = f(xe)
        if fe < fin:
            xin, fin = xe, fe
    return xin, fin
