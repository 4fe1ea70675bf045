"""A fixed piece of Python work that measures how fast the machine runs now.

On a shared machine a run can go a third faster or slower for minutes at a
time, because the virtual CPU shares its core with other tenants.  The
benchmark calls :func:`sample` before every item and every probe, and
scales its timings by how long these samples took against
``NOMINAL_S``.  The work here never touches liepencil, so a change to the
program moves the scaled figures as much as the raw ones; only the
machine's share of the core is divided out.

The work resembles the program's own: products of sparse polynomials kept
as dicts of exponent tuples with Fraction coefficients, and Fraction
Gaussian elimination.
"""

from __future__ import annotations

import time
from fractions import Fraction

# seconds one sample takes when the core is not shared (Python 3.11,
# 2 vCPU Xeon VM); only a unit, so its exact value does not matter
NOMINAL_S = 0.0055

_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
_MATRIX = [
    [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(9)]
    for i in range(9)
]


def _work() -> int:
    product: dict = {}
    for (a, b), c in _POLY.items():
        for (d, e), f in _POLY.items():
            key = (a + d, b + e)
            product[key] = product.get(key, 0) + c * f
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return len(product) + int(m[-1][-1] != 0)


def sample() -> float:
    """Seconds for one run of the fixed work."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started
