"""Exact linear algebra over rationals and integers.

Plain lists of lists, no floats.  Every elimination is fraction-free
Gauss–Jordan (Bareiss, Math. Comp. 22, 1968) on the input scaled to
integers, one :func:`_step` per pivot: :func:`_eliminate` for the rank,
kernel, determinant and inverse, and one step per accepted vector in
:class:`SpanBuilder`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import SingularMatrix


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def matmul(a, b):
    if not a or not b:
        return []
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def is_skew(m) -> bool:
    n = len(m)
    return all(
        len(row) == n for row in m
    ) and all(m[i][j] == -m[j][i] for i in range(n) for j in range(n))


def rational_rows(rows) -> list[list]:
    """Ints and Fractions as given, anything else through ``Fraction()``."""
    return [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row] for row in rows]


def scale_to_int(m) -> tuple[list[list[int]], int]:
    """(s*m, s) for the least common denominator s of the entries of m.

    Entries are ints or Fractions, read through the ``numerator`` and
    ``denominator`` both carry.
    """
    scale = math.lcm(*(v.denominator for row in m for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in m], scale


def _step(work: list[list[int]], row: int, col: int, d: int) -> int:
    """One fraction-free Gauss–Jordan step on the pivot ``work[row][col]``.

    With p the pivot and d the previous one, every other row w becomes
    (p*w - w[col]*pivot_row) / d, in place; returns p, the next d.  The
    division is exact: after each step every entry is a minor of the
    input, taken on the pivot rows and columns so far plus its own row and
    column (Sylvester's identity), and d is the minor on the pivot rows and
    columns alone.  A row with w[col] = 0 is only rescaled.
    """
    wr = work[row]
    p = wr[col]
    for i, wi in enumerate(work):
        if i != row:
            f = wi[col]
            if f:
                work[i] = [(p * a - f * b) // d for a, b in zip(wi, wr)]
            elif p != d:
                work[i] = [p * a // d for a in wi]
    return p


def _eliminate(work: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss–Jordan elimination of an integer matrix, in place.

    Returns ``(pivot_cols, d, sign)``.  Pivots are taken column by column,
    from the first row at or below the current one with a nonzero entry,
    and each is cleared from the other rows by :func:`_step`.  At the end
    row i holds d at ``pivot_cols[i]`` and 0 at the other pivot columns,
    rows past the rank are zero, and ``sign`` is the parity of the row
    swaps.  With no pivot at all, d is 1.
    """
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots: list[int] = []
    d = 1
    sign = 1
    for col in range(cols):
        row = len(pivots)
        if row == rows:
            break
        pivot = next((i for i in range(row, rows) if work[i][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            work[row], work[pivot] = work[pivot], work[row]
            sign = -sign
        d = _step(work, row, col, d)
        pivots.append(col)
    return pivots, d, sign


def rank(m) -> int:
    """Rank over the rationals: the number of pivots."""
    work, _ = scale_to_int(m)
    return len(_eliminate(work)[0])


def kernel(m) -> list[list[int]]:
    """Integer basis of the right null space of a rational matrix.

    One vector per free column f, in column order: primitive, positive at f
    and zero at the other free columns.
    """
    if not m:
        return []
    work, _ = scale_to_int(m)
    pivots, d, _ = _eliminate(work)
    unit = 1 if d > 0 else -1
    pivot_set = set(pivots)
    cols = len(work[0])
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        vec = [0] * cols
        vec[f] = abs(d)
        for row, c in zip(work, pivots):
            vec[c] = -unit * row[f]
        g = math.gcd(*vec)
        basis.append([v // g for v in vec])
    return basis


def det(m) -> Fraction:
    """Determinant: the last pivot, with the sign of the row swaps."""
    n = len(m)
    work, scale = scale_to_int(m)
    pivots, d, sign = _eliminate(work)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * d, scale**n)


def inverse(m) -> list[list[int | Fraction]]:
    """Eliminate [s*M | I]; the right half ends as d * (s*M)^-1.

    Each entry is an int wherever it is one, as for a unimodular M.
    """
    n = len(m)
    ints, scale = scale_to_int(m)
    work = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(ints)]
    pivots, d, _ = _eliminate(work)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return [[_quotient(scale * v, d) for v in row[n:]] for row in work]


def _quotient(a: int, d: int) -> int | Fraction:
    q, r = divmod(a, d)
    return Fraction(a, d) if r else q


class SpanBuilder:
    """Incrementally grown row space with exact membership tests.

    The rows are kept reduced as :func:`_eliminate` leaves them, row i
    holding d at ``_pivots[i]`` and 0 at the other pivots.  A vector v
    reduces in one pass to d*v - sum_i v[pivot_i]*row_i, zero exactly when
    v is in the span; otherwise one :func:`_step` takes it in.
    """

    def __init__(self, width: int):
        self.width = width
        self._accepted: list[list[int]] = []
        self._reduced: list[list[int]] = []
        self._pivots: list[int] = []
        self._d = 1

    def _residual(self, vec) -> tuple[list[int], list[int]]:
        """vec scaled to integers, and its reduction against the span."""
        (ints,), _ = scale_to_int([vec])
        res = [self._d * x for x in ints]
        for row, c in zip(self._reduced, self._pivots):
            f = ints[c]
            if f:
                res = [a - f * b for a, b in zip(res, row)]
        return ints, res

    def add(self, vec) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        ints, res = self._residual(vec)
        col = next((j for j, x in enumerate(res) if x), None)
        if col is None:
            return False
        self._reduced.append(res)
        self._d = _step(self._reduced, len(self._pivots), col, self._d)
        self._pivots.append(col)
        self._accepted.append(ints)
        return True

    def contains(self, vec) -> bool:
        return not any(self._residual(vec)[1])

    @property
    def dim(self) -> int:
        return len(self._accepted)

    def basis(self) -> list[list[int]]:
        """The accepted vectors, scaled to integers, in insertion order."""
        return [list(row) for row in self._accepted]
