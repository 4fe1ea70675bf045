"""Exact linear algebra over rationals and integers.

Plain lists of lists, no floats.  Every elimination is forward
fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on the input
scaled to integers (an all-int input is taken as it is):
:func:`_eliminate` brings a matrix to echelon form for the rank and the
determinant, :func:`_back_substitute` solves that form for the kernel and
the inverse, and :class:`SpanBuilder` reduces each new vector against the
rows it has accepted.  Both go through one :func:`_reduce` step per row
and pivot, and only where the row meets the pivot column.  Eager Bareiss
would also rescale every other row by the new pivot over the old one;
here that rescaling is deferred.  A row keeps the pivot it was last
divided by, the next step that meets it divides by that pivot instead,
and a row that becomes a pivot row or enters the span is brought up to
date first.  By Sylvester's identity each division is exact, and every
pivot, determinant and echelon row is the one eager Bareiss gives.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import SingularMatrix


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def matmul(a, b):
    if not a or not b:
        return []
    bt = transpose(b)
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(map(operator.mul, row, v)) for row in a]


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
    ``denominator`` both carry.  An all-int m comes back as a plain copy.
    """
    if all(type(v) is int for row in m for v in row):
        return [list(row) for row in m], 1
    scale = math.lcm(*(v.denominator for row in m for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in m], scale


def _reduce(w: list[int], e: int, pivot_row: list[int], col: int) -> tuple[list[int], int]:
    """One fraction-free (Bareiss) step on a row w with w[col] != 0.

    Returns ``((p*w - w[col]*pivot_row) / e, p)`` with p = ``pivot_row[col]``
    and e the pivot w was last divided by (1 for an input row).  The pivot
    row must be up to date, the pivot before p being d.  Eager Bareiss
    brings every row through every step, and a row whose entry in the pivot
    column is 0 only gets rescaled, to w*p/d.  Here such a row is left as it
    is, with its e, so the eager row would be w*d/e; putting that into the
    eager step, (p*(w*d/e) - (w[col]*d/e)*pivot_row) / d, gives the formula
    above.  The division is exact because the result is the eager row, whose
    entries are minors of the input bordered by their own row and column on
    the pivots so far (Sylvester's identity).
    """
    p = pivot_row[col]
    f = w[col]
    return [(p * a - f * b) // e for a, b in zip(w, pivot_row)], p


def _up_to_date(w: list[int], e: int, d: int) -> list[int]:
    """The eager form w*d/e of a row last divided by e, with d the last pivot."""
    return w if e == d else [a * d // e for a in w]


def _eliminate(work: list[list[int]]) -> tuple[list[int], int, int]:
    """Forward fraction-free elimination of an integer matrix, in place.

    Returns ``(pivot_cols, d, sign)``.  Pivots are taken column by column,
    from the first row at or below the current one with a nonzero entry.
    The pivot row is first brought up to date by :func:`_up_to_date`, and
    each row below it with a nonzero entry in the pivot column goes through
    :func:`_reduce`; the other rows are left as they are, each with the
    pivot it was last divided by.  A row left behind is a nonzero multiple
    of its eager form, so it has the same zeros and the same pivot choice,
    and it is brought up to date when it becomes a pivot row.  At the end
    the matrix is in echelon form, entry for entry the one eager Bareiss
    gives: row i starts at ``pivot_cols[i]`` with the minor of the input on
    the first i + 1 pivot rows and columns, rows past the rank are zero, d
    is the last pivot (1 with no pivot at all) and ``sign`` is the parity
    of the row swaps.
    """
    rows = len(work)
    cols = len(work[0]) if rows else 0
    last = [1] * rows  # the pivot each row was last divided by
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
            last[row], last[pivot] = last[pivot], last[row]
            sign = -sign
        wr = work[row] = _up_to_date(work[row], last[row], d)
        for i in range(row + 1, rows):
            if work[i][col]:
                work[i], last[i] = _reduce(work[i], last[i], wr, col)
        d = wr[col]
        pivots.append(col)
    return pivots, d, sign


def _back_substitute(work: list[list[int]], pivots: list[int], d: int) -> dict[int, list[int]]:
    """Solve the echelon system for every free column at once.

    For the k-th free column f, x_k is the solution with x_k[f] = d, the
    last pivot, and 0 at the other free columns.  Returns, for each column
    c, the list of x_k[c] over k.  Every quotient is exact: d is the minor
    on the pivot rows and columns, so by Cramer's rule each x_k[c] is a
    minor of the same size; a remainder means the echelon form is corrupt,
    and raises ArithmeticError.
    """
    cols = len(work[0])
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    x = {f: [d if g == f else 0 for g in free] for f in free}
    for i in range(len(pivots) - 1, -1, -1):
        row = work[i]
        # free columns left of the pivot hold zero in an echelon row
        acc = [-d * row[f] for f in free]
        for c in pivots[i + 1:]:
            coef = row[c]
            if coef:
                acc = [a - coef * v for a, v in zip(acc, x[c])]
        p = row[pivots[i]]
        out = []
        for a in acc:
            q, rem = divmod(a, p)
            if rem:
                raise ArithmeticError("back substitution left a remainder")
            out.append(q)
        x[pivots[i]] = out
    return x


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
    x = _back_substitute(work, pivots, d)
    cols = len(work[0])
    unit = 1 if d > 0 else -1
    basis = []
    for k in range(cols - len(pivots)):
        vec = [x[c][k] for c in range(cols)]
        g = unit * math.gcd(*vec)
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
    """Back substitution on [s*M | I]: free column n + k gives -d*(s*M)^-1 e_k.

    Each entry is an int wherever it is one, as for a unimodular M.
    """
    n = len(m)
    ints, scale = scale_to_int(m)
    work = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(ints)]
    pivots, d, _ = _eliminate(work)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    x = _back_substitute(work, pivots, d)
    return [[_quotient(-scale * v, d) for v in x[c]] for c in range(n)]


def _quotient(a: int, d: int) -> int | Fraction:
    q, r = divmod(a, d)
    return Fraction(a, d) if r else q


class SpanBuilder:
    """Incrementally grown row space with exact membership tests.

    The rows are kept in forward echelon form, as eager Bareiss would leave
    them: row i is the i-th accepted vector after one fraction-free step on
    each row before it, and its pivot is its first nonzero column.  A
    vector reduces the same way, through :func:`_reduce` against each row
    whose pivot column it meets, and is in the span exactly when nothing of
    it is left; an accepted one is brought up to date by
    :func:`_up_to_date` before it is stored.  Vectors of any length other
    than ``width`` raise ValueError.
    """

    def __init__(self, width: int):
        self.width = width
        self._accepted: list[list[int]] = []
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    def _residual(self, vec) -> tuple[list[int], list[int], int]:
        """vec scaled to integers, its reduction against the span, and the
        pivot that reduction was last divided by."""
        if len(vec) != self.width:
            raise ValueError(f"a vector of length {len(vec)} in a span of width {self.width}")
        (ints,), _ = scale_to_int([vec])
        res, e = ints, 1
        for row, c in zip(self._rows, self._pivots):
            if res[c]:
                res, e = _reduce(res, e, row, c)
        return ints, res, e

    def add(self, vec) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        ints, res, e = self._residual(vec)
        col = next((j for j, x in enumerate(res) if x), None)
        if col is None:
            return False
        d = self._rows[-1][self._pivots[-1]] if self._rows else 1
        self._rows.append(_up_to_date(res, e, d))
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
