"""Exact linear algebra over rationals and integers.

Plain lists of lists, no floats.  There is one elimination:
:class:`SpanBuilder` inserts integer rows one at a time by forward
fraction-free elimination (Bareiss, Math. Comp. 22, 1968).  The rank,
kernel and inverse of a matrix come from the span of its rows, scaled to
integers once (an all-int input is taken as it is) and inserted in order
by :func:`_span`; :func:`_back_substitute` solves the span's rows for the
kernel and the inverse.

A row goes through one :func:`_reduce` step per accepted row whose pivot
column it meets, and takes its pivot at the first nonzero column of what
is left.  So the accepted rows have distinct leading columns, and their
pivot set is that of the reduced row echelon form, which depends only on
the row space: the free columns, and the kernel basis built on them, do
not depend on the order of the rows.  Eager Bareiss would also rescale
every other row by the new pivot over the old one; here that rescaling is
deferred.  A row keeps the pivot it was last divided by, the next step
that meets it divides by that pivot instead, and a row that enters the
span is brought up to date first.  By Sylvester's identity each division
is exact, and every pivot and echelon row is the one eager Bareiss gives
on the accepted rows in insertion order.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import compress, count
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


def _back_substitute(
    rows: list[list[int]], pivots: list[int], d: int, cols: int
) -> dict[int, list[int]]:
    """Solve a span's echelon rows for every free column at once.

    ``rows``, ``pivots`` and ``d`` are a :class:`SpanBuilder`'s rows in
    insertion order, their pivot columns and the last pivot; ``cols`` is the
    width.  For the k-th free column f, x_k is the solution with x_k[f] = d
    and 0 at the other free columns.  Returns, for each column c, the list
    of x_k[c] over k.  The rows are solved from the last inserted to the
    first: each row is zero left of its own pivot and at the pivot of every
    row inserted before it, so the entries it still needs, at the pivots of
    the rows after it, are solved already.  Every quotient is exact: d is
    +-the minor on the rows and the pivot columns, so by Cramer's rule each
    x_k[c] is a minor of the same size; a remainder means the rows are
    corrupt, and raises ArithmeticError.
    """
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    x = {f: [d if g == f else 0 for g in free] for f in free}
    for i in range(len(pivots) - 1, -1, -1):
        row = rows[i]
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


def _span(m) -> SpanBuilder:
    """The span of the rows of m, scaled to integers once and inserted in order."""
    ints, _ = scale_to_int(m)
    span = SpanBuilder(len(ints[0]) if ints else 0)
    for row in ints:
        span._insert(row)
    return span


def rank(m) -> int:
    """Rank over the rationals: the dimension of the row space."""
    return _span(m).dim


def kernel(m) -> list[list[int]]:
    """Integer basis of the right null space of a rational matrix.

    One vector per free column f, in column order: primitive, positive at f
    and zero at the other free columns.
    """
    span = _span(m)
    cols, d = span.width, span._d
    x = _back_substitute(span._rows, span._pivots, d, cols)
    unit = 1 if d > 0 else -1
    basis = []
    for k in range(cols - span.dim):
        vec = [x[c][k] for c in range(cols)]
        g = unit * math.gcd(*vec)
        basis.append([v // g for v in vec])
    return basis


def inverse(m) -> list[list[int | Fraction]]:
    """Back substitution on the rows of [M | I]: free column n + k gives -d*M^-1 e_k.

    Scaling [M | I] to integers leaves that kernel unchanged.  M is
    invertible exactly when the pivot columns are 0..n-1.  Each entry is an
    int wherever it is one, as for a unimodular M.
    """
    n = len(m)
    span = _span([list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)])
    if sorted(span._pivots) != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    d = span._d
    x = _back_substitute(span._rows, span._pivots, d, 2 * n)
    return [[_quotient(-v, d) for v in x[c]] for c in range(n)]


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
        self._d = 1  # the last pivot, 1 before the first row

    def _ints(self, vec) -> list[int]:
        if len(vec) != self.width:
            raise ValueError(f"a vector of length {len(vec)} in a span of width {self.width}")
        (ints,), _ = scale_to_int([vec])
        return ints

    def _residual(self, ints: list[int]) -> tuple[list[int], int]:
        """The reduction of an integer vector against the span, and the
        pivot that reduction was last divided by."""
        res, e = ints, 1
        for row, c in zip(self._rows, self._pivots):
            if res[c]:
                res, e = _reduce(res, e, row, c)
        return res, e

    def _insert(self, ints: list[int]) -> bool:
        """Insert an integer vector of the right width; True when it
        enlarged the span."""
        res, e = self._residual(ints)
        col = next(compress(count(), res), None)
        if col is None:
            return False
        row = _up_to_date(res, e, self._d)
        self._rows.append(row)
        self._pivots.append(col)
        self._d = row[col]
        self._accepted.append(ints)
        return True

    def add(self, vec) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        return self._insert(self._ints(vec))

    def contains(self, vec) -> bool:
        return not any(self._residual(self._ints(vec))[0])

    @property
    def dim(self) -> int:
        return len(self._accepted)

    def basis(self) -> list[list[int]]:
        """The accepted vectors, scaled to integers, in insertion order."""
        return [list(row) for row in self._accepted]
