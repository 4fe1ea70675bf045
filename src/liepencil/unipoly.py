"""Dense univariate polynomials over Z or Q, as coefficient lists.

``p[i]`` is the coefficient of the i-th power; the zero polynomial is the
empty list, so there are never trailing zeros.  Coefficients keep the ring
they come in: integer lists stay in Z[t] through every ring operation and
every exact division, and a ``Fraction`` appears only where a quotient
leaves Z.  This tiny layer backs the numeric pencil oracle and is
deliberately independent from the sparse multivariate ring in
:mod:`liepencil.poly`: the two implementations check each other in the
test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Poly = list  # list[int] in Z[t]; Fractions enter only over Q


def trim(p) -> Poly:
    q = list(p)
    while q and not q[-1]:
        q.pop()
    return q


def deg(p) -> int:
    """Degree, with deg(0) = -1 by local convention."""
    return len(p) - 1


def add(p, q) -> Poly:
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p) -> Poly:
    return [-c for c in p]


def sub(p, q) -> Poly:
    return add(p, neg(q))


def mul(p, q) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return trim(out)


def _quotient(a, b):
    """a / b, kept in Z when b divides a, else a Fraction."""
    f, rem = divmod(a, b)
    return Fraction(a) / b if rem else f


def divmod_poly(p, q) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("univariate division by zero")
    r = list(p)
    quot = [0] * max(len(p) - len(q) + 1, 0)
    dq = deg(q)
    lc = q[-1]
    while len(r) - 1 >= dq and any(r):
        while r and not r[-1]:
            r.pop()
        if len(r) - 1 < dq:
            break
        shift = len(r) - 1 - dq
        f = _quotient(r[-1], lc)
        quot[shift] = f
        for i, c in enumerate(q):
            r[shift + i] -= f * c
    return trim(quot), trim(r)


def div_exact(p, q) -> Poly:
    quot, rem = divmod_poly(p, q)
    if rem:
        raise ValueError("univariate division was not exact")
    return quot


def evaluate(p, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def primitive(p) -> Poly:
    """Integer scalar multiple as ints, coprime, positive leading."""
    if not p:
        return []
    num = 0
    den = 1
    for c in p:
        num = math.gcd(num, c.numerator)
        den = den * c.denominator // math.gcd(den, c.denominator)
    if p[-1] < 0:
        num = -num
    return [c.numerator * (den // c.denominator) // num for c in p]


def gcd_poly(p, q) -> Poly:
    """Normalized gcd (primitive, positive leading); gcd(p, 0) = primitive(p)."""
    a, b = trim(p), trim(q)
    while b:
        _, r = divmod_poly(a, b)
        a, b = b, r
    return primitive(a)


def format_poly(p, var: str = "lambda") -> str:
    """Human form with descending powers, e.g. ``lambda^2 - 2*lambda + 1``."""
    if not p:
        return "0"
    pieces = []
    first = True
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        negative = c < 0
        mag = -c if negative else c
        if i == 0:
            body = _decimal(mag)
        else:
            vp = var if i == 1 else f"{var}^{i}"
            body = vp if mag == 1 else f"{_decimal(mag)}*{vp}"
        if first:
            pieces.append(f"-{body}" if negative else body)
            first = False
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


def _decimal(c) -> str:
    """``str(c)`` for a rational c >= 0 of any size.

    An int past Python's limit on the digits of an int string is written as
    two halves, each split again as needed.
    """
    if c.denominator != 1:
        return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"
    n = c.numerator
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half of its decimal digits
        high, low = divmod(n, 10**half)
        return _decimal(high) + _decimal(low).zfill(half)


# Largest coefficient magnitude the rational root search factors.
_FACTOR_BOUND = 10**12


def _divisors(n: int):
    """Sorted positive divisors, or None when factoring would be too costly."""
    n = abs(n)
    if n == 0 or n > _FACTOR_BOUND:
        return None
    divs = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            divs.add(i)
            divs.add(n // i)
        i += 1
    return sorted(divs)


def rational_roots(p):
    """All rational roots with multiplicities, plus the rootless cofactor.

    Returns ``(roots, residual, complete)`` where roots is a list of
    ``(root, multiplicity)`` pairs.  When the trailing or leading coefficient
    is too large to factor (past ``_FACTOR_BOUND``), the search is abandoned
    and ``complete`` is False.
    """
    p = primitive(p)
    if not p:
        raise ValueError("zero polynomial has every root")
    roots: list[tuple[Fraction, int]] = []
    mult0 = 0
    while p and not p[0]:
        p = p[1:]
        mult0 += 1
    if mult0:
        roots.append((Fraction(0), mult0))
    if deg(p) == 0:
        return roots, p, True
    nums = _divisors(p[0])
    dens = _divisors(p[-1])
    if nums is None or dens is None:
        return roots, p, False
    candidates = sorted(
        {Fraction(s * n, d) for n in nums for d in dens for s in (1, -1)},
        key=lambda f: (abs(f), f < 0),
    )
    for cand in candidates:
        if deg(p) == 0:
            break
        mult = 0
        while (quot := _divide_linear(p, cand.numerator, cand.denominator)) is not None:
            p = quot
            mult += 1
        if mult:
            roots.append((cand, mult))
    return roots, p, True


def _divide_linear(p: Poly, n: int, d: int):
    """p / (d*t - n) for a primitive integer p, or None when n/d is no root.

    One synthetic division from the top: the quotient q has q[k-1] =
    (p[k] + n*q[k]) / d, and the remainder is p[0] + n*q[0].  With d > 0
    and gcd(n, d) = 1, d*t - n is primitive, so by Gauss's lemma it divides
    p in Q[t] only if the quotient is in Z[t]; a division by d with a
    remainder on the way therefore already rules the root out.
    """
    q = [0] * (len(p) - 1)
    acc = 0
    for k in range(len(p) - 1, 0, -1):
        acc, rem = divmod(p[k] + n * acc, d)
        if rem:
            return None
        q[k - 1] = acc
    return q if p[0] + n * acc == 0 else None


def pencil_det(a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]) -> Poly:
    """det(A + t B) for integer matrices, by fraction-free elimination.

    Entries live in Z[t]; every division by the previous pivot is exact in
    Z[t] (Sylvester's identity), so the work stays in ints and intermediate
    blowup stays polynomial.
    """
    n = len(a_rows)
    if n == 0:
        return [1]
    work: list[list[Poly]] = [
        [trim([a_rows[i][j], b_rows[i][j]]) for j in range(n)] for i in range(n)
    ]
    prev: Poly = [1]
    sign = 1
    for k in range(n):
        pivot = None
        best = None
        for i in range(k, n):
            for j in range(k, n):
                e = work[i][j]
                if e and (best is None or len(e) < best):
                    best = len(e)
                    pivot = (i, j)
        if pivot is None:
            return []
        pi, pj = pivot
        if pi != k:
            work[k], work[pi] = work[pi], work[k]
            sign = -sign
        if pj != k:
            for row in work:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        pv = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = sub(mul(pv, work[i][j]), mul(work[i][k], work[k][j]))
                work[i][j] = div_exact(num, prev) if num else []
        prev = pv
    result = work[n - 1][n - 1]
    return neg(result) if sign < 0 else result


def pencil_pfaffian(a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]) -> Poly:
    """Pf(A + t B) for skew-symmetric integer matrices, by fraction-free elimination.

    Each step takes a nonzero entry (i, j), i < j, of the remaining indices,
    the shortest one, as the pivot pair and moves it to the front; that
    reordering multiplies the Pfaffian by (-1)^(pos_i + pos_j - 1), where
    pos is the place among the remaining indices.  Every other entry (p, q)
    with p < q becomes

        (w_ij w_pq - w_ip w_jq + w_iq w_jp) / prev

    with prev the previous pivot, and only that upper triangle is kept.
    The division is exact in Z[t] by the Pfaffian analogue of Sylvester's
    identity (Knuth, "Overlapping Pfaffians", 1996): the new entry is the
    Pfaffian on the pivot pairs so far plus p and q, so the last pivot is
    Pf(A + t B) up to the sign of the reorderings.  With no nonzero entry
    left, or an odd size, the Pfaffian is zero.  Input that is not
    skew-symmetric raises ValueError.
    """
    n = len(a_rows)
    if (
        len(b_rows) != n
        or any(len(row) != n for row in (*a_rows, *b_rows))
        or any(
            m[i][j] != -m[j][i] for m in (a_rows, b_rows) for i in range(n) for j in range(i, n)
        )
    ):
        raise ValueError("a Pfaffian needs two skew-symmetric matrices of one size")
    if n % 2:
        return []
    w: list[list[Poly]] = [
        [trim([a_rows[i][j], b_rows[i][j]]) if i < j else [] for j in range(n)]
        for i in range(n)
    ]
    live = list(range(n))
    prev: Poly = [1]
    sign = 1
    while live:
        best, shortest = None, 0
        for x, i in enumerate(live):
            wi = w[i]
            for y in range(x + 1, len(live)):
                size = len(wi[live[y]])
                if size and (best is None or size < shortest):
                    best, shortest = (x, y), size
        if best is None:
            return []
        x, y = best
        i, j = live[x], live[y]
        if (x + y - 1) % 2:
            sign = -sign
        rest = live[:x] + live[x + 1:y] + live[y + 1:]
        pivot = w[i][j]
        # rows i and j over the rest, read through skew symmetry
        row_i = [w[i][p] if i < p else neg(w[p][i]) for p in rest]
        row_j = [w[j][p] if j < p else neg(w[p][j]) for p in rest]
        for x, p in enumerate(rest):
            wp = w[p]
            for y in range(x + 1, len(rest)):
                num = add(
                    sub(mul(pivot, wp[rest[y]]), mul(row_i[x], row_j[y])),
                    mul(row_i[y], row_j[x]),
                )
                wp[rest[y]] = div_exact(num, prev) if num else []
        prev = pivot
        live = rest
    return neg(prev) if sign < 0 else prev
