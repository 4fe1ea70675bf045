"""Dense univariate polynomials over Z, as coefficient lists.

``p[i]`` is the coefficient of the i-th power; the zero polynomial is the
empty list, so there are never trailing zeros.  Everything is computed in
Z[t] through one Pfaffian, :func:`pencil_pfaffian`, and one long division,
:func:`_divide`, that stops at the first step which is not exact in Z.
Pf(A + t B) is one integer Pfaffian at t = 2^k, with k chosen by Hadamard's
inequality and Cauchy's estimate so that every coefficient is below 2^(k-1)
and is read back as a signed base-2^k digit (see :func:`pencil_pfaffian`
for the proof); :func:`pencil_det` is the Pfaffian of a skew embedding, and
:func:`gcd_poly` a primitive pseudo-remainder sequence.  A ``Fraction``
enters only through the input of :func:`primitive`, which scales it to a
primitive integer polynomial, and as a characteristic number (a rational
root).  This tiny layer backs the numeric pencil oracle and is
deliberately independent from the sparse multivariate ring in
:mod:`liepencil.poly`: the two implementations check each other in the
test suite.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

Poly = list  # list[int] in Z[t]; a Fraction only as primitive's input


def trim(p) -> Poly:
    q = list(p)
    while q and not q[-1]:
        q.pop()
    return q


def deg(p) -> int:
    """Degree, with deg(0) = -1 by local convention."""
    return len(p) - 1


def neg(p) -> Poly:
    return [-c for c in p]


def _divide(p, q):
    """Long division of p by q != 0 in Z[t], from the top.

    Returns ``(quotient, remainder)`` with deg(remainder) < deg(q), or None
    at the first step whose leading coefficient lc(q) does not divide.
    """
    if not q:
        raise ZeroDivisionError("univariate division by zero")
    r = trim(p)
    dq = deg(q)
    lc = q[-1]
    quot = [0] * max(len(r) - dq, 0)
    for k in range(len(quot) - 1, -1, -1):
        c, rem = divmod(r[k + dq], lc)
        if rem:
            return None
        quot[k] = c
        if c:
            for i in range(dq):
                r[k + i] -= c * q[i]
    return quot, trim(r[:dq])


def primitive(p) -> Poly:
    """Integer scalar multiple as ints, coprime, positive leading."""
    p = trim(p)
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
    """Normalized gcd (primitive, positive leading); gcd(p, 0) = primitive(p).

    A primitive pseudo-remainder sequence: every step of the long division
    of lc(b)^(deg a - deg b + 1) * a by b is exact in Z, and each remainder
    is made primitive, which by Gauss's lemma keeps the gcd.
    """
    a, b = primitive(p), primitive(q)
    while b:
        scaled = [c * b[-1] ** max(len(a) - len(b) + 1, 0) for c in a]
        a, b = b, primitive(_divide(scaled, b)[1])
    return a


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


# Largest coefficient magnitude the rational root search factors; its
# square root bounds the number of candidates the search tests.
_FACTOR_BOUND = 10**12


def _divisors(n: int):
    """Sorted positive divisors, or None when factoring would be too costly.

    Trial division by 2, 3 and then the numbers 6k - 1 and 6k + 1, while
    their square is at most the part of n not yet factored; what is left
    then is 1 or a prime.  The divisors are the products of the prime
    powers found.
    """
    n = abs(n)
    if n == 0 or n > _FACTOR_BOUND:
        return None
    divs = [1]
    for p in itertools.chain((2, 3), itertools.accumulate(itertools.cycle((2, 4)), initial=5)):
        if p * p > n:
            break
        if n % p == 0:
            powers = [1]
            while n % p == 0:
                n //= p
                powers.append(powers[-1] * p)
            divs = [d * q for q in powers for d in divs]
    if n > 1:
        divs += [d * n for d in divs]
    return sorted(divs)


def rational_roots(p):
    """All rational roots with multiplicities, plus the rootless cofactor.

    Returns ``(roots, residual, complete)`` where roots is a list of
    ``(root, multiplicity)`` pairs in the order of |root|, a positive root
    before its negative.  A candidate n/d in lowest terms, with n dividing
    the trailing and d the leading coefficient, is a root exactly when the
    primitive d*t - n divides p in Z[t] (Gauss's lemma), and each one found
    is divided out.  When an end coefficient is too large to factor (past
    ``_FACTOR_BOUND``), or there would be more than its square root of
    candidates, the search is abandoned and ``complete`` is False.
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
    if nums is None or dens is None or 2 * len(nums) * len(dens) > math.isqrt(_FACTOR_BOUND):
        return roots, p, False
    candidates = ((m, d) for n in nums for d in dens if math.gcd(n, d) == 1 for m in (n, -n))
    for m, d in candidates:
        if deg(p) == 0:
            break
        mult = 0
        # the quotient stays primitive, so a root's m and d still divide its ends
        while not (p[0] % m or p[-1] % d) and (res := _divide(p, [-m, d])) and not res[1]:
            p = res[0]
            mult += 1
        if mult:
            roots.append((Fraction(m, d), mult))
    roots.sort(key=lambda root: (abs(root[0]), root[0] < 0))
    return roots, p, True


def pencil_det(a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]) -> Poly:
    """det(A + t B) for square integer matrices of one size.

    With M = A + t B of size n, the skew embedding [[0, M], [-M^T, 0]] has
    Pfaffian (-1)^(n(n-1)/2) det(M), so this is :func:`pencil_pfaffian` of
    the embeddings of A and B, with that sign.
    """
    n = len(a_rows)
    if len(b_rows) != n or any(len(row) != n for row in (*a_rows, *b_rows)):
        raise ValueError("a determinant needs two square matrices of one size")

    def embed(m):
        return [[0] * n + list(row) for row in m] + [[-v for v in col] + [0] * n for col in zip(*m)]

    pf = pencil_pfaffian(embed(a_rows), embed(b_rows))
    return neg(pf) if n * (n - 1) // 2 % 2 else pf


def pencil_pfaffian(a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]) -> Poly:
    """Pf(A + t B) for skew-symmetric integer matrices, as one integer Pfaffian.

    P(t) = Pf(A + t B) is read off the integer Pfaffian of M = A + T B at
    T = 2^k (Kronecker substitution): P(T) = sum p_j T^j, and when every
    |p_j| < T/2 the p_j are the signed base-T digits of P(T), one way only.

    The bound.  Let c_i = |a_i| + |b_i|, with a_i, b_i the i-th rows and
    |.| the Euclidean norm.  For |t| = 1 row i of A + t B has norm at most
    c_i, so Hadamard's inequality gives |P(t)|^2 = |det(A + t B)| <= prod c_i,
    and by Cauchy's estimate every |p_j| is at most the largest |P(t)| on
    the unit circle, H = (prod c_i)^(1/2).  In integers, c_i is below
    isqrt(|a_i|^2) + isqrt(|b_i|^2) + 2, so with h the product of those
    factors, H^2 <= h < 2^h.bit_length() <= 2^(2k - 2), that is H < T/2.

    The elimination is fraction-free (Knuth, "Overlapping Pfaffians",
    1996).  Each step takes the first nonzero entry (i, j) of the first
    remaining row i as the pivot pair and moves j next to i, which
    multiplies the Pfaffian by (-1)^(pos_j - 1), pos_j being j's place
    among the remaining indices.  Every other entry (p, q), p < q, becomes

        (w_ij w_pq - w_ip w_jq + w_iq w_jp) / prev

    with prev the previous pivot; only that upper triangle is kept.  The
    division is exact in Z by the Pfaffian analogue of Sylvester's identity:
    the new entry is the Pfaffian on the pivot pairs so far plus p and q, so
    the last pivot is Pf(M) up to the sign of the reorderings.  A remaining
    row of zeros, or an odd size, makes the Pfaffian zero; P(T) = 0 only
    for P = 0, because the top digit of a nonzero P outweighs the rest.
    Input that is not skew-symmetric raises ValueError.
    """
    n = len(a_rows)
    if (
        len(b_rows) != n
        or any(len(row) != n for row in (*a_rows, *b_rows))
        or any(
            list(row) != [-v for v in col] for m in (a_rows, b_rows) for row, col in zip(m, zip(*m))
        )
    ):
        raise ValueError("a Pfaffian needs two skew-symmetric matrices of one size")
    if n % 2:
        return []
    h = 1
    for ra, rb in zip(a_rows, b_rows):
        h *= math.isqrt(sum(v * v for v in ra)) + math.isqrt(sum(v * v for v in rb)) + 2
    k = (h.bit_length() + 1) // 2 + 1
    # w[x] holds the entries (x, y) for y > x, in the order of the remaining indices
    w = [
        [a + (b << k) for a, b in zip(ra[i + 1:], rb[i + 1:])]
        for i, (ra, rb) in enumerate(zip(a_rows, b_rows))
    ]
    prev = 1
    sign = 1
    while w:
        first = w[0]
        c = next((x for x, v in enumerate(first) if v), None)
        if c is None:
            return []
        if c % 2:
            sign = -sign
        pivot = first[c]
        j = c + 1
        # rows i = 0 and j over the remaining indices, read through skew symmetry
        row_i = first[:c] + first[j:]
        row_j = [-w[p][c - p] for p in range(1, j)] + w[j]
        reduced = []
        for x, p in enumerate((*range(1, j), *range(j + 1, len(w)))):
            row_p = w[p][: j - p - 1] + w[p][j - p:] if p < j else w[p]
            wip, wjp = row_i[x], row_j[x]
            reduced.append([
                (pivot * wpq - wip * wjq + wiq * wjp) // prev
                for wpq, wiq, wjq in zip(row_p, row_i[x + 1:], row_j[x + 1:])
            ])
        prev = pivot
        w = reduced
    return _signed_digits(prev if sign > 0 else -prev, k)


def _signed_digits(v: int, k: int) -> Poly:
    """The digits p_j, each in [-2^(k-1), 2^(k-1)), with v = sum p_j 2^(jk)."""
    base = 1 << k
    half = base >> 1
    out = []
    while v:
        d = v & (base - 1)
        if d >= half:
            d -= base
        out.append(d)
        v = (v - d) >> k
    return out
