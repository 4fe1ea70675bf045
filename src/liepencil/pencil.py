"""Rank and Pfaffian data of the symbolic bracket matrix.

Everything here works over exact polynomial arithmetic.  The central object
is the profile of a skew matrix of linear forms: its generic rank r, the
Pfaffians of all principal r x r submatrices, and their greatest common
divisor p0.  Replacing each coordinate x_k by x_k + lambda*a_k turns p0 into
the polynomial whose degree pattern separates the pencil classes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from . import modp
from .model import LieAlgebra, SkewPolyMatrix, build_ax
from .poly import (
    Polynomial,
    VarKind,
    coefficients,
    div_exact,
    divides,
    integer_multiple,
    monomial_content,
    normalize,
    poly_gcd,
    sum_of_products,
)

__all__ = [
    "generic_rank",
    "principal_subsets",
    "pfaffian",
    "PfaffianCache",
    "PencilProfile",
    "pencil_profile",
]


def generic_rank(matrix: SkewPolyMatrix) -> int:
    """Rank over the rational function field in all symbolic variables.

    Takes a maximal set of rows that are independent at one fixed point
    mod a prime (see :func:`modp.independent_rows`) as an index set I,
    grows I by a pair j < k outside it whenever the principal Pfaffian
    Pf_{I+{j,k}} is nonzero, and returns |I| once no such pair is left.

    The result is exact: the point only gives a start with Pf_I != 0, and
    the symbolic search over all pairs still proves that no larger I
    exists.  Over Q(params, x), Pf_I != 0 makes the block M_II invertible
    (Pf^2 = det), so rank M = |I| + rank S for the Schur complement S of
    M_II, which is skew.  Reordering rows and columns only flips signs, and
    Pf of a block matrix factors through its Schur complement, so
    S_jk = +-Pf_{I+{j,k}} / Pf_I.  When every such Pfaffian vanishes, S = 0
    and rank M = |I|.  An index whose row of M is zero lies in no nonzero
    principal Pfaffian, so only the indices with a stored entry are paired.
    The growth runs on :func:`_integer_matrix`, which has the same rank.
    """
    return _cache_and_rank(matrix)[1]


def _cache_and_rank(matrix: SkewPolyMatrix) -> tuple[PfaffianCache, int]:
    """The cache on :func:`_integer_matrix` and the rank grown from the fixed point's rows."""
    cache = PfaffianCache(_integer_matrix(matrix))
    start = modp.independent_rows(cache.matrix, modp.fixed_point(matrix.registry))
    return cache, _grow(cache, matrix.size, bool, start)


def _grow(cache: PfaffianCache, cap: int, counts, chosen: tuple[int, ...]) -> int:
    """|I| for the index set grown as in :func:`generic_rank`.

    I starts from ``chosen``, increasing indices for which ``counts``
    holds, and a Pfaffian extends I when ``counts`` holds for it.  The
    growth stops once |I| reaches ``cap``, which spares the search over all
    pairs that proves no larger I exists.
    """
    while len(chosen) < cap:
        rest = [i for i in cache.live if i not in chosen]
        for j, k in itertools.combinations(rest, 2):
            grown = tuple(sorted(chosen + (j, k)))
            if counts(cache.pfaffian(grown)):
                chosen = grown
                break
        else:
            break
    return len(chosen)


def principal_subsets(n: int, r: int):
    """All increasing r-tuples from 1..n, in lexicographic order."""
    if r < 0:
        raise ValueError("subset size must be non-negative")
    if r > n:
        raise ValueError(f"subset size {r} exceeds the matrix size {n}")
    return itertools.combinations(range(1, n + 1), r)


class PfaffianCache:
    """Memoized Pfaffians of principal submatrices of one fixed matrix.

    Sharing the cache across all r-subsets of an n x n matrix makes the
    recursive expansion reuse the overlapping smaller minors, which is where
    nearly all of the work lives.  An index set is held as an int bit mask,
    bit i for index i, which keys the memo.  Each set is expanded along its
    sparsest row (see :meth:`_pf`).  ``live`` lists, in increasing order,
    the indices whose row holds a stored entry; a principal Pfaffian over
    any other index is zero.
    """

    def __init__(self, matrix: SkewPolyMatrix):
        self.matrix = matrix
        # the stored entry a_ij (i < j) of each pair, in both its rows, keyed
        # by the other index's bit, with the mask of the indices each row reaches
        self._row: list[dict[int, Polynomial]] = [{} for _ in range(matrix.size + 1)]
        self._reach = [0] * (matrix.size + 1)
        for (i, j), p in matrix.stored():
            self._row[i][1 << j] = self._row[j][1 << i] = p
            self._reach[i] |= 1 << j
            self._reach[j] |= 1 << i
        self.live = [i for i, bits in enumerate(self._reach) if bits]
        self._zero = matrix.registry.zero()
        self._memo: dict[int, Polynomial] = {0: matrix.registry.one()}

    def pfaffian(self, indices) -> Polynomial:
        size = self.matrix.size
        mask = 0
        last = 0
        for i in indices:
            if not 1 <= i <= size:
                raise ValueError("index out of range")
            if i <= last:
                raise ValueError("indices must be strictly increasing")
            mask |= 1 << i
            last = i
        if mask.bit_count() % 2:
            return self._zero
        cached = self._memo.get(mask)
        return self._pf(mask) if cached is None else cached

    def _pf(self, mask: int) -> Polynomial:
        """Pf of the even index set ``mask``, not yet in the memo, expanded
        along the row of the set with the fewest stored entries inside it.

        The lowest row is kept, with no scan, when it has at most one entry
        in the set; otherwise the scan stops at the first row with 0 or 1.
        A row with none makes the Pfaffian zero.  Only the stored entries of
        the row inside the set are visited.  For i and j at positions p and
        q of the set, counted from 0, the term is (-1)^(p+q+1) times the
        stored entry of {i, j} times Pf of the set without i and j: the flip
        a_ji = -a_ij cancels the sign of the order when j < i, so the term
        is subtracted exactly when p + q is even.  The terms are summed by
        one :func:`sum_of_products`, and a sub-Pfaffian is skipped when it
        is the cache's zero: every vanishing Pfaffian in the memo is that
        one object.
        """
        memo = self._memo
        zero = self._zero
        reach = self._reach
        pivot = mask & -mask
        hits = reach[pivot.bit_length() - 1] & mask
        if hits & (hits - 1):
            fewest = hits.bit_count()
            scan = mask ^ pivot
            while scan:
                bit = scan & -scan
                scan ^= bit
                row_hits = reach[bit.bit_length() - 1] & mask
                count = row_hits.bit_count()
                if count < fewest:
                    pivot, hits, fewest = bit, row_hits, count
                    if count < 2:
                        break
        rest = mask ^ pivot
        row = self._row[pivot.bit_length() - 1]
        flip = (mask & (pivot - 1)).bit_count() + 1
        products = []
        while hits:
            bit = hits & -hits
            hits ^= bit
            sub = memo.get(rest ^ bit)
            if sub is None:
                sub = self._pf(rest ^ bit)
            if sub is not zero:
                products.append((row[bit], sub, (flip + (mask & (bit - 1)).bit_count()) % 2))
        total = memo[mask] = (
            sum_of_products(self.matrix.registry, products) if products else zero
        )
        return total


def pfaffian(matrix: SkewPolyMatrix, indices=None) -> Polynomial:
    """Pfaffian of a principal submatrix (the whole matrix by default).

    Odd-sized index sets give zero.  Pf satisfies Pf(M)^2 = det(M) and
    Pf(P^T M P) = det(P) * Pf(M).
    """
    if indices is None:
        indices = range(1, matrix.size + 1)
    return PfaffianCache(matrix).pfaffian(indices)


@dataclass(frozen=True)
class PencilProfile:
    """Invariants of the symbolic matrix A_x read off before classification.

    ``p0`` is the greatest common divisor of the rank-sized principal
    Pfaffians, normalized to coprime integer coefficients with a positive
    leading term; ``route`` says how it was found (see
    :func:`pencil_profile`).  ``index`` is dim minus the generic rank.
    ``coordinate_degree``, ``p_lambda`` and ``pfaffians`` are computed on
    first read: p_lambda is p0 with every x_k shifted to x_k + lambda*a_k,
    and ``pfaffians`` lists each rank-sized principal index set with its
    Pfaffian.
    """

    matrix: SkewPolyMatrix
    generic_rank: int
    p0: Polynomial
    route: str

    @property
    def dim(self) -> int:
        return self.matrix.size

    @property
    def index(self) -> int:
        return self.dim - self.generic_rank

    @cached_property
    def coordinate_degree(self) -> int:
        """Degree of p0 in the coordinates alone (0 for constant p0)."""
        d = self.p0.degree_in([VarKind.COORDINATE])
        return int(d) if d > 0 else 0

    @cached_property
    def pfaffians(self) -> tuple[tuple[tuple[int, ...], Polynomial], ...]:
        cache = PfaffianCache(self.matrix)
        return tuple(
            (subset, cache.pfaffian(subset))
            for subset in principal_subsets(self.dim, self.generic_rank)
        )

    @cached_property
    def p_lambda(self) -> Polynomial:
        reg = self.p0.registry
        lam = reg.pencil()
        shift = {
            f"x{k}": reg.coordinate(k) + lam * reg.point(k)
            for k in range(1, reg.dim + 1)
        }
        return self.p0.substitute(shift)


# Nonzero Pfaffians whose gcd h is split into factors before the rest of the
# enumeration is given up for the certificate.
_CERTIFY_AFTER = 3


def _certified_factors(h: Polynomial):
    """Irreducible factors f of h with their orders ord_f h and the
    registry position of a coordinate f is linear in, or None.

    First the monomial part: a coordinate x_k dividing every term of h is
    a factor of order its least exponent.  Then each piece linear in some
    coordinate v is written c*v + e (c and e free of v) and split into
    gcd(c, e), free of v, and a primitive f linear in v.  Such an f is
    irreducible, and it is prime to the later pieces, which lack v, so its
    order is 1.  None when a factor involves a parameter or a piece is
    linear in no coordinate.
    """
    reg = h.registry
    factors = []
    piece = h
    for pos, k in reg.exponents(monomial_content(h)):
        if reg.kind_at(pos) is not VarKind.COORDINATE:
            return None
        var = reg.var(reg.name_at(pos))
        factors.append((var, k, pos))
        piece = div_exact(piece, var ** k)
    while not piece.is_constant():
        degrees: dict[int, int] = {}
        for mono, _ in piece.terms():
            for pos, k in reg.exponents(mono):
                degrees[pos] = max(degrees.get(pos, 0), k)
        linear = [
            pos for pos, k in sorted(degrees.items())
            if k == 1 and reg.kind_at(pos) is VarKind.COORDINATE
        ]
        if not linear:
            return None
        view = coefficients(piece, linear[0])
        common = poly_gcd(view[1], view.get(0, reg.zero()))
        f = div_exact(piece, common)
        if f.degree_in([VarKind.PARAMETER]) > 0:
            return None
        factors.append((f, 1, linear[0]))
        piece = common
    return factors


def _certified_p0(cache: PfaffianCache, r: int, h: Polynomial):
    """p0 from h, a normalized multiple of it, or None when unproven.

    For an irreducible f, rank_f is the rank of the matrix M over the
    field of fractions of Q[params, x]/(f).  There Pf_J(M) mod f is the
    Pfaffian of M mod f, so the growth of :func:`generic_rank` finds rank_f
    with "f does not divide Pf_J" as its test; it stops at r, since
    rank_f <= r.  Over the discrete valuation ring Q[params, x] localized
    at f, M has a skew Smith form with r/2 blocks f^(a_i) (Newman, Integral
    Matrices, 1972).  rank_f is twice the number of a_i = 0, and
    ord_f p0 = sum a_i.  So rank_f = r means f does not divide p0, and
    otherwise ord_f h >= ord_f p0 >= (r - rank_f)/2.  When every factor of
    h with rank_f < r has ord_f h <= (r - rank_f)/2, p0 is the product of
    those factors to their order in h.

    Each growth starts from the rows that are independent at the fixed
    point moved onto f = 0 (see :func:`modp.on_factor`), or from the empty
    set when the point cannot be moved there.  f is primitive, since h is,
    so f | Pf_I gives Pf_I = f*q with q integral (Gauss's lemma), and Pf_I
    vanishes mod the prime wherever f does: a Pfaffian nonzero there is
    not divisible by f.
    """
    factors = _certified_factors(h)
    if factors is None:
        return None
    p0 = h.registry.one()
    point = modp.fixed_point(h.registry)
    for f, order, pos in factors:
        moved = modp.on_factor(f, pos, point)
        start = () if moved is None else modp.independent_rows(cache.matrix, moved)
        rank_f = _grow(cache, r, lambda pf, f=f: not divides(f, pf), start)
        if rank_f == r:
            continue
        if 2 * order > r - rank_f:
            return None
        p0 = p0 * f ** order
    return normalize(p0)


def _integer_matrix(matrix: SkewPolyMatrix) -> SkewPolyMatrix:
    """``matrix`` times the lcm of its coefficient denominators, in ints;
    the denominators are read in one pass over the terms.

    A positive scalar s changes no rank, and it multiplies every r x r
    principal Pfaffian by s^(r/2), so the normalized gcd is the same.  A
    matrix that holds only ints is returned as it is.
    """
    denominators = {
        c.denominator for _, p in matrix.stored() for _, c in p.terms() if type(c) is not int
    }
    if not denominators:
        return matrix
    scale = math.lcm(*denominators)
    return SkewPolyMatrix(
        matrix.size,
        matrix.registry,
        {ij: integer_multiple(p, scale) for ij, p in matrix.stored()},
    )


def pencil_profile(source: LieAlgebra | SkewPolyMatrix) -> PencilProfile:
    """Compute rank, index, and the gcd p0 of the principal Pfaffians.

    Accepts either a bracket table (the matrix A_x is built from it) or a
    ready-made skew polynomial matrix.

    The rank r comes from the growth of :func:`generic_rank`, which shares
    its Pfaffian cache with the walk.  The rank-sized principal Pfaffians
    over the indices whose row is not zero (``PfaffianCache.live``; every
    other Pfaffian vanishes) are taken in lexicographic order into a
    normalized running gcd g by poly_gcd alone, which returns g at once
    when g divides the next one.  The walk
    stops once g is constant, since p0 is then 1.  After the third nonzero
    Pfaffian, with subsets still left, h = g is split into factors and the
    rank of the matrix on each factor decides p0 (see
    :func:`_certified_p0`); that is route "certified".  When the
    certificate does not apply the walk goes on to the end, and p0 is the
    gcd of all of them: route "enumerated".

    All of this runs on an integer multiple of the matrix (see
    :func:`_integer_matrix`), so every Pfaffian, gcd and trial division
    stays in Z[params, x]; the profile keeps the matrix as given.
    """
    matrix = build_ax(source) if isinstance(source, LieAlgebra) else source
    cache, r = _cache_and_rank(matrix)
    live = cache.live
    total = math.comb(len(live), r)
    g = None
    nonzero = 0
    p0 = None
    for done, picks in enumerate(principal_subsets(len(live), r), start=1):
        pf = cache.pfaffian([live[k - 1] for k in picks])
        if not pf:
            continue
        nonzero += 1
        g = normalize(pf) if g is None else poly_gcd(g, pf)
        if g.is_constant():
            break
        if nonzero == _CERTIFY_AFTER and done < total:
            p0 = _certified_p0(cache, r, g)
            if p0 is not None:
                break
    # the growth stops at an index set whose r x r Pfaffian is nonzero
    # (at r = 0 that is Pf of the empty set, 1), so g is never None
    route = "enumerated" if p0 is None else "certified"
    if p0 is None:
        p0 = g
    return PencilProfile(matrix=matrix, generic_rank=r, p0=p0, route=route)
