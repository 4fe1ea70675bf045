"""Rank and Pfaffian data of the symbolic bracket matrix.

Everything here works over exact polynomial arithmetic.  The central object
is the profile of a skew matrix of linear forms: its generic rank r, the
Pfaffians of all principal r x r submatrices, and their greatest common
divisor p0.  Replacing each coordinate x_k by x_k + lambda*a_k turns p0 into
the polynomial whose degree pattern separates the pencil classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import LieAlgebra, SkewPolyMatrix, build_ax
from .poly import Polynomial, VarKind, normalize, poly_gcd

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

    Grows an index set I, starting from the empty set, by a pair j < k
    outside I whenever the principal Pfaffian Pf_{I+{j,k}} is nonzero, and
    returns |I| once no such pair is left.

    The result is exact, with no points sampled.  Over Q(params, x),
    Pf_I != 0 makes the block M_II invertible (Pf^2 = det), so
    rank M = |I| + rank S for the Schur complement S of M_II, which is skew.
    Reordering rows and columns only flips signs, and Pf of a block matrix
    factors through its Schur complement, so S_jk = +-Pf_{I+{j,k}} / Pf_I.
    When every such Pfaffian vanishes, S = 0 and rank M = |I|.
    """
    cache = PfaffianCache(matrix)
    chosen: tuple[int, ...] = ()
    while True:
        rest = [i for i in range(1, matrix.size + 1) if i not in chosen]
        for j, k in itertools.combinations(rest, 2):
            grown = tuple(sorted(chosen + (j, k)))
            if cache.pfaffian(grown):
                chosen = grown
                break
        else:
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
    nearly all of the work lives.
    """

    def __init__(self, matrix: SkewPolyMatrix):
        self.matrix = matrix
        self._memo: dict[tuple[int, ...], Polynomial] = {}

    def pfaffian(self, indices) -> Polynomial:
        idx = tuple(indices)
        if sorted(set(idx)) != list(idx):
            raise ValueError("indices must be strictly increasing")
        if idx and not (1 <= idx[0] and idx[-1] <= self.matrix.size):
            raise ValueError("index out of range")
        return self._pf(idx)

    def _pf(self, idx: tuple[int, ...]) -> Polynomial:
        reg = self.matrix.registry
        if len(idx) % 2:
            return reg.zero()
        if not idx:
            return reg.one()
        cached = self._memo.get(idx)
        if cached is not None:
            return cached
        first = idx[0]
        total = reg.zero()
        sign = 1
        for t in range(1, len(idx)):
            entry = self.matrix.entry(first, idx[t])
            if entry:
                rest = idx[1:t] + idx[t + 1:]
                term = entry * self._pf(rest)
                total = total + term if sign > 0 else total - term
            sign = -sign
        self._memo[idx] = total
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

    ``pfaffians`` lists each rank-sized principal index set with its
    Pfaffian; ``p0`` is their greatest common divisor, normalized to coprime
    integer coefficients with a positive leading term.  ``p_lambda`` is p0
    with every x_k shifted to x_k + lambda*a_k.
    """

    matrix: SkewPolyMatrix
    generic_rank: int
    index: int
    pfaffians: tuple[tuple[tuple[int, ...], Polynomial], ...]
    p0: Polynomial
    p_lambda: Polynomial

    @property
    def dim(self) -> int:
        return self.matrix.size

    @property
    def coordinate_degree(self) -> int:
        """Degree of p0 in the coordinates alone (0 for constant p0)."""
        d = self.p0.degree_in([VarKind.COORDINATE])
        return int(d) if d > 0 else 0


def _lambda_shift(p0: Polynomial) -> Polynomial:
    reg = p0.registry
    lam = reg.pencil()
    shift = {
        f"x{k}": reg.coordinate(k) + lam * reg.point(k)
        for k in range(1, reg.dim + 1)
    }
    return p0.substitute(shift)


def pencil_profile(source: LieAlgebra | SkewPolyMatrix) -> PencilProfile:
    """Compute rank, index, principal Pfaffians, and their gcd.

    Accepts either a bracket table (the matrix A_x is built from it) or a
    ready-made skew polynomial matrix.
    """
    matrix = build_ax(source) if isinstance(source, LieAlgebra) else source
    n = matrix.size
    r = generic_rank(matrix)
    cache = PfaffianCache(matrix)
    collected = []
    gcd_far = None
    for subset in principal_subsets(n, r):
        pf = cache.pfaffian(subset)
        collected.append((subset, pf))
        if not pf:
            continue
        if gcd_far is None:
            gcd_far = pf
        elif not gcd_far.is_constant():
            # a constant running gcd is already p0 = 1; later Pfaffians
            # are still collected but cannot change it
            gcd_far = poly_gcd(gcd_far, pf)
    # generic_rank stops at an index set whose r x r Pfaffian is nonzero
    # (at r = 0 that is Pf of the empty set, 1), so gcd_far is never None
    p0 = normalize(gcd_far)
    return PencilProfile(
        matrix=matrix,
        generic_rank=r,
        index=n - r,
        pfaffians=tuple(collected),
        p0=p0,
        p_lambda=_lambda_shift(p0),
    )
