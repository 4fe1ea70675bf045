"""Arithmetic mod one prime for the symbolic side.

An integer polynomial that is nonzero mod ``PRIME`` at a point is nonzero,
so what is found here at a point is a lower bound that ``pencil`` builds
its exact proofs on.
"""

from __future__ import annotations

import random

from .poly import Polynomial, coefficients

PRIME = 2**31 - 1

# The point is drawn from this seed.  Its values must not follow a
# pattern: at x_k = c*g^k, for one, A_x of gl_n is taken at a matrix of
# rank 1, where its rank is 2n - 2.
_POINT_SEED = 2207
_points: dict[int, tuple[int, ...]] = {}


def fixed_point(reg) -> tuple[int, ...]:
    """The fixed point: one seeded value mod PRIME per registry position."""
    count = len(reg.names())
    point = _points.get(count)
    if point is None:
        rng = random.Random(_POINT_SEED)
        point = _points[count] = tuple(rng.randrange(1, PRIME) for _ in range(count))
    return point


def evaluator(reg, point):
    """p -> p(point) mod PRIME, for integer polynomials over ``reg``."""
    seen: dict[int, int] = {}

    def value(p: Polynomial) -> int:
        total = 0
        for mono, c in p.terms():
            v = seen.get(mono)
            if v is None:
                v = 1
                for pos, e in reg.exponents(mono):
                    v = v * (point[pos] if e == 1 else pow(point[pos], e, PRIME)) % PRIME
                seen[mono] = v
            total += c * v
        return total % PRIME

    return value


def independent_rows(matrix, point) -> tuple[int, ...]:
    """A maximal set I of rows of the integer skew ``matrix`` that are
    independent mod PRIME at ``point``, in increasing order.

    Skew elimination in pivot pairs, each row a sparse dict: take the lowest
    row i left with an entry, its lowest entry a_ij as the pivot, and replace
    the rows left by the Schur complement of the block on {i, j}, which is
    skew again: a_kl += (a_jk*a_il - a_ik*a_jl) / a_ij.  I is the union of
    the pivot pairs.  Pf of a block matrix factors through its Schur
    complement, so Pf_I at the point is the product of the pivots up to
    sign: the block on I is nonsingular there, and Pf_I is a nonzero
    polynomial.  The elimination ends when no entry is left, so |I| is the
    rank at the point.  Each update of a_kl also sets a_lk = -a_kl, so the
    pairs of rows left are visited in any order.  The pivot is inverted
    only when at least two rows are left to update; on h_{2k+1} none ever
    is.
    """
    value = evaluator(matrix.registry, point)
    rows: dict[int, dict[int, int]] = {}
    for (i, j), p in matrix.stored():
        v = value(p)
        if v:
            rows.setdefault(i, {})[j] = v
            rows.setdefault(j, {})[i] = PRIME - v
    chosen = []
    for i in sorted(rows):
        ri = rows.pop(i, None)
        if not ri:
            continue
        j = min(ri)
        rj = rows.pop(j)
        chosen += (i, j)
        pivot = ri.pop(j)
        del rj[i]
        for k in ri:
            del rows[k][i]
        for k in rj:
            del rows[k][j]
        rest = list(ri.keys() | rj.keys())
        if len(rest) < 2:
            continue
        inverse = pow(pivot, -1, PRIME)
        for n, k in enumerate(rest):
            rk = rows[k]
            ik = ri.get(k, 0) * inverse % PRIME
            jk = rj.get(k, 0) * inverse % PRIME
            for l in rest[n + 1:]:
                v = (rk.get(l, 0) + jk * ri.get(l, 0) - ik * rj.get(l, 0)) % PRIME
                if v:
                    rk[l] = v
                    rows[l][k] = PRIME - v
                elif l in rk:
                    del rk[l], rows[l][k]
    return tuple(sorted(chosen))


def on_factor(f: Polynomial, pos: int, point):
    """``point`` moved onto f = 0 mod PRIME along the coordinate v at
    registry position ``pos``, or None.

    f = c*v + e with c and e free of v; the value of v becomes -e/c, and
    None says that c vanishes at the point.
    """
    view = coefficients(f, pos)
    value = evaluator(f.registry, point)
    c = value(view[1])
    if not c:
        return None
    moved = list(point)
    moved[pos] = -value(view.get(0, f.registry.zero())) * pow(c, -1, PRIME) % PRIME
    return moved
