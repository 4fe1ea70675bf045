"""Seed-fixed input generators with closed-form ground truth.

Lie algebras of matrix units (gl_n, the Borel b_n, the nilradical n_n), the
Heisenberg algebras h_{2k+1}, and scrambled block pencils for the numeric
oracle.  The generators live here, not in the library, so that the inputs
the benchmark feeds the program stay outside the code under measurement.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from liepencil import (
    InfiniteJordanBlock,
    JordanBlock,
    KroneckerBlock,
    LieAlgebra,
    VarRegistry,
)


def signed_algebra(dim, table, signs, name):
    """LieAlgebra from {(i, j): {k: int}} in the basis e'_i = s_i * e_i.

    Flipping basis signs rescales c_ij^k by s_i*s_j*s_k and changes neither
    the index nor, after normalization, p0.
    """
    reg = VarRegistry(dim)
    brackets = {}
    for (i, j), comps in table.items():
        terms = {
            k: reg.constant(c * signs[i - 1] * signs[j - 1] * signs[k - 1])
            for k, c in comps.items()
        }
        brackets[(i, j)] = terms
    return LieAlgebra(dim, reg, brackets=brackets, name=name)


def _matrix_units(pairs):
    """Bracket table of the span of matrix units E_ab, (a, b) in ``pairs``.

    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb; ``pairs`` must be closed
    under this bracket.
    """
    index = {p: i for i, p in enumerate(pairs, start=1)}
    table = {}
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        comps = {}
        if b == c:
            k = index[(a, d)]
            comps[k] = comps.get(k, 0) + 1
        if d == a:
            k = index[(c, b)]
            comps[k] = comps.get(k, 0) - 1
        comps = {k: v for k, v in comps.items() if v}
        if comps:
            table[(index[(a, b)], index[(c, d)])] = comps
    return len(pairs), table


def _units(n, keep):
    return [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if keep(a, b)]


def gl(n):
    return _matrix_units(_units(n, lambda a, b: True))


def borel(n):
    return _matrix_units(_units(n, lambda a, b: a <= b))


def nilradical(n):
    return _matrix_units(_units(n, lambda a, b: a < b))


def heisenberg(k):
    """h_{2k+1}: [e_i, e_{k+i}] = e_{2k+1} for i = 1..k."""
    return 2 * k + 1, {(i, k + i): {2 * k + 1: 1} for i in range(1, k + 1)}


def index_gl(n):
    return n


def index_nilradical(n):
    return n // 2


def index_borel(n):
    return (n - 1) // 2 + 1


def ladder_specs():
    """(name, (dim, table), expected index, expected p0 or None), smallest first.

    p0 is given where the closed form fixes it: gl_n is reductive, hence
    Kronecker (p0 = 1), and h_{2k+1} has index 1 and p0 = x_{2k+1}^k.
    """
    specs = [
        ("b4", borel(4), index_borel(4), None),
        ("n5", nilradical(5), index_nilradical(5), None),
        ("gl3", gl(3), index_gl(3), "1"),
        ("b5", borel(5), index_borel(5), None),
        ("n6", nilradical(6), index_nilradical(6), None),
    ]
    for k in range(1, 16):
        p0 = f"x{2 * k + 1}" + (f"^{k}" if k > 1 else "")
        specs.append((f"h{2 * k + 1}", heisenberg(k), 1, p0))
    return specs


def random_unimodular(n, rng, steps=10, cap=60):
    """Integer matrix with determinant +-1 and entries bounded by ``cap``,
    from row additions (coefficients in [-2, 2]), swaps and sign flips."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            candidate = [m[i][k] + c * m[j][k] for k in range(n)]
            if max(abs(v) for v in candidate) <= cap:
                m[i] = candidate
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-v for v in m[i]]
    return m


def random_blocks(rng):
    """One to five canonical blocks, drawn as in acceptance criterion 7a.

    Sizes in matrix rows run from 1 to 25.
    """
    blocks = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            blocks.append(JordanBlock(lam, rng.randint(1, 3)))
        elif kind == 1:
            blocks.append(InfiniteJordanBlock(rng.randint(1, 3)))
        else:
            blocks.append(KroneckerBlock(rng.randint(0, 3)))
    return blocks
