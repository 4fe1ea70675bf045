"""Exact linear algebra over Fraction and int matrices.

Rank, kernel and inverse all come from one elimination, the insertion of
a matrix's rows into a span; they are checked against Laplace expansion,
against rank-nullity and the defining equations, and the span's echelon
rows against eager Bareiss.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liepencil import ratmat
from liepencil.ratmat import (
    SpanBuilder,
    inverse,
    is_skew,
    kernel,
    mat_vec,
    matmul,
    rank,
    transpose,
)

from helpers import EagerSpan, laplace_det, random_unimodular


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _random_matrix(rng, rows, cols, lo=-8, hi=8):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)]


def _rank_deficient(rng, rows, cols, r):
    """A rows x cols matrix of rank at most r, as a product through Q^r."""
    return matmul(_random_matrix(rng, rows, r), _random_matrix(rng, r, cols))


def _deficient_inputs(seed):
    rng = random.Random(seed)
    inputs = [_rank_deficient(rng, n, n, n - 1) for n in (2, 3, 4, 5)]
    inputs += [_rank_deficient(rng, rows, cols, 2) for rows, cols in ((3, 6), (6, 3), (4, 5))]
    repeated = _random_matrix(rng, 4, 4)
    repeated[2] = [2 * v for v in repeated[0]]
    zero_col = _random_matrix(rng, 3, 4)
    for row in zero_col:
        row[1] = Fraction(0)
    return inputs + [repeated, zero_col, [[Fraction(0)] * 3 for _ in range(2)]]


def test_inverse_roundtrip():
    rng = random.Random(7)
    # a zero in the corner forces a row swap
    swap = [[Fraction(0), Fraction(1, 2)], [Fraction(-3, 4), Fraction(5, 3)]]
    for m in [swap] + [_random_matrix(rng, n, n) for n in (1, 2, 3, 4, 5)]:
        n = len(m)
        if rank(m) < n:
            continue
        assert matmul(m, inverse(m)) == identity(n)
        assert matmul(inverse(m), m) == identity(n)


def test_inverse_keeps_integers_where_exact():
    rng = random.Random(3)
    for n in (2, 3, 4):
        p = random_unimodular(n, rng)
        inv = inverse(p)
        assert all(type(v) is int for row in inv for v in row)
        assert matmul(p, inv) == identity(n)
    assert inverse([[2, 0], [0, 1]]) == [[Fraction(1, 2), 0], [0, 1]]
    assert type(inverse([[2, 0], [0, 1]])[1][1]) is int


def test_inverse_requires_nonsingular():
    from liepencil.errors import SingularMatrix

    singular = [[[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]]
    singular += [m for m in _deficient_inputs(8) if len(m) == len(m[0])]
    for m in singular:
        with pytest.raises(SingularMatrix):
            inverse(m)


def test_rank_and_kernel_dimensions():
    rng = random.Random(11)
    inputs = [_random_matrix(rng, rows, cols) for rows, cols in ((3, 5), (5, 3), (4, 4))]
    for m in inputs + _deficient_inputs(12):
        cols = len(m[0])
        r = rank(m)
        null = kernel(m)
        assert r + len(null) == cols  # rank-nullity
        for vec in null:
            image = mat_vec(m, [Fraction(v) for v in vec])
            assert all(x == 0 for x in image)


def test_kernel_vectors_are_integer_primitive():
    """One vector per free column, in column order: integer, primitive,
    positive at its own column and zero at the other free columns."""
    inputs = [[[Fraction(1), Fraction(2), Fraction(3)]]] + _deficient_inputs(16)
    for m in inputs:
        cols = len(m[0])
        # column j is free when it adds nothing to the rank of the columns before it
        free = [
            j for j in range(cols)
            if rank([row[: j + 1] for row in m]) == rank([row[:j] for row in m])
        ]
        null = kernel(m)
        assert len(null) == len(free)
        for f, vec in zip(free, null):
            assert all(isinstance(v, int) for v in vec)
            assert math.gcd(*(abs(v) for v in vec)) == 1
            assert vec[f] > 0
            assert all(vec[g] == 0 for g in free if g != f)
            assert all(x == 0 for x in mat_vec(m, vec))


def _rank_by_minors(m):
    """The largest k with a nonzero k x k minor, by Laplace expansion."""
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                if laplace_det([[m[i][j] for j in ci] for i in ri]):
                    return k
    return 0


def _int_and_fraction_inputs(seed):
    """Rank-deficient and full-rank inputs, as Fractions and scaled to ints."""
    rng = random.Random(seed)
    fractions = _deficient_inputs(seed) + [_random_matrix(rng, n, n) for n in (1, 3, 4)]
    ints = []
    for m in fractions:
        s = math.lcm(*(v.denominator for row in m for v in row))
        ints.append([[int(s * v) for v in row] for row in m])
    ints.append([[0, 0, 3], [0, 0, -6], [2, 1, 0]])  # every pivot needs a row swap
    return fractions + ints


def test_rank_kernel_inverse_against_laplace():
    for m in _int_and_fraction_inputs(21):
        r = _rank_by_minors(m)
        assert rank(m) == r
        null = kernel(m)
        assert len(null) == len(m[0]) - r
        assert all(x == 0 for vec in null for x in mat_vec(m, vec))
        if len(m) != len(m[0]):
            continue
        n = len(m)
        if r < n:
            continue
        inv = inverse(m)
        d = laplace_det(m)
        for i, j in itertools.product(range(n), repeat=2):
            # the (i, j) entry of the inverse is the (j, i) cofactor over det
            minor = [[m[a][b] for b in range(n) if b != i] for a in range(n) if a != j]
            assert inv[i][j] == (-1) ** (i + j) * Fraction(laplace_det(minor)) / d


def test_back_substitution_refuses_a_remainder():
    """An echelon form that does not come from elimination can leave a
    remainder; it raises instead of being rounded away."""
    # row [2, 1] with pivot column 0: x = (-1/2, 1) scaled by d = 1
    with pytest.raises(ArithmeticError):
        ratmat._back_substitute([[2, 1]], [0], 1, 2)
    assert ratmat._back_substitute([[2, 1]], [0], 2, 2) == {0: [-1], 1: [2]}


def test_is_skew():
    assert is_skew([[0, 2], [-2, 0]])
    assert not is_skew([[0, 2], [2, 0]])
    assert not is_skew([[1, 0], [0, 0]])


def test_transpose_matmul_compat():
    rng = random.Random(13)
    a = _random_matrix(rng, 2, 3)
    b = _random_matrix(rng, 3, 4)
    assert transpose(matmul(a, b)) == matmul(transpose(b), transpose(a))


def test_span_builder():
    sb = SpanBuilder(3)
    assert sb.add([Fraction(1), Fraction(0), Fraction(1)])
    assert sb.add([Fraction(0), Fraction(1), Fraction(0)])
    # linear combination of the first two
    assert not sb.add([Fraction(2), Fraction(3), Fraction(2)])
    assert sb.dim == 2
    assert sb.contains([Fraction(1), Fraction(1), Fraction(1)])
    assert not sb.contains([Fraction(0), Fraction(0), Fraction(1)])
    basis = sb.basis()
    assert len(basis) == 2


def test_span_builder_mixed_denominators():
    sb = SpanBuilder(4)
    rows = [
        [Fraction(1, 2), Fraction(0), Fraction(2, 3), Fraction(1)],
        [Fraction(0), Fraction(3, 5), Fraction(-1, 7), Fraction(0)],
        [Fraction(1, 3), Fraction(1, 4), Fraction(0), Fraction(-2, 9)],
    ]
    for row in rows:
        assert sb.add(row)
    combo = [
        Fraction(6, 5) * a - Fraction(7, 2) * b + Fraction(1, 11) * c
        for a, b, c in zip(*rows)
    ]
    assert not sb.add(combo)
    assert not sb.add([Fraction(0)] * 4)
    assert sb.contains(combo)
    assert sb.dim == 3
    assert sb.add([Fraction(0), Fraction(0), Fraction(0), Fraction(1, 13)])
    assert sb.dim == 4


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_span_builder_agrees_with_rank(seed):
    """Grown one row at a time, the span accepts exactly the rows that
    raise the rank, and then contains every row it was offered."""
    rng = random.Random(seed)
    for m in _deficient_inputs(seed) + [_rank_deficient(rng, 12, 8, 6)]:
        rows = list(m) + [[2 * a - b for a, b in zip(m[0], m[-1])]]
        rng.shuffle(rows)
        sb = SpanBuilder(len(rows[0]))
        for k, row in enumerate(rows):
            assert sb.add(row) == (rank(rows[: k + 1]) > rank(rows[:k]))
            assert sb.dim == rank(rows[: k + 1])
        assert all(sb.contains(row) for row in rows)
        assert sb.contains([Fraction(0)] * len(rows[0]))


def test_span_builder_membership_matches_rank():
    """contains(v) holds exactly when v leaves the rank of the span alone,
    for integer vectors and for Fractions, without changing the span."""
    rng = random.Random(31)
    m = _rank_deficient(rng, 5, 7, 3)
    sb = SpanBuilder(7)
    for row in m:
        sb.add(row)
    assert sb.dim == 3
    probes = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(5)]
    probes += [[3 * a - 2 * b for a, b in zip(m[0], m[4])], [0] * 7, [1] + [0] * 6]
    for v in probes:
        assert sb.contains(v) == (rank(m + [v]) == 3), v
        assert sb.contains([Fraction(x, 5) for x in v]) == sb.contains(v)
    assert sb.dim == 3


def test_span_builder_refuses_a_vector_of_another_width():
    sb = SpanBuilder(3)
    assert sb.add([1, 0, 0])
    for wrong in ([0, 1, 0, 5], [0, 1], []):
        with pytest.raises(ValueError):
            sb.add(wrong)
        with pytest.raises(ValueError):
            sb.contains(wrong)
    assert sb.dim == 1 and sb.basis() == [[1, 0, 0]]


@st.composite
def _matrices(draw, max_rows=7, max_cols=7):
    """Dense, sparse or rank-deficient integer matrices, some of them
    divided entry by entry into Fractions."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    kind = draw(st.sampled_from(["dense", "sparse", "deficient"]))
    small = st.integers(-9, 9)
    if kind == "sparse":
        small = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 7])
    if kind == "deficient":
        r = draw(st.integers(0, min(rows, cols) - 1))
        left = [[draw(small) for _ in range(r)] for _ in range(rows)]
        right = [[draw(small) for _ in range(cols)] for _ in range(r)]
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if r else [0] * cols
             for row in left]
    else:
        m = [[draw(small) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        m = [[Fraction(v, draw(st.integers(1, 4))) for v in row] for row in m]
    return m


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_deferred_rescaling_matches_eager_bareiss(m):
    """The span of a matrix's rows holds the rows, pivots and last pivot
    that eager Bareiss gives on its integer rows in order."""
    span = ratmat._span(m)
    ref = EagerSpan()
    ints, _ = ratmat.scale_to_int(m)
    for row in ints:
        ref.add(row)
    assert (span._rows, span._pivots) == (ref.rows, ref.pivots)
    assert span._d == (ref.rows[-1][ref.pivots[-1]] if ref.rows else 1)
    assert span.dim == len(ref.rows)


@settings(max_examples=200, deadline=None)
@given(_matrices(max_rows=9), _matrices(max_rows=4))
def test_span_builder_matches_the_eager_span(offered, probes):
    """The same add answers, rows and pivots as eager reduction, and the
    same contains answers on other vectors of the same width."""
    width = len(offered[0])
    # probes of the same kinds, cut or repeated to the width
    probes = [(row * width)[:width] for row in probes]
    sb, ref = SpanBuilder(width), EagerSpan()
    for vec in offered:
        (ints,), _ = ratmat.scale_to_int([vec])
        assert sb.add(vec) == ref.add(ints)
    assert (sb._rows, sb._pivots) == (ref.rows, ref.pivots)
    for vec in probes + offered:
        (ints,), _ = ratmat.scale_to_int([vec])
        assert sb.contains(vec) == ref.contains(ints)


def test_rows_outside_the_pivot_block_are_not_rebuilt(monkeypatch):
    """On a block-diagonal matrix a row is reduced only against the pivot
    rows of its own block, and the kernel is the blocks' kernels side by
    side."""
    rng = random.Random(27)
    blocks = [_rank_deficient(rng, 3, 3, 2) for _ in range(3)]
    n = 9
    m = [[0] * n for _ in range(n)]
    for k, block in enumerate(blocks):
        for i, row in enumerate(block):
            m[3 * k + i][3 * k: 3 * k + 3] = row
    reduced = []
    real = ratmat._reduce

    def spy(w, e, pivot_row, col):
        block = col // 3
        assert all(v == 0 for j, v in enumerate(w) if j // 3 != block)
        assert all(v == 0 for j, v in enumerate(pivot_row) if j // 3 != block)
        reduced.append(col)
        return real(w, e, pivot_row, col)

    monkeypatch.setattr(ratmat, "_reduce", spy)
    expected = [
        [0] * (3 * k) + vec + [0] * (n - 3 * k - 3)
        for k, block in enumerate(blocks)
        for vec in kernel(block)
    ]
    reduced.clear()
    assert kernel(m) == expected
    assert reduced
