"""Numeric block-pencil analysis used to replay symbolic verdicts."""

import dataclasses
import gc
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from liepencil import corpus, ratmat, unipoly
from liepencil.classify import Verdict, classify
from liepencil.errors import SingularMatrix
from liepencil.oracle import (
    InfiniteJordanBlock,
    JordanBlock,
    KroneckerBlock,
    NumericPencil,
    PencilTypeReport,
    _samples,
    assemble,
    congruence,
    cross_check,
    pencil_type,
)

from helpers import fixed_count_samples, random_blocks, random_unimodular, uni_mul


def _scrambled(blocks, seed):
    pencil = assemble(blocks)
    rng = random.Random(seed)
    p = random_unimodular(pencil.size, rng)
    return congruence(pencil, p)


def test_block_shapes():
    jb = JordanBlock(Fraction(2), 3)
    assert jb.matrix_size == 6
    ib = InfiniteJordanBlock(2)
    assert ib.matrix_size == 4
    kb = KroneckerBlock(2)
    assert kb.matrix_size == 5
    assert KroneckerBlock(0).matrix_size == 1
    with pytest.raises(ValueError):
        JordanBlock(Fraction(1), 0)
    with pytest.raises(ValueError):
        InfiniteJordanBlock(0)
    with pytest.raises(ValueError):
        KroneckerBlock(-1)


def test_assembled_pencil_is_skew():
    pencil = assemble([JordanBlock(Fraction(1), 2), KroneckerBlock(1)])
    for rows in (pencil.a, pencil.b):
        n = len(rows)
        assert all(rows[i][j] == -rows[j][i] for i in range(n) for j in range(n))


def test_congruence_requires_invertible():
    pencil = assemble([KroneckerBlock(1)])
    with pytest.raises(SingularMatrix):
        congruence(pencil, [[0] * 3, [0] * 3, [0] * 3])


def test_jordan_block_detected():
    # the A-part carries J(-3), so the rank of A + tB drops at t = 3
    rep = pencil_type(_scrambled([JordanBlock(Fraction(-3), 2)], seed=1))
    assert rep.verdict is Verdict.JORDAN
    assert rep.corank == 0
    assert rep.rank == 4
    assert dict(rep.char_numbers) == {Fraction(3): 2}
    assert rep.char_complete
    assert not rep.has_infinite


def test_kronecker_blocks_detected():
    rep = pencil_type(_scrambled([KroneckerBlock(1), KroneckerBlock(2)], seed=2))
    assert rep.verdict is Verdict.KRONECKER
    assert rep.corank == 2
    assert rep.p0_degree == 0
    assert rep.char_numbers == ()


def test_mixed_detected():
    rep = pencil_type(_scrambled([JordanBlock(Fraction(1, 2), 1), KroneckerBlock(1)], seed=3))
    assert rep.verdict is Verdict.MIXED
    assert rep.corank == 1
    assert dict(rep.char_numbers) == {Fraction(-1, 2): 1}


def test_infinite_jordan_detected():
    rep = pencil_type(_scrambled([InfiniteJordanBlock(2)], seed=4))
    assert rep.verdict is Verdict.JORDAN
    assert rep.has_infinite
    assert rep.infinite_count == 1
    assert rep.p0_degree == 0


def test_infinite_with_kronecker_is_mixed():
    """A rank deficit of B alone marks Jordan blocks at t = infinity.

    Combined with a nonzero corank the pencil cannot be pure Kronecker
    even though p0 itself stays constant.
    """
    rep = pencil_type(_scrambled([InfiniteJordanBlock(1), KroneckerBlock(1)], seed=5))
    assert rep.verdict is Verdict.MIXED
    assert rep.has_infinite
    assert rep.infinite_count == 1


def test_infinite_blocks_are_counted_on_the_regular_part(monkeypatch):
    """K(1) + N(2) + J(3, 1): B has rank 2 on N(2) and full rank on J(3, 1),
    so the 6 x 6 Gram of B on the regular part has rank 4, one block at
    infinity, and B is never eliminated at its full size 9."""
    blocks = [KroneckerBlock(1), InfiniteJordanBlock(2), JordanBlock(Fraction(3), 1)]
    pencil = _scrambled(blocks, seed=29)
    ranks, _ = _count_eliminations(monkeypatch)
    rep = pencil_type(pencil)
    assert rep.verdict is Verdict.MIXED
    assert rep.infinite_count == 1
    assert dict(rep.char_numbers) == {Fraction(-3): 1}
    assert [len(m) for m in ranks] == [6]


def test_char_numbers_with_multiplicities():
    blocks = [
        JordanBlock(Fraction(-2), 2),
        JordanBlock(Fraction(-2), 1),
        JordanBlock(Fraction(5), 1),
        KroneckerBlock(1),
    ]
    rep = pencil_type(_scrambled(blocks, seed=6))
    assert rep.verdict is Verdict.MIXED
    assert dict(rep.char_numbers) == {Fraction(2): 3, Fraction(-5): 1}
    assert rep.char_complete
    assert rep.p0_degree == 4


def _closed_form_p0(blocks):
    """The primitive product of (d*t + m)^k over the JordanBlock(m/d, k)s."""
    p0 = [1]
    for b in blocks:
        if isinstance(b, JordanBlock):
            mu = b.eigenvalue
            for _ in range(b.size):
                p0 = uni_mul(p0, [mu.numerator, mu.denominator])
    return tuple(unipoly.primitive(p0))


@pytest.mark.parametrize(
    "blocks",
    [
        [JordanBlock(Fraction(3), 1), KroneckerBlock(2), JordanBlock(Fraction(-1, 3), 2)],
        [InfiniteJordanBlock(1), JordanBlock(Fraction(5, 2), 2), KroneckerBlock(0)],
        [
            KroneckerBlock(3),
            JordanBlock(Fraction(2, 5), 2),
            InfiniteJordanBlock(2),
            JordanBlock(Fraction(-1), 1),
            KroneckerBlock(1),
            JordanBlock(Fraction(-1), 3),
        ],
        [JordanBlock(Fraction(-7, 4), 3), InfiniteJordanBlock(2), JordanBlock(Fraction(0), 2)],
    ],
    ids=["small", "small-infinite", "large", "jordan"],
)
def test_p0_matches_the_closed_form(blocks):
    """Each finite JordanBlock(m/d, k) puts (d*t + m)^k into p0; Kronecker
    and infinite blocks add no factor."""
    rep = pencil_type(_scrambled(blocks, seed=7))
    assert rep.p0 == _closed_form_p0(blocks)
    assert rep.corank == sum(isinstance(b, KroneckerBlock) for b in blocks)
    assert rep.infinite_count == sum(isinstance(b, InfiniteJordanBlock) for b in blocks)


@pytest.mark.parametrize(
    "blocks, points",
    [
        ([JordanBlock(Fraction(-k), 1) for k in range(4)] + [KroneckerBlock(3)], 9),
        (
            [
                JordanBlock(Fraction(0), 3),
                JordanBlock(Fraction(-1), 2),
                KroneckerBlock(0),
                KroneckerBlock(2),
            ],
            6,
        ),
        ([JordanBlock(Fraction(-k), 1) for k in range(8)] + [KroneckerBlock(4)], 14),
    ],
    ids=["four-eigenvalues-k3", "jordan-chains-k0-k2", "eight-eigenvalues-k4"],
)
def test_eigenvalues_on_the_first_sample_points(blocks, points, monkeypatch):
    """The first sample points t = 0, 1, ... are eigenvalues next to a large
    Kronecker block.  The rank is read at the first point past them that
    adds nothing, and U needs max(e) + 2 points of that rank: the
    eigenvalue points' kernels carry Jordan vectors and stay out of U."""
    pencil = _scrambled(blocks, seed=23)
    ranks, kernels = _count_eliminations(monkeypatch)
    rep = pencil_type(pencil)
    kron = sum(isinstance(b, KroneckerBlock) for b in blocks)
    assert rep.rank == pencil.size - kron
    assert rep.p0 == _closed_form_p0(blocks)
    want = {}
    for b in blocks:
        if isinstance(b, JordanBlock):
            want[-b.eigenvalue] = want.get(-b.eigenvalue, 0) + b.size
    assert dict(rep.char_numbers) == want and rep.char_complete
    assert rep.infinite_count == 0
    assert kernels[:-1] == [pencil.at(t) for t in range(points)]
    assert len(kernels) == points + 1 and [len(m) for m in ranks] == [_regular_size(blocks)]


def test_stall_rule_matches_the_fixed_count_walk():
    """The stall rule and the n//2 + 1 point walk of the test helpers give
    the same rank and the same span U on random block lists, whose
    eigenvalues fall on the sample points t = 0..6."""
    rng = random.Random(2303)
    for trial in range(200):
        blocks = random_blocks(rng)
        pencil = assemble(blocks)
        pencil = congruence(pencil, random_unimodular(pencil.size, rng))
        rank, span = _samples(pencil)
        ref_rank, ref_kernels = fixed_count_samples(pencil)
        assert rank == ref_rank, (trial, blocks)
        ref_span = ratmat.SpanBuilder(pencil.size)
        for kernel in ref_kernels:
            for vec in kernel:
                ref_span.add(vec)
        assert all(ref_span.contains(vec) for vec in span.basis()), (trial, blocks)
        assert all(span.contains(vec) for vec in ref_span.basis()), (trial, blocks)


def test_large_pencil_uses_deflation():
    blocks = [KroneckerBlock(4)] * 3 + [JordanBlock(Fraction(1), 2)]
    pencil = _scrambled(blocks, seed=8)
    assert pencil.size == 31
    rep = pencil_type(pencil)
    assert rep.method == "deflation"
    assert rep.verdict is Verdict.MIXED
    assert dict(rep.char_numbers) == {Fraction(-1): 2}


def test_report_keeps_only_what_it_computes():
    """corank, has_infinite and the verdict are read off the stored fields,
    and to_dict() keeps every key and value."""
    assert [f.name for f in dataclasses.fields(PencilTypeReport)] == [
        "size", "rank", "p0", "char_numbers", "char_complete", "residual", "infinite_count",
    ]
    blocks = [
        JordanBlock(Fraction(-2), 2),
        JordanBlock(Fraction(1, 3), 1),
        KroneckerBlock(1),
        InfiniteJordanBlock(1),
    ]
    rep = pencil_type(_scrambled(blocks, seed=3))
    golden = json.loads(Path(__file__).with_name("golden_reports.json").read_text())
    assert json.dumps(rep.to_dict()) == json.dumps(golden["pencil_type mixed"])


def test_rank_is_read_past_singular_sample_points(monkeypatch):
    """A + t*B drops rank at t = 0, 1 and 2; the sampling walks past them."""
    blocks = [
        JordanBlock(Fraction(0), 1),
        JordanBlock(Fraction(-1), 1),
        JordanBlock(Fraction(-2), 1),
        KroneckerBlock(1),
    ]
    pencil = _scrambled(blocks, seed=15)
    ranks, kernels = _count_eliminations(monkeypatch)
    rep = pencil_type(pencil)
    assert rep.rank == 8 and rep.corank == 1
    assert dict(rep.char_numbers) == {Fraction(0): 1, Fraction(1): 1, Fraction(2): 1}
    # t = 0, 1, 2 are eigenvalues; K(1) then needs three points of rank 8,
    # t = 3, 4 and 5, the last adding nothing; one more kernel, on Y
    assert kernels[:-1] == [pencil.at(t) for t in range(6)]
    assert len(kernels) == 7 and [len(m) for m in ranks] == [6]


def _regular_size(blocks):
    """Rows of the regular part: the pencil without its Kronecker blocks."""
    return sum(b.matrix_size for b in blocks if not isinstance(b, KroneckerBlock))


def _count_eliminations(monkeypatch):
    ranks, kernels = [], []
    real_rank, real_kernel = ratmat.rank, ratmat.kernel
    monkeypatch.setattr(ratmat, "rank", lambda m: ranks.append(m) or real_rank(m))
    monkeypatch.setattr(ratmat, "kernel", lambda m: kernels.append(m) or real_kernel(m))
    return ranks, kernels


def test_one_elimination_per_sample_point(monkeypatch):
    """One kernel of A + t*B per point until a point adds nothing, one more
    on Y, and one rank, of B on the regular part.  K(1) has kernel vectors
    of degree 1 in t, so the third point t = 2 adds nothing; the eigenvalue
    t = -1 is never sampled."""
    pencil = _scrambled([KroneckerBlock(1), JordanBlock(Fraction(1), 2)], seed=4)
    ranks, kernels = _count_eliminations(monkeypatch)
    rep = pencil_type(pencil)
    assert rep.corank == 1 and dict(rep.char_numbers) == {Fraction(-1): 2}
    assert [len(m) for m in ranks] == [4]
    assert kernels[:-1] == [pencil.at(t) for t in range(3)]
    assert len(kernels) == 4


def test_jordan_pencil_is_eliminated_once(monkeypatch):
    """A regular A ends the sampling at t = 0, and p0 needs no kernel."""
    pencil = _scrambled([JordanBlock(Fraction(2), 2), InfiniteJordanBlock(1)], seed=17)
    ranks, kernels = _count_eliminations(monkeypatch)
    rep = pencil_type(pencil)
    assert rep.verdict is Verdict.JORDAN
    assert kernels == [pencil.at(0)]
    assert ranks == [pencil.b]


def test_numeric_pencil_validation():
    with pytest.raises(ValueError):
        NumericPencil([[0, 1], [1, 0]], [[0, 0], [0, 0]])  # not skew
    with pytest.raises(ValueError):
        NumericPencil([[0]], [[0, 0], [0, 0]])  # size mismatch


def test_cross_check_agrees_on_known_algebras():
    for name in ("example1", "heisenberg3", "sl2", "aff1", "abelian3"):
        alg = corpus.entry(name).load()
        report = cross_check(alg, trials=3, seed=11)
        assert report.ok, name
        assert all(t.agrees for t in report.trials), name


def test_cross_check_parametric_family():
    alg = corpus.entry("L4ab").load()
    report = cross_check(alg, trials=3, seed=13)
    assert report.ok
    for t in report.trials:
        assert set(t.param_values) == {"a", "b"}
        assert t.param_values["b"] != 0


def _all_ints(rows):
    return all(type(v) is int for row in rows for v in row)


def test_pencils_hold_integers():
    """A and B are scaled to integers once, when the pencil is built."""
    assembled = assemble([JordanBlock(Fraction(1, 3), 2), KroneckerBlock(1)])
    p = random_unimodular(assembled.size, random.Random(9))
    rational_p = [[Fraction(v, 2) for v in row] for row in p]
    from_rows = NumericPencil(
        [[0, Fraction(1, 2), "-3/4"], [Fraction(-1, 2), 0, 5], ["3/4", -5, 0]],
        [[0, 2, 0], [-2, 0, Fraction(1, 6)], [0, Fraction(-1, 6), 0]],
    )
    for pencil in (assembled, congruence(assembled, rational_p), from_rows):
        assert _all_ints(pencil.a) and _all_ints(pencil.b)
        assert _all_ints(pencil.at(3))
    # one common factor, the least common denominator of both matrices
    assert from_rows.a[0] == [0, 6, -9] and from_rows.b[1] == [-24, 0, 2]


def test_deflation_hands_integer_grams_to_pencil_pfaffian(monkeypatch):
    """The Gram pair on ann(Y)/U holds ints.  With no singular block it is
    A, B themselves, handed over as they are: t = 0 has full rank, so no
    vector enters a span and no image is formed.  A K(1) block leaves a
    quotient three rows smaller."""
    seen = []
    real_pf = unipoly.pencil_pfaffian
    monkeypatch.setattr(
        unipoly, "pencil_pfaffian", lambda a, b: seen.append((a, b)) or real_pf(a, b)
    )
    calls = []
    for owner, name in ((ratmat.SpanBuilder, "add"), (ratmat, "mat_vec")):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    for singular, verdict in (((), Verdict.JORDAN), ((KroneckerBlock(1),), Verdict.MIXED)):
        seen.clear()
        calls.clear()
        blocks = [JordanBlock(Fraction(2), 2), *singular, JordanBlock(Fraction(-1, 2), 1)]
        pencil = _scrambled(blocks, seed=10)
        rep = pencil_type(pencil)
        assert rep.verdict is verdict
        assert dict(rep.char_numbers) == {Fraction(-2): 2, Fraction(1, 2): 1}
        assert len(seen) == 1
        gram_a, gram_b = seen[0]
        assert len(gram_a) == 6
        assert _all_ints(gram_a) and _all_ints(gram_b)
        if singular:
            assert "add" in calls and "mat_vec" in calls
        else:
            assert gram_a is pencil.a and gram_b is pencil.b
            assert calls == []


def test_common_scale_leaves_report_unchanged():
    blocks = [JordanBlock(Fraction(3), 1), KroneckerBlock(1), JordanBlock(Fraction(-1, 3), 1)]
    pencil = _scrambled(blocks, seed=11)
    base = pencil_type(pencil)
    assert base.verdict is Verdict.MIXED
    for c in (Fraction(1, 6), Fraction(7, 3), 5):
        scaled = NumericPencil(
            [[c * v for v in row] for row in pencil.a],
            [[c * v for v in row] for row in pencil.b],
        )
        assert pencil_type(scaled) == base, c


def test_congruence_by_a_multiple_of_p_gives_the_same_report():
    pencil = assemble([JordanBlock(Fraction(1, 2), 2), KroneckerBlock(2)])
    p = random_unimodular(pencil.size, random.Random(12))
    six_p = [[6 * v for v in row] for row in p]
    assert pencil_type(congruence(pencil, p)) == pencil_type(congruence(pencil, six_p))


def test_p0_and_residual_hold_integers():
    # Pf(A + tB) = t^2 - 2, which keeps a residual with no rational root
    irrational = NumericPencil(
        [[0, 0, 1, 0], [0, 0, 0, 2], [-1, 0, 0, 0], [0, -2, 0, 0]],
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    )
    mixed = _scrambled([JordanBlock(Fraction(1, 3), 2), KroneckerBlock(1)], seed=13)
    reports = [pencil_type(pencil) for pencil in (irrational, mixed)]
    for rep in reports:
        assert rep.p0 and rep.residual
        assert all(type(c) is int for c in rep.p0 + rep.residual), rep
    assert reports[0].p0 == reports[0].residual == (-2, 0, 1)


def test_minors_leave_no_reference_cycle():
    pencil = _scrambled([JordanBlock(Fraction(2), 2), KroneckerBlock(1)], seed=14)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        pencil_type(pencil)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_assemble_refuses_an_empty_block_list():
    with pytest.raises(ValueError, match="at least one block"):
        assemble([])


def test_congruence_refuses_a_matrix_of_another_size():
    pencil = assemble([KroneckerBlock(1)])
    with pytest.raises(ValueError, match="does not match the pencil"):
        congruence(pencil, [[1, 0], [0, 1]])
