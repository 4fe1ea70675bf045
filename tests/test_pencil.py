"""Generic rank, Pfaffians, and the p0 profile of skew polynomial matrices."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from liepencil import corpus, modp, pencil
from liepencil.model import SkewPolyMatrix, build_ax, change_of_basis, substitute_params
from liepencil.oracle import NumericPencil, pencil_type
from liepencil.pencil import (
    PencilProfile,
    PfaffianCache,
    generic_rank,
    pencil_profile,
    pfaffian,
    principal_subsets,
)
from liepencil.poly import VarKind, VarRegistry, divides, normalize, poly_gcd

from helpers import (
    algebra_from_table,
    borel_algebra,
    gl_algebra,
    heisenberg_algebra,
    holds_ints,
    laplace_det,
    nilradical_algebra,
    pfaffian_matchings,
    random_skew_linear,
    random_unimodular,
)


def _rank_by_evaluation(matrix, rng, rounds=5):
    """Lower-bound oracle: max rank over random rational specializations."""
    from liepencil.ratmat import rank as frac_rank

    best = 0
    names = matrix.registry.names()
    for _ in range(rounds):
        point = {n: Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for n in names}
        rows = matrix.evaluate(point)
        best = max(best, frac_rank(rows))
    return best


def test_principal_subsets():
    assert list(principal_subsets(3, 2)) == [(1, 2), (1, 3), (2, 3)]
    assert list(principal_subsets(2, 0)) == [()]
    with pytest.raises(ValueError):
        list(principal_subsets(2, 3))
    with pytest.raises(ValueError):
        list(principal_subsets(2, -1))


def test_generic_rank_matches_evaluation_oracle():
    rng = random.Random(23)
    reg = VarRegistry(4)
    x = reg.coordinate
    # Pf_12, Pf_13 and Pf_1234 vanish, so the rank search must skip zero
    # pairs; the support is a forest with a largest matching of 3 edges
    sparse = SkewPolyMatrix(
        7, reg, {(1, 4): x(1), (2, 5): x(2), (3, 6): x(1) + x(2), (5, 7): x(3)}
    )
    matrices = itertools.chain(
        (random_skew_linear(VarRegistry(4), size, rng) for size in (2, 3, 4, 5, 6)),
        [sparse],
    )
    for m in matrices:
        r = generic_rank(m)
        assert r % 2 == 0
        # rank at any specialization never exceeds the generic rank, and
        # a handful of random points almost surely attains it
        assert r == _rank_by_evaluation(m, rng)


def test_generic_rank_zero_matrix():
    reg = VarRegistry(2)
    assert generic_rank(SkewPolyMatrix(3, reg, {})) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_generic_rank_gl_n_closed_form(n):
    # ind gl_n = n
    assert generic_rank(build_ax(gl_algebra(n))) == n * n - n


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_index_borel_closed_form(n):
    # ind b_n = floor((n - 1)/2) + 1
    alg = borel_algebra(n)
    assert alg.dim - generic_rank(build_ax(alg)) == (n - 1) // 2 + 1


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_index_nilradical_closed_form(n):
    # ind n_n = floor(n/2)
    alg = nilradical_algebra(n)
    assert alg.dim - generic_rank(build_ax(alg)) == n // 2


def test_pfaffian_small_matchings_oracle():
    rng = random.Random(31)
    for size in (2, 4, 6):
        reg = VarRegistry(3)
        m = random_skew_linear(reg, size, rng)
        got = pfaffian(m)
        want = pfaffian_matchings(m.rows())
        assert got == want


def test_pfaffian_odd_is_zero():
    reg = VarRegistry(2)
    m = random_skew_linear(reg, 3, random.Random(1))
    assert pfaffian(m).is_zero()
    assert pfaffian(m, (1, 2, 3)).is_zero()


def test_pfaffian_squares_to_determinant():
    rng = random.Random(37)
    for size in (2, 4, 6):
        reg = VarRegistry(3)
        m = random_skew_linear(reg, size, rng)
        pf = pfaffian(m)
        assert pf * pf == laplace_det(m.rows())


def test_pfaffian_congruence_covariance():
    """Pf(P^T M P) = det(P) Pf(M) for integer P."""
    rng = random.Random(41)
    for size in (2, 4):
        reg = VarRegistry(3)
        m = random_skew_linear(reg, size, rng)
        p = random_unimodular(size, rng)
        moved = m.congruent(p)
        det_p = laplace_det([[Fraction(v) for v in row] for row in p])
        assert pfaffian(moved) == pfaffian(m) * det_p


def test_pfaffian_cache_validates_indices():
    reg = VarRegistry(2)
    m = random_skew_linear(reg, 4, random.Random(2))
    cache = PfaffianCache(m)
    with pytest.raises(ValueError):
        cache.pfaffian((2, 1))
    with pytest.raises(ValueError):
        cache.pfaffian((0, 1))
    with pytest.raises(ValueError):
        cache.pfaffian((1, 5))
    with pytest.raises(ValueError):
        cache.pfaffian((1, 1))
    with pytest.raises(ValueError):
        cache.pfaffian((1, 2, 2, 3))
    assert cache.pfaffian(()) == reg.one()
    assert cache.pfaffian((1, 2, 4)).is_zero()


def _sparse_skew(size, rng):
    """Seeded skew matrix of nonzero linear forms in x1..x3 on a random half
    (rounded up) of the places above the diagonal, zero elsewhere."""
    reg = VarRegistry(3)
    pairs = list(itertools.combinations(range(1, size + 1), 2))
    upper = {}
    for pair in rng.sample(pairs, (len(pairs) + 1) // 2):
        var = reg.coordinate(rng.randint(1, 3))
        upper[pair] = var * rng.choice((-2, -1, 1, 2)) + rng.randint(-2, 2)
    return SkewPolyMatrix(size, reg, upper)


@pytest.mark.parametrize("size", range(2, 11))
def test_sparse_pfaffians_match_the_matchings_oracle(size):
    """Every even principal Pfaffian, through one shared cache, against the
    signed sum over perfect matchings of the submatrix."""
    m = _sparse_skew(size, random.Random(53 + size))
    cache = PfaffianCache(m)
    for r in range(0, size + 1, 2):
        for subset in principal_subsets(size, r):
            want = pfaffian_matchings(m.submatrix(subset).rows())
            assert cache.pfaffian(subset) == want, subset


def test_profile_known_small_algebra():
    # [e3,e1] = e1, [e3,e4] = e2: rank 2, index 2, all 2x2 Pfaffians
    # share no common factor beyond constants
    alg = algebra_from_table(4, {(1, 3): {1: -1}, (3, 4): {2: 1}})
    prof = pencil_profile(alg)
    assert prof.dim == 4
    assert prof.generic_rank == 2
    assert prof.index == 2
    assert str(prof.p0) == "1"
    assert str(prof.p_lambda) == "1"
    assert prof.coordinate_degree == 0
    assert len(prof.pfaffians) == 6  # all 2-subsets of 4 indices


def test_profile_heisenberg():
    alg = algebra_from_table(3, {(1, 2): {3: 1}})
    prof = pencil_profile(alg)
    assert prof.generic_rank == 2
    assert prof.index == 1
    assert str(prof.p0) == "x3"
    assert str(prof.p_lambda) == "a3*lambda + x3"
    assert prof.coordinate_degree == 1


def test_profile_sl2():
    alg = algebra_from_table(3, {(1, 2): {3: 1}, (1, 3): {1: -2}, (2, 3): {2: 2}})
    prof = pencil_profile(alg)
    assert prof.generic_rank == 2
    assert prof.index == 1
    assert prof.coordinate_degree == 0


def test_profile_stops_gcd_once_constant(monkeypatch):
    """No poly_gcd call after the running gcd is constant; all Pfaffians kept."""
    real_gcd = pencil.poly_gcd
    results = []

    def counting_gcd(p, q):
        assert not p.is_constant(), "poly_gcd called on a constant running gcd"
        results.append(real_gcd(p, q))
        return results[-1]

    monkeypatch.setattr(pencil, "poly_gcd", counting_gcd)
    alg = gl_algebra(3)
    prof = pencil_profile(alg)
    assert str(prof.p0) == "1"
    assert len(prof.pfaffians) == math.comb(alg.dim, prof.generic_rank)
    nonzero = sum(1 for _, pf in prof.pfaffians if pf)
    assert results and results[-1].is_constant()
    assert len(results) < nonzero - 1  # the early exit really happened


_N7_P0 = (
    "x4*x5*x6*x10*x11*x15 - x4*x5*x6*x11^2*x14 - x4*x6^2*x10^2*x15"
    " + x4*x6^2*x10*x11*x14 - x5^2*x6*x9*x11*x15 + x5^2*x6*x11^2*x13"
    " + x5*x6^2*x9*x10*x15 + x5*x6^2*x9*x11*x14 - 2*x5*x6^2*x10*x11*x13"
    " - x6^3*x9*x10*x14 + x6^3*x10^2*x13"
)
_N8_P0 = (
    "x5*x6*x7*x12*x13*x18 + x5*x6*x7*x13^2*x17 - x5*x7^2*x12^2*x18"
    " - x5*x7^2*x12*x13*x17 + x6^2*x7*x11*x13*x18 + x6^2*x7*x13^2*x16"
    " - x6*x7^2*x11*x12*x18 + x6*x7^2*x11*x13*x17 - 2*x6*x7^2*x12*x13*x16"
    " - x7^3*x11*x12*x17 + x7^3*x12^2*x16"
)
_B8_P0 = (
    "x5*x13*x20*x26 + x5*x13*x21*x25 - x5*x14*x19*x26 + x5*x14*x21*x24"
    " - x5*x15*x19*x25 - x5*x15*x20*x24 - x6*x12*x20*x26 - x6*x12*x21*x25"
    " - x6*x14*x18*x26 - x6*x14*x21*x23 - x6*x15*x18*x25 + x6*x15*x20*x23"
    " - x7*x12*x19*x26 + x7*x12*x21*x24 - x7*x13*x18*x26 - x7*x13*x21*x23"
    " + x7*x15*x18*x24 + x7*x15*x19*x23 - x8*x12*x19*x25 - x8*x12*x20*x24"
    " - x8*x13*x18*x25 + x8*x13*x20*x23 - x8*x14*x18*x24 - x8*x14*x19*x23"
)

_B6_P0 = (
    "x4*x10*x15 - x4*x11*x14 - x5*x9*x15 + x5*x11*x13 + x6*x9*x14"
    " - x6*x10*x13"
)


def _sign_flipped(alg, rng):
    """alg in the basis e'_i = s_i * e_i, each sign s_i drawn from rng."""
    signs = [rng.choice((1, -1)) for _ in range(alg.dim)]
    return change_of_basis(alg, [
        [signs[i] if i == j else 0 for j in range(alg.dim)] for i in range(alg.dim)
    ])


def test_profile_pins_on_sign_flipped_matrix_units():
    """Route, rank and p0 of matrix-unit algebras with basis signs flipped
    by one seeded generator, in this order; the values are frozen."""
    rng = random.Random(11)
    pins = [
        (borel_algebra(4), "certified", 8, "x3*x7 - x4*x6"),
        (nilradical_algebra(5), "certified", 8, "x3*x4*x7 + x4^2*x6"),
        (gl_algebra(3), "enumerated", 6, "1"),
        (borel_algebra(5), "certified", 12, "1"),
        (nilradical_algebra(6), "certified", 12, "x4*x5*x9 - x5^2*x8"),
        (gl_algebra(4), "enumerated", 12, "1"),
        (borel_algebra(6), "certified", 18, _B6_P0),
        (nilradical_algebra(7), "certified", 18, _N7_P0),
        (borel_algebra(7), "certified", 24, "1"),
        (nilradical_algebra(8), "certified", 24, _N8_P0),
        (borel_algebra(8), "certified", 32, _B8_P0),
    ]
    for alg, route, rank, p0 in pins:
        prof = pencil_profile(_sign_flipped(alg, rng))
        assert (prof.route, prof.generic_rank, str(prof.p0)) == (route, rank, p0), alg.name


def test_profile_builds_one_pfaffian_cache(monkeypatch):
    """The rank growth and the Pfaffian walk share one memo."""
    built = []

    class CountingCache(pencil.PfaffianCache):
        def __init__(self, matrix):
            built.append(matrix)
            super().__init__(matrix)

    monkeypatch.setattr(pencil, "PfaffianCache", CountingCache)
    prof = pencil_profile(borel_algebra(4))
    assert prof.index == 2
    assert len(built) == 1


def test_vanishing_memo_entries_are_the_shared_zero(monkeypatch):
    """Every vanishing Pfaffian the profile leaves in the memo is the
    cache's one zero object, which is the registry's, and each input
    leaves at least one.  The memo stays within a ceiling that expanding
    every set along its lowest row overshoots many times over (6,270,
    6,962, 52,633 and 169,386 entries): sets whose Pfaffian is zero are
    mostly not visited when each set is expanded along its sparsest row."""
    built = []

    class RecordingCache(pencil.PfaffianCache):
        def __init__(self, matrix):
            built.append(self)
            super().__init__(matrix)

    monkeypatch.setattr(pencil, "PfaffianCache", RecordingCache)
    ceilings = [
        (borel_algebra(6), 1000),
        (nilradical_algebra(7), 500),
        (borel_algebra(7), 2000),
        (nilradical_algebra(8), 3000),
    ]
    for alg, ceiling in ceilings:
        built.clear()
        pencil_profile(alg)
        (cache,) = built
        zeros = [pf for pf in cache._memo.values() if not pf]
        assert zeros, alg.name
        assert all(pf is cache._zero for pf in zeros), alg.name
        assert cache._zero is cache.matrix.registry.zero()
        assert len(cache._memo) <= ceiling, (alg.name, len(cache._memo))


def test_profile_p0_divides_every_pfaffian():
    from liepencil.poly import divides

    for name in ("L1", "heisenberg3", "sl2", "example1"):
        prof = pencil_profile(corpus.entry(name).load())
        for subset, pf in prof.pfaffians:
            if pf:
                assert divides(prof.p0, pf), (name, subset)


def test_profile_L1_frozen():
    """Frozen expected values for one seven-dimensional nilpotent table."""
    prof = pencil_profile(corpus.entry("L1").load())
    assert prof.generic_rank == 6
    assert prof.index == 1
    assert str(prof.p0) == "2*x2*x4*x5 - x3^2*x5"
    assert prof.coordinate_degree == 3


def test_p0_invariant_under_subset_order():
    """The gcd cannot depend on enumeration order of the Pfaffians."""
    from liepencil.poly import poly_gcd

    prof = pencil_profile(corpus.entry("L1").load())
    nonzero = [pf for _, pf in prof.pfaffians if pf]
    rng = random.Random(43)
    for _ in range(3):
        rng.shuffle(nonzero)
        g = nonzero[0]
        for pf in nonzero[1:]:
            g = poly_gcd(g, pf)
        assert normalize(g) == prof.p0


def test_p_lambda_specializes_back_to_p0():
    prof = pencil_profile(corpus.entry("heisenberg3").load())
    at_zero = prof.p_lambda.substitute({"lambda": prof.matrix.registry.zero()})
    assert at_zero == prof.p0


# -- p0 from the certificate ----------------------------------------------------


def _enumerated_p0(prof):
    """gcd of every rank-sized principal Pfaffian, the definition of p0."""
    g = None
    for _, pf in prof.pfaffians:
        if pf and (g is None or not divides(g, pf)):
            g = pf if g is None else poly_gcd(g, pf)
    return normalize(g)


def _corpus_tables():
    tables = []
    for entry in corpus.manifest():
        tables.append(entry.load())
        if entry.variant is not None:
            tables.append(entry.load_variant())
    return tables


def _ladder_algebras():
    return [
        borel_algebra(4),
        nilradical_algebra(5),
        gl_algebra(3),
        borel_algebra(5),
        nilradical_algebra(6),
        *(heisenberg_algebra(k) for k in range(1, 8)),
    ]


def test_p0_matches_enumeration_on_corpus_ladder_and_basis_changes():
    rng = random.Random(47)
    algebras = _corpus_tables() + _ladder_algebras()
    assert len(algebras) == 18 + 12
    routes = set()
    for alg in algebras:
        moved = change_of_basis(alg, random_unimodular(alg.dim, rng))
        for table in (alg, moved):
            prof = pencil_profile(table)
            assert prof.p0 == _enumerated_p0(prof), alg.name
            routes.add(prof.route)
    assert routes == {"certified", "enumerated"}


@pytest.mark.parametrize("make, n", [(borel_algebra, 4), (borel_algebra, 5), (nilradical_algebra, 6)])
def test_certified_route_on_borel_and_nilradical(make, n):
    prof = pencil_profile(make(n))
    assert prof.route == "certified"
    assert prof.p0 == _enumerated_p0(prof)


def _two_blocks(reg, pair, rest):
    """The 2 x 2 block [[0, pair], [-pair, 0]] followed by the 4 x 4 skew
    matrix v w^T - w v^T with v = (0, 1, 1, 1) and w = (rest, 0, x5, x6).

    The second block has rank 2 and 2 x 2 Pfaffians -rest, -rest, -rest,
    x5, x6, x6 - x5 in lexicographic order; every nonzero 4 x 4 Pfaffian of
    the whole is pair times one of them, in the same order.  So the first
    three share pair*rest and p0 = pair.
    """
    x5, x6 = reg.coordinate(5), reg.coordinate(6)
    upper = {
        (1, 2): pair,
        (3, 4): -rest, (3, 5): -rest, (3, 6): -rest,
        (4, 5): x5, (4, 6): x6, (5, 6): x6 - x5,
    }
    return SkewPolyMatrix(6, reg, upper)


def test_certificate_splits_off_the_gcd_of_the_coefficients():
    # h = (x1 + x2)(x3 + x4) is linear in x1 with c = x3 + x4 and
    # e = x2*(x3 + x4); only x1 + x2 divides p0
    reg = VarRegistry(6)
    x = reg.coordinate
    prof = pencil_profile(_two_blocks(reg, x(1) + x(2), x(3) + x(4)))
    assert prof.generic_rank == 4
    assert prof.route == "certified"
    assert str(prof.p0) == "x1 + x2"
    assert prof.p0 == _enumerated_p0(prof)


@pytest.mark.parametrize("square", ["x1", "x1 + x2"])
def test_certificate_never_keeps_a_square_that_p0_lacks(square):
    # the first three nonzero Pfaffians share f^2 while p0 = f
    reg = VarRegistry(6)
    x = reg.coordinate
    f = x(1) if square == "x1" else x(1) + x(2)
    prof = pencil_profile(_two_blocks(reg, f, f))
    assert str(prof.p0) == square
    assert prof.p0 == _enumerated_p0(prof)
    assert prof.route == "enumerated"


def test_certificate_keeps_a_square_that_p0_has():
    # x1 * (two 2 x 2 blocks) next to a 3 x 3 block of rank 2: p0 = x1^2,
    # and the rank drops by 4 on x1 = 0
    reg = VarRegistry(7)
    x = reg.coordinate
    upper = {(1, 2): x(1), (3, 4): x(1), (5, 6): x(5), (5, 7): x(6), (6, 7): x(7)}
    prof = pencil_profile(SkewPolyMatrix(7, reg, upper))
    assert prof.route == "certified"
    assert str(prof.p0) == "x1^2"
    assert prof.p0 == _enumerated_p0(prof)


@pytest.mark.parametrize("common", ["a", "x1 + a*x2"])
def test_certificate_refuses_a_factor_with_a_parameter(common):
    # Pf_12, Pf_13, Pf_14 = f*x1, f*x2, f*x3 and h = f: the certificate
    # splits coordinate factors only, so the walk enumerates all six
    reg = VarRegistry(4, ["a"])
    x = reg.coordinate
    f = reg.var("a") if common == "a" else x(1) + reg.var("a") * x(2)
    prof = pencil_profile(SkewPolyMatrix(4, reg, {(1, k + 1): f * x(k) for k in (1, 2, 3)}))
    assert prof.route == "enumerated"
    assert prof.p0 == f
    assert prof.p0 == _enumerated_p0(prof)


def test_profile_pfaffians_are_lazy():
    prof = pencil_profile(borel_algebra(4))
    assert "pfaffians" not in prof.__dict__
    assert len(prof.pfaffians) == math.comb(prof.dim, prof.generic_rank)
    assert prof.pfaffians is prof.pfaffians


def test_profile_keeps_only_what_it_computes():
    """index is read off the rank, and p(lambda) is shifted on first read."""
    assert [f.name for f in dataclasses.fields(PencilProfile)] == [
        "matrix", "generic_rank", "p0", "route",
    ]
    prof = pencil_profile(heisenberg_algebra(1))
    assert "p_lambda" not in prof.__dict__
    assert str(prof.p_lambda) == "a3*lambda + x3"
    assert prof.p_lambda is prof.p_lambda
    assert prof.index == 1


def test_zero_rows_are_never_paired(monkeypatch):
    """An index whose row of A_x is zero lies in no nonzero Pfaffian, so the
    growth and the walk skip it: [e1,e2] = e3 at dim 400 asks for one, from
    the walk, since the rows found at the point leave no pair to try."""
    calls = []
    original = pencil.PfaffianCache.pfaffian

    def counting(self, indices):
        calls.append(tuple(indices))
        return original(self, indices)

    monkeypatch.setattr(pencil.PfaffianCache, "pfaffian", counting)
    prof = pencil_profile(algebra_from_table(400, {(1, 2): {3: 1}}))
    assert (prof.generic_rank, str(prof.p0), prof.route) == (2, "x3", "enumerated")
    assert calls == [(1, 2)]


# -- the growth's start at a fixed point mod a prime ----------------------------


def _start_inputs():
    """The corpus, the ladder with seeded basis sign flips, gl4, b6 and n7."""
    rng = random.Random(59)
    return (
        _corpus_tables()
        + [_sign_flipped(alg, rng) for alg in _ladder_algebras()]
        + [gl_algebra(4), borel_algebra(6), nilradical_algebra(7)]
    )


def _recording_grow(monkeypatch):
    """Record (cache, cap, counts, start, |I|) of every growth."""
    calls = []
    grow = pencil._grow

    def recording(cache, cap, counts, start):
        calls.append((cache, cap, counts, start, grow(cache, cap, counts, start)))
        return calls[-1][-1]

    monkeypatch.setattr(pencil, "_grow", recording)
    return calls


def _zero_point(reg):
    return [0] * len(reg.names())


def _last_coordinate_zeroed(reg, fixed_point=modp.fixed_point):
    point = list(fixed_point(reg))
    point[reg.position(f"x{reg.dim}")] = 0
    return point


def test_independent_rows_reach_the_rank_at_the_point():
    """On seeded skew integer matrices of low rank, sums of v w^T - w v^T,
    the rows found have as many members as the rank over Q, and the block
    on them has a nonzero Pfaffian."""
    from liepencil.ratmat import rank as frac_rank

    rng = random.Random(61)
    for trial in range(60):
        size = rng.randint(1, 9)
        rows = [[0] * size for _ in range(size)]
        for _ in range(rng.randint(0, size // 2)):
            v = [rng.randint(-3, 3) for _ in range(size)]
            w = [rng.randint(-3, 3) for _ in range(size)]
            for i in range(size):
                for j in range(size):
                    rows[i][j] += v[i] * w[j] - w[i] * v[j]
        reg = VarRegistry(size)
        m = SkewPolyMatrix(size, reg, {
            (i + 1, j + 1): reg.constant(rows[i][j])
            for i in range(size) for j in range(i + 1, size)
        })
        chosen = modp.independent_rows(m, modp.fixed_point(reg))
        assert len(chosen) == frac_rank(rows), trial
        assert PfaffianCache(m).pfaffian(chosen), trial


@pytest.mark.parametrize("degenerate", [_zero_point, _last_coordinate_zeroed], ids=["zero", "x_n=0"])
def test_degenerate_points_change_no_profile(monkeypatch, degenerate):
    """At a point where rows drop out, the symbolic loop grows the start to
    the same rank, p0 and route; some growth must really start below the
    size it reaches, or the symbolic loop is never exercised."""
    algebras = _start_inputs()
    want = [pencil_profile(alg) for alg in algebras]
    calls = _recording_grow(monkeypatch)
    monkeypatch.setattr(modp, "fixed_point", degenerate)
    for alg, prof in zip(algebras, want):
        got = pencil_profile(alg)
        assert (got.generic_rank, got.p0, got.route) == (prof.generic_rank, prof.p0, prof.route), alg.name
    assert any(len(start) < grown for *_, start, grown in calls)


def test_growth_starts_where_its_own_test_holds(monkeypatch):
    """Every start the point gives passes the growth's symbolic test: the
    rank growth's Pf_I != 0, and on V(f) that f does not divide Pf_I."""
    calls = _recording_grow(monkeypatch)
    for alg in _start_inputs():
        pencil_profile(alg)
    factor_starts = 0
    for cache, cap, counts, start, grown in calls:
        assert len(start) <= grown <= cap
        assert counts(cache.pfaffian(start)), start
        factor_starts += counts is not bool and len(start) > 0
    assert factor_starts > 0


def test_heisenberg_growth_makes_no_symbolic_pfaffian(monkeypatch):
    """h_3 .. h_31: the rows independent at the point reach the rank, and
    the z row is zero, so no pair is left for the symbolic loop."""
    calls = []
    original = pencil.PfaffianCache.pfaffian

    def counting(self, indices):
        calls.append(tuple(indices))
        return original(self, indices)

    monkeypatch.setattr(pencil.PfaffianCache, "pfaffian", counting)
    for k in range(1, 16):
        assert generic_rank(build_ax(heisenberg_algebra(k))) == 2 * k
    assert calls == []


def test_modular_start_sees_integer_entries_only(monkeypatch):
    """generic_rank scales a rational matrix to ints before the point step."""
    seen = []
    rows = modp.independent_rows

    def recording(matrix, point):
        seen.extend(p for _, p in matrix.stored())
        return rows(matrix, point)

    monkeypatch.setattr(modp, "independent_rows", recording)
    reg = VarRegistry(4)
    x = reg.coordinate
    m = SkewPolyMatrix(4, reg, {(1, 2): x(3) * Fraction(1, 2), (3, 4): x(1) * Fraction(2, 3)})
    assert generic_rank(m) == 4
    assert seen and all(holds_ints(p) for p in seen)


def test_profile_reads_stored_entries_only(monkeypatch):
    """The Pfaffian cache and the integer scaling never ask for one entry."""
    calls = []
    entry = SkewPolyMatrix.entry

    def counting(self, i, j):
        calls.append((i, j))
        return entry(self, i, j)

    monkeypatch.setattr(SkewPolyMatrix, "entry", counting)
    prof = pencil_profile(build_ax(heisenberg_algebra(15)))
    assert (prof.dim, prof.index, str(prof.p0)) == (31, 1, "x31^15")
    assert calls == []


@pytest.mark.parametrize("make, n, degree", [(borel_algebra, 6, 3), (nilradical_algebra, 7, 6)])
def test_dimension_21_p0_degree_matches_numeric_oracle(make, n, degree):
    alg = make(n)
    prof = pencil_profile(alg)
    assert prof.dim == 21
    assert prof.route == "certified"
    assert prof.coordinate_degree == degree
    rng = random.Random(53)
    points = [
        {f"x{k}": rng.randint(-1000, 1000) for k in range(1, alg.dim + 1)}
        for _ in range(2)
    ]
    a_rows, b_rows = (prof.matrix.evaluate(pt) for pt in points)
    assert pencil_type(NumericPencil(a_rows, b_rows)).p0_degree == degree


@pytest.mark.parametrize(
    "make",
    [lambda: borel_algebra(5), lambda: gl_algebra(3), lambda: corpus.entry("L7a").load()],
    ids=["b5", "gl3", "L7a"],
)
def test_integer_table_stays_in_integers(make):
    prof = pencil_profile(make())
    assert holds_ints(prof.p0) and holds_ints(prof.p_lambda)
    assert all(holds_ints(pf) for _, pf in prof.pfaffians)
    assert all(holds_ints(pf) for pf in (pfaffian(prof.matrix), prof.matrix.entry(1, 2)))
    point = {name: k for k, name in enumerate(prof.matrix.registry.names(), start=2)}
    rows = prof.matrix.evaluate(point)
    assert all(type(v) is int for row in rows for v in row)


@pytest.mark.parametrize(
    "a, b, p0",
    [
        (Fraction(1, 2), Fraction(-3, 4), "1"),
        (Fraction(-1), Fraction(2, 3), "x4"),
        (Fraction(-2), Fraction(1, 3), "2*x2*x4 - x3^2"),
    ],
    ids=["generic", "linear", "quadric"],
)
def test_rational_sample_p0_matches_its_integer_multiple(a, b, p0):
    """A family sample bound at rational values gives the p0 of the same
    table times the lcm of its denominators, and that p0 holds ints."""
    bound = substitute_params(corpus.entry("L4ab").load(), {"a": a, "b": b})
    table = {
        pair: {k: c.constant_value() for k, c in bound.bracket(*pair).items()}
        for pair in bound.stored_pairs()
    }
    scale = math.lcm(*(c.denominator for comps in table.values() for c in comps.values()))
    assert scale > 1
    integer = algebra_from_table(bound.dim, {
        pair: {k: int(c * scale) for k, c in comps.items()}
        for pair, comps in table.items()
    })
    prof = pencil_profile(bound)
    assert str(prof.p0) == p0
    assert holds_ints(prof.p0) and holds_ints(prof.p_lambda)
    assert prof.p0 == pencil_profile(integer).p0
    assert prof.generic_rank == generic_rank(build_ax(integer))
