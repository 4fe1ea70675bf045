"""Bracket tables, Jacobi validation, and the symbolic bracket matrix."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liepencil import corpus, ratmat
from liepencil.errors import ExclusionViolation, ParameterBindingError, RegistryMismatch
from liepencil.model import (
    LieAlgebra,
    ParamDecl,
    SkewPolyMatrix,
    build_ax,
    change_of_basis,
    substitute_params,
    validate,
)
from liepencil.poly import VarRegistry

from helpers import (
    algebra_from_table,
    borel_algebra,
    gl_algebra,
    heisenberg_algebra,
    holds_ints,
    laplace_det,
    naive_jacobi_violations,
    nilradical_algebra,
    random_fraction,
    random_unimodular,
    reference_ax,
)

# [e3,e1] = e1, [e3,e4] = e2 in (i<j) storage: [e1,e3] = -e1, [e3,e4] = e2
EXAMPLE = {(1, 3): {1: -1}, (3, 4): {2: 1}}

HEISENBERG = {(1, 2): {3: 1}}

SL2 = {(1, 2): {3: 1}, (1, 3): {1: -2}, (2, 3): {2: 2}}


def test_bracket_antisymmetry_lookup():
    alg = algebra_from_table(4, EXAMPLE)
    assert alg.bracket(1, 3) == {1: alg.registry.constant(-1)}
    assert alg.bracket(3, 1) == {1: alg.registry.constant(1)}
    assert alg.bracket(2, 2) == {}
    assert alg.structure_constant(3, 4, 2) == alg.registry.one()
    assert alg.structure_constant(4, 3, 2) == -alg.registry.one()


def test_validate_accepts_lie_algebras():
    for dim, table in ((4, EXAMPLE), (3, HEISENBERG), (3, SL2)):
        report = validate(algebra_from_table(dim, table))
        assert report.ok, report.violations


def test_validate_flags_jacobi_failure():
    # [e1,e2] = e3, [e1,e3] = e1 breaks Jacobi on (e1, e2, e3)
    bad = algebra_from_table(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    report = validate(bad)
    assert not report.ok
    v = report.violations[0]
    assert (v.i, v.j, v.k) == (1, 2, 3)
    assert "Jacobi" in str(v)


def _violation_tuples(alg):
    return [(v.i, v.j, v.k, v.m, v.value) for v in validate(alg).violations]


def _corpus_tables():
    """Every bundled table: the 17 manifest files and the repaired variants."""
    tables = []
    for e in corpus.manifest():
        tables.append(e.load())
        if e.variant is not None:
            tables.append(e.load_variant())
    return tables


def _corrupt(alg, rng):
    """One bracket coefficient moved by a random constant or parameter term."""
    reg = alg.registry
    i, j = sorted(rng.sample(range(1, alg.dim + 1), 2))
    m = rng.randint(1, alg.dim)
    shift = reg.constant(rng.choice((-2, -1, 1, 3)))
    if alg.param_names() and rng.random() < 0.5:
        shift = shift * reg.parameter(rng.choice(alg.param_names()))
    brackets = {pair: alg.bracket(*pair) for pair in alg.stored_pairs()}
    terms = brackets.setdefault((i, j), {})
    terms[m] = terms.get(m, reg.zero()) + shift
    return LieAlgebra(alg.dim, reg, params=alg.params, brackets=brackets)


def test_validate_matches_naive_oracle_on_corpus():
    tables = _corpus_tables()
    assert len(tables) == 18
    for alg in tables:
        assert _violation_tuples(alg) == naive_jacobi_violations(alg), alg.name
    l5a = corpus.entry("L5a").load()
    assert len(_violation_tuples(l5a)) == 2


def test_validate_matches_naive_oracle_on_corruptions():
    rng = random.Random(17)
    failing = 0
    for alg in _corpus_tables():
        for _ in range(2):
            bad = _corrupt(alg, rng)
            want = naive_jacobi_violations(bad)
            assert _violation_tuples(bad) == want, alg.name
            failing += bool(want)
    assert failing >= 20  # most corruptions really break Jacobi
    l4ab = corpus.entry("L4ab").load()
    parametric = 0
    for _ in range(4):
        bad = _corrupt(l4ab, rng)
        got = _violation_tuples(bad)
        assert got == naive_jacobi_violations(bad)
        parametric += any(not value.is_constant() for *_, value in got)
    assert parametric  # some violation values are polynomials in a, b


def test_validate_sees_triple_with_only_the_outer_pair_stored():
    # of the pairs of (1, 2, 3) only (1, 3) is stored:
    # [[e3,e1],e2] = -[e4,e2] = [e2,e4] = e1
    alg = algebra_from_table(4, {(1, 3): {4: 1}, (2, 4): {1: 1}})
    got = _violation_tuples(alg)
    assert got == naive_jacobi_violations(alg)
    assert got[0][:4] == (1, 2, 3, 1)


@pytest.mark.parametrize(
    "alg",
    [gl_algebra(4), gl_algebra(5), heisenberg_algebra(15)],
    ids=["gl4", "gl5", "h31"],
)
def test_validate_at_scale(alg):
    # guards the sparse path: a dense n^5 loop takes minutes at these sizes
    assert alg.dim in (16, 25, 31)
    assert validate(alg).ok


def test_validate_work_follows_stored_pairs():
    # two brackets in dimension 1000: C(1000, 3) = 166 M triples, of which
    # only the 2 * 998 through a stored pair can fail
    alg = algebra_from_table(1000, {(1, 2): {3: 1}, (999, 1000): {1: 1}})
    started = time.perf_counter()
    got = _violation_tuples(alg)
    elapsed = time.perf_counter() - started
    # [[e999,e1000],e2] = [e1,e2] = e3, the other two terms vanish
    assert got == [(2, 999, 1000, 3, alg.registry.one())]
    assert elapsed < 5.0, elapsed


def test_out_of_range_brackets_rejected():
    reg = VarRegistry(2)
    with pytest.raises(ValueError):
        LieAlgebra(2, reg, brackets={(2, 1): {1: reg.one()}})
    with pytest.raises(ValueError):
        LieAlgebra(2, reg, brackets={(1, 2): {5: reg.one()}})


def test_coefficients_must_be_parameter_only():
    reg = VarRegistry(2, params=("a",))
    a, x1 = reg.parameter("a"), reg.coordinate(1)
    refused = [x1, reg.point(1), reg.pencil(), a * x1, a + x1]
    for coeff in refused:
        with pytest.raises(ValueError, match="parameters only"):
            LieAlgebra(2, reg, [ParamDecl("a")], brackets={(1, 2): {1: coeff}})
    alg = LieAlgebra(2, reg, [ParamDecl("a")], brackets={(1, 2): {1: a * a - 3}})
    assert alg.bracket(1, 2) == {1: a * a - 3}


def assert_ax_matches_reference(alg):
    """build_ax equals the ring-arithmetic definition entry by entry, with
    the same stored pairs, the same coefficient types and no zero stored."""
    ax, want = build_ax(alg), reference_ax(alg)
    got = dict(ax.stored())
    assert got.keys() == dict(want.stored()).keys(), alg.name
    for ij, entry in want.stored():
        assert got[ij] == entry, (alg.name, ij)
        terms = dict(got[ij].terms())
        assert all(terms.values()), (alg.name, ij)
        assert {m: type(c) for m, c in terms.items()} == {
            m: type(c) for m, c in entry.terms()
        }, (alg.name, ij)


def test_build_ax_matches_reference_on_corpus_and_helpers():
    tables = _corpus_tables()
    assert any(alg.param_names() for alg in tables)
    assert "L5a*" in [alg.name for alg in tables]  # L5a_corrected
    helpers = [gl_algebra(3), borel_algebra(3), nilradical_algebra(4), heisenberg_algebra(3)]
    for alg in tables + helpers:
        assert_ax_matches_reference(alg)


# coefficients: sums of up to three terms c * a^i * b^j, zero included
_monomials = st.tuples(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.integers(0, 3),
    st.integers(0, 3),
)
_coefficient_terms = st.lists(_monomials, max_size=3)


@st.composite
def parametric_tables(draw):
    dim = draw(st.integers(1, 5))
    reg = VarRegistry(dim, params=("a", "b"))
    a, b = reg.parameter("a"), reg.parameter("b")
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    brackets = {}
    for pair in chosen:
        ks = draw(st.lists(st.integers(1, dim), unique=True, max_size=dim))
        brackets[pair] = {
            k: sum((a**i * b**j * c for c, i, j in draw(_coefficient_terms)), reg.zero())
            for k in ks
        }
    return LieAlgebra(dim, reg, [ParamDecl("a"), ParamDecl("b")], brackets)


@settings(max_examples=100, deadline=None)
@given(parametric_tables())
def test_build_ax_matches_reference_on_random_parametric_tables(alg):
    assert_ax_matches_reference(alg)


def test_build_ax_entries():
    alg = algebra_from_table(4, EXAMPLE)
    ax = build_ax(alg)
    reg = alg.registry
    x1, x2 = reg.coordinate(1), reg.coordinate(2)
    # (A_x)_{ij} = sum_k c_{ij}^k x_k
    assert ax.entry(1, 3) == -x1
    assert ax.entry(3, 1) == x1
    assert ax.entry(3, 4) == x2
    assert ax.entry(1, 2).is_zero()
    for i in range(1, 5):
        assert ax.entry(i, i).is_zero()


def test_skew_matrix_is_skew_and_submatrix():
    alg = algebra_from_table(3, SL2)
    ax = build_ax(alg)
    for i in range(1, 4):
        for j in range(1, 4):
            assert ax.entry(i, j) == -ax.entry(j, i)
    sub = ax.submatrix((1, 3))
    assert sub.size == 2
    assert sub.entry(1, 2) == ax.entry(1, 3)


def test_evaluate_matches_symbolic():
    rng = random.Random(3)
    alg = algebra_from_table(3, SL2)
    ax = build_ax(alg)
    point = {f"x{k}": Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for k in (1, 2, 3)}
    rows = ax.evaluate(point)
    for i in range(3):
        for j in range(3):
            assert rows[i][j] == ax.entry(i + 1, j + 1).evaluate(point)


def test_congruent_against_naive_det():
    """det(P^T A P) = det(P)^2 det(A), checked with a Laplace oracle."""
    rng = random.Random(11)
    alg = algebra_from_table(3, HEISENBERG)
    ax = build_ax(alg)
    p = random_unimodular(3, rng)
    moved = ax.congruent(p)
    assert laplace_det(moved.rows()) == laplace_det(ax.rows())  # det P = +-1


def test_change_of_basis_keeps_lie_axioms():
    rng = random.Random(5)
    for table, dim in ((SL2, 3), (EXAMPLE, 4), (HEISENBERG, 3)):
        alg = algebra_from_table(dim, table)
        for _ in range(3):
            p = random_unimodular(dim, rng)
            moved = change_of_basis(alg, p)
            assert validate(moved).ok


def test_integer_basis_change_stays_in_integers():
    """An integer table moved by a unimodular integer P keeps int coefficients."""
    rng = random.Random(8)
    for alg in (algebra_from_table(4, EXAMPLE), gl_algebra(2), corpus.entry("L1").load()):
        p = random_unimodular(alg.dim, rng)
        moved = change_of_basis(alg, p)
        assert validate(moved).ok
        assert all(
            holds_ints(c)
            for pair in moved.stored_pairs()
            for c in moved.bracket(*pair).values()
        )
        congruent = build_ax(alg).congruent(p)
        assert congruent.stored() and all(holds_ints(e) for _, e in congruent.stored())
    scaled = change_of_basis(algebra_from_table(3, SL2), [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert scaled.structure_constant(1, 2, 3).constant_value() == Fraction(1, 2)


def _invertible_rational(n, rng):
    while True:
        p = [[random_fraction(rng) for _ in range(n)] for _ in range(n)]
        if ratmat.rank(p) == n:
            return p


def test_change_of_basis_is_bilinear_in_the_old_basis():
    """[e'_i, e'_j] read in the old basis is the bilinear expansion of
    [sum_k P_ki e_k, sum_l P_lj e_l]: sum_m c'_ij^m P_sm equals
    sum_{k,l} P_ki P_lj c_kl^s for every i < j and s, on every corpus
    table under a seeded unimodular and a seeded rational P."""
    rng = random.Random(26)
    for entry in corpus.manifest():
        alg = entry.load()
        n, zero = alg.dim, alg.registry.zero()
        old = {
            (k, l): alg.bracket(k, l)
            for k, l in itertools.permutations(range(1, n + 1), 2)
            if alg.bracket(k, l)
        }
        for p in (random_unimodular(n, rng), _invertible_rational(n, rng)):
            moved = change_of_basis(alg, p)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                want = [zero] * (n + 1)
                for (k, l), terms in old.items():
                    weight = p[k - 1][i - 1] * p[l - 1][j - 1]
                    for s, c in terms.items():
                        want[s] = want[s] + c * weight
                got = [zero] * (n + 1)
                for m, c in moved.bracket(i, j).items():
                    for s in range(1, n + 1):
                        got[s] = got[s] + c * p[s - 1][m - 1]
                assert got == want, (entry.name, i, j)


def test_stored_lists_the_nonzero_upper_entries():
    ax = build_ax(algebra_from_table(4, EXAMPLE))
    stored = dict(ax.stored())
    assert sorted(stored) == [(1, 3), (3, 4)]
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert ax.entry(i, j) == stored.get((i, j), ax.registry.zero())


def test_change_of_basis_identity_is_noop():
    alg = algebra_from_table(3, SL2)
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert change_of_basis(alg, ident) == alg


def test_substitute_params_binds_and_excludes():
    reg = VarRegistry(3, params=("a",))
    a = reg.parameter("a")
    decl = ParamDecl("a", exclusions=(a,))
    alg = LieAlgebra(3, reg, params=(decl,), brackets={(1, 2): {3: a}})
    bound = substitute_params(alg, {"a": Fraction(1, 2)})
    assert bound.param_names() == ()
    assert bound.structure_constant(1, 2, 3).constant_value() == Fraction(1, 2)
    with pytest.raises(ExclusionViolation):
        substitute_params(alg, {"a": 0})
    with pytest.raises(ParameterBindingError):
        substitute_params(alg, {})
    with pytest.raises(ParameterBindingError):
        substitute_params(alg, {"a": 1, "b": 2})


def test_bindings_of_one_family_share_one_registry():
    """A bound table's registry depends on its dimension alone; each binding
    still equals the table built over a registry of its own."""
    alg = corpus.entry("L12a").load()
    tables = []
    for a in (1, 3, Fraction(-1, 2)):
        bound = substitute_params(alg, {"a": a})
        own = VarRegistry(alg.dim)
        brackets = {
            pair: {k: own.constant(c.evaluate({"a": Fraction(a)})) for k, c in alg.bracket(*pair).items()}
            for pair in alg.stored_pairs()
        }
        assert bound == LieAlgebra(alg.dim, own, brackets=brackets)
        tables.append(bound)
    assert all(t.registry is tables[0].registry for t in tables)
    assert tables[0].registry == VarRegistry(alg.dim)


def test_with_name():
    alg = algebra_from_table(3, SL2, name="one")
    renamed = alg.with_name("two")
    assert renamed.name == "two"
    assert renamed == alg  # name is not part of equality


# -- refused constructions ------------------------------------------------------


def test_algebra_of_dimension_zero_is_refused():
    with pytest.raises(ValueError, match="at least 1"):
        LieAlgebra(0, VarRegistry(0))


def test_algebra_refuses_a_registry_of_another_dimension_or_parameters():
    with pytest.raises(ValueError, match="registry dimension"):
        LieAlgebra(3, VarRegistry(4))
    with pytest.raises(ValueError, match="registry parameters"):
        LieAlgebra(3, VarRegistry(3, ["a"]))
    with pytest.raises(ValueError, match="registry parameters"):
        LieAlgebra(3, VarRegistry(3), params=(ParamDecl("a"),))


def test_algebra_refuses_a_coefficient_from_a_foreign_registry():
    foreign = VarRegistry(4).one()
    with pytest.raises(RegistryMismatch):
        LieAlgebra(3, VarRegistry(3), brackets={(1, 2): {3: foreign}})


@pytest.mark.parametrize("pair", [(2, 2), (2, 1)])
def test_skew_matrix_refuses_an_entry_on_or_below_the_diagonal(pair):
    reg = VarRegistry(3)
    with pytest.raises(ValueError, match="strictly above the diagonal"):
        SkewPolyMatrix(3, reg, {pair: reg.one()})


@pytest.mark.parametrize(
    "indices, message",
    [([2, 1], "strictly increasing"), ([1, 1], "strictly increasing"),
     ([0, 2], "out of range"), ([1, 4], "out of range")],
)
def test_submatrix_refuses_unsorted_or_out_of_range_indices(indices, message):
    matrix = build_ax(algebra_from_table(3, HEISENBERG))
    with pytest.raises(ValueError, match=message):
        matrix.submatrix(indices)


@pytest.mark.parametrize(
    "p_matrix", [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1], [0, 0, 1]]], ids=["2x2", "ragged"]
)
def test_congruent_and_change_of_basis_refuse_a_matrix_of_the_wrong_shape(p_matrix):
    alg = algebra_from_table(3, HEISENBERG)
    with pytest.raises(ValueError, match="congruence matrix has the wrong shape"):
        build_ax(alg).congruent(p_matrix)
    with pytest.raises(ValueError, match="basis change matrix has the wrong shape"):
        change_of_basis(alg, p_matrix)
