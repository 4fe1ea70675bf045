"""Verdict logic and family sampling."""

import dataclasses
import importlib
import random
import re
from fractions import Fraction

import pytest

from liepencil import corpus
from liepencil.classify import (
    VERDICT_SENTENCES,
    ClassificationReport,
    Verdict,
    classify,
    classify_family,
)
from liepencil.errors import InvalidAlgebra
from liepencil.model import change_of_basis, substitute_params, validate
from liepencil.oracle import InfiniteJordanBlock, JordanBlock, KroneckerBlock, cross_check
from liepencil.parser import parse_poly, parse_text
from liepencil.poly import normalize

from helpers import (
    algebra_from_table,
    lift,
    random_blocks,
    random_unimodular,
    skew_pencil_algebra,
)


def test_verdict_sentences_pinned():
    assert VERDICT_SENTENCES[Verdict.JORDAN] == "G is of Jordan type."
    assert VERDICT_SENTENCES[Verdict.KRONECKER] == "G is of Kronecker type."
    assert VERDICT_SENTENCES[Verdict.MIXED] == "G is of mixed type."
    assert str(Verdict.MIXED) == "mixed"


def test_jordan_when_index_zero():
    # 2-dimensional nonabelian: [e1,e2] = e1, full rank, index 0
    rep = classify(algebra_from_table(2, {(1, 2): {1: 1}}))
    assert rep.verdict is Verdict.JORDAN
    assert rep.index == 0
    assert rep.sentence == "G is of Jordan type."


def test_kronecker_when_p0_constant():
    rep = classify(corpus.entry("example1").load())
    assert rep.verdict is Verdict.KRONECKER
    assert (rep.dim, rep.generic_rank, rep.index) == (4, 2, 2)
    assert rep.p0_coordinate_degree == 0


def test_mixed_when_p0_moves():
    rep = classify(corpus.entry("heisenberg3").load())
    assert rep.verdict is Verdict.MIXED
    assert str(rep.p0) == "x3"
    assert rep.p0_coordinate_degree == 1


def test_abelian_is_kronecker_with_full_index():
    for n in range(1, 6):
        rep = classify(algebra_from_table(n, {}))
        assert rep.verdict is Verdict.KRONECKER
        assert rep.index == n
        assert rep.generic_rank == 0
        assert str(rep.p0) == "1"


def test_exactly_one_verdict_branch():
    for name in corpus.names():
        entry = corpus.entry(name)
        alg = entry.load_variant() if not entry.jacobi_ok else entry.load()
        rep = classify(alg)
        jordan = rep.index == 0
        kronecker = rep.index > 0 and rep.p0_coordinate_degree == 0
        mixed = rep.index > 0 and rep.p0_coordinate_degree > 0
        assert [jordan, kronecker, mixed].count(True) == 1
        assert rep.verdict is (
            Verdict.JORDAN if jordan else Verdict.KRONECKER if kronecker else Verdict.MIXED
        )


def test_invalid_algebra_raises_with_report():
    bad = algebra_from_table(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    with pytest.raises(InvalidAlgebra) as err:
        classify(bad)
    assert err.value.report is not None
    assert err.value.report.violations


def test_report_to_dict():
    rep = classify(corpus.entry("heisenberg3").load().with_name("h3"))
    d = rep.to_dict()
    assert d["name"] == "h3"
    assert d["verdict"] == "mixed"
    assert d["p0"] == "x3"
    assert d["p_lambda"] == "a3*lambda + x3"
    assert d["sentence"] == "G is of mixed type."


def test_report_keeps_only_what_it_computes():
    """Every reading but the name and the time comes from the profile."""
    assert [f.name for f in dataclasses.fields(ClassificationReport)] == [
        "name", "elapsed", "profile",
    ]
    rep = classify(corpus.entry("heisenberg3").load())
    assert (rep.dim, rep.generic_rank, rep.index, rep.p0_coordinate_degree) == (3, 2, 1, 1)
    assert rep.p0 is rep.profile.p0
    assert "coordinate_degree" in rep.profile.__dict__


def test_family_samples_agree_generically():
    alg = corpus.entry("L3a").load()
    fam = classify_family(alg, samples=3, seed=0)
    assert fam.symbolic.verdict is Verdict.KRONECKER
    assert len(fam.samples) == 3
    assert fam.all_agree
    assert fam.disagreements() == []
    for pt in fam.samples:
        assert set(pt.values) == {"a"}
        assert pt.report.verdict is Verdict.KRONECKER


def test_family_substitutes_each_sample_once(monkeypatch):
    """One parameter binding per sample or trial, not one to test the
    exclusions and another to classify."""
    bound = []

    def counting(alg, values):
        result = substitute_params(alg, values)
        bound.append(dict(values))
        return result

    # the package's `classify` attribute is the function, not the module
    classify_module = importlib.import_module("liepencil.classify")
    monkeypatch.setattr(classify_module, "substitute_params", counting)
    alg = corpus.entry("L4ab").load()
    fam = classify_family(alg, samples=4, seed=1)
    assert bound == [dict(pt.values) for pt in fam.samples]
    bound.clear()
    report = cross_check(alg, trials=3, seed=2)
    assert bound == [dict(t.param_values) for t in report.trials]


def test_family_validates_the_symbolic_table_once(monkeypatch):
    """Bound samples inherit Jacobi from the symbolic table, so neither
    classify_family nor cross_check validates them again."""
    calls = []
    classify_module = importlib.import_module("liepencil.classify")
    real_validate = classify_module.validate

    def counting(alg):
        calls.append(alg)
        return real_validate(alg)

    monkeypatch.setattr(classify_module, "validate", counting)
    alg = corpus.entry("L4ab").load()
    fam = classify_family(alg, samples=4, seed=1)
    assert len(fam.samples) == 4
    assert calls == [alg]
    calls.clear()
    report = cross_check(alg, trials=3, seed=2)
    assert len(report.trials) == 3
    assert calls == [alg]


def _count_jacobi_expansions(monkeypatch) -> list:
    model = importlib.import_module("liepencil.model")
    expanded = []
    real = model._jacobi_violations

    def counting(alg):
        expanded.append(alg)
        return real(alg)

    monkeypatch.setattr(model, "_jacobi_violations", counting)
    return expanded


def test_validate_computes_a_table_report_once(monkeypatch):
    expanded = _count_jacobi_expansions(monkeypatch)
    alg = corpus.entry("L4ab").load()
    report = validate(alg)
    assert validate(alg) is report
    assert expanded == [alg]
    classify(alg)
    assert expanded == [alg]
    renamed = alg.with_name("x")
    assert renamed.name == "x"
    assert validate(renamed) is report
    assert expanded == [alg]
    # an equal table built afresh has its own report
    fresh = corpus.entry("L4ab").load()
    assert validate(fresh) is not report and validate(fresh) == report
    assert expanded == [alg, fresh]


def test_invalid_table_raises_with_its_kept_report():
    alg = corpus.entry("L5a").load()
    with pytest.raises(InvalidAlgebra) as err:
        classify(alg)
    assert err.value.report is validate(alg)
    assert not err.value.report.ok


def test_family_sampling_respects_exclusions():
    alg = parse_text("dim 3\nparam a != 0\n[e1,e2] = a*e3\n")
    fam = classify_family(alg, samples=8, seed=1)
    for pt in fam.samples:
        assert pt.values["a"] != 0


def test_family_degeneration_is_reported_not_fatal():
    """A family can specialize to a different type on a thin locus."""
    alg = corpus.entry("L12a").load()
    at_special = classify(substitute_params(alg, {"a": Fraction(-2)}))
    assert at_special.verdict is Verdict.MIXED
    assert str(at_special.p0) == "2*x2*x4 - x3^2"
    generic = classify_family(alg, samples=2, seed=3)
    assert generic.symbolic.verdict is Verdict.KRONECKER


def test_classify_rejects_unbound_use_of_samples_on_plain_algebra():
    # no parameters: classify_family still works, producing zero samples
    fam = classify_family(corpus.entry("heisenberg3").load(), samples=3, seed=0)
    assert fam.samples == ()
    assert fam.all_agree


@pytest.mark.parametrize("m", [2, 3])
def test_truncated_current_algebra_keeps_the_type(m):
    """g[t]/t^m has index m*ind g, the verdict of g, and
    p0 = p0(g)(x_{(m-1)n+k})^m up to normalization, for every valid
    parameter-free corpus table g of dimension n, in its own basis and
    after a seeded unimodular basis change."""
    tables = [e.load() for e in corpus.manifest()]
    tables = [g for g in tables if not g.param_names() and validate(g).ok]
    assert len(tables) == 10
    rng = random.Random(m)
    moved = [
        change_of_basis(g, random_unimodular(g.dim, rng)).with_name(f"{g.name}'") for g in tables
    ]
    for g in tables + moved:
        lifted = lift(g, m)
        assert validate(lifted).ok, lifted.name
        base, report = classify(g), classify(lifted)
        assert report.index == m * base.index, lifted.name
        assert report.verdict is base.verdict, lifted.name
        top = (m - 1) * g.dim
        renamed = re.sub(r"x(\d+)", lambda k: f"x{top + int(k.group(1))}", str(base.p0))
        assert report.p0 == normalize(parse_poly(renamed, lifted.registry) ** m), lifted.name


SKEW_PENCIL_LISTS = [
    [KroneckerBlock(1)],
    [JordanBlock(Fraction(2), 2)],
    [InfiniteJordanBlock(2), KroneckerBlock(0)],
    [JordanBlock(Fraction(-1, 2), 1), JordanBlock(Fraction(-1, 2), 2), KroneckerBlock(2)],
    [InfiniteJordanBlock(1), JordanBlock(Fraction(3), 1), KroneckerBlock(0), KroneckerBlock(1)],
] + [random_blocks(random.Random(seed)) for seed in range(30)]


def test_skew_pencil_algebra_has_the_closed_form_type():
    """[e_i, e_j] = A_ij e_{m+1} + B_ij e_{m+2} for a block pencil (A, B)
    of m rows has index #Kronecker + 2, is mixed exactly when a finite or
    infinite Jordan block is present, and has
    p0 = prod_J(mu,k) (mu*x_{m+1} + x_{m+2})^k * prod_inf(k) x_{m+1}^k,
    normalized.  Up to dimension 12 a seeded basis change keeps the index,
    the verdict and the degree of p0, and the numeric oracle agrees."""
    assert any(
        isinstance(b, InfiniteJordanBlock) for blocks in SKEW_PENCIL_LISTS[5:] for b in blocks
    )
    rng = random.Random(35)
    moved_count = 0
    for blocks in SKEW_PENCIL_LISTS:
        alg = skew_pencil_algebra(blocks)
        assert validate(alg).ok
        m = alg.dim - 2
        reg = alg.registry
        x, y = reg.coordinate(m + 1), reg.coordinate(m + 2)
        expected = reg.one()
        for b in blocks:
            if isinstance(b, JordanBlock):
                expected = expected * (b.eigenvalue * x + y) ** b.size
            elif isinstance(b, InfiniteJordanBlock):
                expected = expected * x ** b.size
        kronecker = sum(isinstance(b, KroneckerBlock) for b in blocks)
        report = classify(alg)
        assert report.index == kronecker + 2, blocks
        assert report.verdict is (Verdict.MIXED if kronecker < len(blocks) else Verdict.KRONECKER), blocks
        assert report.p0 == normalize(expected), blocks
        if alg.dim <= 12:
            moved_count += 1
            moved = change_of_basis(alg, random_unimodular(alg.dim, rng))
            again = classify(moved)
            assert again.index == report.index, blocks
            assert again.verdict is report.verdict, blocks
            assert again.p0.total_degree() == report.p0.total_degree(), blocks
            assert cross_check(moved).ok, blocks
    assert moved_count >= 10
