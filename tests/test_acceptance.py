"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``criterion N: PASS`` line on success so a plain
``pytest -v tests/test_acceptance.py`` reads as a checklist.  Criterion 2
is split: the published type of one seven-dimensional family cannot be
reproduced from either transcription of its bracket table (the bundled
corpus note documents why), so the literal all-twelve claim is carried as
a strict expected failure while everything that is attainable is asserted
positively.
"""

import random
import time
from fractions import Fraction

import pytest

from liepencil import corpus
from liepencil.classify import Verdict, classify
from liepencil.cli import main
from liepencil.model import change_of_basis, validate
from liepencil.oracle import (
    KroneckerBlock,
    assemble,
    congruence,
    cross_check,
    pencil_type,
)
from liepencil.pencil import pencil_profile, pfaffian
from liepencil.poly import VarRegistry, divides, normalize, poly_gcd

from helpers import (
    algebra_from_table,
    bareiss_det,
    eager_eliminate,
    random_blocks,
    random_skew_linear,
    random_unimodular,
)


def _corpus_algebras():
    """Every bundled table that is a Lie algebra (repaired variant included)."""
    out = []
    for e in corpus.manifest():
        out.append((e.name, e.load() if e.jacobi_ok else e.load_variant()))
    return out


@pytest.fixture(scope="module")
def corpus_reports():
    return {name: classify(alg) for name, alg in _corpus_algebras()}


def test_criterion_1_worked_example_reproduction(tmp_path, capsys):
    """n = 4, rank 2, index 2, p0 = 1, Kronecker, exact final line, < 1 s."""
    path = tmp_path / "example1.lie"
    path.write_text(corpus.read_text("example1.lie"))
    started = time.perf_counter()
    code = main(["classify", str(path)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "dim: 4" in out
    assert "generic rank: 2" in out
    assert "index: 2" in out
    assert "p0: 1" in out
    assert out[-1] == "G is of Kronecker type."
    assert elapsed < 1.0
    print(f"criterion 1: PASS (reproduced in {elapsed:.3f}s)")


def test_criterion_2_table_reproduction_attainable(capsys):
    """Eleven of twelve families match; the diff isolates exactly the
    twelfth, its note is surfaced, and the repaired variant is also run.
    Runtime < 60 s with three seed-fixed samples per family."""
    started = time.perf_counter()
    code = main(["table"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert elapsed < 60.0
    # the one unreproducible row forces a nonzero exit
    assert code == 1
    assert "11 of 12 families match the published types" in out
    assert "mismatches: L5a" in out
    # the verbatim transcription is reported as failing Jacobi
    assert "as printed: Jacobi identity fails" in out
    # the corpus note is consulted and rendered
    assert "note:" in out
    assert corpus.entry("L5a").note
    # the sign-corrected variant is classified as well
    assert "L5a*" in out
    # every other family matches its published type
    for name in ("L1", "L2"):
        row = next(l for l in out.splitlines() if l.startswith(name + " "))
        assert "mixed" in row and "MISMATCH" not in row
    for name in ("L3a", "L4ab", "L6", "L7a", "L8a", "L9", "L10a", "L11", "L12a"):
        row = next(l for l in out.splitlines() if l.startswith(name + " "))
        assert "kronecker" in row and "MISMATCH" not in row
    # sampled corroboration agrees everywhere it ran
    assert "[samples disagree]" not in out
    print(f"criterion 2: PASS on the attainable clauses ({elapsed:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The published type of the fifth seven-dimensional family is Kronecker, "
        "but its printed bracket table fails the Jacobi identity on (e1,e2,e6) "
        "and (e1,e3,e6), and the unique single-coefficient repair (as well as "
        "the raw skew matrix, Jacobi aside) yields p0 = x5, hence mixed type; "
        "an independent numeric analysis at random points concurs. Neither "
        "transcription can match the published row."
    ),
)
def test_criterion_2_table_reproduction_full(capsys):
    """The literal claim: every family, fifth one included, matches."""
    code = main(["table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "12 of 12 families match the published types" in out
    print("criterion 2 (full): PASS")


def test_criterion_3_pfaffian_property_suite():
    """200 random skew symbolic matrices: Pf^2 = det and congruence
    covariance Pf(P^T M P) = det(P) Pf(M), both exact, zero failures."""
    rng = random.Random(2024)
    reg = VarRegistry(3)
    checked = 0
    for size in (2, 4, 6, 8):
        for _ in range(50):
            m = random_skew_linear(reg, size, rng, max_vars=3, coeff=5)
            pf = pfaffian(m)
            assert pf * pf == bareiss_det(m.rows())
            p = [[Fraction(rng.randint(-2, 2)) for _ in range(size)] for _ in range(size)]
            pivots, d, sign = eager_eliminate([[int(v) for v in row] for row in p])
            det_p = sign * d if len(pivots) == size else 0
            assert pfaffian(m.congruent(p)) == pf * det_p
            checked += 1
    assert checked == 200
    print(f"criterion 3: PASS ({checked} matrices)")


def test_criterion_4_gcd_property_suite():
    """p0 divides every nonzero principal Pfaffian, is normalized, and is
    stable under permuting the Pfaffian list."""
    rng = random.Random(99)
    for name, alg in _corpus_algebras():
        prof = pencil_profile(alg)
        nonzero = []
        for subset, pf in prof.pfaffians:
            if pf:
                assert divides(prof.p0, pf), (name, subset)
                nonzero.append(pf)
        assert normalize(prof.p0) == prof.p0, name
        for _ in range(3):
            rng.shuffle(nonzero)
            g = nonzero[0]
            for pf in nonzero[1:]:
                g = poly_gcd(g, pf)
            assert normalize(g) == prof.p0, name
    print("criterion 4: PASS")


def test_criterion_5_parity_and_single_branch(corpus_reports):
    """Even rank, index congruent to n mod 2, exactly one verdict branch."""
    for name, rep in corpus_reports.items():
        assert rep.generic_rank % 2 == 0, name
        assert (rep.index - rep.dim) % 2 == 0, name
        branches = [
            rep.index == 0,
            rep.index > 0 and rep.p0_coordinate_degree == 0,
            rep.index > 0 and rep.p0_coordinate_degree > 0,
        ]
        assert branches.count(True) == 1, name
        expected = (Verdict.JORDAN, Verdict.KRONECKER, Verdict.MIXED)[branches.index(True)]
        assert rep.verdict is expected, name
    print(f"criterion 5: PASS ({len(corpus_reports)} algebras)")


def test_criterion_6_basis_invariance(corpus_reports):
    """Verdict, index, and coordinate degree survive five random unimodular
    integer changes of basis with entries in [-3, 3], per algebra."""
    rng = random.Random(7)
    for name, alg in _corpus_algebras():
        base = corpus_reports[name]
        for _ in range(5):
            p = random_unimodular(alg.dim, rng, cap=3)
            moved = change_of_basis(alg, p)
            rep = classify(moved)
            assert rep.verdict is base.verdict, name
            assert rep.index == base.index, name
            assert rep.p0_coordinate_degree == base.p0_coordinate_degree, name
    print("criterion 6: PASS")


def test_criterion_7a_block_recovery():
    """pencil_type recovers type and corank from 100 scrambled block lists."""
    rng = random.Random(1234)
    for trial in range(100):
        blocks = random_blocks(rng)
        pencil = assemble(blocks)
        p = random_unimodular(pencil.size, rng)
        rep = pencil_type(congruence(pencil, p))
        kron = sum(1 for b in blocks if isinstance(b, KroneckerBlock))
        jordan = len(blocks) - kron
        if kron and jordan:
            want = Verdict.MIXED
        elif kron:
            want = Verdict.KRONECKER
        else:
            want = Verdict.JORDAN
        assert rep.verdict is want, (trial, blocks)
        assert rep.corank == kron, (trial, blocks)
    print("criterion 7a: PASS (100 block lists)")


def test_criterion_7b_cross_check_agreement():
    """The numeric replay agrees with the symbolic verdict on every
    bundled algebra, five seed-fixed trials each."""
    for name, alg in _corpus_algebras():
        report = cross_check(alg, trials=5, seed=42)
        assert report.ok, name
        assert all(t.agrees for t in report.trials), (name, report.disagreements())
    print("criterion 7b: PASS")


def test_criterion_8_degenerate_cases():
    """Abelian 1-5 are Kronecker with index n and p0 = 1; the affine line
    algebra is Jordan; Heisenberg is mixed with p0 = x3 (oracle-checked)."""
    for n in range(1, 6):
        rep = classify(algebra_from_table(n, {}))
        assert rep.verdict is Verdict.KRONECKER, n
        assert rep.index == n
        assert str(rep.p0) == "1"
    aff = classify(corpus.entry("aff1").load())
    assert aff.verdict is Verdict.JORDAN
    assert aff.index == 0
    h3 = corpus.entry("heisenberg3").load()
    rep = classify(h3)
    assert rep.verdict is Verdict.MIXED
    assert str(rep.p0) == "x3"
    assert cross_check(h3, trials=5, seed=8).ok
    print("criterion 8: PASS")
