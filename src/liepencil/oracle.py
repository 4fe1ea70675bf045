"""Independent numeric checker for skew matrix pencils.

Only :func:`cross_check` touches the symbolic machinery.  The rest works
with explicit matrices, scaled to integers once when a pencil is built:
build a pencil out of canonical blocks, scramble it by a congruence, and
recover the invariants from the numbers alone.  The point of the
duplication is to have two routes to the same answer, so the classifier
and the oracle can be played against each other in tests and in the
``check`` command.

Block conventions (sizes in matrix rows):

* ``JordanBlock(mu, k)`` is the 2k x 2k pair
  A = [[0, J], [-J^T, 0]],  B = [[0, I], [-I, 0]]
  with J the k x k upper Jordan block with eigenvalue mu.  The pencil
  A + t*B drops rank exactly at t = -mu.
* ``InfiniteJordanBlock(k)`` swaps the roles: A carries the identity and B
  the nilpotent block, so the rank of B alone drops but det(A + t*B) stays
  constant.
* ``KroneckerBlock(k)`` is the (2k+1) x (2k+1) pair built from the k x (k+1)
  strips [I | 0] and [0 | I]; it is singular for every t.  k = 0 gives the
  1 x 1 zero pair.

A block's ``strips()`` are the upper strips of its A and B, as named above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from random import Random
from typing import Mapping

from . import ratmat, unipoly
from .classify import (
    ClassificationReport,
    LieAlgebra,
    SamplePoint,
    Verdict,
    classify,
    family_samples,
)
from .errors import SingularMatrix

__all__ = [
    "JordanBlock",
    "InfiniteJordanBlock",
    "KroneckerBlock",
    "NumericPencil",
    "assemble",
    "congruence",
    "PencilTypeReport",
    "pencil_type",
    "TrialOutcome",
    "CrossCheckReport",
    "cross_check",
]


def _bands(rows: int, cols: int, diagonal, above) -> list[list]:
    """The rows x cols strip: ``diagonal`` at (i, i), ``above`` at (i, i+1), else 0."""
    return [
        [diagonal if j == i else above if j == i + 1 else 0 for j in range(cols)]
        for i in range(rows)
    ]


@dataclass(frozen=True)
class JordanBlock:
    eigenvalue: Fraction
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("Jordan block size must be at least 1")

    @property
    def matrix_size(self) -> int:
        return 2 * self.size

    def strips(self):
        k = self.size
        return _bands(k, k, self.eigenvalue, 1), _bands(k, k, 1, 0)


@dataclass(frozen=True)
class InfiniteJordanBlock:
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("Jordan block size must be at least 1")

    @property
    def matrix_size(self) -> int:
        return 2 * self.size

    def strips(self):
        k = self.size
        return _bands(k, k, 1, 0), _bands(k, k, 0, 1)


@dataclass(frozen=True)
class KroneckerBlock:
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("Kronecker block size must be non-negative")

    @property
    def matrix_size(self) -> int:
        return 2 * self.size + 1

    def strips(self):
        k = self.size
        return _bands(k, k + 1, 1, 0), _bands(k, k + 1, 0, 1)


class NumericPencil:
    """A pair of equal-sized skew-symmetric matrices, held as integers.

    The rows may hold ints, Fractions or anything ``Fraction()`` accepts.
    ``a`` and ``b`` are the given A and B times one common positive factor,
    the least common denominator of all their entries.  Scaling A and B
    together changes neither the rank of A + t*B at any t nor the roots of
    det(A + t*B), and p0 is taken primitive, so every invariant is read off
    the integer pair.
    """

    __slots__ = ("a", "b", "size")

    def __init__(self, a_rows, b_rows):
        a = ratmat.rational_rows(a_rows)
        n = len(a)
        stacked, _ = ratmat.scale_to_int(a + ratmat.rational_rows(b_rows))
        a, b = stacked[:n], stacked[n:]
        if len(b) != n or any(len(r) != n for r in a) or any(len(r) != n for r in b):
            raise ValueError("pencil matrices must be square and equally sized")
        if not (ratmat.is_skew(a) and ratmat.is_skew(b)):
            raise ValueError("pencil matrices must be skew-symmetric")
        self.a = a
        self.b = b
        self.size = n

    def at(self, t: int) -> list[list[int]]:
        """A + t*B for an integer t, an integer matrix."""
        return [
            [x + t * y for x, y in zip(ra, rb)]
            for ra, rb in zip(self.a, self.b)
        ]


def assemble(blocks) -> NumericPencil:
    """Block-diagonal pencil from canonical blocks, in the order given.

    Each block fills its diagonal square with [[0, T], [-T^T, 0]] for each
    of its two ``strips()`` T; :class:`NumericPencil` scales them to ints.
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("at least one block is required")
    n = sum(bl.matrix_size for bl in blocks)
    a = [[0] * n for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    offset = 0
    for bl in blocks:
        for out, strip in zip((a, b), bl.strips()):
            right = offset + len(strip)
            for i, row in enumerate(strip, start=offset):
                for j, v in enumerate(row, start=right):
                    out[i][j] = v
                    out[j][i] = -v
        offset += bl.matrix_size
    return NumericPencil(a, b)


def congruence(pencil: NumericPencil, p_rows) -> NumericPencil:
    """Transform by an invertible P: (A, B) -> (P^T A P, P^T B P).

    P is scaled to an integer matrix s*P first; that scales both results by
    the same s^2, which the pencil does not see.
    """
    p, _ = ratmat.scale_to_int(ratmat.rational_rows(p_rows))
    if len(p) != pencil.size or any(len(r) != pencil.size for r in p):
        raise ValueError("congruence matrix size does not match the pencil")
    if ratmat.rank(p) < pencil.size:
        raise SingularMatrix("congruence matrix is singular")
    pt = ratmat.transpose(p)
    return NumericPencil(
        ratmat.matmul(pt, ratmat.matmul(pencil.a, p)),
        ratmat.matmul(pt, ratmat.matmul(pencil.b, p)),
    )


# -- type recovery -------------------------------------------------------------


@dataclass(frozen=True)
class PencilTypeReport:
    """Everything the numeric analysis can say about one pencil.

    Only what the analysis computed is stored.  ``rank`` is the generic rank
    of A + t*B, and ``p0`` the primitive gcd of its rank-sized minor
    Pfaffians, as ints in ascending powers of t.  ``char_numbers`` are its
    rational roots (the values of t where the rank drops) with
    multiplicities; ``residual`` is the rootless cofactor left after them,
    and ``char_complete`` records whether the root search ran to the end.
    ``infinite_count`` counts Jordan blocks at t = infinity, half the rank
    deficit of B on the regular part.  ``corank``, ``has_infinite`` and
    ``verdict`` are read off these; ``method`` names the one route p0
    takes, "deflation".
    """

    size: int
    rank: int
    p0: tuple[int, ...]
    char_numbers: tuple[tuple[Fraction, int], ...]
    char_complete: bool
    residual: tuple[int, ...]
    infinite_count: int

    method = "deflation"

    @property
    def corank(self) -> int:
        return self.size - self.rank

    @property
    def has_infinite(self) -> bool:
        return self.infinite_count > 0

    @property
    def p0_degree(self) -> int:
        return unipoly.deg(self.p0)

    @property
    def verdict(self) -> Verdict:
        if self.corank == 0:
            return Verdict.JORDAN
        if self.p0_degree > 0 or self.has_infinite:
            return Verdict.MIXED
        return Verdict.KRONECKER

    def p0_text(self) -> str:
        return unipoly.format_poly(list(self.p0), var="t")

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "size": self.size,
            "rank": self.rank,
            "corank": self.corank,
            "p0": self.p0_text(),
            "p0_degree": self.p0_degree,
            "char_numbers": [[str(r), m] for r, m in self.char_numbers],
            "char_complete": self.char_complete,
            "has_infinite": self.has_infinite,
            "infinite_count": self.infinite_count,
            "method": self.method,
        }


def _samples(pencil: NumericPencil) -> tuple[int, ratmat.SpanBuilder]:
    """The rank r of A + t*B and the span U of its kernels at the points of rank r.

    One elimination per integer t = 0, 1, ...: the kernel of A + t*B, whose
    rank is n minus the kernel's length.  A point of full rank ends the walk
    at once: its empty kernel adds nothing.  Otherwise the walk keeps the
    span of the kernels at the points of the shortest kernel so far, starts
    it again when a shorter kernel comes, skips the longer ones, and stops
    at the first point whose kernel adds nothing to it.  That point gives r,
    and the span is U.

    Why the stop is exact.  Over C the pencil is a congruent direct sum of
    canonical blocks (Gantmacher, Theory of Matrices vol. 2, ch. XII), and
    ker(A + t*B) is the sum of the blocks' kernels:

    * a Kronecker block of index e gives one vector m(t) of degree e in t at
      every t, and its values at e + 1 distinct points are independent
      (Vandermonde), so they span the block's kernel space;
    * a Jordan block with eigenvalue mu gives kernel vectors only at
      t = -mu, and those never lie in the span of the kernels at other
      points; a Jordan block at infinity gives none.

    So a point whose kernel adds nothing hits no eigenvalue and has the
    generic rank r, the shortest kernel of all; every point whose kernel
    went into the span has that length too.  After m points of rank r the span has dimension
    sum(min(m, e_i + 1)), which grows by #{i : e_i >= m} at the next one; a
    point that adds nothing therefore comes after at least max(e_i) + 1
    points of rank r, and the span is all of U, the sum of the Kronecker
    blocks' kernel spaces.
    """
    n = pencil.size
    shortest = n + 1
    for t in count():
        kernel = ratmat.kernel(pencil.at(t))
        if len(kernel) < shortest:
            shortest, span = len(kernel), ratmat.SpanBuilder(n)
        # every vector goes in, so no any(): it would stop at the first
        if len(kernel) == shortest and not sum(map(span.add, kernel)):
            return n - shortest, span


def _regular_part(pencil: NumericPencil, span: ratmat.SpanBuilder) -> tuple[list, list]:
    """Split off the singular part: the Gram pair of A and B on ann(Y)/U.

    ``span`` holds U, the sum of the Kronecker blocks' kernel spaces, as
    :func:`_samples` leaves it.  Pairing U with its image Y = A(U) + B(U)
    and passing to ann(Y)/U removes every Kronecker block: each one is a
    pairing of its kernel space with its image.  What is left is the
    regular part, Jordan blocks only, and the Gram pair of A and B on coset
    representatives is congruent to it.  With U = 0 (no singular block)
    the quotient is the whole space and the pair is A, B themselves, handed
    on as they are; with no representatives it is the empty pair.

    Otherwise one span serves both: ann(Y) is the kernel of the images
    A u, B u of a basis of U, and the span of U, grown further, accepts the
    coset representatives from it.
    """
    a, b = pencil.a, pencil.b
    if span.dim:
        y_rows = [ratmat.mat_vec(m, vec) for vec in span.basis() for m in (a, b)]
        reps = [w for w in ratmat.kernel(y_rows) if span.add(w)]
        cols = ratmat.transpose(reps)
        a, b = (ratmat.matmul(reps, ratmat.matmul(m, cols)) for m in (a, b))
    return a, b


def pencil_type(pencil: NumericPencil) -> PencilTypeReport:
    """Recover the block-structure invariants of one numeric pencil.

    The rank r and the span U of the Kronecker blocks' kernels come from
    :func:`_samples`, one kernel of A + t*B per point t = 0, 1, ... until a
    point of the highest rank so far adds nothing to the span of the
    kernels at the points of that rank.  Such a point hits no eigenvalue,
    and the span it stalls holds the values of every Kronecker block's
    kernel vector m(t) at more points than its degree, so it is U (see
    :func:`_samples` for the proof).  :func:`_regular_part` turns that span
    into the m x m Gram pair (G_A, G_B) of the regular part, and p0 is the
    primitive part of Pf(G_A + t G_B).

    The blocks at t = infinity are counted on the same pair.  It is
    congruent to the direct sum of the Jordan blocks, in which B of a
    finite Jordan block has full rank and B of an infinite block of size k
    has rank 2k - 2, so infinite_count = (m - rank G_B) / 2, and 0 for the
    empty pair.
    """
    r, span = _samples(pencil)
    gram_a, gram_b = _regular_part(pencil, span)
    pf = unipoly.pencil_pfaffian(gram_a, gram_b)
    if not pf:
        raise ArithmeticError("deflated pencil is singular; rank certificate failed")
    p0 = unipoly.primitive(pf)
    roots, residual, complete = unipoly.rational_roots(p0)
    return PencilTypeReport(
        size=pencil.size,
        rank=r,
        p0=tuple(p0),
        char_numbers=tuple(roots),
        char_complete=complete,
        residual=tuple(residual),
        infinite_count=(len(gram_b) - ratmat.rank(gram_b)) // 2,
    )


# -- agreement with the symbolic classifier ------------------------------------


@dataclass(frozen=True)
class TrialOutcome:
    x_point: tuple[int, ...]
    a_point: tuple[int, ...]
    param_values: Mapping[str, Fraction]
    report: PencilTypeReport
    agrees: bool


@dataclass(frozen=True)
class CrossCheckReport:
    symbolic: ClassificationReport
    trials: tuple[TrialOutcome, ...]

    @property
    def ok(self) -> bool:
        """Generic draws reproduce the symbolic verdict; degenerate draws
        can disagree, so one agreeing trial is the bar, and every
        disagreement is surfaced for inspection."""
        return any(t.agrees for t in self.trials)

    def disagreements(self) -> list[TrialOutcome]:
        return [t for t in self.trials if not t.agrees]


_COORD_RANGE = 1000


def cross_check(
    alg: LieAlgebra,
    trials: int = 5,
    seed: int = 0,
) -> CrossCheckReport:
    """Replay the classification numerically at random integer points.

    Each trial takes the next sample of the family from
    :func:`~liepencil.classify.family_samples` (the table itself when it has
    no parameters), then draws integer points x0 and a0 from the same
    random stream, and hands the sample report's own A_x, evaluated at x0
    and at a0, to the numeric analysis.  Agreement is judged against that
    report's verdict.  The points x0 and a0 can still land where the pencil
    degenerates, so a single trial may disagree: the report is ok when any
    trial agrees (see :attr:`CrossCheckReport.ok`), and the disagreeing
    trials are kept for inspection.
    """
    symbolic = classify(alg)
    rng = Random(seed)
    points = family_samples(alg, rng) if alg.param_names() else repeat(SamplePoint({}, symbolic))
    outcomes = []
    for _ in range(trials):
        point = next(points)
        matrix = point.report.profile.matrix
        x0 = tuple(rng.randint(-_COORD_RANGE, _COORD_RANGE) for _ in range(alg.dim))
        a0 = tuple(rng.randint(-_COORD_RANGE, _COORD_RANGE) for _ in range(alg.dim))
        a_rows = matrix.evaluate({f"x{k}": x0[k - 1] for k in range(1, alg.dim + 1)})
        b_rows = matrix.evaluate({f"x{k}": a0[k - 1] for k in range(1, alg.dim + 1)})
        report = pencil_type(NumericPencil(a_rows, b_rows))
        outcomes.append(
            TrialOutcome(
                x_point=x0,
                a_point=a0,
                param_values=point.values,
                report=report,
                agrees=report.verdict == point.report.verdict,
            )
        )
    return CrossCheckReport(symbolic=symbolic, trials=tuple(outcomes))
