"""Verdicts for bracket tables and for parametric families.

The decision tree is short.  A table of full generic rank is Jordan.
Otherwise the gcd p0 of the rank-sized principal Pfaffians either involves
the coordinates (mixed) or it does not (Kronecker).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from random import Random
from typing import Iterator, Mapping

from .errors import ExclusionViolation, InvalidAlgebra, SamplingError
from .model import LieAlgebra, substitute_params, validate
from .pencil import PencilProfile, pencil_profile
from .poly import Polynomial

__all__ = [
    "Verdict",
    "VERDICT_SENTENCES",
    "ClassificationReport",
    "require_valid",
    "classify",
    "format_values",
    "SamplePoint",
    "FamilyReport",
    "family_samples",
    "DEFAULT_SEED",
    "classify_family",
]


class Verdict(enum.Enum):
    JORDAN = "jordan"
    KRONECKER = "kronecker"
    MIXED = "mixed"

    def __str__(self) -> str:
        return self.value


VERDICT_SENTENCES = {
    Verdict.JORDAN: "G is of Jordan type.",
    Verdict.KRONECKER: "G is of Kronecker type.",
    Verdict.MIXED: "G is of mixed type.",
}


@dataclass(frozen=True)
class ClassificationReport:
    """The verdict on one table.  Only the name, the time and the profile
    are stored; every other reading, the verdict included, is derived."""

    name: str
    elapsed: float
    profile: PencilProfile

    @property
    def dim(self) -> int:
        return self.profile.dim

    @property
    def generic_rank(self) -> int:
        return self.profile.generic_rank

    @property
    def index(self) -> int:
        return self.profile.index

    @property
    def p0(self) -> Polynomial:
        return self.profile.p0

    @property
    def p0_coordinate_degree(self) -> int:
        return self.profile.coordinate_degree

    @property
    def verdict(self) -> Verdict:
        if self.index == 0:
            return Verdict.JORDAN
        if self.p0_coordinate_degree == 0:
            return Verdict.KRONECKER
        return Verdict.MIXED

    @property
    def sentence(self) -> str:
        return VERDICT_SENTENCES[self.verdict]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "generic_rank": self.generic_rank,
            "index": self.index,
            "p0": str(self.p0),
            "p0_coordinate_degree": self.p0_coordinate_degree,
            "p_lambda": str(self.profile.p_lambda),
            "verdict": self.verdict.value,
            "sentence": self.sentence,
            "elapsed": self.elapsed,
        }


def require_valid(alg: LieAlgebra) -> None:
    """Raise InvalidAlgebra when the Jacobi identity fails.

    The message reports the first few offending triples.
    """
    report = validate(alg)
    if not report.ok:
        shown = "; ".join(str(v) for v in report.violations[:3])
        if len(report.violations) > 3:
            shown += f" (and {len(report.violations) - 3} more)"
        raise InvalidAlgebra(shown, report=report)


def classify(alg: LieAlgebra) -> ClassificationReport:
    """Classify one bracket table.

    Raises InvalidAlgebra when the Jacobi identity fails (see
    :func:`require_valid`).
    """
    started = time.perf_counter()
    require_valid(alg)
    profile = pencil_profile(alg)
    return ClassificationReport(alg.name, time.perf_counter() - started, profile)


def format_values(values: Mapping[str, Fraction]) -> str:
    """Parameter values as written in reports: "a=1/2, b=-3"."""
    return ", ".join(f"{k}={v}" for k, v in values.items())


@dataclass(frozen=True)
class SamplePoint:
    values: Mapping[str, Fraction]
    report: ClassificationReport

    def describe_values(self) -> str:
        return format_values(self.values)


@dataclass(frozen=True)
class FamilyReport:
    symbolic: ClassificationReport
    samples: tuple[SamplePoint, ...]

    @property
    def all_agree(self) -> bool:
        return all(s.report.verdict == self.symbolic.verdict for s in self.samples)

    def disagreements(self) -> list[SamplePoint]:
        return [s for s in self.samples if s.report.verdict != self.symbolic.verdict]


_MAX_DRAWS = 100


def family_samples(alg: LieAlgebra, rng: Random) -> Iterator[SamplePoint]:
    """Classified samples at random admissible parameter values, one per
    ``next()``; the caller may draw from ``rng`` in between.  SamplingError
    after ``_MAX_DRAWS`` failed draws.  Bound tables are not validated again:
    Jacobi holds in the symbolic table as a polynomial identity."""
    while True:
        for _ in range(_MAX_DRAWS):
            values = {
                name: Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                for name in alg.param_names()
            }
            try:
                bound = substitute_params(alg, values)
                break
            except ExclusionViolation:
                continue
        else:
            raise SamplingError(
                "could not find parameter values satisfying the exclusions "
                f"after {_MAX_DRAWS} draws"
            )
        started = time.perf_counter()
        profile = pencil_profile(bound)
        name = f"{alg.name or 'G'}[{format_values(values)}]"
        yield SamplePoint(values, ClassificationReport(name, time.perf_counter() - started, profile))


# Seed of the family samples, here and in the CLI: the three default draws
# then sit inside the generic locus of every bundled family (seed 0 happens
# to land L12a on its degenerate value a = -2).
DEFAULT_SEED = 1


def classify_family(alg: LieAlgebra, samples: int = 3, seed: int = DEFAULT_SEED) -> FamilyReport:
    """Symbolic verdict plus verdicts at random admissible parameter values.

    Generic parameters are treated symbolically first; then ``samples``
    random rational points (respecting the declared exclusions) are bound
    and classified individually.  Agreement between the two views is the
    usual sanity check for a family; a disagreement flags parameter values
    where the family degenerates.
    """
    symbolic = classify(alg)
    points = islice(family_samples(alg, Random(seed)), samples if alg.param_names() else 0)
    return FamilyReport(symbolic=symbolic, samples=tuple(points))
