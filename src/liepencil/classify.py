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
from random import Random
from typing import Mapping

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
    "SamplePoint",
    "FamilyReport",
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
    name: str
    dim: int
    generic_rank: int
    index: int
    p0: Polynomial
    p0_coordinate_degree: int
    verdict: Verdict
    elapsed: float
    profile: PencilProfile

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


def classify(alg: LieAlgebra, name: str | None = None) -> ClassificationReport:
    """Classify one bracket table.

    Raises InvalidAlgebra when the Jacobi identity fails (see
    :func:`require_valid`).
    """
    started = time.perf_counter()
    require_valid(alg)
    return _classify_checked(alg, name, started)


def _classify_checked(
    alg: LieAlgebra, name: str | None, started: float
) -> ClassificationReport:
    """The verdict for a table already known to satisfy Jacobi.

    The samples of a family need no check of their own: the symbolic table
    satisfies Jacobi as a polynomial identity, so every binding of its
    parameters does too.
    """
    profile = pencil_profile(alg)
    if profile.index == 0:
        verdict = Verdict.JORDAN
    elif profile.coordinate_degree == 0:
        verdict = Verdict.KRONECKER
    else:
        verdict = Verdict.MIXED
    return ClassificationReport(
        name=name if name is not None else alg.name,
        dim=alg.dim,
        generic_rank=profile.generic_rank,
        index=profile.index,
        p0=profile.p0,
        p0_coordinate_degree=profile.coordinate_degree,
        verdict=verdict,
        elapsed=time.perf_counter() - started,
        profile=profile,
    )


@dataclass(frozen=True)
class SamplePoint:
    values: Mapping[str, Fraction]
    report: ClassificationReport

    def describe_values(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.values.items())


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


def _draw_values(alg: LieAlgebra, rng: Random) -> tuple[Mapping[str, Fraction], LieAlgebra]:
    """Random admissible parameter values and the table bound to them."""
    for _ in range(_MAX_DRAWS):
        values = {
            name: Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            for name in alg.param_names()
        }
        try:
            return values, substitute_params(alg, values)
        except ExclusionViolation:
            continue
    raise SamplingError(
        "could not find parameter values satisfying the exclusions "
        f"after {_MAX_DRAWS} draws"
    )


def classify_family(
    alg: LieAlgebra,
    samples: int = 3,
    seed: int = 0,
    name: str | None = None,
) -> FamilyReport:
    """Symbolic verdict plus verdicts at random admissible parameter values.

    Generic parameters are treated symbolically first; then ``samples``
    random rational points (respecting the declared exclusions) are bound
    and classified individually.  Agreement between the two views is the
    usual sanity check for a family; a disagreement flags parameter values
    where the family degenerates.
    """
    symbolic = classify(alg, name=name)
    rng = Random(seed)
    points = []
    for _ in range(samples if alg.param_names() else 0):
        values, bound = _draw_values(alg, rng)
        label = (name if name is not None else alg.name) or "G"
        pt_name = f"{label}[" + ", ".join(f"{k}={v}" for k, v in values.items()) + "]"
        report = _classify_checked(bound, pt_name, time.perf_counter())
        points.append(SamplePoint(values=values, report=report))
    return FamilyReport(symbolic=symbolic, samples=tuple(points))
