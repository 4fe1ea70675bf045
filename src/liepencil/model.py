"""Lie algebras over Q(parameters), given by structure constants.

A bracket table stores, for each basis pair i < j, the expansion
[e_i, e_j] = sum_k c_ij^k e_k.  Coefficients are polynomials in the declared
parameters only; the other half of the table exists implicitly through
antisymmetry.  Validation checks the Jacobi identity as a polynomial
identity, so a verdict of "valid" holds for every admissible parameter value
at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import ratmat
from .errors import (
    ExclusionViolation,
    ParameterBindingError,
    RegistryMismatch,
)
from .poly import (
    MAX_POWER_SIZE,
    Polynomial,
    VarKind,
    VarRegistry,
    coefficients,
    shared_registry,
    size_estimate,
    sum_of_products,
)

__all__ = [
    "ParamDecl",
    "LieAlgebra",
    "Violation",
    "ValidationReport",
    "SkewPolyMatrix",
    "validate",
    "build_ax",
    "change_of_basis",
    "substitute_params",
]


@dataclass(frozen=True)
class ParamDecl:
    """A named parameter with polynomial loci that must stay nonzero."""

    name: str
    exclusions: tuple[Polynomial, ...] = ()


# the kinds a bracket coefficient must not involve
_NOT_PARAMETERS = (VarKind.COORDINATE, VarKind.POINT, VarKind.PENCIL)


class LieAlgebra:
    """Immutable structure-constant table of dimension ``dim``.

    The table's :class:`ValidationReport` is kept once :func:`validate` has
    computed it, and a renamed copy shares it.
    """

    __slots__ = ("dim", "params", "registry", "name", "_brackets", "_report")

    def __init__(
        self,
        dim: int,
        registry: VarRegistry,
        params: Sequence[ParamDecl] = (),
        brackets: Mapping[tuple[int, int], Mapping[int, Polynomial]] | None = None,
        name: str = "",
    ):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if registry.dim != dim:
            raise ValueError("registry dimension does not match the algebra")
        if tuple(p.name for p in params) != registry.params:
            raise ValueError("registry parameters do not match the declarations")
        self.dim = dim
        self.registry = registry
        self.params = tuple(params)
        self.name = name
        table: dict[tuple[int, int], dict[int, Polynomial]] = {}
        for (i, j), terms in (brackets or {}).items():
            if not (1 <= i < j <= dim):
                raise ValueError(f"bracket pair ({i},{j}) must satisfy 1 <= i < j <= dim")
            cleaned: dict[int, Polynomial] = {}
            for k, coeff in terms.items():
                if not (1 <= k <= dim):
                    raise ValueError(f"basis index {k} out of range in bracket ({i},{j})")
                if coeff.registry != registry:
                    raise RegistryMismatch("bracket coefficient from a foreign registry")
                if coeff.degree_in(_NOT_PARAMETERS) > 0:
                    raise ValueError(
                        f"coefficient of e{k} in [e{i},e{j}] must involve parameters only"
                    )
                if coeff:
                    cleaned[k] = coeff
            if cleaned:
                table[(i, j)] = cleaned
        self._brackets = table
        self._report: ValidationReport | None = None

    def bracket(self, i: int, j: int) -> dict[int, Polynomial]:
        """[e_i, e_j] as a map k -> coefficient, for any index order."""
        if i == j:
            return {}
        if i < j:
            return dict(self._brackets.get((i, j), {}))
        return {k: -c for k, c in self._brackets.get((j, i), {}).items()}

    def structure_constant(self, i: int, j: int, k: int) -> Polynomial:
        return self.bracket(i, j).get(k, self.registry.zero())

    def stored_pairs(self) -> list[tuple[int, int]]:
        return sorted(self._brackets)

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def with_name(self, name: str) -> "LieAlgebra":
        renamed = LieAlgebra(self.dim, self.registry, self.params, self._brackets, name=name)
        renamed._report = self._report
        return renamed

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.params == other.params
            and self._brackets == other._brackets
        )

    def __repr__(self) -> str:
        label = self.name or f"dim {self.dim}"
        return f"LieAlgebra({label}, {len(self._brackets)} brackets)"


@dataclass(frozen=True)
class Violation:
    """One failed Jacobi component: indices (i, j, k) and output basis m."""

    i: int
    j: int
    k: int
    m: int
    value: Polynomial

    def __str__(self) -> str:
        return (
            f"Jacobi identity fails on (e{self.i}, e{self.j}, e{self.k})"
            f" in the e{self.m} component: {self.value}"
        )


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(alg: LieAlgebra) -> ValidationReport:
    """Check the Jacobi identity for every basis triple, as polynomials.

    The report is computed once per table object and kept on it (see
    :func:`_jacobi_violations`), so a later call, such as the one inside
    ``classify``, returns the same report at once.
    """
    if alg._report is None:
        alg._report = ValidationReport(_jacobi_violations(alg))
    return alg._report


def _jacobi_violations(alg: LieAlgebra) -> tuple[Violation, ...]:
    """The failed Jacobi components of ``alg``.

    For each triple i < j < k the sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i]
    + [[e_k,e_i],e_j] is expanded from the stored brackets alone: l runs
    over the stored terms of [e_a,e_b] and m over the stored terms of
    [e_l,e_c], each read with its antisymmetry sign.  A triple none of
    whose pairs (i,j), (j,k), (i,k) is stored has all three inner brackets
    zero, so only the triples through a stored pair are visited, and the
    work follows the stored brackets rather than n^5 or even n^3.  The
    products of one component are summed by one :func:`sum_of_products`.
    Violations come in ascending (i, j, k, m) order.
    """
    stored = alg._brackets
    reg = alg.registry
    zero = reg.zero()

    def signed(a: int, b: int):
        # [e_a, e_b] as (stored terms, sign) for a != b
        return (stored.get((a, b)), 1) if a < b else (stored.get((b, a)), -1)

    triples = set()
    for a, b in stored:
        triples.update((c, a, b) for c in range(1, a))
        triples.update((a, c, b) for c in range(a + 1, b))
        triples.update((a, b, c) for c in range(b + 1, alg.dim + 1))
    bad = []
    for i, j, k in sorted(triples):
        products: dict[int, list] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            outer, s_ab = signed(a, b)
            for l, c_ab in (outer or {}).items():
                inner, s_lc = signed(l, c)  # l == c finds nothing stored
                for m, c_lc in (inner or {}).items():
                    products.setdefault(m, []).append((c_ab, c_lc, s_ab != s_lc))
        for m in sorted(products):
            total = sum_of_products(reg, products[m])
            if total is not zero:
                bad.append(Violation(i, j, k, m, total))
    return tuple(bad)


class SkewPolyMatrix:
    """Skew-symmetric matrix of polynomials, stored above the diagonal.

    Indices are 1-based to match the basis numbering.
    """

    __slots__ = ("size", "registry", "_upper")

    def __init__(self, size: int, registry: VarRegistry, upper: Mapping[tuple[int, int], Polynomial]):
        self.size = size
        self.registry = registry
        table = {}
        for (i, j), p in upper.items():
            if not (1 <= i < j <= size):
                raise ValueError(f"entry ({i},{j}) must lie strictly above the diagonal")
            if p:
                table[(i, j)] = p
        self._upper = table

    def entry(self, i: int, j: int) -> Polynomial:
        if i == j:
            return self.registry.zero()
        if i < j:
            return self._upper.get((i, j), self.registry.zero())
        return -self._upper.get((j, i), self.registry.zero())

    def stored(self):
        """The nonzero entries above the diagonal, as ((i, j), p) pairs."""
        return self._upper.items()

    def rows(self) -> list[list[Polynomial]]:
        return [
            [self.entry(i, j) for j in range(1, self.size + 1)]
            for i in range(1, self.size + 1)
        ]

    def submatrix(self, indices: Sequence[int]) -> "SkewPolyMatrix":
        """Principal submatrix on the given (1-based, increasing) indices."""
        idx = list(indices)
        if sorted(set(idx)) != idx:
            raise ValueError("indices must be strictly increasing")
        if idx and not (1 <= idx[0] and idx[-1] <= self.size):
            raise ValueError("indices out of range")
        upper = {
            (a + 1, b + 1): self.entry(idx[a], idx[b])
            for a, b in itertools.combinations(range(len(idx)), 2)
        }
        return SkewPolyMatrix(len(idx), self.registry, upper)

    def congruent(self, p_matrix) -> "SkewPolyMatrix":
        """P^T M P for a rational matrix P, kept exact: entry (i, j) is the sum
        over the stored (k, l) of M_kl * (P_ki P_lj - P_li P_kj)."""
        n = self.size
        p = ratmat.rational_rows(p_matrix)
        if len(p) != n or any(len(row) != n for row in p):
            raise ValueError("congruence matrix has the wrong shape")
        reg = self.registry
        stored = [(p[k - 1], p[l - 1], m_kl) for (k, l), m_kl in self.stored()]
        upper = {}
        for i, j in itertools.combinations(range(n), 2):
            products = []
            for row_k, row_l, m_kl in stored:
                weight = row_k[i] * row_l[j] - row_l[i] * row_k[j]
                if weight:
                    products.append((m_kl, reg.constant(weight), False))
            upper[(i + 1, j + 1)] = sum_of_products(reg, products)
        return SkewPolyMatrix(n, reg, upper)

    def evaluate(self, values: Mapping[str, Fraction | int]) -> list[list[Fraction | int]]:
        """Entries at the given values; ints for an integer matrix at ints."""
        out: list[list[Fraction | int]] = [[0] * self.size for _ in range(self.size)]
        for (i, j), p in self.stored():
            v = p.evaluate(values)
            out[i - 1][j - 1] = v
            out[j - 1][i - 1] = -v
        return out

    def __eq__(self, other):
        if not isinstance(other, SkewPolyMatrix):
            return NotImplemented
        return self.size == other.size and self._upper == other._upper


def build_ax(alg: LieAlgebra) -> SkewPolyMatrix:
    """Matrix of linear forms A_x with entries sum_k c_ij^k x_k.

    Each entry is formed from the stored term map of its bracket by
    :meth:`VarRegistry.coordinate_form`: the coefficients hold parameters
    only, so the terms for different k never meet.
    """
    form = alg.registry.coordinate_form
    return SkewPolyMatrix(
        alg.dim, alg.registry, {ij: form(terms) for ij, terms in alg._brackets.items()}
    )


def change_of_basis(alg: LieAlgebra, p_matrix) -> LieAlgebra:
    """Structure constants in the basis e'_i = sum_j P_ji e_j.

    P must be invertible over the rationals; parameters ride along unchanged.
    Entry (i, j) of P^T A_x P is [e'_i, e'_j] in the old basis, e_s read as
    x_s, and e_s = sum_m (P^-1)_ms e'_m: so x_s -> sum_m (P^-1)_ms x_m gives
    sum_m c'_ij^m x_m, and c'_ij^m is read back as the coefficient of x_m.
    """
    n = alg.dim
    p = ratmat.rational_rows(p_matrix)
    if len(p) != n or any(len(row) != n for row in p):
        raise ValueError("basis change matrix has the wrong shape")
    inv = ratmat.inverse(p)
    reg, zero = alg.registry, alg.registry.zero()
    back = {
        f"x{s}": reg.coordinate_form({m: reg.constant(row[s - 1]) for m, row in enumerate(inv, 1)})
        for s in range(1, n + 1)
    }
    positions = {m: reg.position(f"x{m}") for m in range(1, n + 1)}
    new_brackets = {}
    for ij, entry in build_ax(alg).congruent(p).stored():
        moved = entry.substitute(back)
        new_brackets[ij] = {m: coefficients(moved, x).get(1, zero) for m, x in positions.items()}
    return LieAlgebra(n, reg, params=alg.params, brackets=new_brackets, name=alg.name)


def substitute_params(alg: LieAlgebra, values: Mapping[str, Fraction | int]) -> LieAlgebra:
    """Bind every parameter to a rational, enforcing the declared exclusions.

    Each exclusion and coefficient is bounded before it is evaluated (see
    :func:`size_estimate`); a value that could make one pass
    ``MAX_POWER_SIZE`` digits is refused.
    """
    declared = set(alg.param_names())
    given = set(values)
    missing = declared - given
    extra = given - declared
    if missing:
        raise ParameterBindingError(
            "unbound parameter(s): " + ", ".join(sorted(missing))
        )
    if extra:
        raise ParameterBindingError(
            "unknown parameter(s): " + ", ".join(sorted(extra))
        )
    binding = {name: Fraction(v) for name, v in values.items()}
    reg = alg.registry
    # log10 of the height max(|numerator|, denominator) of each value
    heights = {
        reg.position(name): math.log10(max(abs(v.numerator), v.denominator))
        for name, v in binding.items()
    }

    def evaluate(p: Polynomial) -> Fraction | int:
        if p.is_constant():
            return p.constant_value()
        _, _, degrees, digits = size_estimate(p)
        if digits + sum(e * heights[pos] for pos, e in degrees.items()) > MAX_POWER_SIZE:
            name = reg.name_at(max(degrees, key=lambda pos: degrees[pos] * heights[pos]))
            raise ParameterBindingError(
                f"the value of {name!r} is too large to substitute:"
                f" a result could have more than {MAX_POWER_SIZE} digits"
            )
        return p.evaluate(binding)

    for decl in alg.params:
        for excl in decl.exclusions:
            if evaluate(excl) == 0:
                raise ExclusionViolation(
                    f"binding violates the constraint {excl} != 0"
                    f" attached to parameter {decl.name!r}"
                )
    bound_reg = shared_registry(alg.dim)
    new_brackets: dict[tuple[int, int], dict[int, Polynomial]] = {}
    for pair, stored in alg._brackets.items():
        terms = {}
        for k, coeff in stored.items():
            value = evaluate(coeff)
            if value:
                terms[k] = bound_reg.constant(value)
        if terms:
            new_brackets[pair] = terms
    return LieAlgebra(alg.dim, bound_reg, params=(), brackets=new_brackets, name=alg.name)
