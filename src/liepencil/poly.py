"""Sparse multivariate polynomials with exact integer or rational coefficients.

Everything downstream computes in one commutative ring: entries of skew
matrices of linear forms, Pfaffians of their principal submatrices, and the
characteristic polynomial extracted from their greatest common divisor.  No
floating point is used anywhere.  Coefficients keep the ring they come in:
an integer polynomial stays in Z[params, x] through every ring operation,
substitution and exact division, and a ``fractions.Fraction`` appears only
where the input had one or where a quotient leaves Z.  :func:`normalize`
always returns int coefficients.

Representation.  A monomial is one non-negative int (packed exponent
vectors, Monagan & Pearce, CASC 2007).  Each registry position owns a field
of ``EXPONENT_BITS`` bits holding its exponent, position 0 in the most
significant field, and the total degree sits above all the fields.  So graded
lex is int order, a product of monomials is their sum, and the constant
monomial is 0.  The top bit of each field is a guard bit that is always
clear: m2 divides m1 exactly when ``m1 - m2`` borrows into no guard bit.
Exponents and total degrees are at most ``MAX_EXPONENT``, which
:func:`sum_of_products`, and through it ``*``, enforces with
:class:`DegreeOverflow`.  The layout is private to this module; other code
reads a monomial only through :meth:`VarRegistry.exponents`.  A polynomial
maps monomials to nonzero coefficients; the zero polynomial has an empty
term map and its degree is the sentinel ``NEG_INF``.  Values are never
mutated after construction and every operation is a pure function, so
independent computations can safely share them across threads or processes.

Sums of products.  A Pfaffian expanded along a row and a Jacobi component
are sums of many products.  :func:`sum_of_products` adds them all into one
term map and compacts it once, where a loop of ``+`` and ``*`` would build a
polynomial per product and copy the running sum each time.  Each registry
holds one shared zero polynomial, ``VarRegistry.zero()``, and a vanishing
sum of products is that object, so a memo full of zeros holds one.

Variable order.  A :class:`VarRegistry` fixes the variable set and the
monomial order for one computation.  Kinds are ordered
``parameters < coordinates < a-points < lambda`` and, inside a kind, a lower
index is the more significant one, so that the displayed leading term of
``x1^2 - 2*x2*x3 + a`` really is ``x1^2``.  Monomials compare by total degree
first and lexicographically second (graded lex).
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import random
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import DegreeOverflow, RegistryMismatch

__all__ = [
    "MAX_EXPONENT",
    "MAX_POWER_SIZE",
    "NEG_INF",
    "PENCIL_NAME",
    "VarKind",
    "VarRegistry",
    "shared_registry",
    "check_parameter_name",
    "Polynomial",
    "content",
    "integer_multiple",
    "normalize",
    "try_divide",
    "div_exact",
    "divides",
    "sum_of_products",
    "coefficients",
    "monomial_content",
    "poly_gcd",
    "size_estimate",
]

NEG_INF = float("-inf")

# Width of one exponent field of a packed monomial, its guard bit included.
EXPONENT_BITS = 16
MAX_EXPONENT = (1 << (EXPONENT_BITS - 1)) - 1
_FIELD = (1 << EXPONENT_BITS) - 1

# Largest value one operation may be asked to build, counted as its terms
# times the digits of a coefficient as :func:`size_estimate` bounds them.
# The parser holds each power and product to it ((1+a)^575 is the largest
# power of 1 + a it admits) and substitute_params each evaluation.
MAX_POWER_SIZE = 10**5

PENCIL_NAME = "lambda"

Scalar = Union[int, Fraction]

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RESERVED = re.compile(r"^(?:x[0-9]+|a[0-9]+|lambda)$")


def check_parameter_name(name: str) -> None:
    """Raise ValueError when ``name`` is no identifier or is one of the
    names the registry gives its own variables."""
    if not _IDENT.match(name):
        raise ValueError(f"invalid parameter name {name!r}")
    if _RESERVED.match(name):
        raise ValueError(f"parameter name {name!r} is reserved")


class VarKind(enum.Enum):
    PARAMETER = "parameter"
    COORDINATE = "coordinate"
    POINT = "a-point"
    PENCIL = "pencil"


# Rank used when printing the variables inside one monomial: parameters come
# first, the pencil variable last, mirroring how coefficients are read.
_DISPLAY_RANK = {
    VarKind.PARAMETER: 0,
    VarKind.COORDINATE: 1,
    VarKind.POINT: 2,
    VarKind.PENCIL: 3,
}


class VarRegistry:
    """Variable table shared by every polynomial of one computation.

    For an algebra of dimension ``n`` with parameters ``p1, .., pm`` the
    registry holds, from most significant to least:

        lambda > a1 > .. > an > x1 > .. > xn > p1 > .. > pm
    """

    __slots__ = (
        "dim", "params", "_names", "_kinds", "_pos", "_display",
        "_shift", "_unit", "_guard", "_degree_shift", "_kind_mask", "_shared_zero", "_shared_one",
    )

    def __init__(self, dim: int, params: Sequence[str] = ()):
        if not isinstance(dim, int) or dim < 0:
            raise ValueError("dimension must be a non-negative integer")
        names: list[str] = [PENCIL_NAME]
        kinds: list[VarKind] = [VarKind.PENCIL]
        for k in range(1, dim + 1):
            names.append(f"a{k}")
            kinds.append(VarKind.POINT)
        for k in range(1, dim + 1):
            names.append(f"x{k}")
            kinds.append(VarKind.COORDINATE)
        seen = set()
        for p in params:
            check_parameter_name(p)
            if p in seen:
                raise ValueError(f"duplicate parameter name {p!r}")
            seen.add(p)
            names.append(p)
            kinds.append(VarKind.PARAMETER)
        self.dim = dim
        self.params = tuple(params)
        self._names = tuple(names)
        self._kinds = tuple(kinds)
        self._pos = {name: i for i, name in enumerate(names)}
        self._display = tuple(
            (_DISPLAY_RANK[kind], i) for i, kind in enumerate(kinds)
        )
        # packed monomials: the field of position i sits at bit _shift[i],
        # and _unit[i] is the monomial of that variable, degree included
        self._degree_shift = EXPONENT_BITS * len(names)
        self._shift = tuple(
            EXPONENT_BITS * (len(names) - 1 - i) for i in range(len(names))
        )
        self._unit = tuple((1 << s) | (1 << self._degree_shift) for s in self._shift)
        self._guard = sum(1 << (s + EXPONENT_BITS - 1) for s in self._shift)
        # (kind, the fields of its positions): each kind holds one run of
        # positions, so its fields are one run of bits
        masks = []
        low = len(names)
        for kind, count in (
            (VarKind.PENCIL, 1), (VarKind.POINT, dim),
            (VarKind.COORDINATE, dim), (VarKind.PARAMETER, len(self.params)),
        ):
            low -= count
            masks.append((kind, ((1 << EXPONENT_BITS * count) - 1) << EXPONENT_BITS * low))
        self._kind_mask = tuple(masks)
        self._shared_zero = Polynomial(self, {})
        self._shared_one = Polynomial(self, {0: 1})

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, VarRegistry):
            return NotImplemented
        return self._names == other._names

    def __hash__(self):
        return hash(self._names)

    def __repr__(self) -> str:
        return f"VarRegistry(dim={self.dim}, params={list(self.params)})"

    def names(self) -> tuple[str, ...]:
        return self._names

    def position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def name_at(self, pos: int) -> str:
        return self._names[pos]

    def kind_of(self, name: str) -> VarKind:
        return self._kinds[self.position(name)]

    def kind_at(self, pos: int) -> VarKind:
        return self._kinds[pos]

    def display_key(self, pos: int) -> tuple[int, int]:
        return self._display[pos]

    def _mask_of(self, kinds: Sequence[VarKind]) -> int:
        """The fields of every position of the given kinds."""
        # `in` on a sequence tests identity first, so no enum is hashed
        mask = 0
        for kind, bits in self._kind_mask:
            if kind in kinds:
                mask |= bits
        return mask

    def exponents(self, mono: int) -> list[tuple[int, int]]:
        """``(position, exponent)`` pairs of a monomial, by position, zeros left out."""
        pairs = []
        rest = mono & ((1 << self._degree_shift) - 1)
        last = len(self._names) - 1
        while rest:
            pos = last - (rest.bit_length() - 1) // EXPONENT_BITS
            e = rest >> self._shift[pos]
            pairs.append((pos, e))
            rest -= e << self._shift[pos]
        return pairs

    # -- polynomial constructors ------------------------------------------

    def zero(self) -> "Polynomial":
        """The zero polynomial, one shared object per registry."""
        return self._shared_zero

    def one(self) -> "Polynomial":
        """The constant 1, one shared object per registry."""
        return self._shared_one

    def constant(self, value: Scalar) -> "Polynomial":
        return Polynomial(self, {0: value} if value else {})

    def var(self, name: str) -> "Polynomial":
        return Polynomial(self, {self._unit[self.position(name)]: 1})

    def coordinate(self, k: int) -> "Polynomial":
        return self.var(f"x{k}")

    def coordinate_form(self, coeffs: Mapping[int, "Polynomial"]) -> "Polynomial":
        """The linear form sum_k coeffs[k] * x_k, for coefficients free of
        the coordinates, keyed by coordinate index k.

        Each term of coeffs[k] just gains the field of x_k, and terms of
        different k never share a monomial, so the term map is built in one
        pass with no ring operation.
        """
        coordinates = self._mask_of((VarKind.COORDINATE,))
        terms: dict = {}
        for k, c in coeffs.items():
            if c.registry is not self and c.registry != self:
                raise RegistryMismatch("coefficient from a foreign registry")
            if not 1 <= k <= self.dim:
                raise ValueError(f"coordinate index {k} out of range")
            unit = self._unit[self.dim + k]
            for m, v in c._terms.items():
                if m & coordinates:
                    raise ValueError("a coefficient of a linear form involves a coordinate")
                terms[m + unit] = v
        if terms:
            degree = max(terms) >> self._degree_shift
            if degree > MAX_EXPONENT:
                raise DegreeOverflow(
                    f"a product of total degree {degree} exceeds the limit {MAX_EXPONENT}"
                )
        return _wrap(self, terms)

    def point(self, k: int) -> "Polynomial":
        return self.var(f"a{k}")

    def pencil(self) -> "Polynomial":
        return self.var(PENCIL_NAME)

    def parameter(self, name: str) -> "Polynomial":
        if self.kind_of(name) is not VarKind.PARAMETER:
            raise ValueError(f"{name!r} is not a parameter")
        return self.var(name)


@functools.lru_cache(maxsize=64)
def shared_registry(dim: int, params: tuple[str, ...] = ()) -> VarRegistry:
    """The registry of dimension ``dim`` with ``params``.  A registry is
    immutable, so every table of one shape shares this one."""
    return VarRegistry(dim, params)


class Polynomial:
    """Immutable sparse polynomial over a :class:`VarRegistry`."""

    __slots__ = ("registry", "_terms")

    def __init__(self, registry: VarRegistry, terms: dict):
        self.registry = registry
        self._terms = {m: c for m, c in terms.items() if c}

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> Scalar:
        if not self._terms:
            return 0
        if self.is_constant():
            return self._terms[0]
        raise ValueError(f"{self} is not constant")

    def terms(self) -> Iterator[tuple[int, Scalar]]:
        return iter(self._terms.items())

    def term_count(self) -> int:
        return len(self._terms)

    def coefficient(self, mono: int) -> Scalar:
        return self._terms.get(mono, 0)

    # -- monomial order ----------------------------------------------------

    def leading(self) -> tuple[int, Scalar]:
        """Greatest term under graded lex; errors on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._terms)
        return m, self._terms[m]

    def sorted_terms(self) -> list[tuple[int, Scalar]]:
        return sorted(self._terms.items(), reverse=True)

    # -- degrees -----------------------------------------------------------

    def total_degree(self):
        if not self._terms:
            return NEG_INF
        return max(self._terms) >> self.registry._degree_shift

    def degree_in(self, kinds: Iterable[VarKind]):
        """Largest total exponent of variables of the given kinds; NEG_INF for 0.

        Each term is read through the mask of the fields of those kinds, so
        a polynomial with no such variable gives 0 after one pass of ``&``.
        """
        if not self._terms:
            return NEG_INF
        reg = self.registry
        mask = reg._mask_of(tuple(kinds))
        if not any(m & mask for m in self._terms):
            return 0
        return max(sum(e for _, e in reg.exponents(m & mask)) for m in self._terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.registry is not other.registry and self.registry != other.registry:
            raise RegistryMismatch(
                f"cannot combine polynomials over {self.registry!r} and {other.registry!r}"
            )

    def _coerce(self, value):
        if isinstance(value, Polynomial):
            self._check(value)
            return value
        if isinstance(value, (int, Fraction)):
            return self.registry.constant(value)
        return None

    def _plus(self, other, sign: int):
        """self + sign*other, other's terms merged into a copy of self's."""
        if type(other) is not Polynomial or other.registry is not self.registry:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        subtract = sign < 0
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m, 0) - c if subtract else terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return _wrap(self.registry, terms)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.registry, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Polynomial or other.registry is not self.registry:
            if isinstance(other, (int, Fraction)):
                if not other:
                    return self.registry.zero()
                return _wrap(self.registry, {m: v * other for m, v in self._terms.items()})
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return sum_of_products(self.registry, ((self, other, False),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.registry.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.registry.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.registry == other.registry and self._terms == other._terms

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, bindings: Mapping[str, "Polynomial | Scalar"]) -> "Polynomial":
        """Replace variables by polynomials over the same registry or by
        rationals; unmentioned variables stay untouched."""
        reg = self.registry
        values = {reg.name_at(pos): reg.var(reg.name_at(pos)) for pos in _variables(self)}
        values.update(bindings)
        value = self.evaluate(values)
        return value if isinstance(value, Polynomial) else reg.constant(value)

    def evaluate(self, values: Mapping[str, "Polynomial | Scalar"]) -> "Polynomial | Scalar":
        """Evaluate with every occurring variable bound to a rational or to a
        polynomial over the same registry.

        The value is a polynomial when some term meets a polynomial value,
        else a scalar: an integer polynomial at integer values gives an int.
        """
        reg = self.registry
        bound: dict[int, Polynomial | Scalar] = {}
        for name, v in values.items():
            if isinstance(v, Polynomial):
                self._check(v)
            elif not isinstance(v, (int, Fraction)):
                v = Fraction(v)
            bound[reg.position(name)] = v
        return _evaluate(self, bound)

    # -- display -------------------------------------------------------------

    def _format_mono(self, mono: int) -> str:
        reg = self.registry
        parts = []
        for p, e in sorted(reg.exponents(mono), key=lambda pe: reg.display_key(pe[0])):
            name = reg.name_at(p)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for i, (mono, coeff) in enumerate(self.sorted_terms()):
            negative = coeff < 0
            mag = -coeff if negative else coeff
            varpart = self._format_mono(mono)
            if not varpart:
                body = _decimal(mag)
            elif mag == 1:
                body = varpart
            else:
                body = f"{_decimal(mag)}*{varpart}"
            if i == 0:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f" - {body}" if negative else f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _decimal(c: Scalar) -> str:
    """``str(c)`` for a scalar c >= 0 of any size.

    An int past Python's limit on the digits of an int string is written as
    two halves, each split again as needed.
    """
    if c.denominator != 1:
        return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"
    n = c.numerator
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half of its decimal digits
        high, low = divmod(n, 10**half)
        return _decimal(high) + _decimal(low).zfill(half)


def _evaluate(p: Polynomial, bound: Mapping[int, "Polynomial | Scalar"]):
    """The term loop of :meth:`Polynomial.evaluate`, with values keyed by
    registry position."""
    exponents = p.registry.exponents
    total = 0
    for mono, c in p._terms.items():
        for pos, e in exponents(mono):
            if pos not in bound:
                raise ValueError(
                    f"variable {p.registry.name_at(pos)!r} is unbound in evaluate()"
                )
            c = c * bound[pos] ** e
        total = total + c
    return total


def _wrap(registry: VarRegistry, terms: dict) -> Polynomial:
    """Polynomial holding ``terms`` itself, neither copied nor filtered.

    For the ring operations, whose term maps never hold a zero coefficient
    and are not touched again once wrapped.
    """
    p = object.__new__(Polynomial)
    p.registry = registry
    p._terms = terms
    return p


def sum_of_products(registry: VarRegistry, triples) -> Polynomial:
    """The sum of a*b, or of -a*b where ``negative`` holds, over the
    ``(a, b, negative)`` triples, all over ``registry``.

    Every product goes into one term map that is compacted once at the
    end, so no polynomial is built per product and no partial sum is
    copied (Monagan & Pearce, CASC 2007); ``*`` is the sum of one product.
    An operand over another registry raises :class:`RegistryMismatch`, and
    a product past ``MAX_EXPONENT`` raises :class:`DegreeOverflow`, even
    where the sum would cancel it.  A vanishing sum is ``registry.zero()``
    itself, so a caller can test for zero by identity.
    """
    acc: dict = {}
    get = acc.get
    shift = registry._degree_shift
    for a, b, negative in triples:
        if (a.registry is not registry and a.registry != registry) or (
            b.registry is not registry and b.registry != registry
        ):
            raise RegistryMismatch("a product over a foreign registry")
        if not (a._terms and b._terms):
            continue
        degree = (max(a._terms) + max(b._terms)) >> shift
        if degree > MAX_EXPONENT:
            raise DegreeOverflow(
                f"a product of total degree {degree} exceeds the limit {MAX_EXPONENT}"
            )
        inner = b._terms.items()
        for m1, c1 in a._terms.items():
            if negative:
                c1 = -c1
            for m2, c2 in inner:
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
    if 0 in acc.values():
        acc = {m: c for m, c in acc.items() if c}
    return _wrap(registry, acc) if acc else registry._shared_zero


def size_estimate(p: Polynomial) -> tuple[int, int, dict[int, int], float]:
    """Term count, total degree, degree in each occurring variable (by
    registry position) and log10 H of p.

    H = D * max(1, sum |c|), with D the common denominator of p, bounds
    max(|numerator|, denominator) of every coefficient.  The H of a product
    is at most the product of the H of its factors, and that of a power at
    most H to the exponent, so sizes are checked before they are built; so
    is p at rational values v: H(p(v)) <= H(p) * prod H(v_i)^(deg_i p).
    For a constant the bound is its own height.
    """
    exponents = p.registry.exponents
    degrees: dict[int, int] = {}
    for mono in p._terms:
        for pos, e in exponents(mono):
            if e > degrees.get(pos, 0):
                degrees[pos] = e
    coeffs = p._terms.values()
    den = math.lcm(*(c.denominator for c in coeffs))
    height = max(den, sum(abs(c.numerator) * (den // c.denominator) for c in coeffs))
    return len(coeffs), max(p.total_degree(), 0), degrees, math.log10(height)


# -- content, normalization, division ----------------------------------------


def content(p: Polynomial) -> Scalar:
    """Positive rational c with p/c primitive (coprime integer coefficients).

    An int when p has integer coefficients, and 0 for the zero polynomial.
    """
    num = 0
    den = 1
    for _, c in p.terms():
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    return num if den == 1 else Fraction(num, den)


def integer_multiple(p: Polynomial, mult: int, div: int = 1) -> Polynomial:
    """p * mult / div with int coefficients.

    ``mult`` must be a multiple of every coefficient denominator of p, and
    ``div`` must divide every coefficient of p * mult.
    """
    return Polynomial(
        p.registry,
        {m: c.numerator * (mult // c.denominator) // div for m, c in p.terms()},
    )


def normalize(p: Polynomial) -> Polynomial:
    """Canonical scalar multiple: primitive with positive leading coefficient.

    The result has int coefficients.  normalize(0) = 0 and any nonzero
    constant normalizes to 1.
    """
    if p.is_zero():
        return p
    c = content(p)
    if p.leading()[1] < 0:
        c = -c
    return integer_multiple(p, c.denominator, c.numerator)


def try_divide(p: Polynomial, d: Polynomial):
    """Exact quotient p/d, or None when d does not divide p."""
    p._check(d)
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    reg = p.registry
    lm_d, lc_d = d.leading()
    quotient: dict = {}
    r = dict(p._terms)
    while r:
        lm_r = max(r)
        lc_r = r[lm_r]
        q_mono = lm_r - lm_d
        if q_mono & reg._guard:
            return None
        q_coeff, rem = divmod(lc_r, lc_d)
        if rem:
            q_coeff = Fraction(lc_r) / lc_d
        quotient[q_mono] = q_coeff
        for m, c in d._terms.items():
            m += q_mono
            s = r.get(m, 0) - c * q_coeff
            if s:
                r[m] = s
            else:
                del r[m]
    return Polynomial(reg, quotient)


def div_exact(p: Polynomial, d: Polynomial) -> Polynomial:
    q = try_divide(p, d)
    if q is None:
        raise ValueError(f"({p}) is not divisible by ({d})")
    return q


def divides(d: Polynomial, p: Polynomial) -> bool:
    if d.is_zero():
        return p.is_zero()
    return try_divide(p, d) is not None


# -- greatest common divisor ---------------------------------------------------
#
# poly_gcd is the one way into a gcd.  It splits off the monomial parts,
# returns the smaller operand when it divides the other, and takes both to
# one seeded integer line x = z0 + t*a: most gcds the classifier asks for
# are 1, and images coprime in Q[t] prove that (see _line_bound).  The
# rest goes to the primitive PRS: pick the most significant variable in
# either operand, split off the content with respect to it, run a pseudo
# remainder sequence on the primitive parts, and take the gcd of the
# contents, free of that variable, through poly_gcd again.


def coefficients(p: Polynomial, pos: int) -> dict[int, Polynomial]:
    """View p as univariate in the variable at registry position ``pos``.

    Maps each exponent that occurs to its coefficient, a polynomial free of
    that variable; the zero polynomial gives an empty map.
    """
    reg = p.registry
    shift, unit = reg._shift[pos], reg._unit[pos]
    coeffs: dict[int, dict] = {}
    for mono, c in p.terms():
        e = (mono >> shift) & _FIELD
        coeffs.setdefault(e, {})[mono - e * unit] = c
    return {e: _wrap(reg, t) for e, t in coeffs.items()}


def _deg_in_pos(p: Polynomial, pos: int) -> int:
    shift = p.registry._shift[pos]
    return max(((mono >> shift) & _FIELD for mono in p._terms), default=0)


def _content_in(p: Polynomial, pos: int) -> Polynomial:
    cs = list(coefficients(p, pos).values())
    g = cs[0]
    for c in cs[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, c)
    if g.is_constant():
        return p.registry.one()
    return g


def _primitive_in(p: Polynomial, pos: int) -> Polynomial:
    return div_exact(p, _content_in(p, pos))


def _prem(f: Polynomial, g: Polynomial, pos: int) -> Polynomial:
    """Pseudo remainder of f by g in the given variable.

    The classical power of the leading coefficient is dropped: callers take
    primitive parts immediately afterwards, so the extra content is noise.
    """
    reg = f.registry
    view = coefficients(g, pos)
    n = max(view)
    lc_g = view[n]
    r = f
    while not r.is_zero():
        view = coefficients(r, pos)
        d = max(view)
        if d < n:
            break
        # lc_g*r - view[d]*v^(d-n)*g for the variable v at pos
        lead = _shift_by(view[d], (d - n) * reg._unit[pos])
        r = sum_of_products(reg, ((lc_g, r, False), (lead, g, True)))
    return r


def _variables(p: Polynomial) -> set[int]:
    # or-ing monomials keeps every field apart, so a field of the union is
    # nonzero exactly when some term holds that variable
    support = functools.reduce(operator.or_, p._terms, 0)
    return {pos for pos, _ in p.registry.exponents(support)}


def _gcd_rec(p: Polynomial, q: Polynomial) -> Polynomial:
    """gcd of two nonconstant polynomials, up to a rational unit; an operand
    free of the chosen variable is its own content, with primitive part 1."""
    pos = min(_variables(p) | _variables(q))
    cont_p = _content_in(p, pos)
    cont_q = _content_in(q, pos)
    a = div_exact(p, cont_p)
    b = div_exact(q, cont_q)
    if _deg_in_pos(a, pos) < _deg_in_pos(b, pos):
        a, b = b, a
    while not b.is_zero():
        r = _prem(a, b, pos)
        a = b
        b = p.registry.zero() if r.is_zero() else _primitive_in(r, pos)
    g = _primitive_in(a, pos) if _deg_in_pos(a, pos) > 0 else p.registry.one()
    return poly_gcd(cont_p, cont_q) * g


# Every coordinate of the line of poly_gcd is an 11-bit signed integer,
# drawn by a generator seeded afresh on each call.  An image on the line
# holds about 12 * deg^2 bits, so past _LINE_IMAGE_BITS (degree 300 or so)
# the PRS gets the pair without one.
_LINE_SEED = 1971
_LINE_COORD_BITS = 11
_LINE_IMAGE_BITS = 1 << 20


def monomial_content(p: Polynomial) -> int:
    """The greatest monomial dividing every term of p, packed: read it with
    :meth:`VarRegistry.exponents`.  0, the monomial 1, for zero p."""
    reg = p.registry
    mono = 0
    for pos in _variables(p):
        shift = reg._shift[pos]
        least = MAX_EXPONENT
        for m in p._terms:
            e = (m >> shift) & _FIELD
            if e < least:
                least = e
                if not e:
                    break
        mono += least * reg._unit[pos]
    return mono


def _shift_by(p: Polynomial, mono: int) -> Polynomial:
    """p times the packed monomial ``mono``, or divided by it when negative."""
    return _wrap(p.registry, {m + mono: c for m, c in p._terms.items()})


def _on_line(p: Polynomial, line: Mapping[int, tuple[int, int]]):
    """Coefficients of p(z0 + t*a) in t, highest first; [] when it vanishes.

    p has int coefficients and ``line`` maps each of its variable positions
    to (z0, a).  The image is evaluated at one integer t = 2^k whose half
    exceeds every coefficient (at most sum |c| times reach^deg) and read
    back in signed base-2^k digits: Kronecker substitution.  None when
    that integer would pass ``_LINE_IMAGE_BITS``.
    """
    reach = max(abs(z) + abs(a) for z, a in line.values())
    degree = p.total_degree()
    size = sum(abs(c) for c in p._terms.values()) * reach ** degree
    k = size.bit_length() + 1
    if (degree + 1) * k > _LINE_IMAGE_BITS:
        return None
    t = 1 << k
    total = _evaluate(p, {pos: z + a * t for pos, (z, a) in line.items()})
    digits = []
    while total:
        d = total & (t - 1)
        if d >= t >> 1:
            d -= t
        digits.append(d)
        total = (total - d) >> k
    return digits[::-1]


def _uni_prem(f: list[int], g: list[int]) -> list[int]:
    """Primitive part of the pseudo remainder of f by g, int lists highest first."""
    n, lc, tail = len(g), g[0], g[1:]
    while len(f) >= n:
        c = f[0]
        f = [lc * x - c * y for x, y in zip(f[1:], tail)] + [lc * x for x in f[n:]]
        while f and not f[0]:
            del f[0]
    unit = math.gcd(*f)
    return [x // unit for x in f]


def _uni_gcd_degree(f: list[int], g: list[int]) -> int:
    """Degree in t of gcd(f, g) over Q[t], for lists as :func:`_on_line` gives."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _uni_prem(f, g)
    return len(f) - 1


def _line_bound(p: Polynomial, q: Polynomial, line: Mapping[int, tuple[int, int]]):
    """An upper bound on deg gcd(p, q) from the line z0 + t*a, or None.

    p and q are nonzero with int coefficients, and ``line`` covers their
    variables.  Lemma: if p_top(a) != 0 for the top homogeneous part p_top
    of p, then every factor h of p has h_top(a) != 0, since p_top is
    h_top*(p/h)_top.  So h(z0 + t*a) keeps its degree in t, and a common
    factor h divides both images with that degree: deg h is at most the
    degree of the images' gcd.  p_top(a) != 0 exactly when the image of p
    keeps the degree of p; the same holds for q.  When neither does, or an
    image is too large to take, the line proves nothing and the result is
    None.
    """
    images = [_on_line(p, line), _on_line(q, line)]
    if None in images or all(
        len(image) - 1 != f.total_degree() for image, f in zip(images, (p, q))
    ):
        return None
    return _uni_gcd_degree(*images)


def _line(p: Polynomial, q: Polynomial) -> dict[int, tuple[int, int]]:
    """The line of :func:`poly_gcd` for p and q: (z0, a) at each of their
    variable positions, drawn afresh from the fixed seed."""
    rng = random.Random(_LINE_SEED)
    half = 1 << (_LINE_COORD_BITS - 1)
    return {
        pos: (rng.getrandbits(_LINE_COORD_BITS) - half, rng.getrandbits(_LINE_COORD_BITS) - half)
        for pos in sorted(_variables(p) | _variables(q))
    }


def _integral(p: Polynomial) -> Polynomial:
    """p times the lcm of its coefficient denominators, in ints."""
    if all(type(c) is int for c in p._terms.values()):
        return p
    return integer_multiple(p, math.lcm(*(c.denominator for c in p._terms.values())))


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Normalized greatest common divisor; gcd(p, 0) = normalize(p).

    Every step is exact.  The monomial parts are split off first: a
    polynomial that no variable divides is coprime to every monomial.  Then
    the smaller operand (by total degree) is the gcd when it divides the
    other.  Otherwise the pair goes onto one seeded integer line (see
    :func:`_line_bound`), and when the line proves the gcd is 1 the PRS
    does not run; it takes every other pair.
    """
    p._check(q)
    if p.is_zero():
        return normalize(q)
    if q.is_zero():
        return normalize(p)
    mono_p, mono_q = monomial_content(p), monomial_content(q)
    reg = p.registry
    # the field-wise minimum of the two packed monomials
    mono = sum(
        min(e, (mono_q >> reg._shift[pos]) & _FIELD) * reg._unit[pos]
        for pos, e in reg.exponents(mono_p)
    )
    p, q = _integral(_shift_by(p, -mono_p)), _integral(_shift_by(q, -mono_q))
    if p.total_degree() < q.total_degree():
        p, q = q, p
    if q.is_constant():
        return _shift_by(reg.one(), mono)
    if divides(q, p):
        return _shift_by(normalize(q), mono)
    if _line_bound(p, q, _line(p, q)) == 0:
        return _shift_by(reg.one(), mono)
    return _shift_by(normalize(_gcd_rec(p, q)), mono)
