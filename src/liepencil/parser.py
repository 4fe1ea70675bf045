"""Reading and writing bracket tables.

Two encodings are supported.  The text form is line oriented:

    # comment
    dim 7
    param a != 0
    [e1,e2] = e3
    [e3,e6] = -(1+a)*e3

Brackets may be written in either index order; a reversed pair is negated
into canonical ``i < j`` storage.  Coefficients are rational numbers, bare
parameters, or parenthesized polynomials in the parameters.  The structured
form is a JSON document with fields ``dim``, ``params`` and ``brackets``
carrying the same data; coefficients travel as strings in the usual display
syntax.  Every file a user names is read by :func:`read_source`, and every
JSON text, a corpus manifest included, by :func:`load_json`.

Both forms refuse a dimension above :data:`MAX_DIM` and nesting deeper
than :data:`MAX_NESTING`.  Each operator that builds a value passes one
size check at its token: no coefficient past :func:`int_digit_limit`, no
power, product or quotient past :data:`MAX_POWER_SIZE` or total degree
``MAX_EXPONENT``.  So an input of a few bytes cannot make the parser build
a huge registry, integer or polynomial.
"""

from __future__ import annotations

import codecs
import itertools
import json
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ParseError, SchemaError
from .model import LieAlgebra, ParamDecl
from .poly import (
    MAX_EXPONENT, MAX_POWER_SIZE, Polynomial, VarKind, VarRegistry, check_parameter_name, shared_registry,
    size_estimate,
)

__all__ = [
    "SourceDoc",
    "parse_text",
    "parse_structured",
    "parse_source",
    "parse_poly",
    "emit_text",
    "load_algebra",
    "read_source",
    "load_json",
    "json_object",
    "MAX_DIM",
    "MAX_NESTING",
    "MAX_POWER_SIZE",
    "int_digit_limit",
]

# Largest dimension either form accepts.  The registry names one coordinate
# per basis element up front, so an unchecked 'dim' line could hang there.
MAX_DIM = 1000

# Deepest nesting either form accepts: parentheses in an expression, arrays
# and objects in a JSON document.  Both readers recurse once per level, so
# without a bound a few kilobytes of brackets end in a RecursionError.
MAX_NESTING = 100


def int_digit_limit() -> int:
    """Python's limit on the digits of an int literal, 4300 by default."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


@dataclass(frozen=True)
class SourceDoc:
    """Raw input together with where it came from."""

    text: str
    origin: str = "<string>"


def read_source(path) -> SourceDoc:
    """The UTF-8 text of the file at ``path``, with the path as its origin.

    Every file a user names is read here.  One leading byte-order mark is
    dropped, so positions count from after it.  A byte that is not UTF-8 is
    refused at its line and column, counted as the text parser counts them.
    """
    p = Path(path)
    data = p.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return SourceDoc(data.decode("utf-8"), origin=str(p))
    except UnicodeDecodeError as exc:
        lines = _LINE_END.split(data[:exc.start].decode("utf-8"))
        raise ParseError(
            f"byte {data[exc.start]:#04x} is not valid UTF-8",
            line=len(lines), column=len(lines[-1]) + 1, origin=str(p),
        ) from None


def load_algebra(path) -> LieAlgebra:
    """Read a .lie (text) or .json (structured) file."""
    return parse_source(read_source(path))


def parse_source(doc: SourceDoc) -> LieAlgebra:
    """The structured form when the origin ends in .json, else the text form."""
    if Path(doc.origin).suffix.lower() == ".json":
        return parse_structured(doc)
    return parse_text(doc)


# -- tokenizer ----------------------------------------------------------------

# A line ends at \n, \r\n or \r alone; str.splitlines also breaks at \v, \f,
# U+001C..U+001E, U+0085, U+2028 and U+2029, which a comment may hold.
_LINE_END = re.compile(r"\r\n|\r|\n")

# One token with the whitespace and comments before it.  findall gives each
# as a plain tuple of its groups, the token's text in the group of its kind
# and "" in the others.  Every match ends in a token or at \Z, so findall
# never resumes inside a comment; the end of the text is a token with every
# group "".
_TOKEN_RE = re.compile(
    r"""
    (?: \s+ | \#.* )*
    (?: (!=|[\[\](),+\-*/^=])
      | (e[0-9]+(?![A-Za-z0-9_]))           # basis element e<k>
      | ([0-9]+)
      | ([A-Za-z_][A-Za-z0-9_]*)
      | (\S)                                # any other character, refused
      | \Z )
    """,
    re.VERBOSE,
)
_OP, _BASIS, _INT, _IDENT, _BAD = range(5)
_bad = operator.itemgetter(_BAD)


def _tokenize(text: str, line: int, origin: str) -> list[tuple[str, ...]]:
    """The tokens of ``text``, the last one its end."""
    tokens = _TOKEN_RE.findall(text)
    if len(tokens) > 1 and not any(tokens[-2]):
        del tokens[-1]  # whitespace or a comment ended the text
    if any(map(_bad, tokens)):
        at = next(k for k, tok in enumerate(tokens) if tok[_BAD])
        raise ParseError(
            f"unexpected character {tokens[at][_BAD]!r}", line=line, column=_column(text, at), origin=origin
        )
    return tokens


def _column(text: str, at: int) -> int:
    """The column of token ``at`` of ``text``: tokens carry no position, since
    only a refusal needs one."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text), at, None))
    return (m.start(m.lastindex) if m.lastindex else m.end()) + 1


# -- expression parser --------------------------------------------------------
#
# Grammar (precedence climbing):
#   expr   := term (("+"|"-") term)*
#   term   := factor (("*"|"/")? factor)*     adjacency means multiplication
#   factor := ("-"|"+")* atom ("^" int)*
#   atom   := int | basis | ident | "(" expr ")"
#
# Atoms evaluate to polynomials; basis elements e<k> are only legal where the
# caller says so (bracket right-hand sides), and there they must stay linear.

_BASIS_RE = re.compile(r"^e([0-9]+)$")


def _log10_height(coeffs) -> int:
    """floor(log10) of the largest |numerator| or denominator, exactly."""
    n = max((max(abs(c.numerator), c.denominator) for c in coeffs), default=1)
    d = int(n.bit_length() * math.log10(2))  # floor(log10 n) is d or d - 1
    return d if n >= 10**d else d - 1


_ALL_KINDS = frozenset(VarKind)
_PARAMS_ONLY = frozenset({VarKind.PARAMETER})


class _ExprParser:
    """The tokens of one line and a position in them, ``i``.  Every refusal
    names a token by its index in the line."""

    def __init__(self, text: str, line: int, origin: str):
        self.text = text
        self.line = line
        self.origin = origin
        self.toks = _tokenize(text, line, origin)
        self.i = 0

    def fail(self, message: str, at: int | None = None):
        at = self.i if at is None else at
        raise ParseError(message, line=self.line, column=_column(self.text, at), origin=self.origin)

    def at_end(self) -> bool:
        return self.i == len(self.toks) - 1

    def expect(self, op: str) -> None:
        if self.toks[self.i][_OP] != op:
            self.fail(f"expected {op!r}")
        self.i += 1

    def integer(self, at: int, digits: str) -> int:
        """The value of ``digits``, failing at token ``at`` past Python's
        limit on the digits of an int."""
        try:
            return int(digits)
        except ValueError:
            self.fail(f"integer of {len(digits)} digits exceeds the limit of {int_digit_limit()} digits", at)

    def basis(self, dim: int) -> int:
        """k of the basis element e<k> at position i, which moves past it;
        refused there when the token is none or k is outside 1..dim."""
        at = self.i
        self.i = at + 1
        name = self.toks[at][_BASIS]
        if not name:
            self.fail("expected a basis element like e3", at)
        k = self.integer(at, name[1:])
        if not (1 <= k <= dim):
            self.fail(f"basis index e{k} out of range for dimension {dim}", at)
        return k

    def parse(self, registry: VarRegistry, allow_basis: bool = False, kinds: frozenset = _PARAMS_ONLY,
              trailing: str = "unexpected trailing input"):
        """The rest of the line as a linear combination, basis index ->
        coefficient polynomial, index 0 holding the pure-coefficient part
        and no zero part kept; refused with ``trailing`` before the end."""
        self.reg = registry
        self.allow_basis = allow_basis
        self.kinds = kinds
        self.one = registry.one()
        self.depth = 0  # parentheses open around the current atom
        result = self._expr()
        if not self.at_end():
            self.fail(trailing)
        return {k: v for k, v in result.items() if v}

    def _atom(self):
        """The next atom as a linear combination, the form every rule returns."""
        at = self.i
        op, basis, int_, ident, _ = self.toks[at]
        if int_:
            self.i = at + 1
            return {0: self.reg.constant(self.integer(at, int_))}
        if basis:
            if not self.allow_basis:
                self.fail("basis elements are not allowed here", at)
            return {self.basis(self.reg.dim): self.one}
        if ident:
            self.i = at + 1
            try:
                kind = self.reg.kind_of(ident)
            except ValueError:
                self.fail(f"undeclared parameter {ident!r}", at)
            if kind not in self.kinds:
                self.fail(f"{ident!r} is not a parameter", at)
            return {0: self.reg.var(ident)}
        if op == "(":
            self.i = at + 1
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING} levels", at)
            self.depth += 1
            inner = self._expr()
            self.depth -= 1
            self.expect(")")
            return inner
        self.fail("expected a number, parameter, or parenthesized expression", at)

    def _factor(self):
        toks = self.toks
        sign = 1
        while (op := toks[self.i][_OP]) in ("+", "-"):
            self.i += 1
            if op == "-":
                sign = -sign
        value = self._atom()
        while toks[self.i][_OP] == "^":
            op_at = self.i
            exp_at = op_at + 1
            digits = toks[exp_at][_INT]
            if not digits:
                self.fail("exponent must be a non-negative integer", exp_at)
            self.i = exp_at + 1
            value = self._power(value, self.integer(exp_at, digits), op_at, exp_at)
        if sign < 0:
            value = {k: -v for k, v in value.items()}
        return value

    def _power(self, value, exponent, op_at, exp_at):
        """value^exponent, refused at ``op_at`` before it is built: p^e has at
        most C(T-1+e, e) terms (e of the T terms of p, with repeats) and at most
        C(e*D + v, v) (the monomials of degree <= e*D in the v variables of p)."""
        if value.keys() != {0}:
            self.fail("basis elements cannot be raised to powers", exp_at)
        if exponent > MAX_EXPONENT:
            self.fail(f"exponent {exponent} exceeds the limit {MAX_EXPONENT}", exp_at)
        base = value[0]
        terms, degree, degrees, digits = size_estimate(base)
        v = len(degrees)
        terms = min(math.comb(max(terms - 1, 0) + exponent, exponent), math.comb(exponent * degree + v, v))
        self._check("power", op_at, exponent * digits, terms, exponent * degree)
        return {0: base ** exponent}

    def _combine_mul(self, left, right, at):
        if left.keys() == {0}:
            return self._scale(right, left[0], at)
        if right.keys() != {0}:
            self.fail("products of basis elements are not allowed", at)
        return self._scale(left, right[0], at)

    def _scale(self, vector, scalar, at):
        """scalar * vector, refused at ``at`` before it is built: p*q has at
        most T1*T2 terms and at most C(D1 + D2 + v, v), the monomials of degree
        <= D1 + D2 in the v variables of p and q."""
        s_terms, s_degree, s_degrees, s_digits = size_estimate(scalar)
        for value in vector.values():
            terms, degree, degrees, digits = size_estimate(value)
            v = len(s_degrees.keys() | degrees.keys())
            terms = min(s_terms * terms, math.comb(s_degree + degree + v, v))
            self._check("product", at, s_digits + digits, terms, s_degree + degree)
        return {k: scalar * v for k, v in vector.items()}

    def _check(self, what: str, at: int, digits: float, terms: int = 0, degree: int = 0):
        """Refuse at token ``at`` a value whose coefficients may have ``digits``
        digits (log10 of a bound), with ``terms`` terms and total degree
        ``degree``, when one of them passes its limit."""
        limit = int_digit_limit()
        if digits >= limit:
            self.fail(f"a coefficient of this {what} would exceed the limit of {limit} digits", at)
        if terms > MAX_POWER_SIZE / max(1.0, digits):
            self.fail(f"this {what} could hold more than {MAX_POWER_SIZE} digits in all", at)
        if degree > MAX_EXPONENT:
            self.fail(f"this {what} would have total degree {degree}, past the limit {MAX_EXPONENT}", at)

    def _term(self):
        toks = self.toks
        value = self._factor()
        while True:
            at = self.i
            op, basis, int_, ident, _ = toks[at]
            if op == "*":
                self.i = at + 1
                value = self._combine_mul(value, self._factor(), at)
            elif op == "/":
                self.i = at + 1
                div = self._factor()
                if div.keys() != {0} or not div[0].is_constant():
                    self.fail("division is only allowed by a rational constant", at)
                c = div[0].constant_value()
                if c == 0:
                    self.fail("division by zero", at)
                value = self._scale(value, self.reg.constant(Fraction(1) / c), at)
            elif int_ or basis or ident or op == "(":
                value = self._combine_mul(value, self._factor(), at)
            else:
                return value

    def _expr(self):
        toks = self.toks
        value = self._term()
        while (op := toks[self.i][_OP]) in ("+", "-"):
            at = self.i
            self.i = at + 1
            rhs = self._term()
            if op == "-":
                rhs = {k: -v for k, v in rhs.items()}
            for k, v in rhs.items():
                total = value[k] = value.get(k, self.reg.zero()) + v
                # a sum is measured after it is built, where v changed it
                self._check("sum", at, _log10_height(total.coefficient(m) for m, _ in v.terms()))
        return value


def parse_poly(text: str, registry: VarRegistry, origin: str = "<expr>") -> Polynomial:
    """Parse a polynomial in the display syntax over any registered variable."""
    parts = _ExprParser(text, 1, origin).parse(registry, kinds=_ALL_KINDS)
    return parts.get(0, registry.zero())


# -- text format ----------------------------------------------------------------

# an exclusion p != 0 with p the zero polynomial excludes every value
_ZERO_EXCLUSION = "the exclusion is the zero polynomial, so no parameter value satisfies it"


def parse_text(doc: SourceDoc | str) -> LieAlgebra:
    if isinstance(doc, str):
        doc = SourceDoc(doc)
    origin = doc.origin
    statements = []
    for no, raw in enumerate(_LINE_END.split(doc.text), start=1):
        cur = _ExprParser(raw, no, origin)
        if len(cur.toks) > 1:
            statements.append(cur)
    if not statements:
        raise ParseError("empty input: expected a 'dim' line", origin=origin)

    # First statement fixes the dimension; param lines must precede brackets.
    # A statement holds a token before its end, so index 1 exists.
    cur = statements[0]
    if cur.toks[0][_IDENT] != "dim":
        cur.fail("the first statement must be 'dim <n>'", 0)
    digits = cur.toks[1][_INT]
    dim = cur.integer(1, digits) if digits else 0
    if dim < 1:
        cur.fail("dimension must be a positive integer", 1)
    if dim > MAX_DIM:
        cur.fail(f"dimension {dim} exceeds the limit {MAX_DIM}", 1)
    cur.i = 2
    if not cur.at_end():
        cur.fail("unexpected trailing input after the dimension")

    param_lines: dict[str, _ExprParser] = {}  # name -> the rest of its line
    bracket_lines: list[_ExprParser] = []
    for cur in statements[1:]:
        word = cur.toks[0][_IDENT]
        if word == "dim":
            cur.fail("duplicate 'dim' line")
        if word == "param":
            if bracket_lines:
                cur.fail("param lines must appear before bracket lines")
            _, basis, _, ident, _ = cur.toks[1]
            name = ident or basis
            if not name:
                cur.fail("expected a parameter name", 1)
            try:
                _check_param_name(name)
            except ValueError as exc:
                cur.fail(str(exc), 1)
            if name in param_lines:
                cur.fail(f"duplicate parameter {name!r}", 1)
            cur.i = 2
            param_lines[name] = cur
        else:
            bracket_lines.append(cur)

    registry = shared_registry(dim, tuple(param_lines))

    decls = []
    for name, cur in param_lines.items():
        exclusions: tuple[Polynomial, ...] = ()
        if cur.toks[2][_OP] == "!=":
            cur.i = 3
            rhs = cur.parse(registry, trailing="unexpected trailing input after the exclusion")
            exclusion = registry.var(name) - rhs.get(0, registry.zero())
            if not exclusion:
                cur.fail(_ZERO_EXCLUSION, 2)
            exclusions = (exclusion,)
        elif not cur.at_end():
            cur.fail("expected '!=' or end of line")
        decls.append(ParamDecl(name, exclusions))

    brackets: dict[tuple[int, int], dict[int, Polynomial]] = {}
    for cur in bracket_lines:
        cur.expect("[")
        i = cur.basis(dim)
        cur.expect(",")
        j = cur.basis(dim)
        cur.expect("]")
        if i == j:
            cur.fail(f"bracket indices must differ, got [e{i},e{j}]", 0)
        cur.expect("=")
        parts = cur.parse(registry, allow_basis=True)
        if 0 in parts:  # parse() has dropped zero parts
            cur.fail("constant terms are not allowed in a bracket", 0)
        conflict = _store_bracket(brackets, i, j, parts)
        if conflict:
            cur.fail(conflict, 0)

    return LieAlgebra(
        dim,
        registry,
        params=decls,
        brackets=brackets,
        name=_origin_stem(origin),
    )


def _origin_stem(origin: str) -> str:
    if origin in ("<string>", "<stdin>", ""):
        return ""
    return Path(origin).stem


def _store_bracket(brackets, i: int, j: int, terms: dict[int, Polynomial]) -> str | None:
    """Record [e_i, e_j] = terms, for either index order, keyed by i < j.

    A reversed pair is negated.  Every pair seen is kept, an all-zero
    bracket as an empty map, so that a later definition of the same pair
    must repeat it.  Returns the error message for a conflicting
    redefinition, None otherwise.
    """
    if i > j:
        i, j = j, i
        terms = {k: -v for k, v in terms.items()}
    stored = brackets.setdefault((i, j), terms)
    if stored is not terms and stored != terms:
        return f"conflicting redefinition of [e{i},e{j}]"
    return None


def _check_param_name(name: str) -> None:
    """Raise ValueError when ``name`` cannot name a parameter: the registry
    refuses it, or it is a basis element e<k>, which the bracket syntax
    would read in its place."""
    if _BASIS_RE.match(name):
        raise ValueError(f"parameter name {name!r} is reserved for basis elements")
    check_parameter_name(name)


# -- structured format ---------------------------------------------------------


def _json_int(digits: str) -> int | float:
    """``int(digits)``, or an infinity past Python's digit limit, so that the
    schema checks refuse it at its path as they refuse any non-integer."""
    try:
        return int(digits)
    except ValueError:
        return float("-inf") if digits.startswith("-") else float("inf")


# Strings and brackets of a JSON text; an unterminated string runs to the end
_JSON_BRACKETS_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[\[\]{}]', re.DOTALL)


def _check_nesting(text: str) -> None:
    """Raise JSONDecodeError at the first array or object that opens past
    MAX_NESTING levels, before json.loads recurses that deep."""
    depth = 0
    for m in _JSON_BRACKETS_RE.finditer(text):
        if m.group() in ("[", "{"):
            depth += 1
            if depth > MAX_NESTING:
                raise json.JSONDecodeError(f"nesting deeper than {MAX_NESTING} levels", text, m.start())
        elif m.group() in ("]", "}"):
            depth -= 1


def load_json(doc: SourceDoc):
    """The JSON value in ``doc``, read by the one rule set for JSON input:
    malformed JSON, nesting past :data:`MAX_NESTING` and a member name given
    twice in one object are refused, and integers are read by ``_json_int``."""

    def unique_members(pairs):
        # json.loads would keep the last of two equal names and drop the first
        members = {}
        for key, value in pairs:
            if key in members:
                raise SchemaError(f"member name {key!r} is repeated", origin=doc.origin)
            members[key] = value
        return members

    try:
        _check_nesting(doc.text)
        return json.loads(doc.text, parse_int=_json_int, object_pairs_hook=unique_members)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", origin=doc.origin) from None


def json_object(value, allowed, path: str, origin: str) -> dict:
    """``value``, refused at ``path`` unless it is a JSON object whose member
    names all lie in ``allowed``; the document itself has the empty path."""
    if not isinstance(value, dict):
        message = "must be an object" if path else "document must be an object"
        raise SchemaError(message, path=path, origin=origin)
    for key in value:
        if key not in allowed:
            raise SchemaError("unknown field", path=f"{path}.{key}" if path else key, origin=origin)
    return value


def _json_list(data: dict, key: str, origin: str) -> list:
    """The member ``key`` of the document: a list, or missing."""
    value = data.get(key, [])
    if not isinstance(value, list):
        raise SchemaError("must be a list", path=key, origin=origin)
    return value


def _coefficient(text: str, registry: VarRegistry, path: str, origin: str) -> Polynomial:
    """A coefficient string as a polynomial in the parameters, refused at ``path``."""
    try:
        parts = _ExprParser(text, 1, origin).parse(registry)
    except ParseError as exc:
        raise SchemaError(f"bad polynomial: {exc.message}", path=path, origin=origin) from None
    return parts.get(0, registry.zero())


def parse_structured(doc: SourceDoc | str) -> LieAlgebra:
    if isinstance(doc, str):
        doc = SourceDoc(doc)
    origin = doc.origin
    data = json_object(load_json(doc), ("dim", "params", "brackets", "name"), "", origin)
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("must be a positive integer", path="dim", origin=origin)
    if dim > MAX_DIM:
        raise SchemaError(f"dimension {dim} exceeds the limit {MAX_DIM}", path="dim", origin=origin)

    names = []
    raw_exclusions = []
    for idx, entry in enumerate(_json_list(data, "params", origin)):
        path = f"params[{idx}]"
        json_object(entry, ("name", "nonzero"), path, origin)
        name = entry.get("name")
        if not isinstance(name, str):
            raise SchemaError("missing string 'name'", path=path, origin=origin)
        try:
            _check_param_name(name)
        except ValueError as exc:
            raise SchemaError(str(exc), path=path, origin=origin) from None
        if name in names:
            raise SchemaError(f"duplicate parameter name {name!r}", path=path, origin=origin)
        nz = entry.get("nonzero")
        if nz is not None and not isinstance(nz, str):
            raise SchemaError("must be a string", path=f"{path}.nonzero", origin=origin)
        names.append(name)
        raw_exclusions.append(nz)

    registry = shared_registry(dim, tuple(names))

    decls = []
    for idx, (name, nz) in enumerate(zip(names, raw_exclusions)):
        exclusions = ()
        if nz is not None:
            path = f"params[{idx}].nonzero"
            exclusion = _coefficient(nz, registry, path, origin)
            if not exclusion:
                raise SchemaError(_ZERO_EXCLUSION, path=path, origin=origin)
            exclusions = (exclusion,)
        decls.append(ParamDecl(name, exclusions))

    brackets: dict[tuple[int, int], dict[int, Polynomial]] = {}
    for idx, entry in enumerate(_json_list(data, "brackets", origin)):
        path = f"brackets[{idx}]"
        json_object(entry, ("i", "j", "terms"), path, origin)
        i = entry.get("i")
        j = entry.get("j")
        for label, v in (("i", i), ("j", j)):
            if not isinstance(v, int) or isinstance(v, bool) or not (1 <= v <= dim):
                raise SchemaError(
                    f"must be an integer in 1..{dim}", path=f"{path}.{label}", origin=origin
                )
        if i == j:
            raise SchemaError("indices must differ", path=path, origin=origin)
        raw_terms = entry.get("terms")
        if not isinstance(raw_terms, dict):
            raise SchemaError("missing object 'terms'", path=path, origin=origin)
        terms = {}
        seen = set()
        for key, text in raw_terms.items():
            tpath = f"{path}.terms.{key}"
            # ASCII digits only, as in e<k>: int() would also read "+3", " 3" and "1_0"
            if not (key.isascii() and key.isdigit()):
                raise SchemaError("key must be a basis index", path=tpath, origin=origin)
            k = _json_int(key)
            if not (1 <= k <= dim):
                raise SchemaError(f"basis index out of range for dimension {dim}", path=tpath, origin=origin)
            if k in seen:
                raise SchemaError(f"basis index {k} is given twice", path=tpath, origin=origin)
            seen.add(k)
            if not isinstance(text, str):
                raise SchemaError("coefficient must be a string", path=tpath, origin=origin)
            coeff = _coefficient(text, registry, tpath, origin)
            if coeff:
                terms[k] = coeff
        conflict = _store_bracket(brackets, i, j, terms)
        if conflict:
            raise SchemaError(conflict, path=path, origin=origin)

    name = data.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("must be a string", path="name", origin=origin)
    return LieAlgebra(
        dim, registry, params=decls, brackets=brackets,
        name=name or _origin_stem(origin),
    )


# -- emission -------------------------------------------------------------------


def _render_coefficient(coeff: Polynomial, k: int) -> str:
    if coeff == 1:
        return f"e{k}"
    if coeff == -1:
        return f"-e{k}"
    if coeff.term_count() == 1:
        # a single term is all multiplication, no parentheses needed
        return f"{coeff}*e{k}"
    return f"({coeff})*e{k}"


def emit_text(alg: LieAlgebra) -> str:
    """Canonical text form; parse_text(emit_text(alg)) == alg."""
    lines = [f"dim {alg.dim}"]
    for decl in alg.params:
        if not decl.exclusions:
            lines.append(f"param {decl.name}")
            continue
        var = alg.registry.var(decl.name)
        for excl in decl.exclusions:
            rhs = var - excl
            lines.append(f"param {decl.name} != {rhs}")
    for (i, j) in alg.stored_pairs():
        terms = alg.bracket(i, j)
        parts = []
        for k in sorted(terms):
            rendered = _render_coefficient(terms[k], k)
            if not parts:
                parts.append(rendered)
            elif rendered.startswith("-"):
                parts.append(" - " + rendered[1:])
            else:
                parts.append(" + " + rendered)
        lines.append(f"[e{i},e{j}] = " + "".join(parts))
    return "\n".join(lines) + "\n"
