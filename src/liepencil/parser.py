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
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .errors import ParseError, SchemaError
from .model import LieAlgebra, ParamDecl
from .poly import (
    MAX_EXPONENT, MAX_POWER_SIZE, Polynomial, VarKind, VarRegistry, check_parameter_name, size_estimate,
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

_TOKEN_RE = re.compile(
    r"""
    \s+ | \#.*                          # whitespace and comments: no group
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>!=|[\[\](),+\-*/^=])
  | (?P<bad>\S)                         # any other character, refused
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    """One token of a line.  An operator is always an "op" token and a word
    an "ident", so the grammar tests the value alone where that fixes the kind."""

    kind: str  # "int" | "ident" | "op" | "end"
    value: str
    line: int
    column: int


def _tokenize_line(text: str, line_no: int, origin: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(
                f"unexpected character {m.group()!r}",
                line=line_no,
                column=m.start() + 1,
                origin=origin,
            )
        if kind:
            tokens.append(Token(kind, m.group(), line_no, m.start() + 1))
    tokens.append(Token("end", "", line_no, len(text) + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token], origin: str):
        self.tokens = tokens
        self.origin = origin
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect_op(self, value: str) -> Token:
        tok = self.peek()
        if tok.value != value:
            self.fail(f"expected {value!r}", tok)
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, line=tok.line, column=tok.column, origin=self.origin)

    def integer(self, tok: Token, digits: str | None = None) -> int:
        """The value of ``digits`` (by default the token's text), failing at
        the token past Python's limit on the digits of an int."""
        digits = tok.value if digits is None else digits
        try:
            return int(digits)
        except ValueError:
            self.fail(f"integer of {len(digits)} digits exceeds the limit of {int_digit_limit()} digits", tok)


# -- expression parser --------------------------------------------------------
#
# Grammar (precedence climbing):
#   expr   := term (("+"|"-") term)*
#   term   := factor (("*"|"/")? factor)*     adjacency means multiplication
#   factor := ("-"|"+")* atom ("^" int)*
#   atom   := int | ident | "(" expr ")"
#
# Atoms evaluate to polynomials; "e<k>" identifiers are only legal where the
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
    def __init__(
        self,
        cursor: _Cursor,
        registry: VarRegistry,
        allow_basis: bool,
        kinds: frozenset = _PARAMS_ONLY,
    ):
        self.c = cursor
        self.reg = registry
        self.allow_basis = allow_basis
        self.kinds = kinds
        self.one = registry.one()
        self.depth = 0  # parentheses open around the current atom

    def _atom(self):
        """The next atom as a linear combination, the form every rule returns:
        basis index -> coefficient polynomial, index 0 holding the
        pure-coefficient part."""
        tok = self.c.peek()
        if tok.kind == "int":
            self.c.next()
            return {0: self.reg.constant(self.c.integer(tok))}
        if tok.kind == "ident":
            self.c.next()
            if _BASIS_RE.match(tok.value):
                if not self.allow_basis:
                    self.c.fail("basis elements are not allowed here", tok)
                return {_basis_index(self.c, tok, self.reg.dim): self.one}
            try:
                kind = self.reg.kind_of(tok.value)
            except ValueError:
                self.c.fail(f"undeclared parameter {tok.value!r}", tok)
            if kind not in self.kinds:
                self.c.fail(f"{tok.value!r} is not a parameter", tok)
            return {0: self.reg.var(tok.value)}
        if tok.value == "(":
            self.c.next()
            if self.depth == MAX_NESTING:
                self.c.fail(f"parentheses nested deeper than {MAX_NESTING} levels", tok)
            self.depth += 1
            inner = self._expr()
            self.depth -= 1
            self.c.expect_op(")")
            return inner
        self.c.fail("expected a number, parameter, or parenthesized expression", tok)

    def _factor(self):
        sign = 1
        while self.c.peek().value in ("+", "-"):
            if self.c.next().value == "-":
                sign = -sign
        value = self._atom()
        while self.c.peek().value == "^":
            tok = self.c.next()
            etok = self.c.peek()
            if etok.kind != "int":
                self.c.fail("exponent must be a non-negative integer", etok)
            self.c.next()
            value = self._power(value, self.c.integer(etok), tok, etok)
        if sign < 0:
            value = {k: -v for k, v in value.items()}
        return value

    def _power(self, value, exponent, op_tok, exp_tok):
        """value^exponent, refused at ``op_tok`` before it is built: p^e has at
        most C(T-1+e, e) terms (e of the T terms of p, with repeats) and at most
        C(e*D + v, v) (the monomials of degree <= e*D in the v variables of p)."""
        if set(value) != {0}:
            self.c.fail("basis elements cannot be raised to powers", exp_tok)
        if exponent > MAX_EXPONENT:
            self.c.fail(f"exponent {exponent} exceeds the limit {MAX_EXPONENT}", exp_tok)
        base = value[0]
        terms, degree, degrees, digits = size_estimate(base)
        v = len(degrees)
        terms = min(math.comb(max(terms - 1, 0) + exponent, exponent), math.comb(exponent * degree + v, v))
        self._check("power", op_tok, exponent * digits, terms, exponent * degree)
        return {0: base ** exponent}

    def _combine_mul(self, left, right, tok):
        if set(left) != {0} and set(right) != {0}:
            self.c.fail("products of basis elements are not allowed", tok)
        if set(left) == {0}:
            scalar, vector = left[0], right
        else:
            scalar, vector = right[0], left
        return self._scale(vector, scalar, tok)

    def _scale(self, vector, scalar, tok):
        """scalar * vector, refused at ``tok`` before it is built: p*q has at
        most T1*T2 terms and at most C(D1 + D2 + v, v), the monomials of degree
        <= D1 + D2 in the v variables of p and q."""
        s_terms, s_degree, s_degrees, s_digits = size_estimate(scalar)
        for value in vector.values():
            terms, degree, degrees, digits = size_estimate(value)
            v = len(s_degrees.keys() | degrees.keys())
            terms = min(s_terms * terms, math.comb(s_degree + degree + v, v))
            self._check("product", tok, s_digits + digits, terms, s_degree + degree)
        return {k: scalar * v for k, v in vector.items()}

    def _check(self, what: str, tok, digits: float, terms: int = 0, degree: int = 0):
        """Refuse at ``tok`` a value whose coefficients may have ``digits``
        digits (log10 of a bound), with ``terms`` terms and total degree
        ``degree``, when one of them passes its limit."""
        limit = int_digit_limit()
        if digits >= limit:
            self.c.fail(f"a coefficient of this {what} would exceed the limit of {limit} digits", tok)
        if terms > MAX_POWER_SIZE / max(1.0, digits):
            self.c.fail(f"this {what} could hold more than {MAX_POWER_SIZE} digits in all", tok)
        if degree > MAX_EXPONENT:
            self.c.fail(f"this {what} would have total degree {degree}, past the limit {MAX_EXPONENT}", tok)

    def _term(self):
        value = self._factor()
        while True:
            tok = self.c.peek()
            if tok.value == "*":
                self.c.next()
                value = self._combine_mul(value, self._factor(), tok)
            elif tok.value == "/":
                self.c.next()
                div = self._factor()
                if set(div) != {0} or not div[0].is_constant():
                    self.c.fail("division is only allowed by a rational constant", tok)
                c = div[0].constant_value()
                if c == 0:
                    self.c.fail("division by zero", tok)
                value = self._scale(value, self.reg.constant(Fraction(1) / c), tok)
            elif tok.kind in ("int", "ident") or tok.value == "(":
                value = self._combine_mul(value, self._factor(), tok)
            else:
                break
        return value

    def _expr(self):
        value = self._term()
        while self.c.peek().value in ("+", "-"):
            tok = self.c.next()
            rhs = self._term()
            if tok.value == "-":
                rhs = {k: -v for k, v in rhs.items()}
            for k, v in rhs.items():
                total = value[k] = value.get(k, self.reg.zero()) + v
                # a sum is measured after it is built, where v changed it
                self._check("sum", tok, _log10_height(total.coefficient(m) for m, _ in v.terms()))
        return value

    def parse(self):
        result = self._expr()
        if not self.c.at_end():
            self.c.fail("unexpected trailing input")
        return {k: v for k, v in result.items() if v}


def parse_poly(text: str, registry: VarRegistry, origin: str = "<expr>") -> Polynomial:
    """Parse a polynomial in the display syntax over any registered variable."""
    cursor = _Cursor(_tokenize_line(text, 1, origin), origin)
    parts = _ExprParser(cursor, registry, allow_basis=False, kinds=_ALL_KINDS).parse()
    return parts.get(0, registry.zero())


# -- text format ----------------------------------------------------------------


def parse_text(doc: SourceDoc | str) -> LieAlgebra:
    if isinstance(doc, str):
        doc = SourceDoc(doc)
    origin = doc.origin
    lines = _LINE_END.split(doc.text)
    statements = []
    for no, raw in enumerate(lines, start=1):
        tokens = _tokenize_line(raw, no, origin)
        if tokens[0].kind != "end":
            statements.append(_Cursor(tokens, origin))
    if not statements:
        raise ParseError("empty input: expected a 'dim' line", origin=origin)

    # First statement fixes the dimension; param lines must precede brackets.
    cur = statements[0]
    head = cur.next()
    if head.value != "dim":
        cur.fail("the first statement must be 'dim <n>'", head)
    size_tok = cur.next()
    dim = cur.integer(size_tok) if size_tok.kind == "int" else 0
    if dim < 1:
        cur.fail("dimension must be a positive integer", size_tok)
    if dim > MAX_DIM:
        cur.fail(f"dimension {dim} exceeds the limit {MAX_DIM}", size_tok)
    if not cur.at_end():
        cur.fail("unexpected trailing input after the dimension")

    param_lines: dict[str, _Cursor] = {}  # name -> the rest of its line
    bracket_lines: list[_Cursor] = []
    for cur in statements[1:]:
        tok = cur.peek()
        if tok.value == "dim":
            cur.fail("duplicate 'dim' line", tok)
        if tok.value == "param":
            if bracket_lines:
                cur.fail("param lines must appear before bracket lines", tok)
            cur.next()
            name_tok = cur.next()
            if name_tok.kind != "ident":
                cur.fail("expected a parameter name", name_tok)
            try:
                _check_param_name(name_tok.value)
            except ValueError as exc:
                cur.fail(str(exc), name_tok)
            if name_tok.value in param_lines:
                cur.fail(f"duplicate parameter {name_tok.value!r}", name_tok)
            param_lines[name_tok.value] = cur
        else:
            bracket_lines.append(cur)

    registry = VarRegistry(dim, list(param_lines))

    decls = []
    for name, cur in param_lines.items():
        exclusions: tuple[Polynomial, ...] = ()
        tok = cur.peek()
        if tok.value == "!=":
            cur.next()
            parts = _ExprParser(cur, registry, allow_basis=False)._expr()
            if not cur.at_end():
                cur.fail("unexpected trailing input after the exclusion")
            rhs = parts.get(0, registry.zero())
            exclusions = (registry.var(name) - rhs,)
        elif tok.kind != "end":
            cur.fail("expected '!=' or end of line", tok)
        decls.append(ParamDecl(name, exclusions))

    brackets: dict[tuple[int, int], dict[int, Polynomial]] = {}
    for cur in bracket_lines:
        _parse_bracket_line(cur, registry, dim, brackets)

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
    sign = 1
    if i > j:
        i, j = j, i
        sign = -1
    terms = {k: sign * v for k, v in terms.items()}
    if brackets.setdefault((i, j), terms) != terms:
        return f"conflicting redefinition of [e{i},e{j}]"
    return None


def _parse_bracket_line(cur: _Cursor, registry: VarRegistry, dim: int, brackets) -> None:
    open_tok = cur.peek()
    cur.expect_op("[")
    i = _basis_index(cur, cur.next(), dim)
    cur.expect_op(",")
    j = _basis_index(cur, cur.next(), dim)
    cur.expect_op("]")
    if i == j:
        cur.fail(f"bracket indices must differ, got [e{i},e{j}]", open_tok)
    cur.expect_op("=")
    parts = _ExprParser(cur, registry, allow_basis=True).parse()
    if 0 in parts:  # parse() has dropped zero parts
        cur.fail("constant terms are not allowed in a bracket", open_tok)
    conflict = _store_bracket(brackets, i, j, parts)
    if conflict:
        cur.fail(conflict, open_tok)


def _basis_index(cur: _Cursor, tok: Token, dim: int) -> int:
    """k of the basis element e<k> at ``tok``, failing there when the token
    is none or k is outside 1..dim."""
    m = _BASIS_RE.match(tok.value) if tok.kind == "ident" else None
    if not m:
        cur.fail("expected a basis element like e3", tok)
    k = cur.integer(tok, m.group(1))
    if not (1 <= k <= dim):
        cur.fail(f"basis index e{k} out of range for dimension {dim}", tok)
    return k


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
        cursor = _Cursor(_tokenize_line(text, 1, origin), origin)
        parts = _ExprParser(cursor, registry, allow_basis=False).parse()
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

    registry = VarRegistry(dim, names)

    decls = []
    for idx, (name, nz) in enumerate(zip(names, raw_exclusions)):
        exclusions = ()
        if nz is not None:
            exclusions = (_coefficient(nz, registry, f"params[{idx}].nonzero", origin),)
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
