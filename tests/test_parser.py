"""Text and JSON bracket-table formats."""

import codecs
import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from liepencil.errors import ParseError, SchemaError
from liepencil.model import validate
from liepencil.parser import (
    MAX_NESTING,
    _ExprParser,
    SourceDoc,
    emit_text,
    int_digit_limit,
    load_algebra,
    parse_poly,
    parse_source,
    parse_structured,
    parse_text,
)
from liepencil.poly import VarRegistry

GOOD = """\
# three-dimensional Heisenberg
dim 3
[e1,e2] = e3
"""

PARAMETRIC = """\
dim 7
param a
param b != 0
[e1,e2] = e3
[e6,e1] = e1
[e6,e2] = a*e2
[e6,e3] = (1+a)*e3
[e7,e4] = b*e4
"""


def test_parse_simple():
    alg = parse_text(SourceDoc(GOOD, origin="h3.lie"))
    assert alg.dim == 3
    assert alg.name == "h3"
    assert validate(alg).ok
    assert alg.bracket(1, 2) == {3: alg.registry.one()}


def test_parse_parametric_with_exclusion():
    alg = parse_text(PARAMETRIC)
    assert alg.param_names() == ("a", "b")
    decls = {d.name: d for d in alg.params}
    assert decls["a"].exclusions == ()
    assert len(decls["b"].exclusions) == 1
    assert str(decls["b"].exclusions[0]) == "b"


def test_exclusion_with_rhs():
    alg = parse_text("dim 2\nparam a != 2\n[e1,e2] = a*e1\n")
    (excl,) = alg.params[0].exclusions
    assert str(excl) == "a - 2"


def test_reversed_pair_negates():
    alg = parse_text("dim 2\n[e2,e1] = 3*e1\n")
    assert alg.structure_constant(1, 2, 1).constant_value() == -3


def test_roundtrip_through_emit():
    for text in (GOOD, PARAMETRIC):
        alg = parse_text(text)
        again = parse_text(emit_text(alg))
        assert again == alg


def test_coefficient_arithmetic():
    alg = parse_text("dim 2\nparam a\n[e1,e2] = (a^2 - a/2 + 1)*e1 - 4*e2\n")
    reg = alg.registry
    a = reg.parameter("a")
    want = a * a - a * Fraction(1, 2) + 1
    assert alg.structure_constant(1, 2, 1) == want
    assert alg.structure_constant(1, 2, 2).constant_value() == -4


def test_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_text("dim 3\n[e1,e2] = e9\n")
    assert err.value.line == 2
    assert "2" in str(err.value)
    with pytest.raises(ParseError):
        parse_text("[e1,e2] = e1\n")  # dim must come first
    with pytest.raises(ParseError):
        parse_text("dim 3\n[e1,e2] = e3\nparam a\n")  # params before brackets
    with pytest.raises(ParseError):
        parse_text("dim 2\nparam a\nparam a\n")  # duplicate parameter


def test_conflicting_pair_rejected():
    with pytest.raises(ParseError, match="redefinition"):
        parse_text("dim 3\n[e1,e2] = e3\n[e1,e2] = 0\n")
    with pytest.raises(ParseError, match="redefinition"):
        parse_text("dim 3\n[e1,e2] = e3\n[e2,e1] = e3\n")
    # a restatement that agrees (including the sign flip) is tolerated
    alg = parse_text("dim 3\n[e1,e2] = e3\n[e2,e1] = -e3\n")
    assert alg.bracket(1, 2) == {3: alg.registry.one()}


def test_structured_conflicting_pair_rejected():
    """The JSON form checks redefinitions like the text form, including
    one that follows an all-zero bracket."""
    def doc(*brackets):
        return json.dumps({"dim": 3, "brackets": list(brackets)})

    zero = {"i": 1, "j": 2, "terms": {}}
    nonzero = {"i": 1, "j": 2, "terms": {"3": "1"}}
    with pytest.raises(ParseError, match="redefinition"):
        parse_text("dim 3\n[e1,e2] = 0\n[e1,e2] = e3\n")
    for first, second in ((zero, nonzero), (nonzero, zero)):
        with pytest.raises(SchemaError, match="redefinition") as err:
            parse_structured(doc(first, second))
        assert err.value.path == "brackets[1]"
    # agreeing restatements, with the sign flip, are tolerated in both forms
    alg = parse_structured(doc(nonzero, {"i": 2, "j": 1, "terms": {"3": "-1"}}))
    assert alg == parse_text("dim 3\n[e1,e2] = e3\n[e2,e1] = -e3\n")
    assert parse_structured(doc(zero, zero)).stored_pairs() == []


def test_basis_vectors_linear_only():
    with pytest.raises(ParseError):
        parse_text("dim 2\n[e1,e2] = e1*e2\n")
    with pytest.raises(ParseError):
        parse_text("dim 2\n[e1,e2] = e1^2\n")


def test_division_only_by_constants():
    with pytest.raises(ParseError):
        parse_text("dim 2\nparam a\n[e1,e2] = e1/a\n")
    with pytest.raises(ParseError):
        parse_text("dim 2\n[e1,e2] = e1/0\n")


def test_parse_poly_accepts_all_kinds():
    reg = VarRegistry(2, params=("t",))
    p = parse_poly("x1*a2 - t*lambda", reg)
    assert str(p) == "-t*lambda + x1*a2"


def test_structured_equivalent_to_text():
    doc = {
        "dim": 7,
        "params": [{"name": "a"}, {"name": "b", "nonzero": "b"}],
        "brackets": [
            {"i": 1, "j": 2, "terms": {"3": "1"}},
            {"i": 6, "j": 1, "terms": {"1": "1"}},
            {"i": 6, "j": 2, "terms": {"2": "a"}},
            {"i": 6, "j": 3, "terms": {"3": "1+a"}},
            {"i": 7, "j": 4, "terms": {"4": "b"}},
        ],
    }
    from_json = parse_structured(json.dumps(doc))
    from_text = parse_text(PARAMETRIC)
    assert from_json == from_text


def test_structured_rejects_bad_schema():
    with pytest.raises(ParseError):
        parse_structured(json.dumps({"brackets": []}))  # missing dim
    with pytest.raises(ParseError):
        parse_structured(json.dumps({
            "dim": 2,
            "brackets": [{"i": 1, "terms": {"1": "1"}}],  # missing j
        }))
    with pytest.raises(ParseError):
        parse_structured(json.dumps({
            "dim": 2,
            "brackets": [{"i": 1, "j": 2, "pair": [1, 2], "terms": {}}],  # stray field
        }))
    with pytest.raises(ParseError):
        parse_structured("{not json")
    with pytest.raises(ParseError):
        # coordinates are not allowed in coefficients
        parse_structured(json.dumps({
            "dim": 2,
            "brackets": [{"i": 1, "j": 2, "terms": {"1": "x1"}}],
        }))


@pytest.mark.parametrize(
    "rhs, column",
    [("e0*e3", 11), ("e0^2*e3", 11), ("e3/e0", 14), ("(1+e0)*e3", 14), ("e0", 11)],
)
def test_basis_index_zero_is_refused_at_its_token(rhs, column):
    """e0 is no basis element: it once read as the constant part 1, so that
    e0*e3 was stored as e3 and (1+e0)*e3 as 2*e3."""
    with pytest.raises(ParseError) as err:
        parse_text(f"dim 3\n[e1,e2] = {rhs}\n")
    assert (err.value.line, err.value.column) == (2, column)
    assert err.value.message == "basis index e0 out of range for dimension 3"


@pytest.mark.parametrize(
    "text, message",
    [
        ("param e1\n[e1,e2] = e1*e3\n", "parameter name 'e1' is reserved for basis elements"),
        ("param e5\n", "parameter name 'e5' is reserved for basis elements"),
        ("param x1\n", "parameter name 'x1' is reserved"),
        ("param lambda != 0\n", "parameter name 'lambda' is reserved"),
    ],
)
def test_parameter_name_is_refused_at_its_token(text, message):
    with pytest.raises(ParseError) as err:
        parse_text("dim 3\n" + text)
    assert (err.value.line, err.value.column, err.value.message) == (2, 7, message)


@pytest.mark.parametrize(
    "params, message",
    [
        ([{"name": "e1", "nonzero": "e1"}], "params[0]: parameter name 'e1' is reserved for basis elements"),
        ([{"name": "a"}, {"name": "x2"}], "params[1]: parameter name 'x2' is reserved"),
        ([{"name": "a"}, {"name": "a"}], "params[1]: duplicate parameter name 'a'"),
    ],
)
def test_structured_parameter_name_is_refused_at_its_entry(params, message):
    with pytest.raises(SchemaError) as err:
        parse_structured(json.dumps({"dim": 3, "params": params}))
    assert err.value.message == message


def test_structured_basis_index_given_twice_is_refused():
    """Two spellings of one index once kept the last value and dropped the
    first without a word."""
    def doc(terms):
        return json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": terms}]})

    with pytest.raises(SchemaError) as err:
        parse_structured(doc({"03": "1", "3": "2"}))
    assert err.value.path == "brackets[0].terms.3"
    assert err.value.message == "brackets[0].terms.3: basis index 3 is given twice"
    assert parse_structured(doc({"03": "2"})) == parse_text("dim 3\n[e1,e2] = 2*e3\n")


def test_load_algebra_dispatches_on_suffix(tmp_path):
    text_path = tmp_path / "h3.lie"
    text_path.write_text(GOOD)
    alg = load_algebra(str(text_path))
    assert alg.dim == 3 and alg.name == "h3"

    json_path = tmp_path / "h3.json"
    json_path.write_text(json.dumps({
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "terms": {"3": "1"}}],
    }))
    assert load_algebra(str(json_path)) == alg


def test_parse_source_reads_the_format_off_the_origin():
    as_json = json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": {"3": "1"}}]})
    expected = parse_text(GOOD)
    for origin in ("h3.json", "dir.lie/H3.JSON"):
        assert parse_source(SourceDoc(as_json, origin=origin)) == expected
    for origin in ("h3.lie", "<string>", "h3.json.lie"):
        assert parse_source(SourceDoc(GOOD, origin=origin)) == expected
    with pytest.raises(ParseError):
        parse_source(SourceDoc(GOOD, origin="h3.json"))


def test_comments_and_whitespace_ignored():
    alg = parse_text("""
# leading comment
dim 3

[e1,e2] = e3   # trailing comment
""")
    assert alg.bracket(1, 2) == {3: alg.registry.one()}


def built_against_bounds(text: str, registry: VarRegistry):
    """Parse ``text`` and pair every product and power built on the way with
    the (digits, terms, degree) bounds its size check was given."""
    checks, pairs = [], []
    check, power, scale = _ExprParser._check, _ExprParser._power, _ExprParser._scale

    def record(self, what, tok, digits, terms=0, degree=0):
        checks.append((digits, terms, degree))
        return check(self, what, tok, digits, terms, degree)

    def paired(build):
        def run(self, *args):
            start = len(checks)
            built = build(self, *args)
            pairs.extend(zip(checks[start:], built.values(), strict=True))
            return built
        return run

    with mock.patch.multiple(_ExprParser, _check=record, _power=paired(power), _scale=paired(scale)):
        parse_poly(text, registry)
    return pairs


TERMS = st.lists(
    st.tuples(st.integers(-60, 60), st.integers(1, 12), st.integers(0, 6), st.integers(0, 6)),
    min_size=1,
    max_size=4,
)


def _poly_text(terms) -> str:
    return " + ".join(f"({n}/{d})*a^{i}*b^{j}" for n, d, i, j in terms)


@settings(max_examples=60, deadline=None)
@given(TERMS, TERMS, st.integers(0, 6))
def test_size_check_bounds_every_built_value(p, q, exponent):
    reg = VarRegistry(1, ["a", "b"])
    text = f"({_poly_text(p)})*({_poly_text(q)}) + ({_poly_text(p)})^{exponent}"
    pairs = built_against_bounds(text, reg)
    assert pairs
    for (digits, terms, degree), value in pairs:
        assert value.term_count() <= terms
        assert value.total_degree() <= degree
        for _, c in value.terms():
            assert math.log10(max(abs(c.numerator), c.denominator)) <= digits + 1e-9


NESTED = f"parentheses nested deeper than {MAX_NESTING} levels"


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("", (None, None), "empty input: expected a 'dim' line"),
        ("dim 0\n", (1, 5), "dimension must be a positive integer"),
        ("dim 3 4\n", (1, 7), "unexpected trailing input after the dimension"),
        ("dim 3\ndim 3\n", (2, 1), "duplicate 'dim' line"),
        ("dim 3\nparam 3\n", (2, 7), "expected a parameter name"),
        ("dim 3\nparam a = 1\n", (2, 9), "expected '!=' or end of line"),
        ("dim 3\nparam a != 1 )\n", (2, 14), "unexpected trailing input after the exclusion"),
        ("dim 3\nparam a != e1\n", (2, 12), "basis elements are not allowed here"),
        ("dim 3\n[e1,e1] = e2\n", (2, 1), "bracket indices must differ, got [e1,e1]"),
        ("dim 3\n[e1,e2] = *e3\n", (2, 11), "expected a number, parameter, or parenthesized expression"),
        ("dim 3\nparam a\n[e1,e2] = a^a*e3\n", (3, 13), "exponent must be a non-negative integer"),
        ("dim 3\n[e1,e2] = e3 + 1\n", (2, 1), "constant terms are not allowed in a bracket"),
        ("dim 3\n[e1,e2] = " + "(" * 250 + "e3" + ")" * 250, (2, 111), NESTED),
        ("dim 3\n[e1,e2] = " + "(" * 100_000 + "e3" + ")" * 100_000, (2, 111), NESTED),
        ("dim 3\nparam a != " + "(" * 250 + "1" + ")" * 250, (2, 112), NESTED),
    ],
    ids=[
        "empty", "dim-zero", "dim-trailing", "dim-twice", "param-number", "param-equals",
        "exclusion-trailing", "exclusion-basis", "same-indices", "leading-operator",
        "symbolic-exponent", "constant-term", "nesting-250", "nesting-100000", "exclusion-nesting",
    ],
)
def test_text_refusal_names_its_position(text, where, message):
    with pytest.raises(ParseError) as err:
        parse_text(text)
    assert (err.value.line, err.value.column) == where
    assert err.value.message == message


LIMIT = int_digit_limit()
OVER = "9" * (LIMIT + 700)  # an int literal past Python's digit limit
MAX = "9" * LIMIT  # the longest int literal Python reads
DIGITS = f"integer of {LIMIT + 700} digits exceeds the limit of {LIMIT} digits"

# (text, line, column, message) for every place the text parser refuses
REFUSALS = {
    "first-not-dim": ("[e1,e2] = e3\n", 1, 1, "the first statement must be 'dim <n>'"),
    "dim-word": ("dim n\n", 1, 5, "dimension must be a positive integer"),
    "dim-too-large": ("dim 1001\n", 1, 5, "dimension 1001 exceeds the limit 1000"),
    "dim-digits": (f"dim {OVER}\n", 1, 5, DIGITS),
    "param-after-bracket": ("dim 3\n[e1,e2] = e3\nparam a\n", 3, 1, "param lines must appear before bracket lines"),
    "param-twice": ("dim 3\nparam a\nparam a\n", 3, 7, "duplicate parameter 'a'"),
    "param-missing-name": ("dim 3\nparam\n", 2, 6, "expected a parameter name"),
    "undeclared": ("dim 3\n[e1,e2] = b*e3\n", 2, 11, "undeclared parameter 'b'"),
    "coordinate": ("dim 3\n[e1,e2] = x1*e3\n", 2, 11, "'x1' is not a parameter"),
    "coordinate-exclusion": ("dim 3\nparam a != x2\n", 2, 12, "'x2' is not a parameter"),
    "basis-product": ("dim 3\n[e1,e2] = e1*e3\n", 2, 13, "products of basis elements are not allowed"),
    "basis-adjacent": ("dim 3\n[e1,e2] = e1 e3\n", 2, 14, "products of basis elements are not allowed"),
    "basis-power": ("dim 3\n[e1,e2] = e3^2\n", 2, 14, "basis elements cannot be raised to powers"),
    "exponent-limit": ("dim 3\nparam a\n[e1,e2] = a^99999*e3\n", 3, 13, "exponent 99999 exceeds the limit 32767"),
    "exponent-digits": (f"dim 3\nparam a\n[e1,e2] = a^{OVER}*e3\n", 3, 13, DIGITS),
    "power-digits": (
        "dim 3\n[e1,e2] = 10^5000*e3\n", 2, 13,
        f"a coefficient of this power would exceed the limit of {LIMIT} digits",
    ),
    "power-size": (
        "dim 3\nparam a\nparam b\n[e1,e2] = (a+b+1)^200*e3\n", 4, 18,
        "this power could hold more than 100000 digits in all",
    ),
    "power-degree": (
        "dim 3\nparam a\n[e1,e2] = (a^200)^200*e3\n", 3, 18,
        "this power would have total degree 40000, past the limit 32767",
    ),
    "product-digits": (
        f"dim 3\n[e1,e2] = {MAX}*{MAX}*e3\n", 2, 11 + LIMIT,
        f"a coefficient of this product would exceed the limit of {LIMIT} digits",
    ),
    "product-size": (
        "dim 3\nparam a\nparam b\n[e1,e2] = (a+b+1)^40*(a+b+1)^40*e3\n", 4, 21,
        "this product could hold more than 100000 digits in all",
    ),
    "product-degree": (
        "dim 3\nparam a\n[e1,e2] = a^20000*a^20000*e3\n", 3, 18,
        "this product would have total degree 40000, past the limit 32767",
    ),
    "sum-digits": (
        f"dim 3\n[e1,e2] = {MAX} + {MAX} + e3\n", 2, 12 + LIMIT,
        f"a coefficient of this sum would exceed the limit of {LIMIT} digits",
    ),
    "division-by-parameter": (
        "dim 3\nparam a\n[e1,e2] = e3/a\n", 3, 13, "division is only allowed by a rational constant",
    ),
    "division-by-basis": ("dim 3\n[e1,e2] = e3/e1\n", 2, 13, "division is only allowed by a rational constant"),
    "division-by-zero": ("dim 3\n[e1,e2] = e3/(1-1)\n", 2, 13, "division by zero"),
    "trailing": ("dim 3\n[e1,e2] = e3 )\n", 2, 14, "unexpected trailing input"),
    "expect-open": ("dim 3\ne1,e2] = e3\n", 2, 1, "expected '['"),
    "expect-comma": ("dim 3\n[e1 e2] = e3\n", 2, 5, "expected ','"),
    "expect-close": ("dim 3\n[e1,e2 = e3\n", 2, 8, "expected ']'"),
    "expect-equals": ("dim 3\n[e1,e2] e3\n", 2, 9, "expected '='"),
    "expect-paren": ("dim 3\n[e1,e2] = (e3\n", 2, 14, "expected ')'"),
    "expected-basis": ("dim 3\n[e1,a] = e3\n", 2, 5, "expected a basis element like e3"),
    "expected-basis-number": ("dim 3\n[1,e2] = e3\n", 2, 2, "expected a basis element like e3"),
    "basis-out-of-range": ("dim 3\n[e1,e4] = e3\n", 2, 5, "basis index e4 out of range for dimension 3"),
    "basis-digits": (f"dim 3\n[e1,e2] = e{OVER}\n", 2, 11, DIGITS),
    "bracket-basis-digits": (f"dim 3\n[e{OVER},e2] = e3\n", 2, 2, DIGITS),
    "atom-digits": (f"dim 3\n[e1,e2] = {OVER}*e3\n", 2, 11, DIGITS),
    "param-basis-digits": (
        f"dim 3\nparam e{OVER}\n", 2, 7, f"parameter name 'e{OVER}' is reserved for basis elements",
    ),
    "conflict": ("dim 3\n[e1,e2] = e3\n[e2,e1] = e3\n", 3, 1, "conflicting redefinition of [e1,e2]"),
    "bad-char": ("dim 3\n[e1,e2] = e3 $\n", 2, 14, "unexpected character '$'"),
    "tokenizer-before-grammar": ("dim 0\n$\n", 2, 1, "unexpected character '$'"),
}


@pytest.mark.parametrize("text, line, column, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_every_text_refusal_site_is_pinned(text, line, column, message):
    """Each refusal of the text parser, with its message and position: a
    rewrite of the tokenizer or the grammar must keep every one."""
    with pytest.raises(ParseError) as err:
        parse_text(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, line, column)


ZERO_EXCLUSION = "the exclusion is the zero polynomial, so no parameter value satisfies it"


@pytest.mark.parametrize("rhs", ["a", "2*a - a", "(a + 1) - 1"])
def test_text_zero_exclusion_is_refused_where_it_is_written(rhs):
    """param a != a once parsed, and then every value of a violated it."""
    with pytest.raises(ParseError) as err:
        parse_text(f"dim 3\nparam a != {rhs}\n[e1,e2] = a*e3\n")
    assert (err.value.message, err.value.line, err.value.column) == (ZERO_EXCLUSION, 2, 9)


@pytest.mark.parametrize("nonzero", ["0", "a - a", "0*a"])
def test_structured_zero_exclusion_is_refused_at_its_path(nonzero):
    text = _doc(params=[{"name": "b"}, {"name": "a", "nonzero": nonzero}])
    with pytest.raises(SchemaError) as err:
        parse_structured(text)
    assert err.value.path == "params[1].nonzero"
    assert err.value.message == f"params[1].nonzero: {ZERO_EXCLUSION}"


def test_constant_parts_that_cancel_are_accepted():
    assert parse_text("dim 3\n[e1,e2] = 1 + e3 - 1\n") == parse_text("dim 3\n[e1,e2] = e3\n")


def test_basis_element_may_come_first_in_a_product():
    text = "dim 3\nparam a\n[e1,e2] = {}\n"
    assert parse_text(text.format("e3*a")) == parse_text(text.format("a*e3"))


def test_emit_text_writes_a_multi_term_bracket():
    text = "dim 5\nparam a\n[e1,e2] = a*e3 - 2*e4 + (a + 1)*e5\n"
    alg = parse_text(text)
    assert emit_text(alg) == text
    assert parse_text(emit_text(alg)) == alg


def _doc(**fields):
    return json.dumps({"dim": 3, **fields})


@pytest.mark.parametrize(
    "text, path, message",
    [
        ("[1]", "", "document must be an object"),
        (_doc(params={}), "params", "must be a list"),
        (_doc(brackets=5), "brackets", "must be a list"),
        (_doc(params=[1]), "params[0]", "must be an object"),
        (_doc(brackets=[[1, 2]]), "brackets[0]", "must be an object"),
        (_doc(params=[{"nonzero": "1"}]), "params[0]", "missing string 'name'"),
        (_doc(params=[{"name": "a", "zero": "a"}]), "params[0].zero", "unknown field"),
        (_doc(params=[{"name": "a", "nonzero": 1}]), "params[0].nonzero", "must be a string"),
        (
            _doc(params=[{"name": "a", "nonzero": "a +"}]),
            "params[0].nonzero",
            "bad polynomial: expected a number, parameter, or parenthesized expression",
        ),
        (_doc(brackets=[{"i": 2, "j": 2, "terms": {}}]), "brackets[0]", "indices must differ"),
        (_doc(brackets=[{"i": 1, "j": 2}]), "brackets[0]", "missing object 'terms'"),
        (
            _doc(brackets=[{"i": 1, "j": 2, "terms": {"4": "1"}}]),
            "brackets[0].terms.4",
            "basis index out of range for dimension 3",
        ),
        (
            _doc(brackets=[{"i": 1, "j": 2, "terms": {"3": 1}}]),
            "brackets[0].terms.3",
            "coefficient must be a string",
        ),
        (_doc(name=5), "name", "must be a string"),
    ],
    ids=[
        "document", "params-list", "brackets-list", "params-entry", "brackets-entry",
        "missing-name", "unknown-param-field", "nonzero-type", "nonzero-polynomial",
        "same-indices", "missing-terms", "key-range", "coefficient-type", "name-type",
    ],
)
def test_structured_refusal_names_its_path(text, path, message):
    with pytest.raises(SchemaError) as err:
        parse_structured(text)
    assert err.value.path == path
    assert err.value.message == (f"{path}: {message}" if path else message)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"dim": 3, "dim": 4}', "dim"),
        ('{"dim": 3, "params": [{"name": "a", "nonzero": "a", "nonzero": "a - 1"}]}', "nonzero"),
        ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": {"3": "1", "3": "2"}}]}', "3"),
    ],
    ids=["dim", "nonzero", "term"],
)
def test_structured_repeated_member_name_is_refused(text, key):
    """JSON itself keeps the last of two equal names, which once dropped
    the first value without a word."""
    with pytest.raises(SchemaError) as err:
        parse_structured(text)
    assert err.value.message == f"member name {key!r} is repeated"


@pytest.mark.parametrize("key", ["+3", " 3", "３", "1_0", "-3", "3.0", ""])
def test_structured_term_key_takes_ascii_digits_only(key):
    """As in e<k>: int() alone would read "+3", " 3" and a full-width 3 as 3,
    and "1_0" as 10."""
    text = _doc(brackets=[{"i": 1, "j": 2, "terms": {key: "1"}}])
    with pytest.raises(SchemaError) as err:
        parse_structured(text)
    assert err.value.path == f"brackets[0].terms.{key}"
    assert err.value.message == f"brackets[0].terms.{key}: key must be a basis index"


def test_nesting_up_to_the_bound_is_accepted():
    """MAX_NESTING parentheses around an atom, and MAX_NESTING arrays and
    objects in a document counting the document itself, are read; brackets
    inside a JSON string do not count."""
    deep = "(" * MAX_NESTING + "e3" + ")" * MAX_NESTING
    assert parse_text(f"dim 3\n[e1,e2] = {deep}\n") == parse_text(GOOD)
    arrays = "[" * (MAX_NESTING - 1) + "]" * (MAX_NESTING - 1)
    with pytest.raises(SchemaError) as err:
        parse_structured(f'{{"dim": 3, "brackets": [], "name": {arrays}}}')
    assert err.value.message == "name: must be a string"
    name = '\\"' + "[" * 2 * MAX_NESTING
    assert parse_structured(_doc(name=name)).name == name


@pytest.mark.parametrize("depth", [250, 100_000])
def test_every_expression_reader_bounds_nesting(depth):
    deep = "(" * depth + "a" + ")" * depth
    with pytest.raises(ParseError) as err:
        parse_poly(deep, VarRegistry(3, ["a"]))
    assert (err.value.line, err.value.column, err.value.message) == (1, MAX_NESTING + 1, NESTED)
    text = _doc(params=[{"name": "a"}], brackets=[{"i": 1, "j": 2, "terms": {"3": deep}}])
    with pytest.raises(SchemaError) as err:
        parse_structured(text)
    assert err.value.message == f"brackets[0].terms.3: bad polynomial: {NESTED}"


@pytest.mark.parametrize("depth", [250, 100_000])
@pytest.mark.parametrize(
    "prefix", ['{"dim": 3, "name": ', '{"dim": 3, "params": "\\\\", "name": '], ids=["plain", "after-escape"]
)
def test_json_nesting_is_refused_before_decoding(prefix, depth):
    """A string that ends in an escaped backslash closes there, so the
    brackets after it count."""
    with pytest.raises(SchemaError) as err:
        parse_structured(prefix + "[" * depth + "]" * depth + "}")
    char = len(prefix) + MAX_NESTING - 1  # the document is the first level
    assert err.value.message == (
        f"invalid JSON: nesting deeper than {MAX_NESTING} levels: line 1 column {char + 1} (char {char})"
    )


@pytest.mark.parametrize(
    "data, position",
    [
        (b'{\r\n"dim": 3,\r\n]', "line 3 column 1 (char 14)"),
        (b'{\r"dim": 3,\r]', "line 1 column 13 (char 12)"),
    ],
    ids=["crlf", "lone-cr"],
)
def test_json_file_positions_count_every_byte(tmp_path, data, position):
    """A JSON file is decoded without newline translation, so a position
    counts each CR as one character and lines by LF, as json does.  The
    documents end in "]", not "}": Python 3.13 words a trailing comma before
    "}" differently and places it at the comma."""
    path = tmp_path / "t.json"
    path.write_bytes(data)
    with pytest.raises(SchemaError) as err:
        load_algebra(path)
    assert err.value.message == f"invalid JSON: Expecting property name enclosed in double quotes: {position}"


def test_structured_null_nonzero_is_no_exclusion():
    alg = parse_structured(_doc(params=[{"name": "a", "nonzero": None}]))
    assert alg.params[0].exclusions == ()
    assert alg == parse_text("dim 3\nparam a\n")


@pytest.mark.parametrize(
    "data, where, byte",
    [
        (b"dim 3\n[e1,e2] = e3 # \xff\n", (2, 16), "0xff"),
        (b"dim 3\n\xff", (2, 1), "0xff"),
        (b"\xe9", (1, 1), "0xe9"),
        (b"dim 3\r\n# caf\xc3\xa9 \xc3\n", (2, 8), "0xc3"),
        (b"# a\x0cb \xe2\x80\xa8 c\ndim \xff\n", (2, 5), "0xff"),
        (b"dim 3\r# \xc2\x85\x1c \xff\n", (2, 6), "0xff"),
    ],
    ids=["comment", "line-start", "first-byte", "cut-sequence", "after-comment-with-breaks",
         "in-comment-with-breaks"],
)
def test_undecodable_byte_is_refused_at_its_position(tmp_path, data, where, byte):
    """Input files are UTF-8; a byte that is not is a parse error, not a
    UnicodeDecodeError, at the line and column the text parser would count."""
    path = tmp_path / "bad.lie"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load_algebra(path)
    assert (err.value.origin, err.value.line, err.value.column) == (str(path), *where)
    assert err.value.message == f"byte {byte} is not valid UTF-8"


def _coefficient_of_e3(text):
    """The algebra whose only bracket is [e1,e2] = (text)*e3, read from JSON."""
    return parse_structured(_doc(brackets=[{"i": 1, "j": 2, "terms": {"3": text}}]))


def _poly(text):
    return parse_poly(text, VarRegistry(3, ["a", "b"]))


@pytest.mark.parametrize(
    "read, text, same_as",
    [
        (parse_text, "dim 3\n[e1,e2]\t=\te3\n", GOOD),
        (parse_text, "dim\u00a03\n[e1,e2] =\u00a0e3\n", GOOD),
        (parse_text, "dim 3\n[e1,\u3000e2]\u3000= e3\n", GOOD),
        (_poly, "x1\t+\u00a0a\u3000*b", "x1 + a*b"),
        (parse_text, "dim 2\nparam b\nparam a!=b\n[e1,e2] = a*e1\n",
         "dim 2\nparam b\nparam a != b\n[e1,e2] = a*e1\n"),
        (_coefficient_of_e3, "1 +\n\t2", "3"),
        (_coefficient_of_e3, "2 # a comment ends at its line\n+ 1", "3"),
        (parse_text, "# a\x0c[e1,e2] = e1\ndim 3\n[e1,e2] = e3\n", GOOD),
        (parse_text, "# a\x1c[e1,e2] = e1\ndim 3\n[e1,e2] = e3\n", GOOD),
        (parse_text, "# a\x85[e1,e2] = e1\ndim 3\n[e1,e2] = e3\n", GOOD),
        (parse_text, "# a\u2028[e1,e2] = e1\ndim 3\n[e1,e2] = e3\n", GOOD),
    ],
    ids=["tab", "no-break-space", "ideographic-space", "poly-whitespace", "ne-unspaced",
         "json-newline-tab", "json-comment", "comment-form-feed", "comment-file-separator",
         "comment-next-line", "comment-line-separator"],
)
def test_tokenizer_reads_as(read, text, same_as):
    assert read(text) == read(same_as)


@pytest.mark.parametrize(
    "read, text, where, message",
    [
        (parse_text, "dim 3\n[e1,e2] = e3 ! e1\n", (2, 14), "unexpected character '!'"),
        (parse_text, "dim 2\nparam a !\n", (2, 9), "unexpected character '!'"),
        (_poly, "a !", (1, 3), "unexpected character '!'"),
        (parse_text, "dim 3\n[e1,e2] = é*e3\n", (2, 11), "unexpected character 'é'"),
        (parse_text, "dim ３\n", (1, 5), "unexpected character '３'"),
        (parse_text, "dim 3\n[ｅ1,e2] = e3\n", (2, 2), "unexpected character 'ｅ'"),
        (_poly, "2*ｅ1", (1, 3), "unexpected character 'ｅ'"),
        (parse_text, "dim 3\n[e1,e2] =\ufeffe3\n", (2, 10), "unexpected character '\\ufeff'"),
        (parse_text, "# c\n\ndim 3  # d\n\n   # e\n[e1,e2] = e3 ! # f\n", (6, 14),
         "unexpected character '!'"),
        (parse_text, "# c\n\ndim 3  # d\n\n   # e\n[e1,e2] = e9 # f\n", (6, 11),
         "basis index e9 out of range for dimension 3"),
        (parse_text, "dim 3\n# a b\x0cc\n[e1,e2] = e9\n", (3, 11),
         "basis index e9 out of range for dimension 3"),
    ],
    ids=["bang", "bang-at-end", "poly-bang", "accented", "full-width-digit",
         "full-width-letter", "poly-full-width-letter", "mid-line-bom",
         "after-comments", "after-comments-grammar", "after-form-feed-comment"],
)
def test_tokenizer_refuses_at(read, text, where, message):
    with pytest.raises(ParseError) as err:
        read(text)
    assert (err.value.line, err.value.column) == where
    assert err.value.message == message


H3_JSON = json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": {"3": "1"}}]})


@pytest.mark.parametrize("name, data", [("h3.lie", GOOD), ("h3.json", H3_JSON)], ids=["text", "json"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(codecs.BOM_UTF8 + data.encode())
    assert load_algebra(path) == parse_text(GOOD)


@pytest.mark.parametrize(
    "name, data",
    [
        ("t.lie", b"dim 3\n[e1,e2] = e9\n"),
        ("t.lie", b"dim 0\n"),
        ("t.lie", b"dim 3\n[e1,e2] = \xef\xbb\xbfe3\n"),
        ("t.lie", b"dim \xff\n"),
        ("t.json", b'{"dim": 3,}'),
        ("t.json", b'{"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": {"3": "\xef\xbb\xbf1"}}]}'),
    ],
    ids=["later-line", "first-line", "later-mark", "undecodable", "json", "json-coefficient-mark"],
)
def test_errors_after_a_byte_order_mark_keep_their_position(tmp_path, name, data):
    """Only the first mark goes, and every later position is counted as in
    the same file without it; a U+FEFF elsewhere is still refused."""
    (tmp_path / "plain").mkdir()
    (tmp_path / "marked").mkdir()
    plain, marked = tmp_path / "plain" / name, tmp_path / "marked" / name
    plain.write_bytes(data)
    marked.write_bytes(codecs.BOM_UTF8 + data)
    with pytest.raises((ParseError, SchemaError)) as want:
        load_algebra(plain)
    with pytest.raises(type(want.value)) as got:
        load_algebra(marked)
    assert str(got.value).replace(str(marked), str(plain)) == str(want.value)


def test_a_second_byte_order_mark_is_refused(tmp_path):
    path = tmp_path / "h3.lie"
    path.write_bytes(codecs.BOM_UTF8 * 2 + GOOD.encode())
    with pytest.raises(ParseError) as err:
        load_algebra(path)
    assert (err.value.line, err.value.column) == (1, 1)
    assert err.value.message == "unexpected character '\\ufeff'"
