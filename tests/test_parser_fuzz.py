"""Both parsers end every input in a result or a ParseError.

Short random strings are spliced into the bundled corpus tables, as text
and as JSON renderings of the same tables.  A mutant may parse or be
refused, but the refusal is always a ParseError (SchemaError is one), so
the CLI can turn it into a positioned message and exit code 2.
"""

import json

from hypothesis import given, settings, strategies as st

from liepencil import corpus
from liepencil.errors import ParseError
from liepencil.parser import parse_structured, parse_text

TEXT_FILES = sorted(
    {e.file for e in corpus.manifest()} | {e.variant for e in corpus.manifest() if e.variant}
)
TEXTS = [corpus.read_text(name) for name in TEXT_FILES]


def _structured(alg) -> str:
    return json.dumps({
        "dim": alg.dim,
        "params": [
            {"name": d.name, **({"nonzero": " * ".join(f"({x})" for x in d.exclusions)}
                                if d.exclusions else {})}
            for d in alg.params
        ],
        "brackets": [
            {"i": i, "j": j, "terms": {str(k): str(c) for k, c in alg.bracket(i, j).items()}}
            for i, j in alg.stored_pairs()
        ],
    })


ALGEBRAS = [parse_text(text) for text in TEXTS]
DOCS = [_structured(alg) for alg in ALGEBRAS]

# characters the two grammars give a meaning to, plus any code points
_SYNTAX = "[]{}(),:=\"'#!*/+-^. \n\t0123456789eabtxdimparmlambdnoz"
_INSERTS = st.one_of(
    st.text(alphabet=_SYNTAX, max_size=8),
    st.lists(st.integers(0, 0x10FFFF).map(chr), max_size=4).map("".join),
)


@st.composite
def _spliced(draw, sources):
    text = draw(st.sampled_from(sources))
    start = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 6))
    return text[:start] + draw(_INSERTS) + text[start + cut:]


def _parses_or_refuses(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


def test_structured_renderings_round_trip():
    for alg, doc in zip(ALGEBRAS, DOCS):
        assert parse_structured(doc) == alg


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_spliced(TEXTS))
def test_text_parser_refuses_only_with_parse_error(text):
    _parses_or_refuses(parse_text, text)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_spliced(DOCS))
def test_structured_parser_refuses_only_with_parse_error(text):
    _parses_or_refuses(parse_structured, text)
