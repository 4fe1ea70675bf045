"""What both parsers make of a fixed list of spliced corpus mutants.

A text mutant is a bundled table with a short random string spliced in,
as ``test_parser_fuzz`` splices them; a JSON mutant is the table's JSON
rendering with the string spliced into one of its coefficient or
``nonzero`` strings, so the document stays valid JSON and the splice
reaches the expression parser.  The splices come from a seeded
``random.Random``.  ``golden_parse.json`` holds, for each, the splice and
its outcome: the table's ``emit_text``, name and exclusions, or the
refusal's message, line, column and path.  A change that should not move
any outcome is checked against it; one that should is recorded by
rewriting the file:

    PYTHONPATH=src python tests/test_golden_parse.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

from liepencil.errors import ParseError
from liepencil.parser import emit_text, parse_structured, parse_text
from test_parser_fuzz import _SYNTAX, DOCS, TEXT_FILES, TEXTS

GOLDEN_PATH = Path(__file__).with_name("golden_parse.json")
SEED = 36
MUTANTS = 1000  # of each form

# Characters outside _SYNTAX: controls, line breaks that str.splitlines
# knows, Unicode spaces, digits and letters, a lone surrogate and a
# noncharacter.  None has changed category since Unicode 6.1, so its repr
# in "unexpected character" and its class under \s and \S are the same on
# every Python this package supports.  A code point drawn from the whole
# range may be new, and print unescaped on one Python and escaped on
# another.
_OTHER = (
    "\x00\x0b\x0c\r\x1b\x1c\x7f\x85\xa0\xad\xb2\xd7\xe9\u017f\u03bb\u0663"
    "\u2009\u200b\u2028\u2212\u212a\u3000\u4e2d\ufeff\ufffd\uff45"
    "\ud800\U0001d7d9\U0001f600\U0010ffff"
)


def _insert(rng: random.Random) -> str:
    alphabet = _SYNTAX if rng.random() < 0.5 else _OTHER
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))


def _strings(doc: dict) -> dict[str, tuple[dict, str]]:
    """The coefficient and ``nonzero`` strings of a JSON table, each as
    (object, key) under its schema path."""
    found = {f"params[{n}].nonzero": (p, "nonzero") for n, p in enumerate(doc["params"]) if "nonzero" in p}
    for n, entry in enumerate(doc["brackets"]):
        found.update({f"brackets[{n}].terms.{k}": (entry["terms"], k) for k in entry["terms"]})
    return found


# (source, path) of each string a JSON mutant may be spliced into
_SLOTS = [(source, path) for source, doc in enumerate(DOCS) for path in _strings(json.loads(doc))]
_NONZERO = [slot for slot in _SLOTS if slot[1].endswith(".nonzero")]
_COEFFICIENTS = [slot for slot in _SLOTS if not slot[1].endswith(".nonzero")]


def splices(form: str):
    """``MUTANTS`` splices (source, path, start, cut, insert) of one form;
    ``path`` is the JSON string spliced into, None for a text."""
    rng = random.Random(f"{SEED}-{form}")
    for _ in range(MUTANTS):
        if form == "text":
            source, path = rng.randrange(len(TEXTS)), None
            target = TEXTS[source]
        else:
            source, path = rng.choice(_NONZERO if rng.random() < 0.2 else _COEFFICIENTS)
            obj, key = _strings(json.loads(DOCS[source]))[path]
            target = obj[key]
        start = rng.randint(0, len(target))
        yield source, path, start, rng.randint(0, 6), _insert(rng)


def mutant(form: str, splice) -> str:
    source, path, start, cut, insert = splice
    if form == "text":
        text = TEXTS[source]
        return text[:start] + insert + text[start + cut:]
    doc = json.loads(DOCS[source])
    obj, key = _strings(doc)[path]
    obj[key] = obj[key][:start] + insert + obj[key][start + cut:]
    return json.dumps(doc)


def outcome(form: str, splice) -> dict:
    source, path, start, cut, insert = splice
    record = {"source": TEXT_FILES[source], "start": start, "cut": cut, "insert": insert}
    if path is not None:
        record["string"] = path
    parse = parse_text if form == "text" else parse_structured
    try:
        alg = parse(mutant(form, splice))
    except ParseError as exc:
        where = {"line": exc.line, "column": exc.column, "path": getattr(exc, "path", None)}
        return {**record, "error": exc.message, **where}
    exclusions = [[str(e) for e in d.exclusions] for d in alg.params]
    return {**record, "table": emit_text(alg), "name": alg.name, "exclusions": exclusions}


def sweep(form: str) -> list[dict]:
    return [outcome(form, splice) for splice in splices(form)]


def render(outputs: dict[str, list[dict]]) -> str:
    """The golden file: one record a line, so a moved outcome is one line of diff."""
    forms = (
        f"{json.dumps(form)}: [\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]"
        for form, records in outputs.items()
    )
    return "{\n" + ",\n".join(forms) + "\n}\n"


@pytest.mark.parametrize("form", ["text", "json"])
def test_parse_outcomes_match_the_golden_file(form):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sweep(form) == golden[form]


if __name__ == "__main__":
    outputs = {form: sweep(form) for form in ("text", "json")}
    GOLDEN_PATH.write_text(render(outputs), encoding="utf-8")
    print(f"wrote {sum(map(len, outputs.values()))} outcomes to {GOLDEN_PATH}", file=sys.stderr)
