"""Every CLI output on the bundled corpus, byte for byte.

``golden_cli.json`` holds the exit code, stdout and stderr of ``validate``,
``classify``, ``index``, ``charpoly`` and ``check`` on each corpus file, and
of ``table``, each in text and structured form, with the elapsed times
masked.  A change that should not move any output is checked against it;
one that should is recorded by rewriting the file:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from liepencil import corpus
from liepencil.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
CORPUS_DIR = Path(corpus.__file__).parent
COMMANDS = ("validate", "classify", "index", "charpoly", "check")
FORMS = ("text", "structured")
_ELAPSED = re.compile(r'"elapsed": [-+0-9.eE]+')


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "code": code,
        "stdout": _ELAPSED.sub('"elapsed": null', out.getvalue()),
        "stderr": err.getvalue(),
    }


def sweep(command: str, form: str) -> dict[str, dict]:
    """The outputs of one command in one form, keyed by argv; the corpus
    files are named relative to their directory, as the golden file has them."""
    if command == "table":
        runs = [["table", "--output", form]]
    else:
        files = sorted(p.name for p in CORPUS_DIR.glob("*.lie"))
        runs = [[command, name, "--output", form] for name in files]
    cwd = os.getcwd()
    os.chdir(CORPUS_DIR)
    try:
        return {" ".join(argv): _run(argv) for argv in runs}
    finally:
        os.chdir(cwd)


CASES = [(c, f) for c in COMMANDS + ("table",) for f in FORMS]


@pytest.mark.parametrize("command, form", CASES)
def test_cli_outputs_match_the_golden_file(command, form):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    want = {argv: got for argv, got in golden.items() if argv.split()[0] == command and argv.endswith(form)}
    assert want
    assert sweep(command, form) == want


if __name__ == "__main__":
    outputs = {}
    for command, form in CASES:
        outputs.update(sweep(command, form))
    GOLDEN_PATH.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} outputs to {GOLDEN_PATH}", file=sys.stderr)
