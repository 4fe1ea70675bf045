"""Import layering, read from the source so nothing gets imported.

The numeric oracle is an independent second route to a verdict, so its
analysis uses only exact linear algebra (``ratmat``), dense univariate
polynomials (``unipoly``), the error types and the standard library.  It
must not reach the symbolic engine (``poly``, ``pencil``) itself; it imports
``classify`` and ``model`` only for ``cross_check``, which binds a table and
asks the symbolic classifier for the verdict to compare against.  ``ratmat``
may use the error types and the standard library, ``unipoly`` the standard
library alone.  The other way round, ``pencil``, the symbolic core, uses
``model`` and ``poly`` alone, so its verdicts never lean on the oracle.
Below it, ``model`` uses ``poly``, ``ratmat`` and the error types, and
``poly`` the error types alone.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liepencil"

ALLOWED = {
    "oracle.py": {"ratmat", "unipoly", "errors", "classify", "model"},
    "pencil.py": {"model", "poly"},
    "poly.py": {"errors"},
    "model.py": {"errors", "poly", "ratmat"},
    "ratmat.py": {"errors"},
    "unipoly.py": set(),
}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of absolute imports, and package modules of relative ones."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                # from . import a, b
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_numeric_side_imports_only_its_layers(name):
    modules = imported_modules(PACKAGE / name)
    outside = {m for m in modules - ALLOWED[name] if m not in sys.stdlib_module_names}
    assert not outside, f"{name} imports {sorted(outside)}"


def test_import_reader_sees_relative_and_absolute_imports(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import os.path\n"
        "from . import ratmat, poly\n"
        "from .classify import Verdict\n"
        "from liepencil.model import build_ax\n"
        "def f():\n"
        "    from .pencil import pfaffian\n"
    )
    assert imported_modules(source) == {"os", "ratmat", "poly", "classify", "liepencil", "pencil"}
