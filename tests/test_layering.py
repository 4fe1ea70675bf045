"""Import layering, read from the source so nothing gets imported.

The numeric oracle is an independent second route to a verdict, so its
analysis uses only exact linear algebra (``ratmat``), dense univariate
polynomials (``unipoly``), the error types and the standard library.  It
must not reach the symbolic engine (``poly``, ``modp``, ``pencil``,
``model``) itself; it imports ``classify`` only for ``cross_check``, which
takes its sample reports, and the matrices they hold, from the classifier.
``ratmat`` may use the error types and the standard library, ``unipoly`` the
standard library alone.  The other way round, ``pencil``, the symbolic core,
uses ``model``, ``poly`` and ``modp`` alone, so its verdicts never lean on
the oracle.  Below it, ``model`` uses ``poly``, ``ratmat`` and the error
types, ``poly`` the error types alone, and ``modp``, the arithmetic mod one
prime that gives the symbolic side its starting points, ``poly`` alone;
``modp`` holds the package's only three-argument ``pow``, so every modular
loop outside the oracle lives there.  Above it, ``classify`` uses
``pencil``, ``model``, ``poly`` and the error types, and ``parser``, which
turns input into a table, uses ``model``, ``poly`` and the error types.  The
packed monomial format is ``poly``'s own: no other module imports a private
name from it or reads a private attribute of a ``VarRegistry``.  Outside
input is decoded in ``parser`` alone: it holds the package's one
``json.loads``, so every JSON input, a corpus manifest included, is read by
the same rules.  Every private name the package defines is used somewhere
in the package outside its own definition, so code that nothing calls does
not stay.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liepencil"

ALLOWED = {
    "classify.py": {"errors", "model", "pencil", "poly"},
    "oracle.py": {"ratmat", "unipoly", "errors", "classify"},
    "parser.py": {"errors", "model", "poly"},
    "modp.py": {"poly"},
    "pencil.py": {"model", "modp", "poly"},
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


def registry_private_slots() -> set[str]:
    """Private ``VarRegistry`` slots, read from the ``poly`` source."""
    tree = ast.parse((PACKAGE / "poly.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "VarRegistry":
            for stmt in node.body:
                target = stmt.targets[0] if isinstance(stmt, ast.Assign) else None
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return {c.value for c in stmt.value.elts if c.value.startswith("_")}
    raise AssertionError("VarRegistry.__slots__ not found in poly.py")


def poly_internals(path: Path, slots: set[str]) -> set[str]:
    """Private names a module imports from ``poly`` or reads as ``poly._x``,
    and the private registry slots it reads as attributes."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "poly":
            found.update(alias.name for alias in node.names if alias.name.startswith("_"))
        elif isinstance(node, ast.Attribute):
            if node.attr in slots:
                found.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "poly" \
                    and node.attr.startswith("_"):
                found.add(node.attr)
    return found


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "poly.py")
)
def test_monomial_format_stays_inside_poly(name):
    used = poly_internals(PACKAGE / name, registry_private_slots())
    assert not used, f"{name} reaches into poly: {sorted(used)}"


def test_poly_internals_reader_sees_imports_and_slots(tmp_path):
    slots = registry_private_slots()
    assert {"_shift", "_unit", "_guard"} <= slots
    source = tmp_path / "sample.py"
    source.write_text(
        "from .poly import Polynomial, _wrap\n"
        "from liepencil.poly import _FIELD\n"
        "from . import poly\n"
        "def f(p, reg):\n"
        "    q = poly._wrap(reg, {})\n"
        "    return p.registry._unit[0] & reg._guard, reg.exponents(0)\n"
    )
    assert poly_internals(source, slots) == {"_wrap", "_FIELD", "_unit", "_guard"}


def json_reads(path: Path) -> list[str]:
    """Each use of ``json.load`` or ``json.loads`` in a module, as an
    attribute of ``json`` or imported by name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ("load", "loads") \
                and isinstance(node.value, ast.Name) and node.value.id == "json":
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend(alias.name for alias in node.names if alias.name in ("load", "loads"))
    return found


@pytest.mark.parametrize("name", sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py")))
def test_only_the_parser_decodes_json(name):
    expected = ["loads"] if name == "parser.py" else []
    assert json_reads(PACKAGE / name) == expected


def test_json_reader_sees_calls_and_imports(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import json\n"
        "from json import loads as decode, dumps\n"
        "def f(fp, text):\n"
        "    return json.load(fp), json.loads(text), json.dumps(text)\n"
    )
    assert sorted(json_reads(source)) == ["load", "loads", "loads"]


def modular_pows(path: Path) -> int:
    """Calls of ``pow`` with a modulus, as a third argument or as ``mod=``."""
    return sum(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pow"
        and (len(node.args) == 3 or any(k.arg == "mod" for k in node.keywords))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
    )


@pytest.mark.parametrize("name", sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py")))
def test_modular_arithmetic_lives_in_modp(name):
    found = modular_pows(PACKAGE / name)
    assert (found > 0) == (name == "modp.py"), f"{name}: {found} modular pow calls"


def test_modular_pow_reader_sees_both_spellings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def f(a, b, p):\n"
        "    return pow(a, b, p), pow(a, b, mod=p), pow(a, b), a ** b % p\n"
    )
    assert modular_pows(source) == 2


def unused_private_names(paths) -> list[str]:
    """Private functions, methods, classes and module-level names defined in
    ``paths`` that no ``Name`` or ``Attribute`` read in ``paths`` names,
    reads inside their own definition not counted."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]

    def reads(node) -> list[str]:
        return [
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
        ]

    everywhere = Counter(name for tree in trees for name in reads(tree))
    unused = []
    for path, tree in zip(paths, trees):
        defined = [
            (node.name, node) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else (
                [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
            )
            defined += [(t.id, stmt) for t in targets if isinstance(t, ast.Name)]
        for name, node in defined:
            private = name.startswith("_") and not name.startswith("__")
            if private and everywhere[name] == reads(node).count(name):
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_every_private_name_is_used():
    assert unused_private_names(sorted(PACKAGE.rglob("*.py"))) == []


def test_unused_private_reader_sees_functions_methods_classes_and_names(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "class _Dead:\n"
        "    def _method(self):\n"
        "        return self._method()\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else _USED\n"
        "def _called():\n"
        "    return 0\n"
        "def public():\n"
        "    __dunder = _called()\n"
        "    return __dunder\n"
    )
    assert sorted(unused_private_names([source])) == [
        "sample.py:2 _UNUSED", "sample.py:3 _Dead", "sample.py:4 _method", "sample.py:6 _recursive",
    ]
