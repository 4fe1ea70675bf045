"""Bundled bracket tables with frozen expected verdicts.

The manifest records, for every entry, where its expected verdict comes
from: ``worked-example`` and ``reference-table`` trace back to a published
source, ``analytic`` marks textbook facts, and ``derived`` marks values we
computed by hand and froze.  Entries flagged with ``jacobi_ok: false``
document transcriptions that are faithful to their source but fail the
Jacobi identity; such entries bundle a repaired ``variant`` file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

from ..errors import SchemaError
from ..model import LieAlgebra
from ..parser import SourceDoc, json_object, load_json, parse_source, read_source

__all__ = [
    "CorpusEntry",
    "manifest",
    "manifest_from_dir",
    "entry",
    "names",
    "families",
    "read_text",
]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    file: str
    expected: str
    provenance: str
    note: str = ""
    variant: str | None = None
    jacobi_ok: bool = True
    # filesystem directory to read from; None means the bundled data
    root: str | None = field(default=None, compare=False)

    def _load_file(self, filename: str, name: str) -> LieAlgebra:
        if self.root is None:
            doc = SourceDoc(read_text(filename), origin=filename)
        else:
            doc = read_source(Path(self.root) / filename)
        return parse_source(doc).with_name(name)

    def load(self) -> LieAlgebra:
        return self._load_file(self.file, self.name)

    def load_variant(self) -> LieAlgebra | None:
        if self.variant is None:
            return None
        return self._load_file(self.variant, self.name + "*")


def read_text(filename: str) -> str:
    return (resources.files(__name__) / filename).read_text(encoding="utf-8")


# Optional manifest fields, the type each must have and its name in errors
_OPTIONAL_FIELDS = (
    ("note", str, "a string"),
    ("variant", (str, type(None)), "a string or null"),
    ("jacobi_ok", bool, "true or false"),
)


def _entries_from(doc: SourceDoc, root: str | None) -> tuple[CorpusEntry, ...]:
    data = load_json(doc)
    origin = doc.origin
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise SchemaError("manifest must be an object with an 'entries' list", origin=origin)
    allowed = {"name", "file", "expected", "provenance", "note", "variant", "jacobi_ok"}
    entries = []
    for idx, raw in enumerate(data["entries"]):
        json_object(raw, allowed, f"entries[{idx}]", origin)
        for key in ("name", "file", "expected", "provenance"):
            if not isinstance(raw.get(key), str):
                raise SchemaError(
                    f"missing string {key!r}", path=f"entries[{idx}]", origin=origin
                )
        for key, kind, words in _OPTIONAL_FIELDS:
            if key in raw and not isinstance(raw[key], kind):
                raise SchemaError(f"{key!r} must be {words}", path=f"entries[{idx}]", origin=origin)
        entries.append(CorpusEntry(root=root, **raw))
    return tuple(entries)


@lru_cache(maxsize=1)
def manifest() -> tuple[CorpusEntry, ...]:
    return _entries_from(SourceDoc(read_text("manifest.json"), origin="manifest.json"), root=None)


def manifest_from_dir(path) -> tuple[CorpusEntry, ...]:
    """Entries of an external corpus directory holding its own manifest."""
    return _entries_from(read_source(Path(path) / "manifest.json"), root=str(path))


def entry(name: str) -> CorpusEntry:
    for item in manifest():
        if item.name == name:
            return item
    raise KeyError(f"no corpus entry named {name!r}")


def names() -> list[str]:
    return [item.name for item in manifest()]


def families() -> tuple[CorpusEntry, ...]:
    """The published reference families, in table order."""
    return tuple(item for item in manifest() if item.provenance == "reference-table")
