"""Integrity of the bundled bracket tables and their manifest."""

import json

import pytest

from liepencil import corpus
from liepencil.errors import ParseError, SchemaError
from liepencil.model import validate


def test_manifest_loads_and_names_are_unique():
    entries = corpus.manifest()
    names = [e.name for e in entries]
    assert len(names) == len(set(names))
    assert len(entries) == 17


def test_twelve_reference_families():
    fams = corpus.families()
    assert [e.name for e in fams] == [
        "L1", "L2", "L3a", "L4ab", "L5a", "L6",
        "L7a", "L8a", "L9", "L10a", "L11", "L12a",
    ]
    assert all(e.provenance == "reference-table" for e in fams)


def test_every_entry_loads_and_jacobi_flag_is_accurate():
    for e in corpus.manifest():
        alg = e.load()
        assert alg.dim >= 1
        assert validate(alg).ok == e.jacobi_ok, e.name
        assert alg.name == e.name


def test_expected_verdicts_are_well_formed():
    for e in corpus.manifest():
        assert e.expected in ("jordan", "kronecker", "mixed"), e.name


def test_variant_loads_and_validates():
    e = corpus.entry("L5a")
    assert not e.jacobi_ok
    assert e.variant is not None
    repaired = e.load_variant()
    assert validate(repaired).ok
    assert repaired.name == "L5a*"
    assert e.note  # the discrepancy must be documented


def test_entry_lookup():
    assert corpus.entry("L1").name == "L1"
    with pytest.raises(KeyError):
        corpus.entry("no-such-entry")
    assert "heisenberg3" in corpus.names()


def test_read_text_returns_source():
    text = corpus.read_text("heisenberg3.lie")
    assert "dim 3" in text


def test_manifest_from_dir(tmp_path):
    (tmp_path / "t.lie").write_text("dim 3\n[e1,e2] = e3\n")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "entries": [{
            "name": "t", "file": "t.lie",
            "expected": "mixed", "provenance": "analytic",
        }],
    }))
    entries = corpus.manifest_from_dir(str(tmp_path))
    assert len(entries) == 1
    assert entries[0].load().dim == 3


def test_manifest_from_dir_rejects_bad_schema(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({
        "entries": [{"name": "x", "file": "x.lie"}],  # missing fields
    }))
    with pytest.raises(ParseError):
        corpus.manifest_from_dir(str(tmp_path))


_OPTIONAL_TYPES = {"variant": "a string or null", "note": "a string", "jacobi_ok": "true or false"}


@pytest.mark.parametrize("field, value", [
    ("variant", 5), ("variant", ["x.lie"]), ("note", None), ("jacobi_ok", "no"), ("jacobi_ok", 0),
])
def test_manifest_from_dir_checks_optional_fields(tmp_path, field, value):
    good = {"name": "t", "file": "t.lie", "expected": "mixed", "provenance": "analytic"}
    (tmp_path / "manifest.json").write_text(json.dumps({
        "entries": [good, dict(good, name="u", **{field: value})],
    }))
    with pytest.raises(SchemaError) as info:
        corpus.manifest_from_dir(str(tmp_path))
    assert info.value.path == "entries[1]"
    assert f"{field!r} must be {_OPTIONAL_TYPES[field]}" in str(info.value)


def test_manifest_from_dir_names_an_unknown_field(tmp_path):
    good = {"name": "t", "file": "t.lie", "expected": "mixed", "provenance": "analytic"}
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": [dict(good, source="x")]}))
    with pytest.raises(SchemaError) as info:
        corpus.manifest_from_dir(str(tmp_path))
    assert (info.value.path, info.value.message) == ("entries[0].source", "entries[0].source: unknown field")


def test_manifest_from_dir_accepts_optional_fields(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({
        "entries": [{
            "name": "t", "file": "t.lie", "expected": "mixed", "provenance": "analytic",
            "note": "", "variant": None, "jacobi_ok": False,
        }],
    }))
    (entry,) = corpus.manifest_from_dir(str(tmp_path))
    assert entry.variant is None and entry.jacobi_ok is False


def test_sampled_parameter_values_avoid_exclusions():
    # every parametric family declares its exclusions; L3a needs a != 0
    e = corpus.entry("L3a")
    alg = e.load()
    (decl,) = alg.params
    assert decl.name == "a"
    assert len(decl.exclusions) == 1
