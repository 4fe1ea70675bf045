"""Checks of the benchmark itself: inputs, answers, tracing and report.

    python3 -m pytest -q bench/tests
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import liepencil
import program
import reference
import run
import tracing
import workloads
from liepencil import NumericPencil, validate

BENCHMARK = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _plain(data):
    if isinstance(data, NumericPencil):
        return [[str(v) for v in row] for row in data.a + data.b]
    if isinstance(data, liepencil.LieAlgebra):
        return liepencil.emit_text(data)
    return data


def _fingerprint(items):
    return [(item.name, _plain(item.data), item.expected) for item in items]


@pytest.mark.parametrize("workload", ["corpus", "ladder", "blocks"])
def test_same_seed_gives_same_inputs(workload):
    first = _fingerprint(workloads.build(workload, 5))
    assert first == _fingerprint(workloads.build(workload, 5))
    assert first != _fingerprint(workloads.build(workload, 6))


def test_ladder_algebras_satisfy_jacobi_and_closed_forms():
    small = [i for i in workloads.build("ladder", 3) if i.data.dim <= 10]
    assert {i.name for i in small} >= {"b4", "n5", "gl3", "h3", "h9"}
    for item in small:
        assert validate(item.data).ok, item.name
        assert item.check(item.run()), item.name


def test_block_answers_follow_from_the_block_list():
    small = [i for i in workloads.build("blocks", 3) if i.data.size <= 12]
    assert len(small) >= 10
    for item in small:
        assert item.check(item.run()), (item.name, item.expected)


def test_golden_record_matches_the_manifest_except_l5a():
    golden = json.loads(workloads.GOLDEN.read_text(encoding="utf-8"))
    for entry in liepencil.corpus.manifest():
        if entry.name == "L5a":
            # the printed table is not a Lie algebra, and its repair is mixed
            assert "jacobi" in golden["L5a"]
            assert golden["L5a_corrected"]["verdict"] == "mixed"
        else:
            assert golden[entry.name]["verdict"] == entry.expected, entry.name


def _cheap(workload):
    items = workloads.build(workload, 2)
    if workload == "corpus":
        return [i for i in items if i.name in {"heisenberg3", "sl2", "L1", "L5a", "L7a"}]
    if workload == "ladder":
        return [i for i in items if i.data.dim <= 10]
    small = [i for i in items if i.data.size <= 12]
    large = min((i for i in items if i.data.size >= 16), key=lambda i: i.data.size)
    return small + [large]


@pytest.mark.parametrize(
    "workload, layer",
    [("corpus", "model.validate"), ("ladder", "poly.poly_gcd"), ("blocks", "ratmat.mat_vec")],
)
def test_traced_and_untraced_outputs_are_identical(workload, layer):
    items = _cheap(workload)
    _, _, plain, _ = run.run_pass(items)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, traced, seconds = run.run_pass(items, tracer)
    finally:
        tracer.remove()
    assert traced == plain
    assert all(item.check(out) for item, out in zip(items, plain))
    assert tracer.calls[layer] > 0
    # per-item traced seconds add up to the tracer's totals
    assert sum(s[layer] for s in seconds) == pytest.approx(tracer.seconds[layer])
    assert all(span[2] is not None for span in tracer.spans)
    # every wrapper is gone again, including rebound imports
    assert liepencil.pencil.poly_gcd is liepencil.poly.poly_gcd
    assert not hasattr(liepencil.pencil.poly_gcd, "__wrapped__")
    assert not hasattr(liepencil.ratmat.SpanBuilder.add, "__wrapped__")


def test_tracer_rebinds_imported_names():
    classify_module = importlib.import_module("liepencil.classify")
    original = classify_module.classify
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert liepencil.pencil.poly_gcd is liepencil.poly.poly_gcd
        assert liepencil.pencil.poly_gcd.__wrapped__ is not None
        assert classify_module.classify.__wrapped__ is original
        assert liepencil.oracle.classify is classify_module.classify
        assert workloads.classify is classify_module.classify
    finally:
        tracer.remove()
    assert workloads.classify is original


@pytest.mark.parametrize(
    "target", [("liepencil.poly", "no_such_function"), ("liepencil.ratmat", "SpanBuilder.nope")]
)
def test_missing_target_fails_loudly(target):
    tracer = tracing.Tracer(targets=tracing.TARGETS + (target + ("x", None),))
    with pytest.raises(LookupError):
        tracer.install()
    assert not hasattr(liepencil.poly.poly_gcd, "__wrapped__")


@pytest.mark.parametrize(
    "workload, trace", [("corpus", 0), ("corpus", 1), ("ladder", 1), ("blocks", 1)]
)
def test_every_named_metric_is_reported(workload, trace, monkeypatch, capsys):
    items = _cheap(workload)[:2]
    full = len(workloads.build(workload, 3))
    monkeypatch.setattr(workloads, "build", lambda name, seed: items)
    # the set-up probe builds the whole workload in a fresh interpreter
    probe = run.setup_probe
    monkeypatch.setattr(run, "setup_probe", lambda name, seed, count: probe(name, seed, full))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in report["metrics"].items()
    }
    assert all(isinstance(v["value"], float) for v in report["metrics"].values())


def test_run_without_program_sources_fails(tmp_path):
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        program.ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_scaling_divides_out_the_reference_slowdown():
    nominal = reference.NOMINAL_S
    assert run.scale(1.0, nominal, nominal) == pytest.approx(1.0)
    assert run.scale(1.0, nominal, 3 * nominal) == pytest.approx(0.5)
    # each item's traced seconds are scaled by the samples around that item
    refs = [nominal, nominal, 3 * nominal]
    traced = [Counter({"a": 1.0}), Counter({"a": 1.0, "b": 2.0})]
    assert run.scale_traced(traced, refs) == pytest.approx({"a": 1.5, "b": 1.0})
    assert reference.sample() > 0
