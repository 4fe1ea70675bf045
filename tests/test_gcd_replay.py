"""Replay of the gcds a benchmark pass asks for, against the PRS.

One ``corpus`` pass and one ``ladder`` pass of the benchmark's workloads
(seed 1) run with ``poly_gcd`` recorded where ``pencil`` calls it; every
recorded pair must give the gcd of the plain recursive primitive PRS,
``helpers.prs_gcd``.  The workloads come from ``bench/workloads.py``, read
but not changed.
"""

import sys
from pathlib import Path

import pytest

import liepencil.pencil
from liepencil.poly import poly_gcd

from helpers import prs_gcd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["corpus", "ladder"])
def test_benchmark_gcds_equal_the_prs(workload, monkeypatch):
    pairs = []

    def record(p, q):
        pairs.append((p, q))
        return poly_gcd(p, q)

    monkeypatch.setattr(liepencil.pencil, "poly_gcd", record)
    for item in workloads.build(workload, 1):
        assert item.check(item.run()), item.name
    monkeypatch.undo()
    results = [poly_gcd(p, q) for p, q in pairs]
    assert results == [prs_gcd(p, q) for p, q in pairs]
    # the pass asks for coprime and for non-coprime pairs alike
    assert any(g.is_constant() for g in results)
    assert not all(g.is_constant() for g in results)
