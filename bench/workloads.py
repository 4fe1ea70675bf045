"""The three workloads: each is a list of items built from a seed.

An item is one call into the program plus the answer it must give.  Its
``run`` returns plain data (strings, numbers, lists, dicts), so outputs can
be compared exactly, between traced and untraced runs too.

* ``corpus``: every bundled table and the repaired L5a variant, handled as
  ``liepencil table`` handles an entry: parse the text, validate, then
  classify (with three sampled parameter points, seed 1, for families).
  The seed only shuffles the order.  Answers come from the golden record.
* ``ladder``: ``pencil_profile(build_ax(alg))`` on b4, n5, gl3, b5, n6 and
  h3 .. h31, with basis signs flipped by the seed.  Answers are closed
  forms for the index (and for p0 where one is known).
* ``blocks``: ``pencil_type`` on scrambled block pencils.  The block lists
  are the first ones acceptance criterion 7a draws; the seed draws the
  scrambling congruences.  Answers follow from the block list.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import families
from liepencil import (
    InfiniteJordanBlock,
    JordanBlock,
    KroneckerBlock,
    assemble,
    build_ax,
    classify,
    classify_family,
    congruence,
    corpus,
    pencil_profile,
    pencil_type,
    validate,
)
from liepencil.parser import SourceDoc, parse_text

GOLDEN = Path(__file__).with_name("corpus_golden.json")

# classify_family arguments of `liepencil table`
SAMPLES = 3
SAMPLE_SEED = 1


@dataclass(frozen=True)
class Item:
    name: str
    call: Callable[[object], dict]
    data: object  # the input handed to the program
    expected: dict  # keys of the output that must match, with their values

    def run(self) -> dict:
        return self.call(self.data)

    def check(self, output) -> bool:
        return isinstance(output, dict) and all(
            output.get(key) == value for key, value in self.expected.items()
        )


# -- corpus -------------------------------------------------------------------


def corpus_sources() -> list[tuple[str, str, str]]:
    """(label, file name, text) for every bundled table and variant."""
    out = []
    for entry in corpus.manifest():
        out.append((entry.name, entry.file, corpus.read_text(entry.file)))
        if entry.variant is not None:
            label = entry.variant.rsplit(".", 1)[0]
            out.append((label, entry.variant, corpus.read_text(entry.variant)))
    return out


def classify_table(source: tuple[str, str]) -> dict:
    origin, text = source
    alg = parse_text(SourceDoc(text, origin=origin))
    report = validate(alg)
    if not report.ok:
        return {
            "jacobi": str(report.violations[0]),
            "violations": len(report.violations),
        }
    samples = []
    if alg.param_names():
        fam = classify_family(alg, samples=SAMPLES, seed=SAMPLE_SEED)
        rep = fam.symbolic
        samples = [
            {
                "values": {k: str(v) for k, v in pt.values.items()},
                "verdict": pt.report.verdict.value,
            }
            for pt in fam.samples
        ]
    else:
        rep = classify(alg)
    return {
        "verdict": rep.verdict.value,
        "index": rep.index,
        "p0": str(rep.p0),
        "samples": samples,
    }


def corpus_items(seed: int) -> list[Item]:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    items = [
        Item(label, classify_table, (file, text), golden[label])
        for label, file, text in corpus_sources()
    ]
    if len(items) != len(golden):
        raise ValueError("corpus and golden record list different entries")
    Random(seed).shuffle(items)
    return items


# -- ladder -------------------------------------------------------------------


def profile(alg) -> dict:
    prof = pencil_profile(build_ax(alg))
    return {"index": prof.index, "p0": str(prof.p0)}


def ladder_items(seed: int) -> list[Item]:
    rng = Random(seed)
    items = []
    for name, (dim, table), index, p0 in families.ladder_specs():
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        alg = families.signed_algebra(dim, table, signs, name)
        expected = {"index": index} if p0 is None else {"index": index, "p0": p0}
        items.append(Item(name, profile, alg, expected))
    rng.shuffle(items)
    return items


# -- blocks -------------------------------------------------------------------

# Block lists drawn as in criterion 7a are split by method: pencils of up to
# 15 rows go through principal minors, larger ones through deflation.  The
# pool keeps the criterion's 3:1 split, and the lists themselves are fixed,
# so that every seed costs about the same; the seed draws the scrambling.
SMALL_LISTS = 18
LARGE_LISTS = 6
LARGE_FROM = 16
LIST_SEED = 1234


def block_lists() -> list[list]:
    """The first small and large block lists of the criterion-7a stream."""
    rng = Random(LIST_SEED)
    small, large = [], []
    while len(small) < SMALL_LISTS or len(large) < LARGE_LISTS:
        blocks = families.random_blocks(rng)
        size = sum(b.matrix_size for b in blocks)
        families.random_unimodular(size, rng)  # keep the stream as in 7a
        bucket, cap = (large, LARGE_LISTS) if size >= LARGE_FROM else (small, SMALL_LISTS)
        if len(bucket) < cap:
            bucket.append(blocks)
    return small + large


def block_answer(blocks) -> dict:
    """Verdict, corank and characteristic numbers implied by the blocks."""
    kron = sum(isinstance(b, KroneckerBlock) for b in blocks)
    regular = len(blocks) - kron
    if not kron:
        verdict = "jordan"
    elif regular:
        verdict = "mixed"
    else:
        verdict = "kronecker"
    roots = Counter()
    for b in blocks:
        if isinstance(b, JordanBlock):
            roots[-b.eigenvalue] += b.size
    return {
        "verdict": verdict,
        "corank": kron,
        "char_numbers": [[str(r), m] for r, m in sorted(roots.items())],
        "infinite_count": sum(isinstance(b, InfiniteJordanBlock) for b in blocks),
    }


def pencil_answer(pencil) -> dict:
    rep = pencil_type(pencil)
    return {
        "verdict": rep.verdict.value,
        "corank": rep.corank,
        "char_numbers": [[str(r), m] for r, m in sorted(rep.char_numbers)],
        "infinite_count": rep.infinite_count,
        "method": rep.method,
    }


def blocks_items(seed: int) -> list[Item]:
    rng = Random(seed)
    items = []
    for number, blocks in enumerate(block_lists()):
        pencil = assemble(blocks)
        scramble = families.random_unimodular(pencil.size, rng)
        items.append(
            Item(
                f"blocks{number:02d}-n{pencil.size}",
                pencil_answer,
                congruence(pencil, scramble),
                block_answer(blocks),
            )
        )
    rng.shuffle(items)
    return items


BUILDERS = {"corpus": corpus_items, "ladder": ladder_items, "blocks": blocks_items}


def build(workload: str, seed: int) -> list[Item]:
    return BUILDERS[workload](seed)
