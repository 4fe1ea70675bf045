"""Spans around the public functions of each liepencil layer, from outside.

A :class:`Tracer` replaces each target function by a timing wrapper, on its
home module and on every loaded module that imported the same object (for
example ``liepencil.pencil.poly_gcd``), and puts the originals back on
:meth:`Tracer.remove`.  Each call becomes a span (name, start, end, parent)
kept in memory; self time is a span's duration minus the time its traced
children took.  A target that no longer exists raises at install time, so a
renamed function cannot silently drop a metric.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _count_subsets(tracer, args, result, duration):
    n, r = args
    tracer.counters["pencil.subsets"] += math.comb(n, r)


def _count_violations(tracer, args, result, duration):
    tracer.counters["model.validate.violations"] += len(result.violations)


def _count_p0_terms(tracer, args, result, duration):
    tracer.counters["poly.p0_terms"] += result.p0.term_count()


def _count_useful_gcd(tracer, args, result, duration):
    # the first operand is the running gcd; once it is constant the call
    # cannot change p0 any more
    if not args[0].is_constant():
        tracer.counters["poly.poly_gcd.useful"] += 1


def _split_pencil_type(tracer, args, result, duration):
    # whole-call time, split by the p0 method the oracle chose
    tracer.seconds[f"oracle.pencil_type.{result.method}_s"] += duration
    tracer.counters[f"oracle.pencil_type.{result.method}"] += 1


def _count_useful_span_add(tracer, args, result, duration):
    if result:
        tracer.counters["ratmat.span_add.useful"] += 1


# (module, attribute path, span name, observer)
TARGETS = (
    ("liepencil.parser", "parse_text", "parser.parse_text", None),
    ("liepencil.model", "validate", "model.validate", _count_violations),
    ("liepencil.model", "substitute_params", "model.substitute_params", None),
    ("liepencil.model", "build_ax", "model.build_ax", None),
    ("liepencil.pencil", "generic_rank", "pencil.generic_rank", None),
    ("liepencil.pencil", "principal_subsets", "pencil.principal_subsets", _count_subsets),
    ("liepencil.pencil", "PfaffianCache.pfaffian", "pencil.pfaffian", None),
    ("liepencil.pencil", "pencil_profile", "pencil.pencil_profile", _count_p0_terms),
    ("liepencil.poly", "poly_gcd", "poly.poly_gcd", _count_useful_gcd),
    ("liepencil.poly", "div_exact", "poly.div_exact", None),
    ("liepencil.classify", "classify", "classify.classify", None),
    ("liepencil.oracle", "pencil_type", "oracle.pencil_type", _split_pencil_type),
    ("liepencil.ratmat", "rank", "ratmat.rank", None),
    ("liepencil.ratmat", "kernel", "ratmat.kernel", None),
    ("liepencil.ratmat", "mat_vec", "ratmat.mat_vec", None),
    ("liepencil.ratmat", "SpanBuilder.add", "ratmat.span_add", _count_useful_span_add),
    ("liepencil.unipoly", "pencil_det", "unipoly.pencil_det", None),
    ("liepencil.unipoly", "gcd_poly", "unipoly.gcd_poly", None),
    ("liepencil.unipoly", "rational_roots", "unipoly.rational_roots", None),
)


def _resolve(module_name, path):
    """(owner, attribute name, original) for 'func' or 'Class.method'."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module_name}.{path}: {part!r} is missing")
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        raise LookupError(f"{module_name}.{path} is missing or not callable")
    return owner, attr, original


class Tracer:
    """In-memory spans plus per-name call counts and self times."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self.keep_spans = True  # aggregates are kept either way
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()  # self time per name
        self.counters: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, name: str) -> list:
        """Open a span; the frame is [start, child seconds, span index]."""
        index = -1
        start = time.perf_counter()
        if self.keep_spans:
            parent = self._stack[-1][2] if self._stack else -1
            index = len(self.spans)
            self.spans.append([self._name_id(name), start, None, parent])
        frame = [start, 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> float:
        """Close the innermost span; returns its duration."""
        end = time.perf_counter()
        self._stack.pop()
        if frame[2] >= 0:
            self.spans[frame[2]][2] = end
        duration = end - frame[0]
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.seconds[name] += duration - frame[1]
        return duration

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one item."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, frame)

    def _wrap(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(name, frame)
            if observe is not None:
                observe(tracer, args, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; raises LookupError if one is missing."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        resolved = [(_resolve(m, p), name, obs) for m, p, name, obs in self.targets]
        for (owner, attr, original), name, observe in resolved:
            wrapped = self._wrap(name, original, observe)
            self._patch(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            # rebind names other modules imported with "from ... import"
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if module is owner or not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write names and spans as JSON: spans are [name id, start, end, parent]."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"names": self.names, "spans": self.spans}, out)
