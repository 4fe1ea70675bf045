"""Command-line front end.

Subcommands:

* ``validate``  check the Jacobi identity and report violations
* ``classify``  full classification of one bracket table
* ``index``     dimension, generic rank, and index only
* ``charpoly``  the gcd polynomial p0 and its shifted form p(lambda)
* ``table``     classify the bundled reference families and compare with
                their published types
* ``check``     replay a classification numerically at random points

Exit codes are stable: 0 on success or agreement, 1 for domain-level
failures (Jacobi violations, verdict mismatches, excluded parameter
values), 2 for unreadable input, parse errors, or bad invocations.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import textwrap
from fractions import Fraction

from . import corpus
from .classify import (
    DEFAULT_SEED,
    ClassificationReport,
    FamilyReport,
    Verdict,
    classify,
    classify_family,
    format_values,
    require_valid,
)
from .errors import InvalidAlgebra, LiePencilError, ParameterBindingError, ParseError
from .model import LieAlgebra, build_ax, substitute_params, validate
from .oracle import cross_check
from .parser import int_digit_limit, load_algebra
from .pencil import generic_rank

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def entry() -> None:
    sys.exit(main())


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, OSError, ParameterBindingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LiePencilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return EXIT_DOMAIN


def _count(minimum: int):
    """argparse type for an integer count no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liepencil",
        description="Classify Lie algebras by the block structure of their generic matrix pencil.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, params=True):
        if params:
            sp.add_argument(
                "--param",
                action="append",
                default=[],
                metavar="NAME=VALUE",
                help="bind a parameter to a rational value (repeatable)",
            )
        sp.add_argument(
            "--output",
            choices=("text", "structured"),
            default="text",
            help="text report or JSON",
        )

    sp = sub.add_parser("validate", help="check that a bracket table is a Lie algebra")
    sp.add_argument("path")
    common(sp, params=False)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("classify", help="determine the type of one algebra")
    sp.add_argument("path")
    sp.add_argument("--samples", type=_count(0), default=3, metavar="N",
                    help="random parameter samples to cross-classify (families only)")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("index", help="print dimension, generic rank, and index")
    sp.add_argument("path")
    common(sp)
    sp.set_defaults(func=cmd_index)

    sp = sub.add_parser("charpoly", help="print p0 and p(lambda)")
    sp.add_argument("path")
    common(sp)
    sp.set_defaults(func=cmd_charpoly)

    sp = sub.add_parser("table", help="classify the bundled families against their published types")
    sp.add_argument("--corpus", metavar="DIR", default=None,
                    help="external corpus directory (default: bundled)")
    sp.add_argument("--samples", type=_count(0), default=3, metavar="N")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(sp, params=False)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("check", help="compare the symbolic verdict with the numeric analysis")
    sp.add_argument("path")
    sp.add_argument("--trials", type=_count(1), default=5, metavar="N")
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_check)

    return parser


def _parse_param_flags(pairs) -> dict[str, Fraction]:
    values: dict[str, Fraction] = {}
    for item in pairs:
        name, sep, raw = item.partition("=")
        if not sep or not name:
            raise ParameterBindingError(f"expected NAME=VALUE, got {item!r}")
        value = _rational(raw)
        if name in values:
            raise ParameterBindingError(f"parameter {name!r} bound twice")
        values[name] = value
    return values


# The decimal exponent of a value such as 1.5e-3.
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def _rational(raw: str) -> Fraction:
    """``Fraction(raw)``, refused before it is built when its numerator or
    denominator could pass Python's limit on the digits of an int: each has
    at most len(raw) + |exponent| digits."""
    limit = int_digit_limit()
    try:
        m = _EXPONENT.search(raw)
        if len(raw) + (abs(int(m.group(1))) if m else 0) > limit:
            raise ParameterBindingError(f"{raw!r} could have more than {limit} digits")
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ParameterBindingError(f"{raw!r} is not a rational number") from None


def _load_bound(args) -> LieAlgebra:
    alg = load_algebra(args.path)
    values = _parse_param_flags(getattr(args, "param", []))
    if values:
        alg = substitute_params(alg, values)
    return alg


def _emit(payload: dict) -> int:
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# -- validate -------------------------------------------------------------------


def cmd_validate(args) -> int:
    alg = load_algebra(args.path)
    report = validate(alg)
    label = alg.name or args.path
    if args.output == "structured":
        print(json.dumps({
            "name": label,
            "dim": alg.dim,
            "ok": report.ok,
            "violations": [str(v) for v in report.violations],
        }, indent=2))
        return EXIT_OK if report.ok else EXIT_DOMAIN
    if report.ok:
        print(f"{label}: OK (dim {alg.dim}, {len(alg.stored_pairs())} stored brackets)")
        return EXIT_OK
    print(f"{label}: not a Lie algebra ({len(report.violations)} violation(s))")
    for violation in report.violations:
        print(f"  {violation}")
    return EXIT_DOMAIN


# -- classify -------------------------------------------------------------------


def _family_maybe(alg: LieAlgebra, samples: int, seed: int):
    """Symbolic report plus the sampled family view when it applies."""
    if samples > 0 and alg.param_names():
        fam = classify_family(alg, samples=samples, seed=seed)
        return fam.symbolic, fam
    return classify(alg), None


def _classification_payload(report: ClassificationReport, fam: FamilyReport | None) -> dict:
    payload = report.to_dict()
    if fam is not None:
        payload["samples"] = [
            {
                "values": {k: str(v) for k, v in pt.values.items()},
                "verdict": pt.report.verdict.value,
            }
            for pt in fam.samples
        ]
        payload["samples_agree"] = fam.all_agree
    return payload


def cmd_classify(args) -> int:
    alg = _load_bound(args)
    report, fam = _family_maybe(alg, args.samples, args.seed)
    if args.output == "structured":
        return _emit(_classification_payload(report, fam))
    if report.name:
        print(f"name: {report.name}")
    print(f"dim: {report.dim}")
    print(f"generic rank: {report.generic_rank}")
    print(f"index: {report.index}")
    print(f"p0: {report.p0}")
    print(f"p(lambda): {report.profile.p_lambda}")
    if fam is not None:
        for pt in fam.samples:
            print(f"sample {pt.describe_values()}: {pt.report.verdict}")
        if not fam.all_agree:
            print("warning: sampled verdicts disagree with the symbolic verdict")
    print(report.sentence)
    return EXIT_OK


def cmd_index(args) -> int:
    alg = _load_bound(args)
    require_valid(alg)
    rank = generic_rank(build_ax(alg))
    if args.output == "structured":
        return _emit({
            "name": alg.name,
            "dim": alg.dim,
            "generic_rank": rank,
            "index": alg.dim - rank,
        })
    print(f"dim: {alg.dim}")
    print(f"generic rank: {rank}")
    print(f"index: {alg.dim - rank}")
    return EXIT_OK


def cmd_charpoly(args) -> int:
    alg = _load_bound(args)
    report = classify(alg)
    if args.output == "structured":
        return _emit({
            "name": report.name,
            "p0": str(report.p0),
            "p_lambda": str(report.profile.p_lambda),
            "coordinate_degree": report.p0_coordinate_degree,
        })
    print(f"p0: {report.p0}")
    print(f"p(lambda): {report.profile.p_lambda}")
    return EXIT_OK


# -- table ----------------------------------------------------------------------


def _classify_entry(item: corpus.CorpusEntry, samples: int, seed: int):
    """All classification attempts for one corpus entry.

    The primary transcription is used when it validates; when it does not,
    or when its verdict misses the expected one, a bundled variant (if any)
    is classified as well.  The entry counts as matched when any attempt
    reproduces the expected verdict.
    """
    attempts = []  # (label, report, fam)
    failure = None
    try:
        attempts.append((item.name,) + _family_maybe(item.load(), samples, seed))
    except InvalidAlgebra as exc:
        failure = exc.report
    need_variant = item.variant is not None and (
        failure is not None
        or all(rep.verdict.value != item.expected for _, rep, _ in attempts)
    )
    if need_variant:
        valg = item.load_variant()
        attempts.append((item.name + "*",) + _family_maybe(valg, samples, seed))
    matched = any(rep.verdict.value == item.expected for _, rep, _ in attempts)
    return attempts, failure, matched


def cmd_table(args) -> int:
    if args.corpus is not None:
        entries = corpus.manifest_from_dir(args.corpus)
    else:
        entries = corpus.families()
    results = []
    for item in entries:
        attempts, failure, matched = _classify_entry(item, args.samples, args.seed)
        results.append((item, attempts, failure, matched))

    if args.output == "structured":
        payload = {
            "families": [
                {
                    "name": item.name,
                    "expected": item.expected,
                    "matched": matched,
                    "jacobi_failure": str(failure.violations[0]) if failure else None,
                    "note": item.note or None,
                    "attempts": [
                        {"label": label, **_classification_payload(rep, fam)}
                        for label, rep, fam in attempts
                    ],
                }
                for item, attempts, failure, matched in results
            ],
            "matched": sum(1 for *_rest, m in results if m),
            "total": len(results),
            "all_match": all(m for *_rest, m in results),
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK if payload["all_match"] else EXIT_DOMAIN

    if not results:
        print("no corpus entries")
        return EXIT_OK

    width = max(len(label) for _, attempts, *_ in results for label, *_ in attempts or [("?",)])
    width = max(width, max(len(item.name) for item, *_ in results))
    for item, attempts, failure, matched in results:
        if failure is not None:
            print(f"{item.name:<{width}}  as printed: {failure.violations[0]}")
            if item.note:
                for line in textwrap.wrap(f"note: {item.note}", width=76):
                    print(f"{'':<{width}}  {line}")
        for label, rep, fam in attempts:
            status = "ok" if rep.verdict.value == item.expected else "MISMATCH"
            sample_note = ""
            if fam is not None:
                sample_note = (
                    f"  [{len(fam.samples)} samples agree]"
                    if fam.all_agree
                    else "  [samples disagree]"
                )
            print(
                f"{label:<{width}}  dim {rep.dim}  index {rep.index}  "
                f"p0 {str(rep.p0):<10s} {rep.verdict.value:<9s} "
                f"expected {item.expected:<9s} {status}{sample_note}"
            )

    by_verdict: dict[str, list[str]] = {}
    for item, attempts, failure, matched in results:
        if attempts:
            label, rep, _ = attempts[-1]
            by_verdict.setdefault(rep.verdict.value, []).append(label)
    print()
    print("computed types:")
    for verdict in ("jordan", "kronecker", "mixed"):
        if verdict in by_verdict:
            print(f"  {verdict + ':':<11s}{', '.join(by_verdict[verdict])}")

    mismatched = [item.name for item, _, _, m in results if not m]
    matched_count = len(results) - len(mismatched)
    print()
    print(f"{matched_count} of {len(results)} families match the published types")
    if mismatched:
        print(f"mismatches: {', '.join(mismatched)}")
        return EXIT_DOMAIN
    return EXIT_OK


# -- check ----------------------------------------------------------------------


def cmd_check(args) -> int:
    alg = _load_bound(args)
    report = cross_check(alg, trials=args.trials, seed=args.seed)
    agreeing = sum(1 for t in report.trials if t.agrees)
    if args.output == "structured":
        payload = {
            "symbolic": report.symbolic.to_dict(),
            "trials": [
                {
                    "params": {k: str(v) for k, v in t.param_values.items()},
                    "agrees": t.agrees,
                    **t.report.to_dict(),
                }
                for t in report.trials
            ],
            "agreeing": agreeing,
            "ok": report.ok,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK if report.ok else EXIT_DOMAIN
    sym = report.symbolic
    print(f"symbolic: {sym.verdict} (dim {sym.dim}, index {sym.index}, p0: {sym.p0})")
    for number, t in enumerate(report.trials, start=1):
        extra = f", params {format_values(t.param_values)}" if t.param_values else ""
        print(
            f"trial {number}: {t.report.verdict} "
            f"(rank {t.report.rank}, corank {t.report.corank}, "
            f"p0 degree {t.report.p0_degree}{extra}) "
            f"{'agree' if t.agrees else 'DISAGREE'}"
        )
    print(f"agreement: {agreeing}/{len(report.trials)}")
    return EXIT_OK if report.ok else EXIT_DOMAIN
