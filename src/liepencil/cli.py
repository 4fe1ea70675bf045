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

Each subcommand returns one payload, the dict that ``--output structured``
prints as JSON, and its exit code.  The text report is rendered from that
same dict by the subcommand's entry in ``RENDER``, so it shows no reading
the JSON lacks.  :func:`main` is the one writer of stdout.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import textwrap
from fractions import Fraction

from . import corpus
from .classify import DEFAULT_SEED, classify, classify_family, format_values, require_valid
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
    # a closed stdout ends the command as SIGPIPE ends other filters, not
    # with exit code 2, which is for bad input; in-process callers of main
    # keep Python's handling
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.func(args)
    except (ParseError, OSError, ParameterBindingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LiePencilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return EXIT_DOMAIN
    if args.output == "structured":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(RENDER[args.command](payload)))
    return code


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


def _strings(values) -> dict[str, str]:
    """Parameter values as the payload holds them, each written as text."""
    return {k: str(v) for k, v in values.items()}


# -- validate -------------------------------------------------------------------


def cmd_validate(args):
    alg = load_algebra(args.path)
    report = validate(alg)
    payload = {
        "name": alg.name or args.path,
        "dim": alg.dim,
        "stored_brackets": len(alg.stored_pairs()),
        "ok": report.ok,
        "violations": [str(v) for v in report.violations],
    }
    return payload, EXIT_OK if report.ok else EXIT_DOMAIN


def _validate_text(p):
    if p["ok"]:
        yield f"{p['name']}: OK (dim {p['dim']}, {p['stored_brackets']} stored brackets)"
        return
    yield f"{p['name']}: not a Lie algebra ({len(p['violations'])} violation(s))"
    for violation in p["violations"]:
        yield f"  {violation}"


# -- classify, index, charpoly --------------------------------------------------


def _classification(alg: LieAlgebra, samples: int, seed: int) -> dict:
    """The report on ``alg``; for a family, with ``samples`` > 0, also the
    verdict at each sampled point and whether they all agree with it."""
    if not (samples > 0 and alg.param_names()):
        return classify(alg).to_dict()
    fam = classify_family(alg, samples=samples, seed=seed)
    return {
        **fam.symbolic.to_dict(),
        "samples": [
            {"values": _strings(pt.values), "verdict": pt.report.verdict.value}
            for pt in fam.samples
        ],
        "samples_agree": fam.all_agree,
    }


def cmd_classify(args):
    return _classification(_load_bound(args), args.samples, args.seed), EXIT_OK


def cmd_index(args):
    alg = _load_bound(args)
    require_valid(alg)
    rank = generic_rank(build_ax(alg))
    payload = {"name": alg.name, "dim": alg.dim, "generic_rank": rank, "index": alg.dim - rank}
    return payload, EXIT_OK


def cmd_charpoly(args):
    report = classify(_load_bound(args))
    return {
        "name": report.name,
        "p0": str(report.p0),
        "p_lambda": str(report.profile.p_lambda),
        "coordinate_degree": report.p0_coordinate_degree,
    }, EXIT_OK


# The readings index, charpoly and classify print, in this order, each one
# that the payload holds: (payload key, label).
_READINGS = (
    ("dim", "dim"),
    ("generic_rank", "generic rank"),
    ("index", "index"),
    ("p0", "p0"),
    ("p_lambda", "p(lambda)"),
)


def _readings(p):
    for key, label in _READINGS:
        if key in p:
            yield f"{label}: {p[key]}"


def _classify_text(p):
    if p["name"]:
        yield f"name: {p['name']}"
    yield from _readings(p)
    for sample in p.get("samples", ()):
        yield f"sample {format_values(sample['values'])}: {sample['verdict']}"
    if not p.get("samples_agree", True):
        yield "warning: sampled verdicts disagree with the symbolic verdict"
    yield p["sentence"]


# -- table ----------------------------------------------------------------------


def _attempt(label: str, alg: LieAlgebra, samples: int, seed: int) -> dict:
    """The classification of ``alg`` under ``label``, or, when it is no Lie
    algebra, the first violation of the Jacobi identity."""
    try:
        return {"label": label, **_classification(alg, samples, seed)}
    except InvalidAlgebra as exc:
        return {"label": label, "jacobi_failure": str(exc.report.violations[0])}


def _table_row(item: corpus.CorpusEntry, samples: int, seed: int) -> dict:
    """All classification attempts for one corpus entry.

    The primary transcription is used when it validates; when it does not,
    or when its verdict misses the expected one, a bundled variant (if any)
    is classified as well.  The entry counts as matched when any attempt
    reproduces the expected verdict.  The primary's Jacobi failure is the
    row's own; a variant's is one of its attempts.
    """
    primary = _attempt(item.name, item.load(), samples, seed)
    attempts = [] if "jacobi_failure" in primary else [primary]
    if item.variant is not None and not any(a["verdict"] == item.expected for a in attempts):
        attempts.append(_attempt(item.name + "*", item.load_variant(), samples, seed))
    return {
        "name": item.name,
        "expected": item.expected,
        "matched": any(a.get("verdict") == item.expected for a in attempts),
        "jacobi_failure": primary.get("jacobi_failure"),
        "note": item.note or None,
        "attempts": attempts,
    }


def cmd_table(args):
    if args.corpus is not None:
        entries = corpus.manifest_from_dir(args.corpus)
    else:
        entries = corpus.families()
    rows = [_table_row(item, args.samples, args.seed) for item in entries]
    matched = sum(row["matched"] for row in rows)
    payload = {
        "families": rows,
        "matched": matched,
        "total": len(rows),
        "all_match": matched == len(rows),
    }
    return payload, EXIT_OK if payload["all_match"] else EXIT_DOMAIN


def _table_text(p):
    rows = p["families"]
    if not rows:
        yield "no corpus entries"
        return
    labels = [row["name"] for row in rows] + [a["label"] for row in rows for a in row["attempts"]]
    width = max(map(len, labels))
    for row in rows:
        if row["jacobi_failure"] is not None:
            yield f"{row['name']:<{width}}  as printed: {row['jacobi_failure']}"
            if row["note"]:
                for line in textwrap.wrap(f"note: {row['note']}", width=76):
                    yield f"{'':<{width}}  {line}"
        for a in row["attempts"]:
            if "jacobi_failure" in a:
                yield f"{a['label']:<{width}}  as printed: {a['jacobi_failure']}"
                continue
            status = "ok" if a["verdict"] == row["expected"] else "MISMATCH"
            sample_note = ""
            if "samples" in a:
                sample_note = (
                    f"  [{len(a['samples'])} samples agree]"
                    if a["samples_agree"]
                    else "  [samples disagree]"
                )
            yield (
                f"{a['label']:<{width}}  dim {a['dim']}  index {a['index']}  "
                f"p0 {a['p0']:<10s} {a['verdict']:<9s} "
                f"expected {row['expected']:<9s} {status}{sample_note}"
            )

    by_verdict: dict[str, list[str]] = {}
    for row in rows:
        classified = [a for a in row["attempts"] if "verdict" in a]
        if classified:
            last = classified[-1]
            by_verdict.setdefault(last["verdict"], []).append(last["label"])
    yield ""
    yield "computed types:"
    for verdict in ("jordan", "kronecker", "mixed"):
        if verdict in by_verdict:
            yield f"  {verdict + ':':<11s}{', '.join(by_verdict[verdict])}"
    yield ""
    yield f"{p['matched']} of {p['total']} families match the published types"
    mismatched = [row["name"] for row in rows if not row["matched"]]
    if mismatched:
        yield f"mismatches: {', '.join(mismatched)}"


# -- check ----------------------------------------------------------------------


def cmd_check(args):
    report = cross_check(_load_bound(args), trials=args.trials, seed=args.seed)
    payload = {
        "symbolic": report.symbolic.to_dict(),
        "trials": [
            {"params": _strings(t.param_values), "agrees": t.agrees, **t.report.to_dict()}
            for t in report.trials
        ],
        "agreeing": sum(t.agrees for t in report.trials),
        "ok": report.ok,
    }
    return payload, EXIT_OK if report.ok else EXIT_DOMAIN


def _check_text(p):
    sym = p["symbolic"]
    yield f"symbolic: {sym['verdict']} (dim {sym['dim']}, index {sym['index']}, p0: {sym['p0']})"
    for number, t in enumerate(p["trials"], start=1):
        extra = f", params {format_values(t['params'])}" if t["params"] else ""
        yield (
            f"trial {number}: {t['verdict']} "
            f"(rank {t['rank']}, corank {t['corank']}, "
            f"p0 degree {t['p0_degree']}{extra}) "
            f"{'agree' if t['agrees'] else 'DISAGREE'}"
        )
    yield f"agreement: {p['agreeing']}/{len(p['trials'])}"


# The text report of each subcommand, a function of its payload alone that
# yields the lines.
RENDER = {
    "validate": _validate_text,
    "classify": _classify_text,
    "index": _readings,
    "charpoly": _readings,
    "table": _table_text,
    "check": _check_text,
}
