"""liepencil benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

A single caller runs whole passes over the workload's items, one call at a
time, until ``--seconds`` have gone by (at least three passes).  Every
output is checked against its known answer.  With ``--trace 0`` a set-up
probe and three CLI probes, each a fresh interpreter, follow every pass;
every timing is scaled to a reference machine speed (see ``reference.py``)
and the last stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, traced outputs must
equal untraced ones, and the JSON carries the per-layer metrics plus the
tracing overhead, their seconds scaled like the end-to-end ones.  Spans of
the first traced pass go to ``.bench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext

import program
import reference

MIN_PASSES = 3
# stop starting passes past this point so a run ends well within 180 s
HARD_LIMIT_S = 120.0
CLI_PROBES_PER_PASS = 3
CLI_EXPECTED = "G is of Kronecker type."

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cli_s": "s",
}

# Per-layer metrics, per traced pass.  "<name>.s" is the self time of the
# spans of that name; the two oracle.pencil_type times are whole calls.  All
# seconds are scaled to the reference speed item by item.
TIMES = (
    "parser.parse_text",
    "model.validate",
    "model.substitute_params",
    "model.build_ax",
    "pencil.generic_rank",
    "pencil.pfaffian",
    "pencil.pencil_profile",
    "poly.poly_gcd",
    "poly.div_exact",
    "classify.classify",
    "ratmat.rank",
    "ratmat.kernel",
    "ratmat.mat_vec",
    "unipoly.pencil_det",
    "unipoly.rational_roots",
)
CALLS = (
    "model.validate",
    "poly.poly_gcd",
    "poly.div_exact",
    "classify.classify",
    "ratmat.rank",
    "ratmat.mat_vec",
    "ratmat.span_add",
    "unipoly.gcd_poly",
)
COUNTERS = ("model.validate.violations", "pencil.subsets", "poly.p0_terms")
PER_LAYER = {
    **{f"{name}.s": "s" for name in TIMES},
    **{f"{name}.calls": "count" for name in CALLS},
    **{name: "count" for name in COUNTERS},
    "poly.poly_gcd.useful_frac": "ratio",
    "ratmat.span_add.useful_frac": "ratio",
    "oracle.pencil_type.minors_s": "s",
    "oracle.pencil_type.deflation_s": "s",
    "oracle.deflation_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def run_pass(items, tracer=None):
    """Call every item once, with a reference sample before each item and
    after the last.

    Returns (seconds per item, reference samples, outputs, traced seconds):
    with a tracer, the last holds for each item the seconds that item added
    to ``tracer.seconds``, by name; without one it is empty.
    """
    times, refs, outputs, traced = [], [], [], []
    for item in items:
        refs.append(reference.sample())
        seconds_before = Counter(tracer.seconds) if tracer is not None else None
        with tracer.span(f"item:{item.name}") if tracer is not None else nullcontext():
            started = time.perf_counter()
            try:
                output = item.run()
            except Exception:  # a failing item is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                output = {"error": traceback.format_exc(limit=1)}
            times.append(time.perf_counter() - started)
        if tracer is not None:
            traced.append(tracer.seconds - seconds_before)
        outputs.append(output)
    refs.append(reference.sample())
    return times, refs, outputs, traced


def scale(seconds: float, before: float, after: float) -> float:
    """A timing divided by the machine's slowdown around it.

    The slowdown is the mean of the reference samples taken just before and
    just after, over ``reference.NOMINAL_S``.
    """
    return seconds * 2 * reference.NOMINAL_S / (before + after)


def scale_pass(times: list[float], refs: list[float]) -> list[float]:
    """Item timings of one pass, each scaled by the samples around it."""
    return [scale(t, before, after) for t, before, after in zip(times, refs, refs[1:])]


def scale_traced(traced: list[Counter], refs: list[float]) -> Counter:
    """Traced seconds of one pass by name, each item's scaled by the samples
    around that item."""
    total: Counter = Counter()
    for seconds, before, after in zip(traced, refs, refs[1:]):
        for name, value in seconds.items():
            total[name] += scale(value, before, after)
    return total


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer, seconds: Counter, passes: int, plain: list[float], traced: list[float]
) -> dict:
    """Per-layer figures per traced pass; ``seconds`` are the scaled traced
    seconds of all traced passes, the rest comes from the tracer."""
    out = {}
    for name in TIMES:
        out[f"{name}.s"] = seconds[name] / passes
    for name in CALLS:
        out[f"{name}.calls"] = tracer.calls[name] / passes
    for name in COUNTERS:
        out[name] = tracer.counters[name] / passes
    out["poly.poly_gcd.useful_frac"] = _ratio(
        tracer.counters["poly.poly_gcd.useful"], tracer.calls["poly.poly_gcd"]
    )
    out["ratmat.span_add.useful_frac"] = _ratio(
        tracer.counters["ratmat.span_add.useful"], tracer.calls["ratmat.span_add"]
    )
    for method in ("minors", "deflation"):
        out[f"oracle.pencil_type.{method}_s"] = seconds[f"oracle.pencil_type.{method}_s"] / passes
    out["oracle.deflation_frac"] = _ratio(
        tracer.counters["oracle.pencil_type.deflation"], tracer.calls["oracle.pencil_type"]
    )
    base = statistics.median(plain)
    out["trace.overhead_s"] = statistics.median(traced) - base
    out["trace.overhead_frac"] = out["trace.overhead_s"] / base
    return out


def end_to_end_metrics(pass_times: list[list[float]]) -> dict:
    """Medians over passes, so that a minority of passes run while the
    machine is unusually fast or slow does not move the figures.

    Percentiles are taken over the items, each timed by its median across
    passes, so that with a fixed item set they do not jump between items
    as the number of passes changes.
    """
    per_item = [statistics.median(column) for column in zip(*pass_times)]
    deciles = statistics.quantiles(per_item, n=10, method="inclusive")
    return {
        "items_per_s": statistics.median(len(per_item) / sum(t) for t in pass_times),
        "item_p50_ms": deciles[4] * 1000.0,
        "item_p90_ms": deciles[8] * 1000.0,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(program.SRC)
    return env


def setup_probe(workload: str, seed: int, expected_items: int):
    """Seconds for one fresh-interpreter set-up, or None if it went wrong."""
    probe = program.ROOT / "bench" / "setup_probe.py"
    done = subprocess.run(
        [sys.executable, str(probe), "--workload", workload, "--seed", str(seed)],
        cwd=program.ROOT, env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    fields = done.stdout.split()
    if done.returncode != 0 or len(fields) != 2 or int(fields[1]) != expected_items:
        print(f"bench: set-up probe failed: {done.stdout!r}", file=sys.stderr)
        sys.stderr.write(done.stderr)
        return None
    return float(fields[0])


def cli_probe():
    """Wall seconds of a fresh `python -m liepencil classify L7a`, or None."""
    table = program.SRC / "liepencil" / "corpus" / "L7a.lie"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "liepencil", "classify", str(table)],
        cwd=program.ROOT, env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - started
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or lines[-1] != CLI_EXPECTED:
        print(f"bench: CLI probe failed: {done.stdout!r}", file=sys.stderr)
        sys.stderr.write(done.stderr)
        return None
    return elapsed


def probe(function, *args):
    """(raw, scaled) seconds of one probe, or None if it failed."""
    before = reference.sample()
    seconds = function(*args)
    after = reference.sample()
    return None if seconds is None else (seconds, scale(seconds, before, after))


def _median_of_good(values, which: int) -> float:
    good = [v[which] for v in values if v is not None]
    return statistics.median(good) if good else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "ladder", "blocks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program.locate()
    import tracing
    import workloads

    if hasattr(os, "sched_setaffinity"):
        # one CPU for the timed work, the reference samples and the probes
        # (children inherit it), so the samples see the CPU the work ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    items = workloads.build(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    attempted = failed = 0
    first_outputs = None  # of the first untraced pass
    plain_times: list[list[float]] = []
    traced_times: list[float] = []  # scaled seconds per traced pass
    layer_seconds: Counter = Counter()  # scaled traced seconds, all traced passes
    scaled_times: list[list[float]] = []
    setups: list = []  # (raw, scaled) seconds, or None for a failed probe
    clis: list = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(traced_times) < len(plain_times)
        if traced:
            tracer.install()
            try:
                times, refs, outputs, traced_seconds = run_pass(items, tracer)
            finally:
                tracer.remove()
            tracer.keep_spans = False
            traced_times.append(sum(scale_pass(times, refs)))
            layer_seconds += scale_traced(traced_seconds, refs)
        else:
            times, refs, outputs, _ = run_pass(items)
            plain_times.append(times)
            scaled_times.append(scale_pass(times, refs))
        if first_outputs is None:
            first_outputs = outputs
        for item, output, first in zip(items, outputs, first_outputs):
            attempted += 1
            if not item.check(output) or output != first:
                failed += 1
                print(f"bench: wrong output for {item.name}: {output!r}", file=sys.stderr)
        if tracer is None:
            # probes sit between passes so they see the same machine as the passes
            setups.append(probe(setup_probe, args.workload, args.seed, len(items)))
            clis.extend(probe(cli_probe) for _ in range(CLI_PROBES_PER_PASS))
        elapsed = time.perf_counter() - started
        enough = len(plain_times) >= (1 if tracer else MIN_PASSES) and (
            tracer is None or traced_times
        )
        if (elapsed >= args.seconds and enough) or elapsed + sum(times) > HARD_LIMIT_S:
            break

    if tracer is not None:
        metrics = layer_metrics(
            tracer, layer_seconds, len(traced_times), [sum(t) for t in scaled_times], traced_times
        )
        units = PER_LAYER
        out_dir = program.ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        attempted += len(setups) + len(clis)
        failed += sum(v is None for v in setups + clis)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # index 1 of a probe result is the scaled time, index 0 the raw one
        metrics = {
            **end_to_end_metrics(scaled_times),
            "setup_s": _median_of_good(setups, 1),
            "cli_s": _median_of_good(clis, 1),
            "peak_rss_mib": rss,
        }
        raw = {
            **end_to_end_metrics(plain_times),
            "setup_s": _median_of_good(setups, 0),
            "cli_s": _median_of_good(clis, 0),
            "peak_rss_mib": rss,
        }
        for name, unit in END_TO_END.items():
            print(f"{name + ' (raw)':32s} {raw[name]:14.6g} {unit}")
        units = END_TO_END

    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
