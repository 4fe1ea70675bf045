"""Run every workload on ten seeds, twice, and write the figures to a JSON file.

    python3 bench/baseline.py

The first set runs every workload on seeds 1..10, the second set does the
same again once the first has finished, so the two sets see the machine at
different times.  Each end-to-end metric gets, per set, its median,
quartiles and spread (quartile distance over the median, as
``statistics.quantiles(n=4)`` gives them), plus the gap between the two
sets' medians as a share of the first.  One traced run per workload (seed
1) follows, its per-layer figures stored as measured.  The file also
records the git commit, Python version and CPU count, and goes to
``bench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "baseline.json"
WORKLOADS = ("corpus", "ladder", "blocks")
SEEDS = list(range(1, 11))
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    if done.returncode != 0 or not report["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{done.stderr}")
    return report


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]

    # values[workload][metric] holds one list of values per set
    values: dict[str, dict[str, list[list[float]]]] = {w: {} for w in WORKLOADS}
    for set_index in range(SETS):
        for workload in WORKLOADS:
            for seed in SEEDS:
                report = run_once(workload, seed, seconds, trace=0)
                for name, value in report["metrics"].items():
                    sets = values[workload].setdefault(name, [[] for _ in range(SETS)])
                    sets[set_index].append(value["value"])
                print(set_index + 1, workload, seed,
                      {k: round(v["value"], 4) for k, v in report["metrics"].items()},
                      flush=True)

    result = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        end_to_end = {}
        for name, sets in values[workload].items():
            summaries = [summary(v) for v in sets]
            first, second = summaries[0]["median"], summaries[-1]["median"]
            end_to_end[name] = {"sets": summaries, "median_gap": (second - first) / first}
        traced = run_once(workload, 1, seconds, trace=1)
        result["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    OUT.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
