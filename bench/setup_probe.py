"""Time one set-up in a fresh interpreter and print it in seconds.

Set-up is importing ``liepencil.cli`` plus building the workload's inputs.

    python3 bench/setup_probe.py --workload corpus --seed 1
"""

import argparse
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    started = time.perf_counter()
    import program

    program.locate()
    import liepencil.cli  # noqa: F401
    import workloads

    items = workloads.build(args.workload, args.seed)
    elapsed = time.perf_counter() - started
    print(f"{elapsed!r} {len(items)}")


if __name__ == "__main__":
    main()
