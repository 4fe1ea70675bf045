"""Rewrite corpus_golden.json from the current program's answers.

    python3 bench/make_golden.py

The record freezes, per bundled table, the verdict, index, p0 and sampled
verdicts (or the Jacobi failure of a table that is not a Lie algebra).  The
benchmark then holds every later version of the program to it.  Regenerate
only when an answer is meant to change.
"""

import json

import program


def main() -> None:
    program.locate()
    import workloads

    record = {
        label: workloads.classify_table((file, text))
        for label, file, text in workloads.corpus_sources()
    }
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    workloads.GOLDEN.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
