#!/usr/bin/env python3
"""Compare the behaviour digests of two benchmark runs.

Each `python3 bench/run.py ...` run prints one `digest dN` line per trained
dataset: its dataset seed, the sha256 of `steps.jsonl` and of
`best_roadmap.json`, and the best CV and test scores, followed by that
dataset's timings. This script compares those fields, not the timings, for
every dataset that both runs trained:

    python3 scripts/compare_digests.py parent.txt change.txt

It prints how many datasets matched and each mismatch, and exits 1 when
there is a mismatch or no dataset in common.
"""

import argparse
import sys

_FIELDS = ("dataset_seed", "steps_sha256", "roadmap_sha256", "best_cv_score", "test_score")


def read_digests(path) -> dict:
    """{'dN': {field: value}} from the `digest dN` lines of one run's output."""
    digests = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            words = line.split()
            if len(words) < 2 or words[0] != "digest":
                continue
            pairs = dict(w.split("=", 1) for w in words[2:] if "=" in w)
            digests[words[1]] = {k: pairs.get(k) for k in _FIELDS}
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="output of the first run")
    parser.add_argument("b", help="output of the second run")
    args = parser.parse_args(argv)
    a, b = read_digests(args.a), read_digests(args.b)
    both = sorted(set(a) & set(b), key=lambda d: int(d[1:]))
    mismatches = [d for d in both if a[d] != b[d]]
    for d in mismatches:
        for k in _FIELDS:
            if a[d][k] != b[d][k]:
                print(f"mismatch {d} {k}: {a[d][k]} != {b[d][k]}")
    print(f"{len(both) - len(mismatches)} of {len(both)} datasets trained by both match")
    return 1 if mismatches or not both else 0


if __name__ == "__main__":
    sys.exit(main())
