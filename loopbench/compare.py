"""Compare two sets of benchmark results and flag differing environments.

Usage, from the root of a checkout:

    python3 loopbench/compare.py --base a/*.json --new b/*.json

Each file is a document written by `run.py --out`.  Results are grouped
by workload and trace mode; for every metric the medians of the two
sets and the change between them are printed.  Whether a change is a
regression is left to the reader and the bounds in BENCHMARK.json.

The environment blocks of all files are compared key by key.  Any key
other than the commit, the source digest and the seed that differs is
printed as a WARNING, because a 3.5x swing between setups (gmpy2,
kernel backend, CPU) dwarfs most changes.  A comparison whose two sides
ran different seeds is flagged too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# keys expected to differ between the two sides of a comparison
VARYING = {"commit", "src_sha256", "seed"}


def _load(paths):
    groups = defaultdict(list)
    for path in paths:
        doc = json.loads(Path(path).read_text())
        groups[(doc["workload"], doc["trace"])].append(doc)
    return groups


def environment_warnings(docs):
    warnings = []
    keys = sorted({k for d in docs for k in d["env"]})
    for key in keys:
        if key in VARYING:
            continue
        seen = sorted({json.dumps(d["env"].get(key)) for d in docs})
        if len(seen) > 1:
            warnings.append(f"WARNING environment differs in {key}: "
                            + ", ".join(seen))
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = _load(args.base), _load(args.new)

    all_docs = [d for g in (base, new) for docs in g.values() for d in docs]
    for line in environment_warnings(all_docs):
        print(line)
    for key in sorted(set(base) | set(new)):
        if key not in base or key not in new:
            print(f"{key[0]} trace {key[1]}: only on one side, skipped")
            continue
        b_docs, n_docs = base[key], new[key]
        b_seeds = sorted(d["seed"] for d in b_docs)
        n_seeds = sorted(d["seed"] for d in n_docs)
        print(f"{key[0]} trace {key[1]}: {len(b_docs)} base runs, "
              f"{len(n_docs)} new runs")
        if b_seeds != n_seeds:
            print(f"  WARNING seeds differ: base {b_seeds}, new {n_seeds}")
        for name, unit in units.items():
            b_vals = [d["result"]["metrics"][name]["value"] for d in b_docs
                      if name in d["result"]["metrics"]]
            n_vals = [d["result"]["metrics"][name]["value"] for d in n_docs
                      if name in d["result"]["metrics"]]
            if not b_vals or not n_vals:
                continue
            b_med, n_med = statistics.median(b_vals), statistics.median(n_vals)
            change = f"{(n_med - b_med) / b_med:+.1%}" if b_med else "n/a"
            print(f"  {name}: base {b_med:.6g}, new {n_med:.6g} {unit}, "
                  f"change {change}")
        failed = sum(d["result"]["failed"] for d in b_docs + n_docs)
        if failed or not all(d["result"]["correct"] for d in b_docs + n_docs):
            print(f"  WARNING {failed} failed runs or incorrect results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
