"""Write a before/after benchmark record from loopbench result documents.

Usage, from the root of a checkout:

    python3 benchmarks/bench_record.py --base a/*.json --new b/*.json \
        --out BENCH_<n>.json

Each input is a document written by `loopbench/run.py --out`, on the
parent commit (--base) or the change (--new).  Documents are grouped by
workload with loopbench/compare.py's loader.  For each workload and
each end-to-end metric of BENCHMARK.json the record holds both sides'
medians and quartiles from the untraced runs, and the pairs: a base and
a new run on the same benchmark seed, won by the side that is better by
the metric's direction (ties count for neither).  Traced runs
(`--trace 1`) are left out of those, because their timings carry the
tracing overhead; where both sides have them, the workload's "traced"
block holds each side's median of every per-layer metric, which shows
the layer a change moved.  The environment block is the one
the runs share; keys in which they differ are listed as warnings, as
compare.py prints them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "loopbench"))

from compare import VARYING, _load, environment_warnings  # noqa: E402


def _summary(values):
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": len(values)}


def _by_seed(docs, name):
    return {d["seed"]: d["result"]["metrics"][name]["value"] for d in docs
            if name in d["result"]["metrics"]}


def record(base_paths, new_paths) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = _load(base_paths), _load(new_paths)
    docs = [d for g in (base, new) for ds in g.values() for d in ds]
    env = {k: v for k, v in docs[0]["env"].items() if k not in VARYING}
    out = {"environment": env,
           "environment_warnings": environment_warnings(docs),
           # a checkout without .git records its commit as "unknown"; the
           # digest of the loopinv sources names the code either way
           **{f"{side}_{key}": sorted({d["env"][key] for ds in g.values() for d in ds})
              for side, g in (("base", base), ("new", new))
              for key in ("commit", "src_sha256")},
           "workloads": {}}
    for workload, trace in sorted(set(base) & set(new)):
        if trace:
            continue
        b_docs, n_docs = base[(workload, 0)], new[(workload, 0)]
        rows = {}
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            b, n = _by_seed(b_docs, name), _by_seed(n_docs, name)
            if not b or not n:
                continue
            seeds = sorted(set(b) & set(n))
            wins = sum(1 for s in seeds if (n[s] < b[s] if lower else n[s] > b[s]))
            b_sum, n_sum = _summary(list(b.values())), _summary(list(n.values()))
            rows[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "base": b_sum, "new": n_sum,
                "change": (n_sum["median"] - b_sum["median"]) / b_sum["median"],
                "pairs": len(seeds), "wins": wins}
        out["workloads"][workload] = {"metrics": rows, **{
            side: {"failed": sum(d["result"]["failed"] for d in ds),
                   "attempted": sum(d["result"]["attempted"] for d in ds)}
            for side, ds in (("base_runs", b_docs), ("new_runs", n_docs))}}
    for workload, trace in sorted(set(base) & set(new)):
        if not trace or workload not in out["workloads"]:
            continue
        traced = {}
        for metric in spec["per_layer"]:
            name = metric["name"]
            b, n = ([d["result"]["metrics"][name]["value"] for d in g[(workload, 1)]
                     if name in d["result"]["metrics"]] for g in (base, new))
            if b and n:
                traced[name] = {"unit": metric["unit"], "base": statistics.median(b),
                                "new": statistics.median(n)}
        out["workloads"][workload]["traced"] = traced
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--out", required=True, metavar="PATH")
    args = parser.parse_args(argv)
    doc = record(args.base, args.new)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for line in doc["environment_warnings"]:
        print(line)
    for workload, row in doc["workloads"].items():
        for name, m in row["metrics"].items():
            print(f"{workload} {name}: base {m['base']['median']:.6g} "
                  f"({m['base']['q1']:.6g}-{m['base']['q3']:.6g}), new "
                  f"{m['new']['median']:.6g} {m['unit']}, change "
                  f"{m['change']:+.1%}, new better in {m['wins']} of "
                  f"{m['pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
