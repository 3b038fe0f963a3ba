"""Summarize result files into a baseline: medians and quartiles over seeds.

    python3 perfbench/baseline.py perfbench/out/*.json > perfbench/baseline.json

For every workload, each end-to-end metric of the untraced runs, and the
median raw wall times, is given as the median and quartiles over the seeds
(as ``statistics.quantiles(n=4)`` computes them) with the spread
(q3 - q1) / median.  The per-layer metrics of the traced runs likewise.
"""

import json
import statistics
import sys
from collections import defaultdict


def _stats(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def summarize(records: list) -> dict:
    groups = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    seeds = defaultdict(lambda: defaultdict(list))
    env = None
    for r in records:
        group = "per_layer" if r["trace"] else "end_to_end"
        seeds[r["workload"]][group].append(r["seed"])
        values = dict(r["metrics"])
        values.update((k, q["median"]) for k, q in r.get("timings", {}).items()
                      if k not in values)
        for name, value in values.items():
            if value is not None:
                groups[r["workload"]][group][name].append(value)
        env = env or r["environment"]
    out = {"environment": env, "workloads": {}}
    for wl, by_group in sorted(groups.items()):
        out["workloads"][wl] = {
            group: {"seeds": sorted(seeds[wl][group]),
                    "metrics": {k: _stats(v) for k, v in metrics.items()}}
            for group, metrics in by_group.items()}
    return out


def main(paths: list) -> int:
    records = [json.load(open(p)) for p in paths]
    json.dump(summarize(records), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
