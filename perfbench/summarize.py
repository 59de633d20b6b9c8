"""Fold the result files of several benchmark runs into one summary.

    python3 perfbench/summarize.py [OUT.json]

Reads `.perfbench_work/results/*.json`, the files run.py leaves behind. For
each workload it gives every end-to-end metric's median, quartiles and
spread over the untraced runs. The spread is the distance between the
quartiles as a share of the median. It also gives the per-layer figures,
as the median over the traced runs. It prints the spreads, and with an
argument it writes the whole summary there as JSON; `baseline.json` was
made this way.
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(os.path.dirname(HERE), ".perfbench_work", "results")


def _stats(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def summarize(records: list) -> dict:
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == workload and r["trace"] == 1]
        entry = {"seeds": [r["seed"] for r in runs], "end_to_end": {}, "per_layer": {}}
        for name in runs[0]["metrics"] if runs else ():
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {"unit": runs[0]["metrics"][name]["unit"], **_stats(values)}
        for name in traced[0]["metrics"] if traced else ():
            values = [r["metrics"][name]["value"] for r in traced]
            value = None if None in values else statistics.median(values)
            entry["per_layer"][name] = {"unit": traced[0]["metrics"][name]["unit"], "value": value}
        entry["digests"] = {str(r["seed"]): r["digest"] for r in runs}
        entry["notes"] = {str(r["seed"]): r["notes"] for r in runs if r["notes"]}
        entry["samples"] = [len(r["ops"]) for r in runs]
        out[workload] = entry
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    records = []
    for path in sorted(glob.glob(os.path.join(RESULTS, "*-trace[01].json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        print(f"no result files in {RESULTS}", file=sys.stderr)
        return 1
    summary = {"env": records[-1]["env"], "seconds": records[-1]["seconds"],
               "workloads": summarize(records)}
    for workload, entry in summary["workloads"].items():
        for name, s in entry["end_to_end"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}, spread {spread} "
                  f"over {len(s['values'])} runs")
    if argv:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
