"""Summarize result records written by ``run.py`` into one JSON document.

Usage: ``python3 perfbench/summarize.py perfbench/_work/results/*.json > summary.json``

For each workload it gives, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile distance
over the median) and the sample count over the timed records; and, from the
traced records, the median of each per-layer metric.  The environment of the
first record is kept, with the load averages of all of them.
"""

import json
import statistics
import sys


def summarize(records):
    out = {"environment": None, "workloads": {}}
    for rec in records:
        if out["environment"] is None:
            out["environment"] = {k: v for k, v in rec["environment"].items()
                                  if not k.startswith("loadavg")}
            out["environment"]["loadavg_1min"] = []
        out["environment"]["loadavg_1min"] += [rec["environment"]["loadavg_start"][0],
                                               rec["environment"]["loadavg_end"][0]]
        entry = out["workloads"].setdefault(rec["workload"], {"timed": {}, "traced": {}})
        kind = "traced" if rec["trace"] else "timed"
        entry.setdefault(f"{kind}_seeds", []).append(rec["seed"])
        entry.setdefault(f"{kind}_failed", 0)
        entry[f"{kind}_failed"] += rec["failed"]
        for name, metric in rec["metrics"].items():
            slot = entry[kind].setdefault(name, {"unit": metric["unit"], "values": []})
            slot["values"].append(metric["value"])
    for entry in out["workloads"].values():
        for name, slot in entry["timed"].items():
            values = slot.pop("values")
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            slot.update(median=median, q1=q1, q3=q3, n=len(values),
                        spread=(q3 - q1) / median if median else 0.0)
        for name, slot in entry["traced"].items():
            values = slot.pop("values")
            slot.update(median=statistics.median(values), n=len(values))
    return out


def main(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    records.sort(key=lambda r: (r["workload"], r["trace"], r["seed"]))
    json.dump(summarize(records), sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
