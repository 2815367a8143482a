"""Summarize run records written by ``bench/run.py`` into ``.bench_out/``.

    python3 bench/collect.py [--held-out SEED ...] [--write FILE] [RECORD_DIR]

For each workload it prints, per end-to-end metric over the untraced runs,
the median, the quartiles and their distance as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  Runs on a ``--held-out`` seed are summarized apart, so
a claim can be checked on a seed not used while the change was written.
Traced runs are summarized by the median of each per-layer metric.
``--write`` stores the summary, the machine facts and every run's values
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"runs": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def summarize(records: list[dict], held_out: set[int], spec: dict) -> dict:
    groups = defaultdict(list)
    for r in records:
        kind = "traced" if r["trace"] else (
            "held_out" if r["seed"] in held_out else "runs")
        groups[(r["workload"], kind)].append(r)
    summary = {}
    for (workload, kind), runs in sorted(groups.items()):
        runs.sort(key=lambda r: r["seed"])
        names = [m["name"] for m in spec["per_layer" if kind == "traced"
                                        else "end_to_end"]]
        entry = {"seeds": [r["seed"] for r in runs],
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "metrics": {n: spread([r["result"]["metrics"][n]["value"]
                                        for r in runs]) for n in names}}
        if kind != "traced":
            entry["per_run_samples"] = {
                str(r["seed"]): {"scaled": r["samples"], "unscaled": r["raw_samples"]}
                for r in runs}
        summary.setdefault(workload, {})[kind] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="?", default=str(ROOT / ".bench_out"))
    parser.add_argument("--held-out", type=int, nargs="*", default=[])
    parser.add_argument("--write", help="store the summary as JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [json.loads(p.read_text())
               for p in sorted(Path(args.records).glob("*.json"))]
    if not records:
        print(f"collect: no records in {args.records}", file=sys.stderr)
        return 1
    summary = summarize(records, set(args.held_out), spec)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload, kinds in summary.items():
        for kind, entry in kinds.items():
            print(f"{workload} [{kind}] seeds={entry['seeds']} "
                  f"failed={entry['failed']}/{entry['attempted']}")
            for name, s in entry["metrics"].items():
                line = (f"  {name:<40} median {s['median']:<12.6g} "
                        f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                        f"spread {s['spread']:.3f}")
                if name in bounds and kind != "traced":
                    flag = ("" if s["spread"] < bounds[name] / 3 else
                            "  above a third of the bound"
                            if s["spread"] <= bounds[name] else "  ABOVE BOUND")
                    line += f" / bound {bounds[name]}{flag}"
                print(line)

    if args.write:
        machine = records[-1]["machine"]
        Path(args.write).write_text(json.dumps(
            {"machine": machine, "seconds": records[-1]["seconds"],
             "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
