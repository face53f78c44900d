#!/usr/bin/env python3
"""Summarise or compare sets of benchmark results.

    python3 perfbench/compare.py SET            # spread of each metric
    python3 perfbench/compare.py SET --json     # the summary as JSON
    python3 perfbench/compare.py BASE CHANGE    # medians against the bounds

A set is a directory of result records written by ``run.py`` (by default
they go to ``.perfbench/results``) or a summary written with ``--json``,
such as ``perfbench/baseline.json``.  Records whose environments differ
(core count, CPU, Python, NumPy, BLAS and its thread variables) are never
compared: the command refuses with exit code 2.  A comparison exits 1 when
a metric's median is worse than the base's by more than its bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class MixedEnvironments(ValueError):
    """Records from different environments were put in one set."""


def load_bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(records: list[dict]) -> dict:
    """Per workload, trace mode and metric: the values, median and quartiles."""
    environments = {json.dumps(r["environment"], sort_keys=True) for r in records}
    if len(environments) != 1:
        raise MixedEnvironments(f"{len(environments)} different environments in one set")
    values = defaultdict(list)
    seeds = defaultdict(list)
    failed = defaultdict(int)
    for r in records:
        key = f"{r['workload']}/trace{r['trace']}"
        seeds[key].append(r["seed"])
        failed[key] += r["failed"]
        for name, metric in r["metrics"].items():
            values[(key, name)].append(metric["value"])
    summary = defaultdict(dict)
    for (key, name), vals in sorted(values.items()):
        q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        summary[key][name] = {"n": len(vals), "median": median, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / median if median else 0.0,
                              "values": vals}
    return {"environment": records[0]["environment"], "seeds": dict(seeds),
            "failed": dict(failed), "metrics": dict(summary)}


def load_set(path: Path) -> dict:
    if path.is_dir():
        records = [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
        if not records:
            raise FileNotFoundError(f"no result records in {path}")
        return summarize(records)
    return json.loads(path.read_text())


def show(summary: dict, bounds: dict) -> None:
    for key, count in summary["failed"].items():
        print(f"{key:<36} failed calls {count}")
    for key, metrics in summary["metrics"].items():
        for name, m in metrics.items():
            bound = bounds.get(name, {}).get("bound")
            limit = f"  bound {bound:.2f}" if bound is not None else ""
            print(f"{key:<36} {name:<26} n={m['n']:<3} median {m['median']:<12.6g} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {m['spread']:.4f}{limit}")


def compare(base: dict, change: dict, bounds: dict) -> int:
    if base["environment"] != change["environment"]:
        print("refusing to compare: environments differ", file=sys.stderr)
        for field in sorted(set(base["environment"]) | set(change["environment"])):
            a, b = base["environment"].get(field), change["environment"].get(field)
            if a != b:
                print(f"  {field}: {a!r} != {b!r}", file=sys.stderr)
        return 2
    worse = 0
    for key, count in change["failed"].items():
        if count > base["failed"].get(key, 0):
            print(f"{key:<36} failed calls {base['failed'].get(key, 0)} -> {count} WORSE")
            worse += 1
    for key, metrics in base["metrics"].items():
        for name, m in metrics.items():
            spec = bounds.get(name)
            other = change["metrics"].get(key, {}).get(name)
            if other is None or spec is None or "bound" not in spec or not m["median"]:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            change_share = sign * (other["median"] - m["median"]) / m["median"]
            verdict = "WORSE" if change_share > spec["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"{key:<36} {name:<14} {m['median']:<12.6g} -> {other['median']:<12.6g} "
                  f"worse by {change_share:+.2%} (bound {spec['bound']:.0%}) {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", type=Path, help="one or two result sets")
    parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one set to summarise or two to compare")
    bounds = load_bounds()
    try:
        summaries = [load_set(p) for p in args.sets]
    except MixedEnvironments as err:
        print(f"refusing to summarise: {err}", file=sys.stderr)
        return 2
    if len(summaries) == 2:
        return compare(*summaries, bounds)
    if args.json:
        print(json.dumps(summaries[0], indent=1, sort_keys=True))
    else:
        show(summaries[0], bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
