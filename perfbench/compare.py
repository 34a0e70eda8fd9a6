"""Compare two sets of benchmark runs, workload by workload, metric by metric.

    python3 perfbench/compare.py BASE HEAD [--benchmark BENCHMARK.json]

BASE and HEAD are each a directory of captured ``run.py`` standard output,
one file per run (or a list of such files separated by commas).  The last
line of each file is the result object and the line before it names the
workload and seed.  Runs of the two sides with the same workload and seed
form a pair; unmatched runs still count towards medians and quartiles.

For every workload x metric it prints each side's median and quartiles,
how many pairs the head side won (ties count for neither), and a verdict:

* ``better``       the head side won at least 9 in 10 pairs and its median
                   beats the base median by more than the base's own
                   interquartile distance;
* ``worse``        the head median is worse than the base median by more
                   than the metric's bound (a share of the base median);
* ``unresolved``   the base runs spread wider than the bound, so a change
                   within it cannot be told from noise (unless every head
                   run beats every base run, which reads ``better``);
* ``within bound`` otherwise;
* ``no bound``     a per-layer metric that did not read ``better``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import quartiles, relative_spread  # noqa: E402


def read_runs(spec: str) -> "list[dict]":
    """``[{"workload", "seed", "correct", "metrics"}]`` from captured outputs."""
    paths: "list[Path]" = []
    for part in spec.split(","):
        path = Path(part)
        paths.extend(sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path])
    runs = []
    for path in paths:
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        if len(lines) < 2:
            continue
        try:
            header, result = json.loads(lines[-2]), json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        runs.append({
            "workload": header["workload"],
            "seed": header["seed"],
            "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        })
    return runs


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(base: "list[float]", head: "list[float]", pairs, better: str,
            bound: "float | None") -> str:
    """The verdict for one metric (see the module docstring)."""
    q1, base_median, q3 = quartiles(base)
    head_median = quartiles(head)[1]
    wins = sum(1 for b, h in pairs if _beats(h, b, better))
    dominated = all(_beats(h, b, better) for h in head for b in base)
    if dominated or (
        pairs and wins >= 0.9 * len(pairs)
        and _beats(head_median, base_median, better)
        and abs(head_median - base_median) > (q3 - q1)
    ):
        return "better"
    if bound is None:
        return "no bound"
    if relative_spread(base) > bound:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (head_median - base_median) / abs(base_median) if base_median else 0.0
    return "worse" if worse_by > bound else "within bound"


def compare(base_runs, head_runs, bench: dict) -> "list[dict]":
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in bench["end_to_end"] + bench["per_layer"]}
    rows = []
    workloads = sorted({r["workload"] for r in base_runs} & {r["workload"] for r in head_runs})
    for workload in workloads:
        base = [r for r in base_runs if r["workload"] == workload]
        head = [r for r in head_runs if r["workload"] == workload]
        head_by_seed = {r["seed"]: r for r in head}
        names = sorted(set.intersection(*(set(r["metrics"]) for r in base + head)))
        for name in names:
            if name not in rules:
                continue
            better, bound = rules[name]
            pairs = [(b["metrics"][name], head_by_seed[b["seed"]]["metrics"][name])
                     for b in base if b["seed"] in head_by_seed]
            base_values = [r["metrics"][name] for r in base]
            head_values = [r["metrics"][name] for r in head]
            rows.append({
                "workload": workload,
                "metric": name,
                "base": quartiles(base_values),
                "head": quartiles(head_values),
                "wins": sum(1 for b, h in pairs if _beats(h, b, better)),
                "pairs": len(pairs),
                "verdict": verdict(base_values, head_values, pairs, better, bound),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--benchmark",
                        default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        bench = json.load(fh)
    base_runs, head_runs = read_runs(args.base), read_runs(args.head)
    incorrect = [r for r in base_runs + head_runs if not r["correct"]]
    if incorrect:
        print(f"warning: {len(incorrect)} run(s) reported correct=false", file=sys.stderr)
    print(f"{'workload':<11} {'metric':<32} {'base median [q1, q3]':<32} "
          f"{'head median [q1, q3]':<32} {'wins':<8} verdict")
    for row in compare(base_runs, head_runs, bench):
        sides = [f"{q2:.4g} [{q1:.4g}, {q3:.4g}]" for q1, q2, q3 in (row["base"], row["head"])]
        wins = f"{row['wins']}/{row['pairs']}"
        print(f"{row['workload']:<11} {row['metric']:<32} {sides[0]:<32} {sides[1]:<32} "
              f"{wins:<8} {row['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
