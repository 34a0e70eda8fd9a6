"""Benchmark entry point.

    python3 perfbench/run.py --workload <svc_unique|svc_hot|sql_batch> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the program is imported (and the service
started) from ``src/`` there, and scratch files go to ``.perfbench_tmp/``
there, removed at exit.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; ``perfbench/workloads.json`` defines both
sets, each workload's traffic, and which end-to-end metric each layer
metric should move.

Every answer is checked (objective re-evaluated on a problem rebuilt from
its inputs, join orders are permutations, a seeded sample re-solved
directly) and compared with an exact optimum.  A wrong answer counts as a
failed op and makes the command exit 1.  The metrics a workload lists under
``host_normalised`` are put on the reference host's scale with the run's
host-speed probes (``common.probe``); the raw values are in the details.
The last stdout line is the result object; the line before it carries run
details and host facts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

SPEC_PATH = HERE / "workloads.json"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [*spec["workloads"], *spec["end_to_end"], *spec["per_layer"]]
    bad = [name for name in names if not common.valid_metric_name(name)]
    if bad:
        raise SystemExit(f"perfbench: invalid workload or metric names {bad}")
    return spec


def _args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}/repro; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def end_to_end_metrics(out: dict, units: dict, normalised) -> dict:
    """The end-to-end values.  Those named in ``normalised`` are put on the
    reference host's scale with :func:`common.host_scales`: each set-up and
    each op's latency is multiplied by its own factor, a rate is divided by
    the ops' median factor."""
    setups = [duration for _, duration in out["setups"]]
    if "setup_s" in normalised:
        factors = common.host_scales([t for t, _ in out["setups"]], out["setup_probes"])
        setups = [d * f for d, f in zip(setups, factors)]
    latencies = out["latencies"]
    scale = 1.0
    if normalised & {"latency_p50_s", "latency_p90_s", "ops_per_s"}:
        scales = common.host_scales(out["op_times"], out["probes"])
        scale = common.median(scales) if scales else 1.0
        scaled = [latency * s for latency, s in zip(latencies, scales)]
        out["details"].update(
            host_scale_p50=scale, probes=len(out["probes"]),
            raw_latency_p50_s=common.median(latencies, math.nan),
            raw_latency_p90_s=common.percentile(latencies, 0.9) if latencies else math.nan,
        )
    pick = {name: scaled if name in normalised else latencies
            for name in ("latency_p50_s", "latency_p90_s")}
    values = {
        "setup_s": common.median(setups),
        "latency_p50_s": common.median(pick["latency_p50_s"], math.nan),
        "latency_p90_s": (common.percentile(pick["latency_p90_s"], 0.9)
                          if latencies else math.nan),
        "ops_per_s": (out["attempted"] - out["failed"]) / out["wall_s"]
        / (scale if "ops_per_s" in normalised else 1.0),
        "slo_attainment": out["slo_ok"] / out["attempted"],
        "success_ratio": (out["attempted"] - out["failed"]) / out["attempted"],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    return {name: {"value": _finite(values[name]), "unit": units[name]} for name in units}


def _finite(value: float) -> "float | None":
    """NaN (no sample at all) becomes null, keeping the output strict JSON."""
    return None if isinstance(value, float) and math.isnan(value) else value


def main(argv=None) -> int:
    spec = load_spec()
    args = _args(argv, spec["workloads"])
    _import_program()
    import sqlwl
    import svc

    # Every store the benchmark uses is its own; none may come from the caller.
    os.environ.pop("REPRO_STORE", None)
    workload = spec["workloads"][args.workload]
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "sql_batch":
            runner = sqlwl.traced if args.trace else sqlwl.end_to_end
            out = runner(workload, workdir, args.seed, args.seconds)
        else:
            runner = svc.traced if args.trace else svc.end_to_end
            out = runner(args.workload, workload, ROOT, workdir, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        units = {name: row["unit"] for name, row in spec["per_layer"].items()}
        metrics = {name: {"value": _finite(out["values"][name]), "unit": unit}
                   for name, unit in units.items()}
    else:
        units = {name: row["unit"] for name, row in spec["end_to_end"].items()}
        metrics = end_to_end_metrics(out, units, set(workload.get("host_normalised", ())))
        out["details"]["opt_gap"] = common.mean(out["gaps"])
        if not common.tail_supported(len(out["latencies"]), 0.9):
            print(f"perfbench: warning: latency_p90_s rests on "
                  f"{common.samples_beyond(len(out['latencies']), 0.9)} samples beyond it "
                  f"(fewer than {common.MIN_TAIL})", file=sys.stderr)
    correct = out["failed"] == 0 and not out["failures"]
    for failure in out["failures"][:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": common.host_facts(), "details": out["details"],
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
