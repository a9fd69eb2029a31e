"""Run the benchmark over several seeds and record the medians in a file.

    python3 bench/record.py --out bench/results/BENCH_1.json --seeds 1-10

Each workload is run once per seed with tracing off, then once with
tracing on (first seed).  Every run is a fresh process of bench/run.py.
For each end-to-end metric the record holds the median, the quartiles and
the spread (quartile distance over the median) of the per-seed values;
for each per-layer metric, the traced run's value.  Run it on the parent
commit and on a change, with the same seeds, to compare the two.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("summary: "))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    record: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        per_metric: dict[str, list[float]] = {}
        attempted = failed = 0
        host: list[list[float]] = []
        probe_p90: list[float] = []
        for seed in seeds:
            result, summary = run_once(name, seed, spec["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            host.append(summary["host_reference_s"])
            probe_p90.append(summary["probe_latency_s_p90"])
            for metric, m in result["metrics"].items():
                per_metric.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: {json.dumps(result)}", file=sys.stderr)
        traced, traced_summary = run_once(name, seeds[0], spec["run_seconds"], 1)
        record["machine"] = summary["machine"]
        record["code_digest"] = summary["code_digest"]
        record["workloads"][name] = {
            "attempted": attempted, "failed": failed,
            "end_to_end": {k: summarize(v) for k, v in per_metric.items()},
            "probe_latency_s_p90": summarize(probe_p90),
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "traced_failed": traced["failed"],
            "acceptance": traced_summary["acceptance"],
            "samples_per_run": {k: v["n"] for k, v in summary["samples"].items()},
            "host_reference_s": host,
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
