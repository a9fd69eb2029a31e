"""chronolm benchmark: one workload, one fresh process, one closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload pretrain --seed 1 --seconds 35 --trace 0

Set-up generates the workload's inputs from the seed (``chronolm synth``),
several times, and reports the median as ``setup_s``.  The measurement
then repeats the workload's cycle of CLI calls (see workloads.py) through
``chronolm.cli.main`` in this process, one call at a time, until the
time is spent, and checks the output of every call.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
spans recorded around each layer's functions (see spans.py), and the
trace itself is written under ``.bench_out/``.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
MIN_CYCLES = 3
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# stage -> end-to-end metric: the stage's work over the wall time of all its
# calls in the run.  The host switches between a fast and a slow speed for
# seconds at a time; a median over calls jumps between the two when each
# holds about half the run, while this total moves with the share of each.
STAGE_METRICS = {
    "tag": "tag.docs_per_s",
    "build-vocab": "build_vocab.docs_per_s",
    "build-dataset": "build_dataset.examples_per_s",
    "pretrain": "pretrain.tokens_per_s",
    "finetune": "finetune.examples_per_s",
    "eval": "eval.examples_per_s",
}


def metric_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def code_digest(root: Path) -> str:
    """sha256 over the package sources and this benchmark's own code."""
    h = hashlib.sha256()
    files = sorted((root / "src" / "chronolm").rglob("*.py"))
    files += sorted((root / "bench").glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Loop:
    """Runs cycles of CLI calls and keeps every call's outcome."""

    def __init__(self, calls, tracer=None):
        self.calls = calls
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}  # stage -> work/s or latency
        self.totals: dict[str, list[float]] = {}  # stage -> [work, wall]

    def call(self, call, tracer) -> None:
        from bench.checks import CheckFailed
        from bench.workloads import run_cli

        self.attempted += 1
        span = tracer.begin_call(call.argv[0]) if tracer else None
        start = time.perf_counter()
        try:
            code, output = run_cli(call.argv)
        except Exception as exc:  # an exception fails the call, not the run
            code, output = None, repr(exc)
        finally:
            wall = time.perf_counter() - start
            if tracer:
                tracer.end(span)
        if code != 0:
            self.failures.append(f"{call.stage}: exit {code}: {output.strip()[-300:]}")
            return
        try:
            work = call.check()
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.failures.append(f"{call.stage}: check failed: {exc}")
            return
        value = wall if call.stage == "probe" else work / wall
        self.samples.setdefault(call.stage, []).append(value)
        total = self.totals.setdefault(call.stage, [0.0, 0.0])
        total[0] += work
        total[1] += wall

    def cycle(self, traced: bool) -> float:
        from bench.spans import Instrumented

        start = time.perf_counter()
        if traced:
            with Instrumented(self.tracer) as tracer:
                for call in self.calls:
                    self.call(call, tracer)
        else:
            for call in self.calls:
                self.call(call, None)
        return time.perf_counter() - start


def measure(loop: Loop, seconds: float, pattern) -> list[tuple[bool, float, float]]:
    """Run cycles until the next one would overrun the time, after at least
    MIN_CYCLES; ``pattern(i)`` says whether cycle i is traced.  Returns
    (traced, wall, cpu) per cycle."""
    deadline = time.perf_counter() + seconds
    done: list[tuple[bool, float, float]] = []
    while (len(done) < MIN_CYCLES or
           time.perf_counter() + statistics.mean(w for _, w, _ in done) <= deadline):
        traced = pattern(len(done))
        cpu = time.process_time()
        wall = loop.cycle(traced)
        done.append((traced, wall, time.process_time() - cpu))
    return done


def host_reference_s() -> float:
    """Best of 5 timings of a fixed pure-Python loop: how fast the host ran
    at that moment, independent of chronolm."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def blas_record() -> dict:
    """BLAS name, version and the thread count it reports."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads, "env": {k: os.environ.get(k) for k in BLAS_ENV}}


def cgroup_cpu_limit():
    """CPUs allowed by the cgroup (v2 cpu.max or v1 quota), read only."""
    for quota_path, period_path in (("/sys/fs/cgroup/cpu.max", None),
                                    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                                     "/sys/fs/cgroup/cpu/cpu.cfs_period_us")):
        try:
            with open(quota_path, encoding="utf-8") as fh:
                fields = fh.read().split()
            if period_path:
                with open(period_path, encoding="utf-8") as fh:
                    fields.append(fh.read().strip())
        except OSError:
            continue
        if fields[0] in ("max", "-1"):
            return "unlimited"
        return int(fields[0]) / int(fields[1])
    return None


def machine_record() -> dict:
    import platform

    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_limit": cgroup_cpu_limit(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        workloads=None, out_root: Path = ROOT / ".bench_out") -> dict:
    """One benchmark run; returns the result object and a summary."""
    from bench import checks, spans
    from bench.workloads import WORKLOADS, cycle_calls, month_points, set_up

    w = (workloads or WORKLOADS)[workload]
    digest = code_digest(ROOT)
    out_root.mkdir(parents=True, exist_ok=True)
    workdir = out_root / f"work-{workload}-s{seed}-{os.getpid()}"
    host_before = host_reference_s()
    try:
        setup_walls = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            inp = set_up(str(workdir / f"setup-{i}"), w, seed)
            setup_walls.append(time.perf_counter() - start)

        digests = checks.Digests(str(out_root / f"digests-{digest}-{workload}-s{seed}.json"))
        state: dict[str, float] = {}
        tracer = spans.Tracer() if trace else None
        loop = Loop(cycle_calls(w, inp, seed, digests, state), tracer)
        if trace:
            # An untraced warm-up cycle, then traced and untraced in turn.
            cycles = measure(loop, seconds, lambda i: i % 2 == 1)
        else:
            cycles = measure(loop, seconds, lambda i: False)
        digests.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(loop.failures)
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "code_digest": digest, "cycles": len(cycles),
        "cycle_wall_s": [round(c[1], 4) for c in cycles],
        "samples": {k: {"n": len(v), "min": min(v), "median": statistics.median(v),
                        "max": max(v)} for k, v in loop.samples.items()},
        "process_cpu_s": sum(c[2] for c in cycles),
        "process_wall_s": sum(c[1] for c in cycles),
        # The tail is reported here, not as a metric: on a shared host it
        # measures interference from other tenants more than the program.
        "probe_latency_s_p90": (spans.percentile(loop.samples["probe"], 0.9)
                                if loop.samples.get("probe") else None),
        "failures": loop.failures[:20],
        "artifacts": len(digests.seen),
        "artifacts_sha256": hashlib.sha256(json.dumps(
            digests.seen, sort_keys=True).encode()).hexdigest(),
        "machine": machine_record(),
        "host_reference_s": [host_before, host_reference_s()],
    }
    units = metric_units()
    metrics: dict[str, dict] = {}

    def put(name: str, value) -> None:
        metrics[name] = {"value": value, "unit": units[name]}

    if trace:
        traced = [c for c in cycles if c[0]]
        plain = [c for c in cycles[1:] if not c[0]]
        overhead = (statistics.median(c[1] for c in traced)
                    / statistics.median(c[1] for c in plain) - 1.0) if plain else 0.0
        layer = spans.layer_metrics(
            tracer, len(traced), sum(c[1] for c in traced), sum(c[2] for c in traced),
            overhead)
        for name, value in layer.items():
            put(name, value)
        summary["acceptance"] = {
            "pretrain.gelu_share": spans.call_shares(
                tracer, "pretrain", ("network.gelu", "network.gelu_grad")),
            "build_dataset.build_tir_share": spans.call_shares(
                tracer, "build-dataset", ("objectives.build_tir",)),
            "probe.forwards_per_query": layer["evaluation.forwards_per_query"],
            "probe.label_space": len(month_points()),
        }
        tracer.write(str(out_root / f"trace-{workload}-s{seed}.json"))
    else:
        put("setup_s", statistics.median(setup_walls))
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        for stage, name in STAGE_METRICS.items():
            work, wall = loop.totals.get(stage, (None, None))
            put(name, work / wall if wall else None)
        put("pretrain.final_loss", state.get("final_loss"))
        probes = loop.samples.get("probe")
        put("probe.latency_s.p50", spans.percentile(probes, 0.5) if probes else None)

    result = {"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "summary": summary}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=None, out_root: Path = ROOT / ".bench_out") -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chronolm" / "__init__.py").is_file():
        print(f"error: no chronolm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pinned before numpy loads, so every commit compared runs the same BLAS setting.
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import chronolm

    if Path(chronolm.__file__).resolve().parent != ROOT / "src" / "chronolm":
        print(f"error: chronolm imported from {chronolm.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from bench.workloads import WORKLOADS

    if args.workload not in (workloads or WORKLOADS):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              workloads, out_root)
    print("summary: " + json.dumps(out["summary"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
