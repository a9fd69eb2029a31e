"""Tests of the benchmark itself: metric names and units, the self-time
arithmetic, and failure accounting.

    python -m pytest bench/tests -q
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import checks, run, spans  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_MODEL = {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 32,
              "max_len": 64, "dropout": 0.1}
TINY = {
    name: dataclasses.replace(w, docs=24, model=TINY_MODEL, train_events=32,
                              test_events=16, finetune_epochs=1, probe_calls=2)
    for name, w in WORKLOADS.items()
}


def bench_main(tmp_path, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([str(a) for a in argv], workloads=TINY, out_root=tmp_path)
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    result = bench_main(tmp_path, "--workload", workload, "--seed", 3,
                        "--seconds", 0, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace:
        # One similarity_rank call encodes the query and every candidate.
        assert result["metrics"]["evaluation.forwards_per_query"]["value"] == 49


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans_ = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],    # overlaps a: the overlap counts once
        ["a.1", 2.0, 3.0, 1, 0],  # grandchild: only its parent subtracts it
        ["c", 9.0, 12.0, 0, 0],   # runs past the root: clipped to [9, 10]
    ]
    assert spans.self_times(spans_) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    assert spans.covered([(5.0, 6.0), (1.0, 2.0), (1.5, 3.0)], 0.0, 5.5) == 2.5


def test_tracer_records_nesting_and_call_ids():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    root = tracer.begin_call("tag")        # t=0
    child = tracer.begin("temporal.annotate")  # t=1
    tracer.end(child)                      # t=2
    tracer.end(root)                       # t=3
    second = tracer.begin_call("probe")    # t=4
    tracer.end(second)                     # t=5
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, -1]
    assert [s[spans.CALL] for s in tracer.spans] == [0, 0, 1]
    assert spans.self_times(tracer.spans) == [2.0, 1.0, 1.0]


def test_instrumentation_restores_the_original_functions():
    import chronolm.cli
    import chronolm.model.network

    before = (chronolm.cli.annotate, chronolm.model.network.gelu)
    with spans.Instrumented(spans.Tracer()):
        assert chronolm.cli.annotate is not before[0]
    assert (chronolm.cli.annotate, chronolm.model.network.gelu) == before


def _failed_run(tmp_path):
    result = bench_main(tmp_path, "--workload", "pretrain", "--seed", 5,
                        "--seconds", 0, "--trace", 0)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert 0 < result["failed"] / result["attempted"] < 1
    return result


def test_a_dataset_line_that_does_not_round_trip_fails_its_call(tmp_path, monkeypatch):
    import chronolm.util

    write_jsonl = chronolm.util.write_jsonl

    def corrupting(path, records):
        records = list(records)
        if path.endswith("dataset.jsonl"):
            del records[0]["input_ids"]
        write_jsonl(path, records)

    monkeypatch.setattr(chronolm.util, "write_jsonl", corrupting)
    _failed_run(tmp_path)


def test_a_checkpoint_whose_bytes_change_fails_its_call(tmp_path, monkeypatch):
    import chronolm.cli

    save = chronolm.cli.save_checkpoint
    saved = []

    def flip_a_byte_once(ckpt, path):
        save(ckpt, path)
        saved.append(path)
        if len(saved) == 2:
            data = bytearray(Path(path).read_bytes())
            data[-1] ^= 0x01
            Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(chronolm.cli, "save_checkpoint", flip_a_byte_once)
    _failed_run(tmp_path)


def test_digests_compare_against_an_earlier_run(tmp_path):
    artifact = tmp_path / "a.txt"
    record = str(tmp_path / "digests.json")
    artifact.write_text("one")
    first = checks.Digests(record)
    first.check("a", str(artifact))
    first.save()
    artifact.write_text("two")
    with pytest.raises(checks.CheckFailed):
        checks.Digests(record).check("a", str(artifact))


def test_output_checks_reject_bad_artifacts(tmp_path):
    probe = tmp_path / "probe.csv"
    probe.write_text("rank,point,score\n1,1990-01,0.5\n2,1990-01,0.4\n")
    with pytest.raises(checks.CheckFailed):
        checks.probe_ranking(str(probe), ["1990-01", "1990-02"])
    results = tmp_path / "results.csv"
    results.write_text("configuration,metric,granularity,value\nmodel,acc,year,100.5\n")
    with pytest.raises(checks.CheckFailed):
        checks.eval_results(str(results))
    loss = tmp_path / "loss.csv"
    loss.write_text("step,objective,loss\n1,dtp,1.0\n2,dtp,nan\n")
    with pytest.raises(checks.CheckFailed):
        checks.loss_log(str(loss))


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pretrain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
