"""Tests of the benchmark itself: tiny runs of every workload, the
correctness gate, counter repeatability, and the tracer's
clean restore of every wrapped function."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(tmp_path, workload, trace, seed=5, n_samples=12, script=HERE / "run.py"):
    """Run the benchmark in tmp_path; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--n-samples", str(n_samples)],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def field(lines, key):
    return next(line.split(" ", 1)[1] for line in lines if line.startswith(key + " "))


def check_result(lines, metric_specs):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 12
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in metric_specs
    }
    for spec in metric_specs:  # every metric is also printed by name and unit
        value, unit = field(lines, spec["name"]).split()
        assert unit == spec["unit"]
        float(value)
    assert field(lines, "failed_share") == "0 fraction"
    context = json.loads(field(lines, "context"))
    assert {"commit", "python", "nproc", "seed", "src_lines"} <= set(context)
    return result


@pytest.fixture(scope="module")
def plain_runs(tmp_path_factory):
    runs = {}
    for workload in WORKLOADS:
        code, lines = bench(tmp_path_factory.mktemp(workload), workload, trace=0)
        assert code == 0, lines
        runs[workload] = lines
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(plain_runs, workload):
    result = check_result(plain_runs[workload], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_serial_and_parallel_default_runs_write_identical_bytes(plain_runs):
    assert field(plain_runs["paper-default"], "output_sha256") == field(
        plain_runs["paper-default-w2"], "output_sha256"
    )
    assert field(plain_runs["paper-default"], "output_sha256") != field(
        plain_runs["properties"], "output_sha256"
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_output_and_repeats_its_counters(
    plain_runs, tmp_path, workload
):
    code, first = bench(tmp_path, workload, trace=1)
    assert code == 0, first
    check_result(first, SPEC["per_layer"])
    assert field(first, "output_sha256") == field(plain_runs[workload], "output_sha256")
    code, second = bench(tmp_path, workload, trace=1)
    assert code == 0, second
    assert json.loads(field(first, "counters")) == json.loads(field(second, "counters"))


def test_run_without_gridqa_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(tmp_path, WORKLOADS[0], trace=0, script=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_tracer_restores_every_original_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracing

    targets = tracing.targets()
    originals = [getattr(owner, attr) for _, owner, attr, _ in targets]

    with pytest.raises(KeyError):
        with tracing.Tracer(targets) as tracer:
            for (_, owner, attr, _), original in zip(targets, originals):
                assert getattr(owner, attr) is not original
            from gridqa import scenegen

            assert scenegen.default_names()
            assert [span[0] for span in tracer.spans] == ["scenegen.default_names"]
            raise KeyError("leave the block by an exception")
    for (_, owner, attr, _), original in zip(targets, originals):
        assert getattr(owner, attr) is original


def test_gate_counts_a_missing_record_and_a_flagged_record(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(HERE))
    import run

    cli = run.import_cli()
    config = run.make_config(run.WORKLOADS["properties"], seed=3, n_samples=12)
    config = dataclasses.replace(config, out_dir=str(tmp_path))
    cli.generate(config, 1)
    problems, _ = run.run_validate(cli, config)
    gate = run.Gate()
    run.check_output(config, run.read_splits(cli, config), problems, gate)
    assert (gate.errors, gate.attempted, gate.failed) == ([], 12, 0)

    train = tmp_path / "train.jsonl"
    first, second, *rest = train.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(second)
    record["answer_text"] = ""
    train.write_text(json.dumps(record) + "\n" + "".join(rest), encoding="utf-8")
    problems, _ = run.run_validate(cli, config)
    gate = run.Gate()
    run.check_output(config, run.read_splits(cli, config), problems, gate)
    assert gate.failed == 2
    assert any("missing sample indices" in error for error in gate.errors)
    assert any("empty answer text" in error for error in gate.errors)
