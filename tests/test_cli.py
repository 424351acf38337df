import dataclasses
import hashlib
import json
import multiprocessing
import multiprocessing.pool
import os
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from conftest import pools_for
from gridqa import cli
from gridqa.cli import (
    SPLITS,
    AlignmentError,
    GenerationCapacityError,
    format_dump,
    generate,
    generate_sample,
    main,
    score,
    split_of,
    validate_dataset,
)
from gridqa.config import ConfigError, GenConfig, apply_overrides, load_config, parse_config_text
from gridqa.scenegen import default_names
from gridqa.serialize import Sample, read_relational_context, read_samples


def small_config(tmp_path, **overrides) -> GenConfig:
    base = dict(n_samples=30, seed=7, out_dir=str(tmp_path / "data"))
    base.update(overrides)
    return dataclasses.replace(GenConfig(), **base)


def regenerate(config: GenConfig, index: int) -> dict:
    """The record generate_sample writes for one index, parsed."""
    *_, line = generate_sample(config, index, config.digest(), pools_for(config))
    return json.loads(line)


def read_all_records(out_dir: Path) -> dict[int, dict]:
    records = {}
    for split in ("train", "valid", "test"):
        for sample in read_samples(out_dir / f"{split}.jsonl"):
            records[sample.sample_id] = sample.to_record()
    return records


# --- config --------------------------------------------------------------------


def test_config_defaults_reproduce_standard_setup():
    config = GenConfig()
    assert config.world_size == 15
    assert config.n_npcs == 4
    assert config.world_steps == 50
    assert config.n_snapshots == 2
    config.validate()


def test_properties_mode_config():
    config = GenConfig.properties_mode()
    assert config.world_steps == 0
    assert config.n_snapshots == 1
    assert config.class_weights == {"property": 1.0, "temporal": 0.0, "geometric": 0.0}
    config.validate()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "gen.cfg"
    path.write_text(
        "# comment\nworld_size = 30\nn_npcs=8\nweight_temporal = 0.5\nout_dir = run1\n",
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.world_size == 30
    assert config.n_npcs == 8
    assert config.weight_temporal == 0.5
    assert config.out_dir == "run1"


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config_text("wordl_size = 10")
    with pytest.raises(ConfigError):
        parse_config_text("world_size = big")
    with pytest.raises(ConfigError):
        parse_config_text("just nonsense")


# a weight, a probability and a split fraction: each float field kind
NON_FINITE_FIELDS = [
    ("weight_property", "inf"),
    ("weight_temporal", "nan"),
    ("negation_prob", "-inf"),
    ("split_valid", "nan"),
]
# seeds _derive_seed cannot pack as a signed 64-bit integer
OUT_OF_RANGE_SEEDS = [("seed", str(2**63)), ("seed", str(-(2**63) - 1))]


def test_config_validation_messages_name_fields():
    with pytest.raises(ConfigError, match="world_size"):
        GenConfig(world_size=2).validate()
    with pytest.raises(ConfigError, match="n_snapshots"):
        GenConfig(world_steps=0, n_snapshots=2, weight_temporal=0.0).validate()
    with pytest.raises(ConfigError, match="weight_temporal"):
        GenConfig(n_snapshots=1, world_steps=10).validate()
    with pytest.raises(ConfigError, match="sum to 1"):
        GenConfig(split_train=0.9, split_valid=0.2, split_test=0.1).validate()
    with pytest.raises(ConfigError, match="weights"):
        GenConfig(weight_property=0, weight_temporal=0, weight_geometric=0).validate()
    for field, value in NON_FINITE_FIELDS:
        with pytest.raises(ConfigError, match=f"{field}: must be a finite number"):
            GenConfig(**{field: float(value)}).validate()
    for _, seed in OUT_OF_RANGE_SEEDS:
        with pytest.raises(ConfigError, match="seed"):
            GenConfig(seed=int(seed)).validate()
    GenConfig(seed=2**63 - 1).validate()
    GenConfig(seed=-(2**63)).validate()


@pytest.mark.parametrize("field, value", NON_FINITE_FIELDS + OUT_OF_RANGE_SEEDS)
def test_a_value_generate_cannot_use_exits_1_naming_its_field(tmp_path, capsys, field, value):
    out = tmp_path / "out"
    argv = ["generate", "--out", str(out), "--n-samples", "2", "--set", f"{field}={value}"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("field, value", NON_FINITE_FIELDS + OUT_OF_RANGE_SEEDS)
def test_a_value_validate_cannot_use_exits_1_naming_its_field(tmp_path, capsys, field, value):
    dataset, cfg = tmp_path / "train.jsonl", tmp_path / "gen.cfg"
    dataset.write_text("", encoding="utf-8")
    cfg.write_text(f"{field} = {value}\n", encoding="utf-8")
    assert main(["validate", "--dataset", str(dataset), "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert field in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [cfg, dataset]


def test_a_stepped_world_with_one_snapshot_exits_1_naming_world_steps(tmp_path, capsys):
    # the only snapshot is taken before any step, so world_steps would only draw a task
    out = tmp_path / "out"
    argv = ["generate", "--out", str(out), "--n-samples", "3", "--set", "world_steps=10",
            "--set", "n_snapshots=1", "--set", "weight_temporal=0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "world_steps" in err and "Traceback" not in err and not out.exists()
    GenConfig(world_steps=0, n_snapshots=1, weight_temporal=0.0).validate()


def test_digest_ignores_output_fields_and_reads_pools_by_content(tmp_path):
    base = GenConfig()
    assert base.digest() == dataclasses.replace(base, out_dir="x", n_samples=3).digest()
    assert base.digest() != dataclasses.replace(base, seed=1).digest()
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text("red\nblue\n")
    second.write_text("red\nblue\n")
    a = dataclasses.replace(base, colors_file=str(first))
    assert a.digest() == dataclasses.replace(base, colors_file=str(second)).digest()
    second.write_text("red\ngreen\n")
    assert a.digest() != dataclasses.replace(base, colors_file=str(second)).digest()


def test_overrides():
    config = apply_overrides(GenConfig(), ["n_samples=5", "seed=9"])
    assert config.n_samples == 5 and config.seed == 9
    with pytest.raises(ConfigError, match="^override: unknown key 'bogus'"):
        apply_overrides(GenConfig(), ["bogus=1"])
    with pytest.raises(ConfigError, match="^override: expected 'key = value'"):
        apply_overrides(GenConfig(), ["seed"])
    with pytest.raises(ConfigError, match="^line 2: unknown key 'bogus'"):
        parse_config_text("seed = 1\nbogus = 1\n")
    with pytest.raises(ConfigError, match="^line 1: expected 'key = value'"):
        parse_config_text("seed 1  # no equals sign\n")


# --- generation ------------------------------------------------------------------


def test_generate_writes_splits_and_stats(tmp_path):
    config = small_config(tmp_path)
    stats = generate(config)
    out = Path(config.out_dir)
    assert stats["n_samples"] == 30
    assert sum(stats["by_split"].values()) == 30
    records = read_all_records(out)
    assert sorted(records) == list(range(30))
    saved_stats = json.loads((out / "stats.json").read_text())
    assert saved_stats["by_class"] == stats["by_class"]


def test_generate_twice_is_byte_identical(tmp_path):
    config_a = small_config(tmp_path, out_dir=str(tmp_path / "a"))
    config_b = small_config(tmp_path, out_dir=str(tmp_path / "b"))
    generate(config_a)
    generate(config_b)
    for split in ("train", "valid", "test"):
        a = (Path(config_a.out_dir) / f"{split}.jsonl").read_bytes()
        b = (Path(config_b.out_dir) / f"{split}.jsonl").read_bytes()
        assert a == b


def test_a_run_hashes_its_pool_file_once(tmp_path, monkeypatch):
    pool = tmp_path / "names.txt"
    pool.write_text(CUSTOM_NAMES, encoding="utf-8")
    hashed = []
    real_sha256 = hashlib.sha256

    def counting_sha256(data=b"", **kwargs):
        if data == CUSTOM_NAMES.encode("utf-8"):
            hashed.append(data)
        return real_sha256(data, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    config = small_config(tmp_path, n_samples=20, names_file=str(pool))
    generate(config)
    assert len(hashed) == 1
    out = Path(config.out_dir)
    saved = json.loads((out / "stats.json").read_text(encoding="utf-8"))["config_digest"]
    records = read_all_records(out)
    assert len(records) == 20
    assert {r["generation_metadata"]["config_digest"] for r in records.values()} == {saved}
    # validate regenerates with one digest per call as well
    hashed.clear()
    assert validate_dataset(out / "train.jsonl", config) == []
    assert len(hashed) == 1
    # a single index still regenerates on its own
    assert regenerate(config, 3) == records[3]


def test_a_run_reads_each_pool_file_once(tmp_path, monkeypatch):
    files = {}
    for field, words in (
        ("names_file", CUSTOM_NAMES),
        ("npc_types_file", "cow\npig\nsheep\n"),
        ("colors_file", "red\nblue\ngreen\n"),
    ):
        files[field] = tmp_path / f"{field}.txt"
        files[field].write_text(words, encoding="utf-8")
    reads = Counter()
    real_read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads[self] += 1
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    config = small_config(tmp_path, n_samples=20, **{k: str(v) for k, v in files.items()})
    generate(config)
    assert [reads[path] for path in files.values()] == [1, 1, 1]
    reads.clear()
    assert validate_dataset(Path(config.out_dir) / "train.jsonl", config) == []
    assert [reads[path] for path in files.values()] == [1, 1, 1]


def test_a_pool_file_rewritten_during_a_run_changes_no_record(tmp_path, monkeypatch):
    names = tmp_path / "names.txt"
    names.write_text(CUSTOM_NAMES, encoding="utf-8")
    config = small_config(tmp_path, n_samples=20, names_file=str(names))
    generate(config)
    expected = read_all_records(Path(config.out_dir))
    real = cli.generate_sample

    def rewriting(config, index, **run_inputs):
        row = real(config, index, **run_inputs)
        names.write_text("uma\nvic\nwes\nxia\nyul\nzed\n", encoding="utf-8")
        return row

    monkeypatch.setattr(cli, "generate_sample", rewriting)
    rerun = dataclasses.replace(config, out_dir=str(tmp_path / "rerun"))
    generate(rerun)
    assert read_all_records(Path(rerun.out_dir)) == expected


def test_subset_regeneration_matches_full_run(tmp_path):
    config = small_config(tmp_path)
    generate(config)
    records = read_all_records(Path(config.out_dir))
    for index in (0, 7, 13, 29):
        assert regenerate(config, index) == records[index]


def test_split_assignment_is_deterministic_and_index_keyed(tmp_path):
    config = small_config(tmp_path, n_samples=200)
    splits = [split_of(config, i) for i in range(200)]
    assert splits == [split_of(config, i) for i in range(200)]
    counts = {s: splits.count(s) for s in ("train", "valid", "test")}
    assert counts["train"] > counts["valid"] > 0
    assert counts["test"] > 0


def test_properties_preset_generates_property_queries_only(tmp_path):
    config = dataclasses.replace(
        GenConfig.properties_mode(), n_samples=20, seed=3, out_dir=str(tmp_path / "props")
    )
    stats = generate(config)
    assert set(stats["by_class"]) == {"property"}


def test_generate_parallel_matches_serial(tmp_path):
    serial = small_config(tmp_path, out_dir=str(tmp_path / "serial"))
    parallel = small_config(tmp_path, out_dir=str(tmp_path / "parallel"))
    generate(serial, workers=1)
    generate(parallel, workers=2)
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "stats.json"):
        a = (Path(serial.out_dir) / name).read_bytes()
        b = (Path(parallel.out_dir) / name).read_bytes()
        assert a == b


@pytest.mark.parametrize(
    "preset, seed, n_samples",
    [("default", 11, 600), ("properties", 12, 600), ("default", 11, 0), ("default", 11, 1)],
)
def test_parallel_output_matches_serial_at_any_size(tmp_path, preset, seed, n_samples):
    base = GenConfig.properties_mode() if preset == "properties" else GenConfig()
    outputs = []
    for workers in (1, 2):
        config = dataclasses.replace(
            base, n_samples=n_samples, seed=seed, out_dir=str(tmp_path / str(workers))
        )
        generate(config, workers=workers)
        names = ("train.jsonl", "valid.jsonl", "test.jsonl", "stats.json")
        outputs.append([(Path(config.out_dir) / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU binding here")
def test_worker_cpu_sets_split_the_cpus_of_this_process():
    cpus = os.sched_getaffinity(0)
    for workers in range(1, len(cpus) + 1):
        sets = cli._worker_cpu_sets(workers)
        assert len(sets) == workers
        assert all(sets)
        assert set().union(*sets) == cpus
        assert sum(map(len, sets)) == len(cpus)
    assert cli._worker_cpu_sets(len(cpus) + 1) is None


_real_generate_sample = cli.generate_sample
_TEST_PID = os.getpid()


def _on_cpus(config, index, **run_inputs):
    # counts each record under the CPUs of the process that wrote it
    _, return_type, attempt, line = _real_generate_sample(config, index, **run_inputs)
    return json.dumps(sorted(os.sched_getaffinity(0))), return_type, attempt, line


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU binding and two CPUs",
)
def test_generate_workers_each_run_on_their_own_cpus(tmp_path, monkeypatch):
    cpus = os.sched_getaffinity(0)
    sets = [json.dumps(sorted(s)) for s in cli._worker_cpu_sets(2)]
    monkeypatch.setattr(cli, "generate_sample", _on_cpus)
    stats = generate(small_config(tmp_path, n_samples=4), workers=2)
    # how many records each set labels depends on which writer ran faster
    assert set(stats["by_class"]) <= set(sets)
    assert sum(stats["by_class"].values()) == 4
    # the parent writes range 0, samples 0..1, on the first set, then gets its CPUs back
    assert stats["by_class"][sets[0]] >= 2
    assert os.sched_getaffinity(0) == cpus


def _slow_child(range_0_done: Path, last_of_range_0: int, failing=()):
    """generate_sample that counts each record under the pid of its writer.
    A child starts its first index only once the parent has written its range
    (or failed), then takes 20 ms more per index, so the parent's first request
    reaches it before its second index. Each failure appends "index writer" to
    the file failed.log beside range_0_done."""
    parent = os.getpid()

    def sample(config, index, **run_inputs):
        if os.getpid() == parent:
            if index in failing:
                range_0_done.touch()
        else:
            deadline = time.monotonic() + 30
            while not range_0_done.exists() and time.monotonic() < deadline:
                time.sleep(0.002)
            time.sleep(0.02)
        if index in failing:
            with (range_0_done.parent / "failed.log").open("a") as log:
                log.write(f"{index} {'parent' if os.getpid() == parent else 'child'}\n")
            raise GenerationCapacityError(f"sample {index}: injected failure")
        _, return_type, attempt, line = _real_generate_sample(config, index, **run_inputs)
        if os.getpid() == parent and index == last_of_range_0:
            range_0_done.touch()
        return str(os.getpid()), return_type, attempt, line

    return sample


def test_the_parent_takes_the_upper_half_of_what_a_slow_child_has_left(tmp_path, monkeypatch):
    config = small_config(tmp_path, n_samples=30)
    serial = generate(config)
    expected = {split: (Path(config.out_dir) / f"{split}.jsonl").read_bytes() for split in SPLITS}
    parent = str(os.getpid())

    # 2 workers: ranges 0..14 and 15..29
    monkeypatch.setattr(cli, "generate_sample", _slow_child(tmp_path / "done-2", 14))
    config = small_config(tmp_path, n_samples=30, out_dir=str(tmp_path / "taken"))
    stats = generate(config, workers=2)
    for split in SPLITS:
        assert (Path(config.out_dir) / f"{split}.jsonl").read_bytes() == expected[split]
    assert stats["n_samples"] == serial["n_samples"] and stats["by_split"] == serial["by_split"]
    assert stats["by_class"][parent] > 15
    assert len(stats["by_class"]) == 2  # the parent and one child

    # 4 workers: ranges of 10; the parent takes from each child in turn
    monkeypatch.setattr(cli, "generate_sample", _slow_child(tmp_path / "done-4", 9))
    config = small_config(tmp_path, n_samples=40)
    generate(dataclasses.replace(config, out_dir=str(tmp_path / "serial-40")))
    out = tmp_path / "ranges"
    out.mkdir()
    paths = {split: out / f"{split}.jsonl" for split in SPLITS}
    run_inputs = {"config_digest": config.digest(), "pools": pools_for(config)}
    counts = cli._counts()
    cli._write_ranges(config, 4, paths, run_inputs, counts)
    for split, path in paths.items():
        assert path.read_bytes() == (tmp_path / "serial-40" / f"{split}.jsonl").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in paths.values())
    assert counts["by_class"][parent] > 10
    assert len(counts["by_class"]) == 4  # the parent and three children
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "failing, failed",
    [((16, 28), ["16 child", "28 parent"]), ((28,), ["28 parent"]), ((5,), ["5 parent"])],
    ids=["child-below-taken", "taken", "range-0"],
)
def test_the_lowest_failure_wins_across_a_taken_part(tmp_path, monkeypatch, failing, failed):
    # 30 samples at 2 workers: the child is asked before sample 16, so it keeps
    # 15..22 and the parent takes 23..29
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    monkeypatch.setattr(cli, "generate_sample", _slow_child(tmp_path / "done", 14, failing))
    config = small_config(tmp_path)
    with pytest.raises(GenerationCapacityError) as err:
        generate(config, workers=2)
    assert str(err.value) == f"sample {failing[0]}: injected failure"
    assert sorted((tmp_path / "failed.log").read_text().splitlines()) == failed
    assert list(Path(config.out_dir).iterdir()) == []
    assert multiprocessing.active_children() == []
    if cpus is not None:
        assert os.sched_getaffinity(0) == cpus


def _failing_at(*indices, before_failing=lambda: None):
    def failing(config, index, **run_inputs):
        if index in indices:
            before_failing()
            raise GenerationCapacityError(f"sample {index}: injected failure")
        return _real_generate_sample(config, index, **run_inputs)

    return failing


def _no_terminate(*args):
    raise AssertionError("a failed run must not terminate or kill a process")


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_generate_leaves_no_files_and_no_children(tmp_path, monkeypatch, workers):
    for owner, name in (
        (multiprocessing.process.BaseProcess, "terminate"),
        (multiprocessing.process.BaseProcess, "kill"),
        (multiprocessing.pool.Pool, "terminate"),
    ):
        monkeypatch.setattr(owner, name, _no_terminate)
    # 30 samples: at 2 workers, ranges 0..14 and 15..29; the lowest failure is raised
    for failing, first in (((5, 20), 5), ((20,), 20)):
        monkeypatch.setattr(cli, "generate_sample", _failing_at(*failing))
        config = small_config(tmp_path, out_dir=str(tmp_path / f"failing-{first}"))
        with pytest.raises(GenerationCapacityError) as err:
            generate(config, workers=workers)
        assert str(err.value) == f"sample {first}: injected failure"
        assert list(Path(config.out_dir).iterdir()) == []
        assert multiprocessing.active_children() == []


def test_a_failed_range_stops_the_ranges_above_it(tmp_path, monkeypatch):
    failed, written = tmp_path / "failed", tmp_path / "written"
    failing = _failing_at(5, before_failing=failed.touch)

    def slow_second_range(config, index, **run_inputs):
        if index >= 15:
            # start only once sample 5 has failed, then take 15 x 0.05 s in all
            deadline = time.monotonic() + 30
            while not failed.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)
            with written.open("a") as f:
                f.write(f"{index}\n")
        return failing(config, index, **run_inputs)

    monkeypatch.setattr(cli, "generate_sample", slow_second_range)
    config = small_config(tmp_path)
    with pytest.raises(GenerationCapacityError, match="sample 5"):
        generate(config, workers=2)
    assert len(written.read_text().split()) < 15
    assert list(Path(config.out_dir).iterdir()) == []
    assert multiprocessing.active_children() == []


def test_four_range_writers_keep_range_order_and_raise_the_lowest_failure(tmp_path, monkeypatch):
    workers = 4  # more than the CPUs of a small host, so some go unbound
    config = small_config(tmp_path, n_samples=10 * workers)
    generate(config)
    out = tmp_path / "ranges"
    out.mkdir()
    paths = {split: out / f"{split}.jsonl" for split in cli.SPLITS}
    run_inputs = {"config_digest": config.digest(), "pools": pools_for(config)}
    cli._write_ranges(config, workers, paths, run_inputs, cli._counts())
    for split, path in paths.items():
        assert path.read_bytes() == (Path(config.out_dir) / f"{split}.jsonl").read_bytes()
    # ranges of 10 samples: the failures are in the second and the last range
    monkeypatch.setattr(cli, "generate_sample", _failing_at(15, 10 * workers - 5))
    with pytest.raises(GenerationCapacityError) as err:
        cli._write_ranges(config, workers, paths, run_inputs, cli._counts())
    assert str(err.value) == "sample 15: injected failure"
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in paths.values())
    assert multiprocessing.active_children() == []


def _dying_at_20(config, index, **run_inputs):
    if index == 20:
        os._exit(1)
    return _real_generate_sample(config, index, **run_inputs)


def test_a_worker_that_dies_exits_3_naming_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "generate_sample", _dying_at_20)
    out = tmp_path / "ds"
    assert main(["generate", "--out", str(out), "--n-samples", "30", "--workers", "2"]) == 3
    err = capsys.readouterr().err
    assert "worker 1 (samples 15..29) ended with exit code 1" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


def _dying_at_20_with_a_request_unread(config, index, **run_inputs):
    # the parent asks once range 0 is done, while the child sleeps past its poll
    if index == 20 and os.getpid() != _TEST_PID:
        time.sleep(0.2)
        os._exit(1)
    return _real_generate_sample(config, index, **run_inputs)


def test_a_worker_that_dies_with_a_request_unread_exits_3_naming_it(tmp_path, monkeypatch, capsys):
    # Linux resets the pipe of a child that dies with data unread in its end
    monkeypatch.setattr(cli, "generate_sample", _dying_at_20_with_a_request_unread)
    out = tmp_path / "ds"
    assert main(["generate", "--out", str(out), "--n-samples", "30", "--workers", "2"]) == 3
    err = capsys.readouterr().err
    assert "worker 1 (samples 15..29) ended with exit code 1 without reporting" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


def _env_importing_this_gridqa() -> dict:
    """os.environ with the gridqa under test first on PYTHONPATH, for a subprocess."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_python_dash_m_gridqa_runs_the_command_line(tmp_path):
    def run(*args):
        argv = [sys.executable, "-m", "gridqa", *args]
        env = _env_importing_this_gridqa()
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    done = run("generate", "--n-samples", "0", "--out", str(tmp_path / "ds"))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["n_samples"] == 0
    done = run("generate", "--no-such-flag")
    assert done.returncode == 1
    assert "config error" in done.stderr and "Traceback" not in done.stderr


def test_output_bytes_do_not_depend_on_the_string_hash_seed(tmp_path):
    # memids are strings, whose hashes, and so the iteration order of sets
    # of them, change with PYTHONHASHSEED from one process to the next
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        argv = [
            sys.executable, "-m", "gridqa", "generate", "--out", str(out),
            "--n-samples", "40", "--seed", "9", "--set", "command_prob=1.0",
            "--set", "two_clause_prob=0.6", "--set", "n_snapshots=3",
        ]
        env = {**_env_importing_this_gridqa(), "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        names = ("train.jsonl", "valid.jsonl", "test.jsonl", "stats.json")
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


def test_config_and_preset_together_exit_1_writing_nothing(tmp_path, capsys):
    cfg, out = tmp_path / "c.cfg", tmp_path / "out"
    cfg.write_text(GenConfig(n_samples=2).canonical_text() + "\n", encoding="utf-8")
    argv = ["generate", "--config", str(cfg), "--preset", "properties", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--preset: not allowed with argument --config" in err and "Traceback" not in err
    assert not out.exists()


_TWO_WORKERS_ON_ONE_CPU = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from gridqa.cli import main
sys.exit(main(["generate", "--out", sys.argv[1], "--n-samples", "4", "--workers", "2"]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU binding here")
def test_workers_beyond_the_cpus_this_process_may_use_exit_1(tmp_path):
    # the subprocess binds only itself to one CPU; the machine may have more
    out = tmp_path / "ds"
    argv = [sys.executable, "-c", _TWO_WORKERS_ON_ONE_CPU, str(out)]
    env = _env_importing_this_gridqa()
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert "workers: must be between 1 and the CPU count 1, got 2" in done.stderr
    assert "Traceback" not in done.stderr and not out.exists()


_IMPORTS_OF_A_RUN = """
import json, sys
from gridqa.cli import main
argv = ["generate", "--out", sys.argv[1], "--n-samples", "4", "--workers", sys.argv[2]]
assert main(argv) == 0
print(json.dumps([
    name for name in sys.modules
    if "ctypes" in name or name.split(".")[0] == "multiprocessing"
]))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_a_parallel_run_imports_no_ctypes(tmp_path):
    # shared memory (multiprocessing.Value) would import ctypes, at a cost of
    # several ms per command line; the range writers share only their pipes.
    # A serial run imports no multiprocessing at all.
    env = _env_importing_this_gridqa()
    for workers in ("1", "2"):
        argv = [sys.executable, "-c", _IMPORTS_OF_A_RUN, str(tmp_path / workers), workers]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        modules = json.loads(done.stdout.splitlines()[-1])
        assert not any("ctypes" in name for name in modules)
        assert ("multiprocessing" in modules) == (workers == "2")


_A_RUN_UNDER_FORKSERVER = """
import json, multiprocessing, sys
# the Linux default from CPython 3.14 on, set before gridqa is imported
multiprocessing.set_start_method("forkserver")
from gridqa import cli
from gridqa.config import GenConfig

real = cli.generate_sample

def marked(config, index, **run_inputs):
    _, return_type, attempt, line = real(config, index, **run_inputs)
    return "marked", return_type, attempt, line

cli.generate_sample = marked
cli.generate(GenConfig(n_samples=6, seed=7, out_dir=sys.argv[1]), workers=2)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_range_writers_are_forked_under_a_forkserver_default(tmp_path):
    # only a forked writer sees the patched generate_sample; one started by the
    # forkserver imports gridqa afresh and counts the real query classes
    env = _env_importing_this_gridqa()
    out = tmp_path / "ds"
    argv = [sys.executable, "-c", _A_RUN_UNDER_FORKSERVER, str(out)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats["n_samples"] == 6
    assert stats["by_class"] == {"marked": 6}


def test_workers_are_refused_where_fork_does_not_exist(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    config = small_config(tmp_path, n_samples=4)
    with pytest.raises(ConfigError, match="workers"):
        generate(config, workers=2)
    assert not Path(config.out_dir).exists()
    out = tmp_path / "ds"
    assert main(["generate", "--out", str(out), "--n-samples", "4", "--workers", "2"]) == 1
    assert "workers" in capsys.readouterr().err
    assert not out.exists()
    generate(config, workers=1)  # a serial run needs no fork


@pytest.mark.parametrize("workers", [0, (os.cpu_count() or 1) + 1])
def test_workers_out_of_range_exit_1_before_any_output(tmp_path, capsys, workers):
    out = tmp_path / "ds"
    assert main(["generate", "--out", str(out), "--n-samples", "2", "--workers", str(workers)]) == 1
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


def test_hash_inside_a_value_round_trips(tmp_path):
    pool = tmp_path / "a#b.txt"
    pool.write_text("\n".join(default_names()) + "\n", encoding="utf-8")
    config = GenConfig(names_file=str(pool))
    assert parse_config_text(config.canonical_text()) == config
    text = "# whole line\nout_dir = run#1  # trailing\nn_npcs = 3\t# tab\n"
    assert parse_config_text(text) == GenConfig(out_dir="run#1", n_npcs=3)
    run = small_config(tmp_path, n_samples=2, names_file=str(pool), out_dir=str(tmp_path / "o#1"))
    generate(run)
    assert load_config(tmp_path / "o#1" / "config.cfg") == run


def test_value_that_does_not_round_trip_exits_1_before_any_output(tmp_path, capsys):
    out = tmp_path / "x # y"
    assert main(["generate", "--out", str(out), "--n-samples", "2"]) == 1
    assert "out_dir" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    with pytest.raises(ConfigError, match="names_file"):
        GenConfig(names_file=" padded.txt").check_round_trip()


# sha256 over train, valid and test (in that order) for 30 samples at seed 7.
# A deliberate change of the output bumps these and says why in CHANGES.md.
GOLDEN_FINGERPRINTS = {
    "default": "472f3a6186b41ee750c71734230a03b301713b3f5d08ee465c80f0af78f6b5dc",
    "properties": "de9e7ff082aa62759f33106bd7a514529e6eb7213bb636de6ae6a42b4c29d7bf",
    "custom-names": "e2d64a0dad97e1161f6ba5d152c203c0b9fa34a9a9ad32b146489b76c818bebf",
}
# The same sha256 with every line re-encoded as json.dumps(record, sort_keys=True),
# with its ", " and ": " separators: the bytes written before lines were compact.
# These pin what the records say; GOLDEN_FINGERPRINTS pins how they are written.
EXPANDED_FINGERPRINTS = {
    "default": "667afa18c8ce5561e75ffba30c5c8739717544395f2f93b6c10fe27ae1837fa9",
    "properties": "7792784520b73864c18ae953253bba02cf89725f426163bf7453e2f8de563449",
    "custom-names": "91d8bbc6c925a12f55e724a3786314159bc2f6fd57430bf34938e74853c1c35e",
}
# nine names: the name draw runs on a pool other than the packaged one, and
# config_digest hashes a pool file. Random.sample(pool, 6) takes its list
# branch for a pool of at most 85 names and its set branch above that, so
# this case covers the list branch and the packaged 254-name pool the set
# branch; keep this pool at 85 names or fewer.
CUSTOM_NAMES = "ada\nalan\nbarbara\ndennis\nedsger\ngrace\nhedy\nkaren\nlinus\n"


def generate_golden(tmp_path, case) -> list[bytes]:
    """The train, valid and test files of one golden case, generated under tmp_path."""
    base = GenConfig.properties_mode() if case == "properties" else GenConfig()
    overrides = dict(n_samples=30, seed=7, out_dir=str(tmp_path / case))
    if case == "custom-names":
        names = tmp_path / "names.txt"
        names.write_text(CUSTOM_NAMES, encoding="utf-8")
        overrides["names_file"] = str(names)
    config = dataclasses.replace(base, **overrides)
    generate(config)
    return [(Path(config.out_dir) / f"{split}.jsonl").read_bytes() for split in SPLITS]


def expanded(line: bytes) -> bytes:
    """A dataset line in the form written before lines were compact."""
    return json.dumps(json.loads(line), sort_keys=True).encode() + b"\n"


@pytest.mark.parametrize("case", sorted(GOLDEN_FINGERPRINTS))
def test_golden_fingerprint(tmp_path, case):
    digest = hashlib.sha256()
    for data in generate_golden(tmp_path, case):
        digest.update(data)
    assert digest.hexdigest() == GOLDEN_FINGERPRINTS[case]


@pytest.mark.parametrize("case", sorted(EXPANDED_FINGERPRINTS))
def test_compact_lines_change_only_whitespace(tmp_path, case):
    digest = hashlib.sha256()
    for data in generate_golden(tmp_path, case):
        for line in data.splitlines():
            digest.update(expanded(line))
    assert digest.hexdigest() == EXPANDED_FINGERPRINTS[case]


def test_a_dataset_in_the_expanded_form_still_reads_and_validates(tmp_path, capsys):
    config = small_config(tmp_path, n_samples=6, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    out = Path(config.out_dir)
    lines = (out / "train.jsonl").read_bytes().splitlines()
    old = tmp_path / "expanded.jsonl"
    old.write_bytes(b"".join(map(expanded, lines)))
    assert b'"context_relational": {"reference_objects": [{' in old.read_bytes()
    code = main(["validate", "--dataset", str(old), "--config", str(out / "config.cfg")])
    assert capsys.readouterr().err == ""
    assert code == 0
    for line, old_line in zip(lines, old.read_bytes().splitlines(), strict=True):
        new, before = (json.loads(text)["context_relational"] for text in (line, old_line))
        assert read_relational_context(before) == read_relational_context(new)


# --- scoring ---------------------------------------------------------------------


def write_predictions(path, pairs):
    with open(path, "w", encoding="utf-8") as f:
        for sample_id, answer in pairs:
            f.write(json.dumps({"sample_id": sample_id, "answer_text": answer}) + "\n")


def test_score_perfect_zero_error(tmp_path):
    config = small_config(tmp_path, n_samples=10, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    refs = Path(config.out_dir) / "train.jsonl"
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, [(s.sample_id, s.answer_text) for s in read_samples(refs)])
    report = score(preds, refs)
    assert report["exact_match_error"] == 0.0
    assert report["n"] == 10


def test_score_all_wrong_and_half_wrong(tmp_path):
    config = small_config(tmp_path, n_samples=10, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    refs = Path(config.out_dir) / "train.jsonl"
    samples = list(read_samples(refs))

    all_wrong = tmp_path / "wrong.jsonl"
    write_predictions(all_wrong, [(s.sample_id, "definitely wrong") for s in samples])
    assert score(all_wrong, refs)["exact_match_error"] == 1.0

    half = tmp_path / "half.jsonl"
    write_predictions(
        half,
        [
            (s.sample_id, s.answer_text if i < 5 else "nope")
            for i, s in enumerate(samples)
        ],
    )
    assert score(half, refs)["exact_match_error"] == 0.5


def test_score_normalizes_whitespace(tmp_path):
    config = small_config(tmp_path, n_samples=4, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    refs = Path(config.out_dir) / "train.jsonl"
    preds = tmp_path / "preds.jsonl"
    write_predictions(
        preds, [(s.sample_id, "  " + s.answer_text.replace(" ", "   ")) for s in read_samples(refs)]
    )
    assert score(preds, refs)["exact_match_error"] == 0.0


def test_score_alignment_error_lists_offenders(tmp_path):
    config = small_config(tmp_path, n_samples=5, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    refs = Path(config.out_dir) / "train.jsonl"
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, [(99, "x")])
    with pytest.raises(AlignmentError) as err:
        score(preds, refs)
    assert "99" in str(err.value)


@pytest.mark.parametrize(
    "bad_file, field, value",
    [("predictions", "answer_text", 7), ("references", "answer_text", 7),
     ("predictions", "sample_id", [1])],
    ids=["predicted-answer", "reference-answer", "predicted-id"],
)
def test_score_exits_3_naming_a_mistyped_field(tmp_path, capsys, bad_file, field, value):
    config = small_config(tmp_path, n_samples=3, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    refs = Path(config.out_dir) / "train.jsonl"
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, [(s.sample_id, s.answer_text) for s in read_samples(refs)])
    bad = preds if bad_file == "predictions" else refs
    records = [json.loads(line) for line in bad.read_text().splitlines()]
    records[1][field] = value
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["score", "--predictions", str(preds), "--references", str(refs)]) == 3
    err = capsys.readouterr().err
    assert f"{bad}, line 2" in err and f"{field} {value!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("keep, add", [(2, []), (3, [(99, "x")])], ids=["missing", "unknown"])
def test_score_exits_1_on_an_id_mismatch(tmp_path, capsys, keep, add):
    config = small_config(tmp_path, n_samples=3, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    refs = Path(config.out_dir) / "train.jsonl"
    preds = tmp_path / "preds.jsonl"
    pairs = [(s.sample_id, s.answer_text) for s in read_samples(refs)]
    write_predictions(preds, pairs[:keep] + add)
    capsys.readouterr()
    assert main(["score", "--predictions", str(preds), "--references", str(refs)]) == 1
    err = capsys.readouterr().err
    assert "sample id mismatch" in err and ("[2]" if keep == 2 else "[99]") in err
    assert "Traceback" not in err


def test_score_reads_line_separators_inside_an_answer(tmp_path, capsys):
    # json.dumps(ensure_ascii=False) leaves these raw in a string; only "\n" ends a line
    config = small_config(tmp_path, n_samples=4, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    refs = Path(config.out_dir) / "train.jsonl"
    preds = tmp_path / "preds.jsonl"
    with open(preds, "w", encoding="utf-8") as f:
        for s in read_samples(refs):
            answer = s.answer_text + "\u2028\u2029\x85\x1c\x1d\x1e"
            record = {"sample_id": s.sample_id, "answer_text": answer}
            f.write(json.dumps(record, ensure_ascii=False) + "\n")
    capsys.readouterr()
    assert main(["score", "--predictions", str(preds), "--references", str(refs)]) == 0
    assert json.loads(capsys.readouterr().out)["exact_match_error"] == 0.0


def test_score_reads_crlf_files_like_lf_files(tmp_path):
    config = small_config(tmp_path, n_samples=6, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    refs = Path(config.out_dir) / "train.jsonl"
    preds = tmp_path / "preds.jsonl"
    pairs = [(s.sample_id, s.answer_text) for s in read_samples(refs)]
    write_predictions(preds, pairs[:3] + [(i, "surely wrong") for i, _ in pairs[3:]])
    expected = score(preds, refs)
    assert expected["exact_match_error"] == 0.5
    crlf_refs, crlf_preds = tmp_path / "refs_crlf.jsonl", tmp_path / "preds_crlf.jsonl"
    for src, dst in ((refs, crlf_refs), (preds, crlf_preds)):
        dst.write_bytes(src.read_bytes().replace(b"\n", b"\r\n"))
    assert b"\r\n" in crlf_refs.read_bytes()
    assert score(crlf_preds, crlf_refs) == expected


@pytest.mark.parametrize("repeated_in", ["predictions", "references"])
def test_score_exits_1_naming_a_repeated_sample_id(tmp_path, capsys, repeated_in):
    # a right answer then a wrong one for the same id: neither may win silently
    config = small_config(tmp_path, n_samples=3, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    refs = Path(config.out_dir) / "train.jsonl"
    preds = tmp_path / "preds.jsonl"
    pairs = [(s.sample_id, s.answer_text) for s in read_samples(refs)]
    if repeated_in == "predictions":
        write_predictions(preds, pairs + [(pairs[1][0], "surely wrong")])
    else:
        write_predictions(preds, pairs)
        second = refs.read_text(encoding="utf-8").split("\n")[1]
        with open(refs, "a", encoding="utf-8") as f:
            f.write(second + "\n")
    capsys.readouterr()
    assert main(["score", "--predictions", str(preds), "--references", str(refs)]) == 1
    err = capsys.readouterr().err
    bad = preds if repeated_in == "predictions" else refs
    assert f"{bad}: repeated sample ids [{pairs[1][0]}]" in err
    assert "Traceback" not in err


# --- inspect / validate ------------------------------------------------------------


def test_inspect_dump_contains_query_and_seed(tmp_path):
    config = small_config(tmp_path, n_samples=5)
    generate(config)
    sample = Sample.from_record(regenerate(config, 2))
    dump = format_dump(sample)
    assert sample.query_text in dump
    assert str(sample.generation_metadata["sample_seed"]) in dump
    assert sample.answer_text in dump


@pytest.mark.parametrize(
    "field, value",
    [("generation_metadata", {}), ("generation_metadata", None), ("answer_memids", [1, 2])],
    ids=["empty-metadata", "null-metadata", "int-memids"],
)
def test_inspect_exits_3_naming_a_malformed_record(tmp_path, capsys, field, value):
    config = small_config(tmp_path, n_samples=2, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    path = Path(config.out_dir) / "train.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[1][field] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["inspect", "--dataset", str(path), "--sample-id", "1"]) == 3
    captured = capsys.readouterr()
    assert f"{path}, sample 1: not a valid record" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_validate_accepts_emitted_dataset(tmp_path):
    config = small_config(tmp_path, n_samples=12, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    problems = validate_dataset(Path(config.out_dir) / "train.jsonl", config)
    assert problems == []


def test_validate_with_the_generating_config_file(tmp_path, capsys):
    config_path = tmp_path / "gen.cfg"
    config_path.write_text(
        "n_samples = 6\nseed = 5\nout_dir = elsewhere\n"
        "split_train = 1.0\nsplit_valid = 0.0\nsplit_test = 0.0\n",
        encoding="utf-8",
    )
    out = tmp_path / "ds"
    assert main(["generate", "--config", str(config_path), "--out", str(out)]) == 0
    code = main(["validate", "--dataset", str(out / "train.jsonl"), "--config", str(config_path)])
    assert capsys.readouterr().err == ""
    assert code == 0
    # generate also writes the effective config, which regenerates the same records
    effective = apply_overrides(load_config(config_path), [f"out_dir={out}"])
    written = load_config(out / "config.cfg")
    assert written == effective
    assert written.digest() == effective.digest()
    code = main(["validate", "--dataset", str(out / "train.jsonl"), "--config", str(out / "config.cfg")])
    assert capsys.readouterr().err == ""
    assert code == 0


def test_validate_checks_the_config_before_any_record(tmp_path, capsys):
    dataset, config = tmp_path / "train.jsonl", tmp_path / "bad.cfg"
    dataset.write_text("", encoding="utf-8")
    config.write_text("world_size = 2\n", encoding="utf-8")
    assert main(["validate", "--dataset", str(dataset), "--config", str(config)]) == 1
    assert "world_size" in capsys.readouterr().err


def test_validate_flags_tampered_records(tmp_path):
    config = small_config(tmp_path, n_samples=3, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    path = Path(config.out_dir) / "train.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[0]["answer_text"] = ""
    records[1]["query_text"] = "what are the names of the objects that wiggle?"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    problems = validate_dataset(path)
    assert any("empty answer" in p for p in problems)
    assert any("failed to parse" in p for p in problems)


def _drop_first_triples_hash(record):
    del record["context_relational"]["triples"][0]["triples_hash"]


def _set_first_object_id(rid):
    def corrupt(record):
        record["context_relational"]["reference_objects"][0]["reference_object_hash"] = rid
    return corrupt


def _set_first_triple_subject_id(subject):
    def corrupt(record):
        record["context_relational"]["triples"][0]["triples_hash"][1] = subject
    return corrupt


@pytest.mark.parametrize(
    "corrupt, problem",
    [
        (_drop_first_triples_hash, "relational context unreadable: KeyError"),
        (lambda record: record.update(context_relational=5), "relational context unreadable"),
        (
            _set_first_object_id("0123456789abcdeg"),
            "unreadable: ValueError: id '0123456789abcdeg' is not 16 lowercase hex digits",
        ),
        (
            _set_first_triple_subject_id("subject 0x2a    "),
            "unreadable: ValueError: id 'subject 0x2a    ' is not 16 lowercase hex digits",
        ),
        (
            _set_first_object_id("0123456789ABCDEF"),
            "unreadable: ValueError: id '0123456789ABCDEF' is not 16 lowercase hex digits",
        ),
        (lambda record: record.update(answer_memids=None), "answer_memids"),
        (lambda record: record.update(answer_text=5), "answer_text is not a string: 5"),
        (lambda record: record.update(query_logical_form=[]), "query_logical_form is not"),
        (lambda record: record.update(generation_metadata={}), "generation_metadata is not"),
        (lambda record: record.update(generation_metadata=None), "generation_metadata is not"),
    ],
    ids=[
        "triple-without-hash",
        "context-not-an-object",
        "non-hex-object-id",
        "non-hex-triple-subject-id",
        "uppercase-object-id",
        "null-answer-memids",
        "answer-not-a-string",
        "form-not-an-object",
        "empty-metadata",
        "null-metadata",
    ],
)
def test_validate_reports_a_malformed_record_without_a_traceback(
    tmp_path, capsys, corrupt, problem
):
    config = small_config(tmp_path, n_samples=2, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    path = Path(config.out_dir) / "train.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    corrupt(records[1])
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    problems = validate_dataset(path)
    assert len(problems) == 1 and problems[0].startswith("sample 1: ")
    assert problem in problems[0]
    assert main(["validate", "--dataset", str(path)]) == 1
    err = capsys.readouterr().err
    assert problem in err and "Traceback" not in err


def test_an_answer_memid_that_is_only_a_triple_subject_is_missing_from_context(tmp_path):
    # the context's ids are its object memids and triple t_ids: a triple's
    # subject is no id unless it is also a node
    config = small_config(tmp_path, n_samples=2, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    path = Path(config.out_dir) / "train.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    context, subject = records[1]["context_relational"], "00000000deadbeef"
    assert subject not in path.read_text()
    context["triples"][0]["triples_hash"][1] = subject
    records[1]["answer_memids"] = [subject]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    problems = validate_dataset(path)
    assert problems == [f"sample 1: answer memids missing from context: ['{subject}']"]


def test_validate_holds_one_parsed_record_at_a_time(tmp_path, monkeypatch):
    config = small_config(tmp_path, n_samples=60, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    live = weakref.WeakValueDictionary()  # a Sample is unhashable, so no WeakSet
    held = []
    real_from_record, real_parse_form = Sample.from_record, cli.parse_form

    def tracked_from_record(record):
        sample = real_from_record(record)
        live[id(sample)] = sample
        return sample

    def counting_parse_form(text):
        held.append(len(live))  # the records alive while one is checked
        return real_parse_form(text)

    monkeypatch.setattr(Sample, "from_record", tracked_from_record)
    monkeypatch.setattr(cli, "parse_form", counting_parse_form)
    assert validate_dataset(Path(config.out_dir) / "train.jsonl") == []
    assert held == [1] * 60


@pytest.mark.parametrize(
    "lineno, bad_line",
    [(4, b'{"sample_id": 3, "query_text": \n'), (2, b'{"answer_text": "caf\xe9"}\n')],
    ids=["json-after-good-records", "not-utf8"],
)
def test_validate_exits_3_naming_a_bad_line(tmp_path, capsys, lineno, bad_line):
    config = small_config(tmp_path, n_samples=3, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    path = Path(config.out_dir) / "train.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines.insert(lineno - 1, bad_line)
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["validate", "--dataset", str(path)]) == 3
    captured = capsys.readouterr()
    assert f"{path}, line {lineno}: not a valid record" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("sample_id", ["x", -1, 2**64, True])
def test_validate_with_config_reports_an_id_it_cannot_regenerate(tmp_path, capsys, sample_id):
    config = small_config(tmp_path, n_samples=2, split_train=1.0, split_valid=0.0, split_test=0.0)
    generate(config)
    path = Path(config.out_dir) / "train.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[1]["sample_id"] = sample_id
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert validate_dataset(path, config) == [
        f"sample {sample_id}: sample_id is not a sample index, cannot regenerate"
    ]
    cfg = str(Path(config.out_dir) / "config.cfg")
    assert main(["validate", "--dataset", str(path), "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "cannot regenerate" in err and "Traceback" not in err


# --- entry point --------------------------------------------------------------------


def test_main_generate_and_score_roundtrip(tmp_path, capsys):
    out = tmp_path / "ds"
    code = main(
        [
            "generate",
            "--out",
            str(out),
            "--n-samples",
            "8",
            "--seed",
            "11",
            "--set",
            "split_train=1.0",
            "--set",
            "split_valid=0.0",
            "--set",
            "split_test=0.0",
        ]
    )
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n_samples"] == 8

    preds = tmp_path / "preds.jsonl"
    write_predictions(
        preds, [(s.sample_id, s.answer_text) for s in read_samples(out / "train.jsonl")]
    )
    code = main(["score", "--predictions", str(preds), "--references", str(out / "train.jsonl")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact_match_error"] == 0.0


def test_main_inspect(tmp_path, capsys):
    out = tmp_path / "ds"
    main(["generate", "--out", str(out), "--n-samples", "3", "--set", "split_train=1.0",
          "--set", "split_valid=0.0", "--set", "split_test=0.0"])
    capsys.readouterr()
    code = main(["inspect", "--dataset", str(out / "train.jsonl"), "--sample-id", "1"])
    assert code == 0
    assert "sample 1" in capsys.readouterr().out
    code = main(["inspect", "--dataset", str(out / "train.jsonl"), "--sample-id", "999"])
    assert code == 1


def test_truncated_jsonl_exits_3_naming_file_and_line(tmp_path, capsys):
    out = tmp_path / "ds"
    main(["generate", "--out", str(out), "--n-samples", "3", "--set", "split_train=1.0",
          "--set", "split_valid=0.0", "--set", "split_test=0.0"])
    dataset = out / "train.jsonl"
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_bytes(dataset.read_bytes()[:-40])
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"sample_id": 0, "answer_text": "x"}\n{"sample_id": 1, "answ\n')
    capsys.readouterr()
    for argv, bad in (
        (["validate", "--dataset", str(truncated)], truncated),
        (["inspect", "--dataset", str(truncated), "--sample-id", "2"], truncated),
        (["score", "--predictions", str(preds), "--references", str(dataset)], preds),
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{bad}, line" in err
        assert "Traceback" not in err


def test_inspect_reads_no_further_than_the_record_it_dumps(tmp_path, capsys):
    out = tmp_path / "ds"
    main(["generate", "--out", str(out), "--n-samples", "3", "--set", "split_train=1.0",
          "--set", "split_valid=0.0", "--set", "split_test=0.0"])
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_bytes((out / "train.jsonl").read_bytes()[:-40])
    capsys.readouterr()
    # sample 0 is on line 1; the truncated line 3 is never parsed
    assert main(["inspect", "--dataset", str(truncated), "--sample-id", "0"]) == 0
    assert capsys.readouterr().out.startswith("sample 0 ")


@pytest.mark.parametrize("with_config", [False, True])
def test_a_record_without_format_version_exits_3_naming_file_and_line(
    tmp_path, capsys, with_config
):
    out = tmp_path / "ds"
    main(["generate", "--out", str(out), "--n-samples", "5", "--set", "split_train=1.0",
          "--set", "split_valid=0.0", "--set", "split_test=0.0"])
    dataset = out / "train.jsonl"
    lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    del record["format_version"]
    lines[2] = json.dumps(record, sort_keys=True) + "\n"
    dataset.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    argv = ["validate", "--dataset", str(dataset)]
    if with_config:
        argv += ["--config", str(out / "config.cfg")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"{dataset}, line 3" in err and "format_version" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["generate --config", "validate --config", "names_file"])
def test_a_file_that_is_not_utf8_exits_1_naming_it(tmp_path, capsys, command):
    bad = tmp_path / "latin1.txt"
    # a latin-1 name pool, or a config file holding byte 0xff
    bad.write_bytes("zoë\n".encode("latin-1") if command == "names_file" else b"seed = 1\xff\n")
    out = tmp_path / "out"
    argv = {
        "generate --config": ["generate", "--config", str(bad), "--out", str(out)],
        "validate --config": ["validate", "--dataset", str(tmp_path / "x.jsonl"), "--config", str(bad)],
        "names_file": ["generate", "--out", str(out), "--set", f"names_file={bad}"],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "utf-8" in err.lower()
    assert "Traceback" not in err and not out.exists()


def test_main_exit_codes(tmp_path, capsys):
    # config error
    bad = tmp_path / "bad.cfg"
    bad.write_text("world_size = 1\n")
    assert main(["generate", "--config", str(bad)]) == 1
    # unknown config key
    worse = tmp_path / "worse.cfg"
    worse.write_text("wat = 1\n")
    assert main(["generate", "--config", str(worse)]) == 1
    # io error: unreadable dataset for score
    assert (
        main(["score", "--predictions", str(tmp_path / "nope.jsonl"), "--references", str(tmp_path / "nope.jsonl")])
        == 3
    )
    # usage error maps to config error
    assert main(["generate", "--bogus-flag"]) == 1
    # a pool file that is empty, or holds a word query text cannot carry, is a
    # config error found before any output
    pool, out = tmp_path / "pool.txt", tmp_path / "bad-pool"
    for words in ("\n", CUSTOM_NAMES + "me\n", CUSTOM_NAMES + "and\n", CUSTOM_NAMES + "o'hara\n"):
        pool.write_text(words)
        assert main(["generate", "--out", str(out), "--set", f"names_file={pool}"]) == 1
        assert not out.exists()
    # as is a name pool smaller than n_npcs + 2 (here 6)
    pool.write_text("ada\nalan\n")
    assert main(["generate", "--out", str(out), "--set", f"names_file={pool}"]) == 1
    assert not out.exists()
    assert "n_npcs" in capsys.readouterr().err


def test_a_name_pool_that_repeats_a_name_exits_1_naming_it(tmp_path, capsys):
    # seven lines are enough for n_npcs = 4, but only two distinct names
    pool, out = tmp_path / "names.txt", tmp_path / "out"
    pool.write_text("ada\n" * 6 + "bob\n", encoding="utf-8")
    assert main(["generate", "--out", str(out), "--set", f"names_file={pool}"]) == 1
    err = capsys.readouterr().err
    assert f"names_file {pool}: 'ada' appears more than once" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("kind", ["agent", "player"])
def test_an_npc_type_pool_holding_an_entity_kind_exits_1_naming_it(tmp_path, capsys, kind):
    # an NPC of type player would read back, from either context, as a second player
    pool, out = tmp_path / "types.txt", tmp_path / "out"
    pool.write_text(f"cow\n{kind}\n", encoding="utf-8")
    assert main(["generate", "--out", str(out), "--set", f"npc_types_file={pool}"]) == 1
    err = capsys.readouterr().err
    assert f"npc_types_file {pool}: {kind!r} is an entity kind" in err
    assert "Traceback" not in err and not out.exists()
