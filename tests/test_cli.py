import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from gridqa import cli
from gridqa.cli import (
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
from gridqa.serialize import read_samples


def small_config(tmp_path, **overrides) -> GenConfig:
    base = dict(n_samples=30, seed=7, out_dir=str(tmp_path / "data"))
    base.update(overrides)
    return dataclasses.replace(GenConfig(), **base)


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
    with pytest.raises(ConfigError):
        apply_overrides(GenConfig(), ["bogus=1"])


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
    assert generate_sample(config, 3).to_record() == records[3]


def test_subset_regeneration_matches_full_run(tmp_path):
    config = small_config(tmp_path)
    generate(config)
    records = read_all_records(Path(config.out_dir))
    for index in (0, 7, 13, 29):
        regenerated = generate_sample(config, index)
        assert regenerated.to_record() == records[index]


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


def _worker_affinity(_):
    time.sleep(0.05)  # keep this worker busy so the next task goes to another
    return os.getpid(), frozenset(os.sched_getaffinity(0))


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


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU binding and two CPUs",
)
def test_pool_workers_run_on_disjoint_cpus():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers import this test module only when forked")
    expected = {frozenset(cpus) for cpus in cli._worker_cpu_sets(2)}
    with cli._open_pool(2) as pool:
        seen = dict(pool.map(_worker_affinity, range(4), chunksize=1))
    assert set(seen.values()) <= expected
    assert len(set(seen.values())) == len(seen)
    # a worker started after the CPU sets are all claimed stays unbound, without waiting
    cli._bind_worker(multiprocessing.SimpleQueue(), multiprocessing.Lock())
    assert os.sched_getaffinity(0) == set().union(*expected)


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_generate_leaves_no_files_and_no_children(tmp_path, monkeypatch, workers):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched generate_sample only when forked")
    real = cli.generate_sample

    def failing(config, index, config_digest=None):
        if index == 5:
            raise GenerationCapacityError(f"sample {index}: injected failure")
        return real(config, index, config_digest)

    monkeypatch.setattr(cli, "generate_sample", failing)
    config = small_config(tmp_path)
    with pytest.raises(GenerationCapacityError, match="injected"):
        generate(config, workers=workers)
    assert list(Path(config.out_dir).iterdir()) == []
    assert multiprocessing.active_children() == []


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
    "default": "49e4d2aaf373ca28c1eafc7bb0e63d69a9bc915d7f44dd9b8d7f68639792775b",
    "properties": "4f3d5fb051a8adb71f4d830d74065e0f093626d98e1c138329ad07a235a8a130",
    "custom-names": "8cf6317ef7518d637244ba070db1032147fad6c32a5d295107653c2bd18f32e4",
}
# nine names: the name draw runs on a pool other than the packaged one, and
# config_digest hashes a pool file
CUSTOM_NAMES = "ada\nalan\nbarbara\ndennis\nedsger\ngrace\nhedy\nkaren\nlinus\n"


@pytest.mark.parametrize("case", sorted(GOLDEN_FINGERPRINTS))
def test_golden_fingerprint(tmp_path, case):
    base = GenConfig.properties_mode() if case == "properties" else GenConfig()
    overrides = dict(n_samples=30, seed=7, out_dir=str(tmp_path / case))
    if case == "custom-names":
        names = tmp_path / "names.txt"
        names.write_text(CUSTOM_NAMES, encoding="utf-8")
        overrides["names_file"] = str(names)
    config = dataclasses.replace(base, **overrides)
    generate(config)
    digest = hashlib.sha256()
    for split in ("train", "valid", "test"):
        digest.update((Path(config.out_dir) / f"{split}.jsonl").read_bytes())
    assert digest.hexdigest() == GOLDEN_FINGERPRINTS[case]


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
    samples = read_samples(refs)

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


# --- inspect / validate ------------------------------------------------------------


def test_inspect_dump_contains_query_and_seed(tmp_path):
    config = small_config(tmp_path, n_samples=5)
    generate(config)
    records = read_all_records(Path(config.out_dir))
    sample = generate_sample(config, 2)
    dump = format_dump(sample)
    assert sample.query_text in dump
    assert str(sample.generation_metadata["sample_seed"]) in dump
    assert sample.answer_text in dump


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
        (["inspect", "--dataset", str(truncated), "--sample-id", "0"], truncated),
        (["score", "--predictions", str(preds), "--references", str(dataset)], preds),
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{bad}, line" in err
        assert "Traceback" not in err


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
    capsys.readouterr()
