"""Batch driver: generate datasets, score predictions, inspect records.

Subcommands:

    generate  read a config, emit train/valid/test JSONL files and a
              stats report
    score     exact-match error of a predictions file against a
              reference dataset
    inspect   human-readable dump of one record
    validate  integrity checks over an emitted dataset

Exit codes: 0 success, 1 config or validation error, 2 generation
capacity exhausted, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import struct
import sys
from contextlib import ExitStack
from functools import partial
from multiprocessing import Lock, Pool, SimpleQueue
from pathlib import Path

from . import oracle
from .config import ConfigError, GenConfig, apply_overrides, load_config
from .dynamics import run_episode
from .querygen import UnanswerableSceneError, parse_form, sample_query
from .scenegen import SceneCapacityError
from .serialize import (
    DatasetIOError,
    Sample,
    encode_record,
    read_jsonl,
    read_relational_context,
    read_samples,
    relational_ids,
    render_relational_context,
    render_text_context,
)

SPLITS = ("train", "valid", "test")


class GenerationCapacityError(RuntimeError):
    """A sample could not be generated within the scene retry budget."""


class AlignmentError(ValueError):
    """Prediction and reference files disagree on sample ids."""


def _derive_seed(seed: int, index: int, extra: int, purpose: bytes) -> int:
    digest = hashlib.blake2b(
        struct.pack("<qqq", seed, index, extra),
        digest_size=8,
        person=purpose.ljust(16, b"\0"),
    ).digest()
    return int.from_bytes(digest, "little")


def split_of(config: GenConfig, index: int) -> str:
    """Deterministic split assignment by hashed sample index."""
    u = _derive_seed(config.seed, index, 0, b"split") / 2.0**64
    if u < config.split_train:
        return "train"
    if u < config.split_train + config.split_valid:
        return "valid"
    return "test"


def generate_sample(config: GenConfig, index: int, config_digest: str | None = None) -> Sample:
    """Run the full pipeline for one sample index.

    Every random draw derives from (config.seed, index, scene attempt),
    so any index regenerates independently of the rest of the run.
    config_digest is config.digest(), computed here when not given; a
    run passes the one it computed at its start, so every record of the
    run carries the same digest and the pool files are hashed once.
    """
    if config_digest is None:
        config_digest = config.digest()
    for attempt in range(config.scene_retries):
        sample_seed = _derive_seed(config.seed, index, attempt, b"scene")
        rng = random.Random(sample_seed)
        try:
            world, snapshots = run_episode(config, rng)
        except SceneCapacityError:
            continue
        try:
            form, query_text = sample_query(snapshots, config, rng, world.action_log)
        except UnanswerableSceneError:
            continue
        answer = oracle.execute(form, snapshots, world.action_log)
        context_text = render_text_context(snapshots, rng)
        context_relational = render_relational_context(snapshots)
        return Sample(
            sample_id=index,
            query_class=form.query_class,
            context_text=context_text,
            context_relational=context_relational,
            query_text=query_text,
            query_logical_form=form.to_dict(),
            answer_text=answer.text,
            answer_memids=list(answer.relevant_memids),
            generation_metadata={
                "seed": config.seed,
                "sample_index": index,
                "sample_seed": sample_seed,
                "scene_attempt": attempt,
                "config_digest": config_digest,
                "action_log": [rec.to_json() for rec in world.action_log],
            },
        )
    raise GenerationCapacityError(
        f"sample {index}: no answerable scene in {config.scene_retries} retries"
    )


def _encoded_sample(
    config: GenConfig, config_digest: str, index: int
) -> tuple[int, str, str, int, str]:
    """(index, query class, return type, scene attempt, JSONL line) for one index.

    Runs in the worker, so the parent receives a finished line instead of
    a Sample to unpickle and encode.
    """
    sample = generate_sample(config, index, config_digest)
    return (
        index,
        sample.query_class,
        sample.query_logical_form["return_type"],
        sample.generation_metadata["scene_attempt"],
        encode_record(sample.to_record()),
    )


def _worker_cpu_sets(workers: int) -> list[set[int]] | None:
    """Disjoint sets of this process's CPUs, one per pool worker, or None
    where the platform cannot bind a process or there are fewer CPUs than workers."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if workers > len(cpus):
        return None
    return [set(cpus[i::workers]) for i in range(workers)]


def _bind_worker(cpu_sets, lock) -> None:
    """Pool initializer: bind this worker to the next CPU set in the
    `cpu_sets` SimpleQueue, taken under `lock`.

    A worker that finds none left (one started to replace a dead worker)
    stays unbound.
    """
    with lock:
        cpus = None if cpu_sets.empty() else cpu_sets.get()
    if cpus is not None:
        os.sched_setaffinity(0, cpus)


def _open_pool(workers: int):
    """A pool whose workers run on disjoint CPUs.

    Left to itself the scheduler often wakes both workers on the parent's
    CPU and leaves them sharing it, with another CPU idle, for a whole
    short run; that halves the throughput of some runs and not of others.
    """
    cpu_sets = _worker_cpu_sets(workers)
    if cpu_sets is None:
        return Pool(workers)
    unclaimed = SimpleQueue()
    for cpus in cpu_sets:
        unclaimed.put(cpus)
    return Pool(workers, initializer=_bind_worker, initargs=(unclaimed, Lock()))


def generate(config: GenConfig, workers: int = 1) -> dict:
    """Generate config.n_samples records across splits; returns the stats report.

    With workers > 1 a process pool, its workers bound to disjoint CPUs
    where the platform allows, generates the samples and each worker
    returns its records as encoded JSON lines; the parent only assigns
    splits, writes the lines and counts the stats. Besides the split
    files, out_dir gets stats.json and config.cfg (the effective config,
    loadable by `validate --config`; a config whose values would not read
    back from it is refused up front). All of them are written to
    temporary files in out_dir and renamed into place after the last
    record, so a failed run leaves none of them.
    """
    config.validate()
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ConfigError(f"workers: must be between 1 and the CPU count {cpus}, got {workers}")
    # config.cfg must load back to this config, or it would regenerate something else
    config.check_round_trip()
    out_dir = Path(config.out_dir)
    names = [f"{split}.jsonl" for split in SPLITS] + ["stats.json", "config.cfg"]
    temps = {name: out_dir / f".{name}.tmp" for name in names}
    stats = {
        "n_samples": 0,
        "by_class": {},
        "by_return_type": {},
        "by_split": {split: 0 for split in SPLITS},
        "scene_regenerations": 0,
        "config_digest": config.digest(),
        "seed": config.seed,
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DatasetIOError(f"cannot create output directory {out_dir}: {exc}") from exc
    try:
        with ExitStack() as stack:
            try:
                handles = {
                    split: stack.enter_context(
                        temps[f"{split}.jsonl"].open("w", encoding="utf-8")
                    )
                    for split in SPLITS
                }
            except OSError as exc:
                raise DatasetIOError(f"cannot open output files in {out_dir}: {exc}") from exc
            work = partial(_encoded_sample, config, stats["config_digest"])
            indices = range(config.n_samples)
            if workers > 1:
                rows = stack.enter_context(_open_pool(workers)).imap(work, indices, chunksize=16)
            else:
                rows = map(work, indices)
            for index, query_class, return_type, attempt, line in rows:
                split = split_of(config, index)
                handles[split].write(line)
                stats["n_samples"] += 1
                stats["by_split"][split] += 1
                stats["by_class"][query_class] = stats["by_class"].get(query_class, 0) + 1
                stats["by_return_type"][return_type] = (
                    stats["by_return_type"].get(return_type, 0) + 1
                )
                stats["scene_regenerations"] += attempt
        try:
            temps["stats.json"].write_text(
                json.dumps(stats, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
            temps["config.cfg"].write_text(config.canonical_text() + "\n", encoding="utf-8")
            for name, path in temps.items():
                os.replace(path, out_dir / name)
        except OSError as exc:
            raise DatasetIOError(f"cannot write outputs in {out_dir}: {exc}") from exc
    finally:
        for path in temps.values():
            path.unlink(missing_ok=True)
    return stats


# --- scoring -----------------------------------------------------------------


def _normalize(text: str) -> str:
    return " ".join(text.split())


def score(predictions_path: str | Path, references_path: str | Path) -> dict:
    """Exact-match error of predictions against reference answers.

    Predictions are JSONL records with sample_id and answer_text.
    Token sequences are compared after whitespace normalization; the
    report includes a per-class breakdown.
    """
    references = read_samples(references_path)
    predictions = dict(
        read_jsonl(predictions_path, lambda record: (record["sample_id"], record["answer_text"]))
    )

    ref_ids = {s.sample_id for s in references}
    missing = sorted(ref_ids - set(predictions))
    extra = sorted(set(predictions) - ref_ids)
    if missing or extra:
        raise AlignmentError(
            f"sample id mismatch: missing from predictions {missing[:10]}, "
            f"unknown ids {extra[:10]}"
        )

    per_class: dict[str, dict] = {}
    wrong_total = 0
    for sample in references:
        wrong = int(_normalize(predictions[sample.sample_id]) != _normalize(sample.answer_text))
        wrong_total += wrong
        bucket = per_class.setdefault(sample.query_class, {"n": 0, "wrong": 0})
        bucket["n"] += 1
        bucket["wrong"] += wrong
    n = len(references)
    report = {
        "n": n,
        "exact_match_error": (wrong_total / n) if n else 0.0,
        "by_class": {
            cls: {"n": b["n"], "exact_match_error": b["wrong"] / b["n"]}
            for cls, b in sorted(per_class.items())
        },
    }
    return report


# --- inspection and validation --------------------------------------------------


def _find_sample(path: str | Path, sample_id: int) -> Sample:
    for sample in read_samples(path):
        if sample.sample_id == sample_id:
            return sample
    raise KeyError(f"sample id {sample_id} not found in {path}")


def format_dump(sample: Sample) -> str:
    meta = sample.generation_metadata
    parts = [
        f"sample {sample.sample_id} (class {sample.query_class})",
        f"query: {sample.query_text}",
        "logical form:",
        json.dumps(sample.query_logical_form, sort_keys=True, indent=2),
        f"answer: {sample.answer_text}",
        f"relevant memids: {', '.join(sample.answer_memids)}",
        (
            f"regeneration: seed={meta['seed']} index={meta['sample_index']} "
            f"sample_seed={meta['sample_seed']} config_digest={meta['config_digest']}"
        ),
        "context (text):",
        sample.context_text,
    ]
    return "\n".join(parts)


def validate_dataset(path: str | Path, config: GenConfig | None = None) -> list[str]:
    """Integrity checks for every record; returns a list of problems."""
    problems = []
    config_digest = config.digest() if config is not None else None
    for sample in read_samples(path):
        label = f"sample {sample.sample_id}"
        if sample.format_version != 1:
            problems.append(f"{label}: unknown format_version {sample.format_version}")
        try:
            reparsed = parse_form(sample.query_text)
            if reparsed.to_dict() != sample.query_logical_form:
                problems.append(f"{label}: query text does not match logical form")
        except Exception as exc:
            problems.append(f"{label}: query text failed to parse: {exc}")
        ids = relational_ids(sample.context_relational)
        dangling = set(sample.answer_memids) - ids
        if dangling:
            problems.append(f"{label}: answer memids missing from context: {sorted(dangling)}")
        if not sample.answer_text:
            problems.append(f"{label}: empty answer text")
        try:
            read_relational_context(sample.context_relational)
        except Exception as exc:
            problems.append(f"{label}: relational context unreadable: {exc}")
        if config is not None:
            regenerated = generate_sample(config, sample.sample_id, config_digest)
            if regenerated.to_record() != sample.to_record():
                problems.append(f"{label}: does not match regeneration from config")
    return problems


# --- entry point -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to the config exit code
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gridqa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset from a config")
    gen.add_argument("--config", help="flat key=value config file")
    gen.add_argument("--preset", choices=["default", "properties"], default="default")
    gen.add_argument("--out", help="output directory (overrides out_dir)")
    gen.add_argument("--n-samples", type=int, help="overrides n_samples")
    gen.add_argument("--seed", type=int, help="overrides seed")
    gen.add_argument("--workers", type=int, default=1)
    gen.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )

    sc = sub.add_parser("score", help="exact-match error for predictions")
    sc.add_argument("--predictions", required=True)
    sc.add_argument("--references", required=True)

    ins = sub.add_parser("inspect", help="dump one record")
    ins.add_argument("--dataset", required=True)
    ins.add_argument("--sample-id", type=int, required=True)

    val = sub.add_parser("validate", help="integrity-check a dataset file")
    val.add_argument("--dataset", required=True)
    val.add_argument("--config", help="also verify records against regeneration")
    return parser


def _config_from_args(args) -> GenConfig:
    if args.config:
        config = load_config(args.config)
    elif args.preset == "properties":
        config = GenConfig.properties_mode()
    else:
        config = GenConfig()
    pairs = list(args.overrides)
    if args.out is not None:
        pairs.append(f"out_dir={args.out}")
    if args.n_samples is not None:
        pairs.append(f"n_samples={args.n_samples}")
    if args.seed is not None:
        pairs.append(f"seed={args.seed}")
    return apply_overrides(config, pairs)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            config = _config_from_args(args)
            stats = generate(config, workers=args.workers)
            print(json.dumps(stats, sort_keys=True, indent=2))
            return 0
        if args.command == "score":
            report = score(args.predictions, args.references)
            print(json.dumps(report, sort_keys=True, indent=2))
            return 0
        if args.command == "inspect":
            try:
                sample = _find_sample(args.dataset, args.sample_id)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 1
            print(format_dump(sample))
            return 0
        if args.command == "validate":
            config = load_config(args.config) if args.config else None
            problems = validate_dataset(args.dataset, config)
            if problems:
                for problem in problems:
                    print(problem, file=sys.stderr)
                return 1
            print("ok")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (GenerationCapacityError, SceneCapacityError) as exc:
        print(f"generation capacity error: {exc}", file=sys.stderr)
        return 2
    except (DatasetIOError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
